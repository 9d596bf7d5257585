"""Sparse multivariate polynomials over QQ with a two-block variable layout.

The variable list of a ring splits into a geometric block (the x-variables)
and a deformation-parameter block (the t-variables).  Monomials are compared
by graded reverse lexicographic order on the x-block, ties broken by graded
reverse lexicographic order on the t-block, so that normal forms prefer
parameter-free representatives.  Orders of vanishing in the parameters
("t-order") are tracked exactly; they drive the power-series bookkeeping of
the deformation module.

Coefficients are exact rationals: `int` when integral, else `Fraction`.
Every division of a coefficient goes through `ratio`, so none is ever a
`float`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add, le, sub

from .errors import GradingError, ParseError, RingMismatchError

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class RingSpec:
    """An ordered polynomial ring QQ[x-block][t-block], optionally multigraded.

    Degrees, when present, are integer tuples of a common rank; the grading is
    required to be componentwise nonnegative and nonzero for each variable,
    which keeps all degree-piece enumerations finite.
    """

    __slots__ = ("x_vars", "t_vars", "x_degrees", "t_degrees", "_index",
                 "_key_memo", "_degree_memo")

    def __init__(self, x_vars, t_vars=(), x_degrees=None, t_degrees=None):
        self.x_vars = tuple(x_vars)
        self.t_vars = tuple(t_vars)
        names = self.x_vars + self.t_vars
        if len(set(names)) != len(names):
            raise GradingError("duplicate variable names: %r" % (names,))
        for name in names:
            if not _NAME_RE.match(name):
                raise GradingError("bad variable name %r" % name)
        if self.t_vars and x_degrees is not None and t_degrees is None:
            raise GradingError("graded ring needs degrees for the t-block too")
        if x_degrees is None:
            self.x_degrees = None
            self.t_degrees = None
        else:
            self.x_degrees = tuple(tuple(int(c) for c in d) for d in x_degrees)
            self.t_degrees = tuple(tuple(int(c) for c in d) for d in (t_degrees or ()))
            if len(self.x_degrees) != len(self.x_vars):
                raise GradingError("need one degree per x-variable")
            if len(self.t_degrees) != len(self.t_vars):
                raise GradingError("need one degree per t-variable")
            ranks = {len(d) for d in self.x_degrees + self.t_degrees}
            if len(ranks) > 1:
                raise GradingError("degree tuples of mixed rank: %r" % (ranks,))
            for v, d in zip(self.x_vars, self.x_degrees):
                if any(c < 0 for c in d) or not any(d):
                    raise GradingError(
                        "variable %s has non-positive degree %r" % (v, d))
        self._index = {n: i for i, n in enumerate(names)}
        self._key_memo = {}
        self._degree_memo = {}

    # -- basic shape ----------------------------------------------------

    @property
    def nx(self):
        return len(self.x_vars)

    @property
    def nt(self):
        return len(self.t_vars)

    @property
    def nvars(self):
        return len(self.x_vars) + len(self.t_vars)

    @property
    def var_names(self):
        return self.x_vars + self.t_vars

    @property
    def is_graded(self):
        return self.x_degrees is not None

    @property
    def grading_rank(self):
        if self.x_degrees is None:
            return None
        if self.x_degrees:
            return len(self.x_degrees[0])
        if self.t_degrees:
            return len(self.t_degrees[0])
        return 1

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ParseError("unknown variable %r" % name) from None

    def __eq__(self, other):
        return (
            isinstance(other, RingSpec)
            and self.x_vars == other.x_vars
            and self.t_vars == other.t_vars
            and self.x_degrees == other.x_degrees
            and self.t_degrees == other.t_degrees
        )

    def __hash__(self):
        return hash((self.x_vars, self.t_vars, self.x_degrees, self.t_degrees))

    def __repr__(self):
        bits = "QQ[%s]" % ", ".join(self.x_vars)
        if self.t_vars:
            bits += "[%s]" % ", ".join(self.t_vars)
        return bits

    # -- monomial helpers ----------------------------------------------

    def zero_mono(self):
        return (0,) * self.nvars

    def monomial_degree(self, mono):
        """Multidegree of a monomial as a tuple (graded rings only)."""
        if self.x_degrees is None:
            raise GradingError("ring %r has no grading" % (self,))
        rank = self.grading_rank
        total = [0] * rank
        degs = self.x_degrees + self.t_degrees
        for e, d in zip(mono, degs):
            if e:
                for i in range(rank):
                    total[i] += e * d[i]
        return tuple(total)

    def monomial_key(self, mono):
        """Sort key: grevlex on the x-block, refined by grevlex on the t-block."""
        key = self._key_memo.get(mono)
        if key is None:
            nx = self.nx
            xm, tm = mono[:nx], mono[nx:]
            key = (
                sum(xm),
                tuple(-e for e in reversed(xm)),
                sum(tm),
                tuple(-e for e in reversed(tm)),
            )
            if len(self._key_memo) < 1_000_000:
                self._key_memo[mono] = key
        return key

    def descending_key(self, mono):
        """Sort key for largest first: monomial_key negated componentwise."""
        nx = self.nx
        xm, tm = mono[:nx], mono[nx:]
        return (-sum(xm), xm[::-1], -sum(tm), tm[::-1])


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    """Does monomial a divide monomial b?"""
    return all(map(le, a, b))


def mono_div(a, b):
    """a / b, assuming b divides a."""
    return tuple(map(sub, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def ratio(a, b):
    """a / b as an exact rational: `int` when integral, else `Fraction`."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _exact(c):
    """A coefficient as an exact rational (see `ratio`).  Floats are
    refused: their binary value is seldom the one meant."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError("float coefficient %r; use an int or a Fraction" % (c,))
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def mul_into(acc, a, b, sign=1):
    """acc += sign * a * b for monomial dicts whose coefficients are exact
    rationals: `int` when integral, else `Fraction`."""
    for m1, c1 in a.items():
        c1 = sign * c1
        for m2, c2 in b.items():
            mm = mono_mul(m1, m2)
            v = acc.get(mm, 0) + c1 * c2
            if v:
                acc[mm] = v
            else:
                acc.pop(mm, None)


def add_into(acc, b, sign=1):
    """acc += sign * b for dicts whose coefficients are exact rationals:
    `int` when integral, else `Fraction`."""
    for t, c in b.items():
        v = acc.get(t, 0) + sign * c
        if v:
            acc[t] = v
        else:
            acc.pop(t, None)


class Polynomial:
    """Immutable sparse polynomial: dict of exponent tuple -> coefficient.

    Coefficients are exact rationals: `int` when integral, else `Fraction`.
    """

    __slots__ = ("ring", "_terms", "_sorted")

    def __init__(self, ring, terms):
        self.ring = ring
        clean = {}
        for mono, coeff in terms.items():
            if type(coeff) is not int:
                coeff = _exact(coeff)
            if coeff:
                clean[mono] = coeff
        self._terms = clean
        self._sorted = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def one(cls, ring):
        return cls(ring, {ring.zero_mono(): 1})

    @classmethod
    def constant(cls, ring, value):
        return cls(ring, {ring.zero_mono(): _exact(value)})

    @classmethod
    def variable(cls, ring, name):
        i = ring.index(name)
        mono = tuple(1 if j == i else 0 for j in range(ring.nvars))
        return cls(ring, {mono: 1})

    @classmethod
    def from_monomial(cls, ring, mono, coeff=1):
        return cls(ring, {tuple(mono): coeff})

    # -- inspection -----------------------------------------------------

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    @property
    def terms_dict(self):
        return self._terms

    def sorted_terms(self):
        """Terms as (monomial, coefficient), largest monomial first."""
        if self._sorted is None:
            key = self.ring.monomial_key
            self._sorted = tuple(
                (m, self._terms[m])
                for m in sorted(self._terms, key=key, reverse=True)
            )
        return self._sorted

    def leading_term(self):
        """(monomial, coefficient) of the largest term; None for zero."""
        if not self._terms:
            return None
        return self.sorted_terms()[0]

    def coefficient(self, mono):
        return self._terms.get(tuple(mono), 0)

    def constant_term(self):
        return self._terms.get(self.ring.zero_mono(), 0)

    def t_order(self):
        """Smallest total t-degree among terms; None for zero."""
        if not self._terms:
            return None
        nx = self.ring.nx
        return min(sum(m[nx:]) for m in self._terms)

    def t_degree(self):
        """Largest total t-degree among terms; None for zero."""
        if not self._terms:
            return None
        nx = self.ring.nx
        return max(sum(m[nx:]) for m in self._terms)

    def is_t_homogeneous(self, order=None):
        if not self._terms:
            return True
        nx = self.ring.nx
        orders = {sum(m[nx:]) for m in self._terms}
        if len(orders) > 1:
            return False
        return order is None or orders == {order}

    def multi_degree(self):
        """Common multidegree of all terms, or None if not homogeneous."""
        degs = {self.ring.monomial_degree(m) for m in self._terms}
        if len(degs) != 1:
            return None
        return degs.pop()

    def is_homogeneous(self):
        return len(self._terms) <= 1 or self.multi_degree() is not None

    # -- arithmetic -----------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("%r vs %r" % (self.ring, other.ring))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        self._check(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.ring)
            q = _exact(other)
            return Polynomial(self.ring, {m: c * q for m, c in self._terms.items()})
        self._check(other)
        if len(self._terms) > len(other._terms):
            self, other = other, self
        terms = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = mono_mul(m1, m2)
                s = terms.get(m, 0) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.one(self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        return hash((self.ring, frozenset(self._terms.items())))

    # -- calculus and truncation ---------------------------------------

    def partial_derivative(self, var):
        """d/d(var); var is a name or an index into the full variable list."""
        i = self.ring.index(var) if isinstance(var, str) else var
        terms = {}
        for m, c in self._terms.items():
            e = m[i]
            if e:
                dm = m[:i] + (e - 1,) + m[i + 1:]
                terms[dm] = terms.get(dm, 0) + c * e
        return Polynomial(self.ring, terms)

    def t_truncate(self, order):
        """Drop all terms of t-order > `order` (truncation mod m^(order+1))."""
        nx = self.ring.nx
        return Polynomial(
            self.ring,
            {m: c for m, c in self._terms.items() if sum(m[nx:]) <= order},
        )

    def t_piece(self, order):
        """The part of exact t-order `order`."""
        nx = self.ring.nx
        return Polynomial(
            self.ring,
            {m: c for m, c in self._terms.items() if sum(m[nx:]) == order},
        )

    def substitute(self, values):
        """Evaluate some variables at rational values; returns a polynomial.

        `values` maps variable names to ints or Fractions.  Unmentioned
        variables survive.
        """
        ring = self.ring
        idx = {ring.index(n): _exact(v) for n, v in values.items()}
        terms = {}
        for m, c in self._terms.items():
            coeff = c
            new = list(m)
            for i, v in idx.items():
                e = m[i]
                if e:
                    coeff *= v ** e
                new[i] = 0
            if coeff:
                key = tuple(new)
                s = terms.get(key, 0) + coeff
                if s:
                    terms[key] = s
                else:
                    del terms[key]
        return Polynomial(ring, terms)

    def map_ring(self, target, rename=None):
        """Move the polynomial into `target`, matching variables by name.

        Raises if a variable with a nonzero exponent has no image.  Used both
        to extend a ring with deformation parameters and to restrict a pure
        parameter polynomial to a parameter-only ring.
        """
        rename = rename or {}
        ring = self.ring
        images = []
        for name in ring.var_names:
            name = rename.get(name, name)
            images.append(target._index.get(name))
        terms = {}
        for m, c in self._terms.items():
            new = [0] * target.nvars
            for i, e in enumerate(m):
                if not e:
                    continue
                j = images[i]
                if j is None:
                    raise RingMismatchError(
                        "variable %r has no image in %r" % (ring.var_names[i], target))
                new[j] += e
            key = tuple(new)
            s = terms.get(key, 0) + c
            if s:
                terms[key] = s
            else:
                del terms[key]
        return Polynomial(target, terms)

    # -- printing -------------------------------------------------------

    def __repr__(self):
        return format_expr(self)

    def __str__(self):
        return format_expr(self)


def extend_with_parameters(ring, count, degrees=None, prefix="t"):
    """A new RingSpec with `count` fresh t-variables appended.

    Parameter names are prefix1..prefixN, switching prefix deterministically
    if a name would collide with an existing variable.
    """
    existing = set(ring.var_names)
    for p in (prefix, prefix + "_", prefix * 2, "prm"):
        names = ["%s%d" % (p, i + 1) for i in range(count)]
        if not existing.intersection(names):
            break
    else:
        raise GradingError("cannot find fresh parameter names")
    if ring.is_graded:
        if degrees is None:
            raise GradingError("graded ring extension needs parameter degrees")
        t_degrees = ring.t_degrees + tuple(tuple(d) for d in degrees)
    else:
        t_degrees = None
    return (
        RingSpec(
            ring.x_vars,
            ring.t_vars + tuple(names),
            ring.x_degrees,
            t_degrees,
        ),
        tuple(names),
    )


def parameter_ring(ring):
    """A ring whose x-block is the t-block of `ring` (for base-space work)."""
    if not ring.t_vars:
        raise GradingError("ring %r has no parameters" % (ring,))
    if ring.is_graded:
        degs = ring.t_degrees
        if any(not any(d) for d in degs):
            # Degree-zero parameters: the base ring is effectively ungraded
            # in its own right; fall back to the standard grading.
            degs = tuple((1,) for _ in ring.t_vars)
        return RingSpec(ring.t_vars, (), degs, ())
    return RingSpec(ring.t_vars, ())


# ---------------------------------------------------------------------------
# expression grammar:  integers, '/' rationals, identifiers, + - * ^, parens;
# '*' is mandatory between factors and '^' takes a nonnegative integer literal.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError("unexpected character %r" % text[bad_at], position=bad_at)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, ring):
        self.tokens = tokens
        self.ring = ring
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ParseError("expected %r" % op, position=pos)

    def parse_expr(self):
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            self.next()
            negate = value == "-"
        result = self.parse_term()
        if negate:
            result = -result
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                term = self.parse_term()
                result = result - term if value == "-" else result + term
            else:
                return result

    def parse_term(self):
        result = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.next()
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self):
        base = self.parse_base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.next()
            kind, value, pos = self.next()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer",
                                 position=pos)
            base = base ** int(value)
        return base

    def parse_base(self):
        kind, value, pos = self.next()
        if kind == "int":
            num = int(value)
            kind2, value2, _ = self.peek()
            if kind2 == "op" and value2 == "/":
                self.next()
                kind3, value3, pos3 = self.next()
                if kind3 != "int":
                    raise ParseError("expected integer denominator", position=pos3)
                den = int(value3)
                if den == 0:
                    raise ParseError("zero denominator", position=pos3)
                return Polynomial.constant(self.ring, ratio(num, den))
            return Polynomial.constant(self.ring, num)
        if kind == "name":
            if value not in self.ring._index:
                raise ParseError("unknown variable %r" % value, position=pos)
            return Polynomial.variable(self.ring, value)
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind == "op" and value == "-":
            return -self.parse_factor()
        raise ParseError("unexpected %s" % (value or "end of input"), position=pos)


def parse_expr(text, ring):
    """Parse an expression into a Polynomial over `ring`."""
    parser = _Parser(_tokenize(text), ring)
    result = parser.parse_expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input %r" % value, position=pos)
    return result


def _format_coeff(c):
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def format_expr(p, compact=False):
    """Canonical string form; round-trips through parse_expr.

    With compact=True no spaces are emitted, so the result can sit in a
    whitespace-separated matrix cell.
    """
    if p.is_zero():
        return "0"
    names = p.ring.var_names
    minus, plus = ("-", "+") if compact else (" - ", " + ")
    pieces = []
    for mono, coeff in p.sorted_terms():
        factors = [
            "%s^%d" % (names[i], e) if e > 1 else names[i]
            for i, e in enumerate(mono)
            if e
        ]
        mag = abs(coeff)
        if not factors:
            body = _format_coeff(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_format_coeff(mag)] + factors)
        if not pieces:
            pieces.append(("-" if coeff < 0 else "") + body)
        else:
            pieces.append((minus if coeff < 0 else plus) + body)
    return "".join(pieces)
