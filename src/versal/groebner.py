"""Gröbner machinery for submodules of free modules over the two-block ring.

The engine works on integer-scaled sparse vectors ("ivecs": dicts mapping
a term (position, word) to int, the word a packed monomial of
`polyring`) under a term-over-position order extending the ring's
monomial order.  Monomials are packed once, when a column enters, and
unpacked once, when a result leaves; in between a product of monomials is
an addition of words.  Every input column enters through one path
(`_Engine.add_column`, which clears denominators and records the column's
unit expression), and every module reduction -- of S-pairs, of tails during
interreduction, of normal forms, and of the lift's series columns in
`deformation` -- runs through one fraction-free loop (`_Engine.reduce_full`)
with an explicit scale factor, which takes its next term from a heap-ordered
`_TermQueue`.  The engine has four options: `track` carries each element's
expression in the inputs, which powers normal forms with cofactors and
matrix quotient lifts; `record_syzygies` also records the syzygies of the
inputs; `rep_window` keeps only the first inputs in those expressions;
`eliminate` sets up an elimination order.

Module pairs are only formed between elements with the same leading position.
The product criterion is applied only to pairs of elements concentrated in a
single position (it is false for general module elements), and when syzygies
are being recorded such a skipped pair contributes its explicit Koszul
syzygy; the chain criterion is off exactly when syzygies are recorded, so
that the recorded S-pair reductions generate the whole syzygy module.

With an elimination block, positions below a bound rank above every other
position, with term-over-position inside each block.  That is how module
preimages {a : U a in W} are computed (`_preimage_basis`): no syzygies are
recorded there, so the chain criterion stays on.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product
from math import gcd

from .errors import FiniteDimError, GradingError, LiftError, VersalError
from .exactla import echelon_insert, integer_row
from .polyring import Polynomial, mono_divides, mul_into, ratio

# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class PolyMatrix:
    """Matrix of polynomials with optional row/column multidegree twists.

    Degree convention: when both twists are present, entry (i, j) of a
    homogeneous matrix has multidegree col_degrees[j] - row_degrees[i].
    """

    __slots__ = ("ring", "rows", "cols", "entries", "row_degrees", "col_degrees")

    def __init__(self, ring, entries, row_degrees=None, col_degrees=None,
                 cols=None):
        self.ring = ring
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        if self.rows:
            self.cols = len(self.entries[0])
        elif cols is not None:
            self.cols = cols
        elif col_degrees is not None:
            self.cols = len(col_degrees)
        else:
            self.cols = 0
        for row in self.entries:
            if len(row) != self.cols:
                raise VersalError("ragged matrix rows")
        self.row_degrees = tuple(tuple(d) for d in row_degrees) if row_degrees is not None else None
        self.col_degrees = tuple(tuple(d) for d in col_degrees) if col_degrees is not None else None
        if self.row_degrees is not None and len(self.row_degrees) != self.rows:
            raise VersalError("row degree count mismatch")
        if self.col_degrees is not None and len(self.col_degrees) != self.cols:
            raise VersalError("column degree count mismatch")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ring, rows, cols, row_degrees=None, col_degrees=None):
        z = Polynomial.zero(ring)
        return cls(ring, [[z] * cols for _ in range(rows)], row_degrees,
                   col_degrees, cols=cols)

    @classmethod
    def from_columns(cls, ring, nrows, columns, row_degrees=None, col_degrees=None):
        z = Polynomial.zero(ring)
        entries = [[z] * len(columns) for _ in range(nrows)]
        for j, col in enumerate(columns):
            if len(col) != nrows:
                raise VersalError("column length mismatch")
            for i, p in enumerate(col):
                entries[i][j] = p
        return cls(ring, entries, row_degrees, col_degrees, cols=len(columns))

    @classmethod
    def row_vector(cls, ring, polys, col_degrees=None):
        rd = (((0,) * ring.grading_rank),) if (col_degrees is not None and ring.is_graded) else None
        return cls(ring, [list(polys)], rd, col_degrees)

    @classmethod
    def identity(cls, ring, n, degrees=None):
        z = Polynomial.zero(ring)
        one = Polynomial.one(ring)
        entries = [[one if i == j else z for j in range(n)] for i in range(n)]
        return cls(ring, entries, degrees, degrees)

    # -- access ---------------------------------------------------------

    def __getitem__(self, rc):
        return self.entries[rc[0]][rc[1]]

    def column(self, j):
        return [self.entries[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def is_zero(self):
        return all(p.is_zero() for row in self.entries for p in row)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise VersalError("shape mismatch in matrix sum")
        return PolyMatrix(
            self.ring,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            self.row_degrees or other.row_degrees,
            self.col_degrees or other.col_degrees,
            cols=self.cols,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PolyMatrix(
            self.ring,
            [[-a for a in row] for row in self.entries],
            self.row_degrees,
            self.col_degrees,
            cols=self.cols,
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            return PolyMatrix(
                self.ring,
                [[p * other for p in row] for row in self.entries],
                self.row_degrees,
                self.col_degrees,
                cols=self.cols,
            )
        if self.cols != other.rows:
            raise VersalError(
                "shape mismatch %dx%d * %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        zero = Polynomial.zero(self.ring)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    a = self.entries[i][k]
                    if a.is_zero():
                        continue
                    b = other.entries[k][j]
                    if not b.is_zero():
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return PolyMatrix(self.ring, out, self.row_degrees, other.col_degrees,
                          cols=other.cols)

    def transpose(self):
        entries = [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        neg = lambda degs: tuple(tuple(-c for c in d) for d in degs) if degs is not None else None
        return PolyMatrix(self.ring, entries, neg(self.col_degrees),
                          neg(self.row_degrees), cols=self.rows)

    def hstack(self, other):
        if self.rows != other.rows:
            raise VersalError("row mismatch in hstack")
        entries = [list(r1) + list(r2) for r1, r2 in zip(self.entries, other.entries)]
        cd = None
        if self.col_degrees is not None and other.col_degrees is not None:
            cd = self.col_degrees + other.col_degrees
        return PolyMatrix(self.ring, entries, self.row_degrees, cd,
                          cols=self.cols + other.cols)

    def vstack(self, other):
        if self.cols != other.cols:
            raise VersalError("column mismatch in vstack")
        entries = list(self.entries) + list(other.entries)
        rd = None
        if self.row_degrees is not None and other.row_degrees is not None:
            rd = self.row_degrees + other.row_degrees
        return PolyMatrix(self.ring, entries, rd, self.col_degrees,
                          cols=self.cols)

    def map_entries(self, fn, row_degrees=None, col_degrees=None):
        return PolyMatrix(
            self.ring,
            [[fn(p) for p in row] for row in self.entries],
            row_degrees if row_degrees is not None else self.row_degrees,
            col_degrees if col_degrees is not None else self.col_degrees,
            cols=self.cols,
        )

    def promote(self, target_ring):
        entries = [[p.map_ring(target_ring) for p in row] for row in self.entries]
        return PolyMatrix(target_ring, entries, self.row_degrees,
                          self.col_degrees, cols=self.cols)

    def t_piece(self, order):
        return self.map_entries(lambda p: p.t_piece(order))

    def t_truncate(self, order):
        return self.map_entries(lambda p: p.t_truncate(order))

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
            and self.row_degrees == other.row_degrees
            and self.col_degrees == other.col_degrees
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries,
                     self.row_degrees, self.col_degrees))

    def __repr__(self):
        return "PolyMatrix(%dx%d)" % (self.rows, self.cols)


# ---------------------------------------------------------------------------
# internal integer-vector engine
# ---------------------------------------------------------------------------


def _ivec_content(vec):
    g = 0
    for c in vec.values():
        g = gcd(g, c)
        if g == 1:
            return 1
    return g or 1


class _TermQueue:
    """A term dict ``{(pos, word): coeff}`` taken largest term first.

    Terms sit in a heap under a descending int term key (the least key
    belongs to the largest term), computed once per push rather than once
    per comparison as max() over a dict would.  `coeffs` holds the live
    coefficients; callers may scale them in place.  A term whose
    coefficient cancels stays in the heap and is skipped when it surfaces.
    This lazy deletion is sound because callers only add terms below the
    one they last took, so a taken term never comes back.
    """

    __slots__ = ("coeffs", "heap", "key")

    def __init__(self, key, col):
        self.key = key
        self.coeffs = {t: c for t, c in col.items() if c}
        self.heap = [(key(t), t) for t in self.coeffs]
        heapify(self.heap)

    def pop(self):
        """Remove the largest term; returns (term, coeff), or None if empty."""
        heap, coeffs = self.heap, self.coeffs
        while heap:
            term = heappop(heap)[1]
            coeff = coeffs.pop(term, None)
            if coeff is not None:
                return term, coeff
        return None

    def add(self, term, c):
        """Add c to the coefficient of a term below the last one taken."""
        coeffs = self.coeffs
        v = coeffs.get(term)
        if v is None:
            if c:
                coeffs[term] = c
                heappush(self.heap, (self.key(term), term))
            return
        v += c
        if v:
            coeffs[term] = v
        else:
            del coeffs[term]


class _Element:
    """A basis element: its ivec, leading term, the exponent word of the
    leading monomial (for divisibility tests), leading coefficient, the
    position it is concentrated in (or None) and its expression."""

    __slots__ = ("vec", "lt", "lexp", "lc", "conc", "rep")

    def __init__(self, vec, lt, lexp, lc, conc, rep):
        self.vec = vec
        self.lt = lt
        self.lexp = lexp
        self.lc = lc
        self.conc = conc
        self.rep = rep


class _Engine:
    """Buchberger completion over ivecs with optional bookkeeping.

    Terms are (position, word) and expressions ``{input: {word: coeff}}``.
    Every input column enters through `add_column`, and every reduction
    (S-pairs, interreduction, normal forms, and the lift's reductions
    through `deformation._XBasis`) goes through `reduce_full`: one
    fraction-free loop that takes terms largest first from a `_TermQueue`
    under `desc_key`, an int that is least for the largest term.  Every
    term queued there, every element added to the basis and every
    expression formed by `_combine_rep` is checked for monomial overflow.
    Options:

    * track: keep each element's expression (`rep`) in the inputs;
    * record_syzygies: also record syzygies of the inputs; implies track and
      switches the chain criterion off;
    * rep_window: keep only inputs below this index in expressions and
      syzygies;
    * eliminate: positions below this bound rank above all others.
    """

    def __init__(self, ring, rank, *, track=False, record_syzygies=False,
                 rep_window=None, eliminate=None):
        self.ring = ring
        self.rank = rank
        self.track = track or record_syzygies
        self.record_syzygies = record_syzygies
        self.rep_window = rep_window
        self.basis = []
        self.by_pos = {}
        self.heap = []
        self.done = set()
        self.syzygies = []
        self.n_inputs = 0
        # desc_key(term) = pos_key[pos] - (word << shift): larger words
        # first, then lower positions; positions below `eliminate` sit a
        # whole word range lower, so they rank above all others
        shift = rank.bit_length()
        block = 1 << ring.word_bits + shift
        pos_key = [pos - block if eliminate is not None and pos < eliminate
                   else pos for pos in range(rank)]
        overflow = ring.overflow_mask

        def desc_key(term):
            pos, word = term
            if word & overflow:
                raise ring.overflow_error()
            return pos_key[pos] - (word << shift)

        self.desc_key = desc_key

    # -- element bookkeeping -------------------------------------------

    def _analyze(self, vec):
        """(lt, lexp, lc, conc) of a nonzero ivec, checking every word."""
        lt = min(vec, key=self.desc_key)
        lc = vec[lt]
        positions = {t[0] for t in vec}
        conc = lt[0] if len(positions) == 1 else None
        return lt, self.ring.exponents(lt[1]), lc, conc

    def _normalize(self, vec, rep):
        c = _ivec_content(vec)
        lt = min(vec, key=self.desc_key)
        if vec[lt] < 0:
            c = -c
        if c != 1:
            vec = {t: v // c for t, v in vec.items()}
            if rep is not None:
                rep = {i: {m: ratio(v, c) for m, v in fp.items()}
                       for i, fp in rep.items()}
        return vec, rep

    def add_column(self, col):
        """Add a list of Polynomials as the next input generator.

        Its ivec is den * col (den clears the denominators), so its
        expression is den times its unit vector.
        """
        vec, den = _column_to_ivec(self.ring, col)
        idx = self.n_inputs
        self.n_inputs += 1
        kept = self.rep_window is None or idx < self.rep_window
        unit = {idx: {0: den}} if kept else {}  # 0 is the word of 1
        if not vec:
            if self.record_syzygies and kept:
                self.syzygies.append(unit)
            return
        self._append(*self._normalize(vec, unit if self.track else None))

    def _append(self, vec, rep):
        el = _Element(vec, *self._analyze(vec), rep)
        lt = el.lt
        idx = len(self.basis)
        self.basis.append(el)
        peers = self.by_pos.setdefault(lt[0], [])
        for j in peers:
            self._consider_pair(j, idx)
        peers.append(idx)
        return idx

    # -- pair management ------------------------------------------------

    def _consider_pair(self, i, j):
        ei, ej = self.basis[i], self.basis[j]
        pos = ei.lt[0]
        mi, mj = ei.lt[1], ej.lt[1]
        lcm = self.ring.lcm(mi, mj)
        if ei.conc is not None and ej.conc is not None and lcm == mi + mj:
            # product criterion (concentrated elements only): coprime leads
            self.done.add((i, j))
            if self.record_syzygies:
                self._record_koszul(i, j)
            return
        sortkey = (self.ring.degree(lcm), -self.desc_key((pos, lcm)), i, j)
        heappush(self.heap, (sortkey, i, j))

    def _record_koszul(self, i, j):
        # for concentrated g_i = h_i e_p, g_j = h_j e_p the S-pair syzygy is
        # the trivial relation h_j g_i - h_i g_j = 0
        ei, ej = self.basis[i], self.basis[j]
        sci = {m: c for (_, m), c in ei.vec.items()}
        scj = {m: c for (_, m), c in ej.vec.items()}
        out = {}
        for idx, fp in ei.rep.items():
            mul_into(out.setdefault(idx, {}), scj, fp)
        for idx, fp in ej.rep.items():
            mul_into(out.setdefault(idx, {}), sci, fp, -1)
        out = {idx: fp for idx, fp in out.items() if fp}
        if out:
            self.syzygies.append(out)

    def _chain_skip(self, i, j, lcm, pos):
        # off when recording syzygies: every S-pair reduction is needed then
        if self.record_syzygies:
            return False
        e = self.ring.exponents(lcm)
        dm = self.ring.div_mask
        for k in self.by_pos.get(pos, ()):
            if k == i or k == j:
                continue
            if not (e - self.basis[k].lexp) & dm:
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a in self.done and b in self.done:
                    return True
        return False

    # -- reduction ------------------------------------------------------

    def find_reducer(self, term):
        pos, word = term
        leads = self.by_pos.get(pos)
        if leads:
            e = self.ring.exponents(word)
            dm = self.ring.div_mask
            basis = self.basis
            for idx in leads:
                if not (e - basis[idx].lexp) & dm:
                    return idx
        return None

    def reduce_full(self, vec, track=False):
        """Full normal form.  Returns (h, cofs, scale) with
        scale * vec = h + sum(cofs[k] * basis[k]); all integer."""
        queue = _TermQueue(self.desc_key, vec)
        work = queue.coeffs
        add = queue.add
        result = {}
        cofs = {} if track else None
        scale = 1
        steps = 0
        while (top := queue.pop()) is not None:
            t, c = top
            red = self.find_reducer(t)
            if red is None:
                result[t] = c
                continue
            g = self.basis[red]
            a = g.lc
            delta = t[1] - g.lt[1]
            if a != 1:
                for k in work:
                    work[k] *= a
                for k in result:
                    result[k] *= a
                if track:
                    for d in cofs.values():
                        for k in d:
                            d[k] *= a
                scale *= a
            glt = g.lt
            for (p2, m2), c2 in g.vec.items():
                if (p2, m2) != glt:
                    add((p2, m2 + delta), -c * c2)
            if track:
                d = cofs.setdefault(red, {})
                s = d.get(delta, 0) + c
                if s:
                    d[delta] = s
                else:
                    del d[delta]
            steps += 1
            if steps % 64 == 0 and scale > 1:
                g = scale
                for d in (work, result):
                    for v in d.values():
                        g = gcd(g, v)
                        if g == 1:
                            break
                    if g == 1:
                        break
                if g > 1 and track:
                    for dd in cofs.values():
                        for v in dd.values():
                            g = gcd(g, v)
                            if g == 1:
                                break
                        if g == 1:
                            break
                if g > 1:
                    scale //= g
                    for d in (work, result):
                        for k in d:
                            d[k] //= g
                    if track:
                        for dd in cofs.values():
                            for k in dd:
                                dd[k] //= g
        return result, cofs, scale

    # -- completion -----------------------------------------------------

    def spoly(self, i, j):
        ei, ej = self.basis[i], self.basis[j]
        lcm = self.ring.lcm(ei.lt[1], ej.lt[1])
        d1 = lcm - ei.lt[1]
        d2 = lcm - ej.lt[1]
        a1, a2 = ei.lc, ej.lc
        g = gcd(a1, a2)
        c1, c2 = a2 // g, a1 // g
        vec = {}
        for (p, m), c in ei.vec.items():
            t = (p, m + d1)
            vec[t] = vec.get(t, 0) + c1 * c
        for (p, m), c in ej.vec.items():
            t = (p, m + d2)
            s = vec.get(t, 0) - c2 * c
            if s:
                vec[t] = s
            else:
                vec.pop(t, None)
        rep = None
        if self.track:
            rep = {}
            for idx, fp in ei.rep.items():
                mul_into(rep.setdefault(idx, {}), {d1: c1}, fp)
            for idx, fp in ej.rep.items():
                mul_into(rep.setdefault(idx, {}), {d2: c2}, fp, -1)
            rep = {idx: fp for idx, fp in rep.items() if fp}
        return vec, rep

    def _combine_rep(self, cofs, sign=-1, base=None, scale=1):
        """scale*base + sign*sum(cofs[k] * basis[k].rep), an expression in
        the inputs, for division cofactors `cofs` over the basis."""
        out = {}
        if base:
            for idx, fp in base.items():
                out[idx] = {m: c * scale for m, c in fp.items()}
        for k, ipoly in cofs.items():
            for idx, fp in (self.basis[k].rep or {}).items():
                mul_into(out.setdefault(idx, {}), ipoly, fp, sign)
        overflow = self.ring.overflow_mask
        if any(w & overflow for fp in out.values() for w in fp):
            raise self.ring.overflow_error()
        return {idx: fp for idx, fp in out.items() if fp}

    def complete(self):
        while self.heap:
            _, i, j = heappop(self.heap)
            pair = (min(i, j), max(i, j))
            if pair in self.done:
                continue
            ei, ej = self.basis[i], self.basis[j]
            lcm = self.ring.lcm(ei.lt[1], ej.lt[1])
            if self._chain_skip(i, j, lcm, ei.lt[0]):
                self.done.add(pair)
                continue
            self.done.add(pair)
            vec, rep = self.spoly(i, j)
            h, cofs, scale = self.reduce_full(vec, track=self.track)
            rep_h = None
            if self.track:
                rep_h = self._combine_rep(cofs, base=rep, scale=scale)
            if not h:
                if self.record_syzygies and rep_h:
                    self.syzygies.append(rep_h)
                continue
            self._append(*self._normalize(h, rep_h))

    # -- conversions ----------------------------------------------------

    def nf_with_input_cofactors(self, vec):
        """(h, input_cofs, scale): scale*vec = h + sum over original inputs."""
        h, cofs, scale = self.reduce_full(vec, track=True)
        return h, self._combine_rep(cofs, 1), scale


# ---------------------------------------------------------------------------
# conversions between public polynomials and ivecs
# ---------------------------------------------------------------------------


def _terms_to_ivec(terms):
    """{(pos, word): coeff} -> (ivec, multiplier) with
    ivec = multiplier * terms; the coefficients are exact rationals: `int`
    when integral, else `Fraction`."""
    den = 1
    for c in terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    vec = {t: c.numerator * (den // c.denominator)
           for t, c in terms.items() if c}
    return vec, den


def _column_to_ivec(ring, column):
    """list[Polynomial] -> (ivec, multiplier) with ivec = multiplier * column."""
    pack = ring.pack
    return _terms_to_ivec({(pos, pack(mono)): c for pos, p in enumerate(column)
                           for mono, c in p.terms_dict.items()})


def _ivec_to_polys(vec, ring, rank, scale=1):
    comps = [dict() for _ in range(rank)]
    unpack = ring.unpack
    for (pos, word), c in vec.items():
        comps[pos][unpack(word)] = ratio(c, scale)
    return [Polynomial(ring, d) for d in comps]


def _cofactor_polys(ring, cofs, count, divisor):
    """Cofactors of inputs 0 .. count-1 as polynomials, divided by `divisor`."""
    return [Polynomial.from_words(ring, cofs.get(i, {}), divisor)
            for i in range(count)]


# ---------------------------------------------------------------------------
# public Gröbner interface
# ---------------------------------------------------------------------------


def _as_columns(gens):
    """Normalize input to (ring, rank, list of columns)."""
    if isinstance(gens, PolyMatrix):
        return gens.ring, gens.rows, gens.columns()
    gens = list(gens)
    if not gens:
        raise VersalError("no generators supplied")
    first = gens[0]
    if isinstance(first, Polynomial):
        return first.ring, 1, [[p] for p in gens]
    if isinstance(first, list) and first:
        return first[0].ring, len(first), gens
    raise VersalError("cannot interpret generators of type %r" % type(first))


class GroebnerBasis:
    """A reduced Gröbner basis of a submodule of S^rank.

    Elements are columns (lists of `rank` Polynomials), monic and
    tail-reduced, sorted by leading term; the zero module has no elements.
    When built with track=True, normal forms can report division cofactors
    against the original generators.
    """

    def __init__(self, ring, rank, engine, n_gens, tracked=False):
        self.ring = ring
        self.rank = rank
        self._engine = engine
        self.n_generators = n_gens
        self.tracked = tracked
        self.elements = [_ivec_to_polys(el.vec, ring, rank, el.lc)
                         for el in engine.basis]

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def leading_terms(self):
        unpack = self.ring.unpack
        return [(pos, unpack(word)) for pos, word in
                (el.lt for el in self._engine.basis)]

    def polynomials(self):
        """Rank-1 convenience: the basis as plain polynomials."""
        if self.rank != 1:
            raise VersalError("not an ideal basis")
        return [e[0] for e in self.elements]

    def expressions(self):
        """Each basis element written in the original generators.

        Returns one dict per element of this basis, mapping generator index
        to a polynomial cofactor so that element == sum(cof * generator).
        Requires track=True at construction time.
        """
        if not self.tracked:
            raise VersalError("basis was not built with track=True")
        out = []
        for el in self._engine.basis:
            cofs = {}
            for idx, fp in (el.rep or {}).items():
                poly = Polynomial.from_words(self.ring, fp, el.lc)
                if not poly.is_zero():
                    cofs[idx] = poly
            out.append(cofs)
        return out

    def normal_form(self, x, with_cofactors=False):
        """Normal form of a Polynomial (rank 1) or of a column, a list of
        `rank` Polynomials, as the same type; with_cofactors=True also
        returns the cofactors over the original generators, so that
        x == nf + sum(cofactor * generator)."""
        single = isinstance(x, Polynomial)
        column = [x] if single else list(x)
        if len(column) != self.rank:
            raise VersalError("rank mismatch in normal form")
        vec, den = _column_to_ivec(self.ring, column)
        if with_cofactors:
            if not self.tracked:
                raise VersalError("basis was not built with track=True")
            h, input_cofs, scale = self._engine.nf_with_input_cofactors(vec)
        else:
            h, _, scale = self._engine.reduce_full(vec, track=False)
        nf = _ivec_to_polys(h, self.ring, self.rank, scale * den)
        if single:
            nf = nf[0]
        if with_cofactors:
            return nf, _cofactor_polys(self.ring, input_cofs,
                                       self._engine.n_inputs, scale * den)
        return nf

    def contains(self, x):
        nf = self.normal_form(x)
        return nf.is_zero() if isinstance(nf, Polynomial) else not any(nf)

    def is_finite_quotient(self):
        """True iff S^rank / (this module) is finite-dimensional over QQ,
        i.e. every position has a pure power of every variable among the
        leading terms."""
        nvars = self.ring.nvars
        lts = self.leading_terms()
        for pos in range(self.rank):
            pos_lts = [m for p, m in lts if p == pos]
            if any(not any(m) for m in pos_lts):
                continue  # unit leading term: this position contributes 0
            seen = [False] * nvars
            for mono in pos_lts:
                nz = [i for i, e in enumerate(mono) if e]
                if len(nz) == 1:
                    seen[nz[0]] = True
            if not all(seen):
                return False
        return True

    def standard_module_monomials(self):
        """All (position, monomial) outside the leading-term module.

        Only valid when the quotient is finite-dimensional.
        """
        if not self.is_finite_quotient():
            raise FiniteDimError("infinite staircase")
        lts = self.leading_terms()
        out = []
        nvars = self.ring.nvars
        for pos in range(self.rank):
            pos_lts = [m for p, m in lts if p == pos]
            if any(not any(m) for m in pos_lts):
                continue
            # exponent of v in any standard monomial is below the pure power
            bounds = []
            for v in range(nvars):
                b = min(
                    m[v] for m in pos_lts
                    if m[v] and all(e == 0 for i, e in enumerate(m) if i != v)
                )
                bounds.append(b)
            for mono in product(*(range(b) for b in bounds)):
                if not any(mono_divides(m, mono) for m in pos_lts):
                    out.append((pos, mono))
        key = self.ring.monomial_key
        out.sort(key=lambda t: (t[0], key(t[1])))
        return out


def buchberger(gens, *, track=False):
    """Reduced Gröbner basis of the module generated by `gens`.

    `gens` may be a list of Polynomials (ideal case), a list of columns
    (each a list of Polynomials of one length), or a PolyMatrix whose
    columns generate.  Zero generators add nothing, so the basis of a zero
    module, such as the ideal of a one-row matrix of zeros, is empty.
    """
    ring, rank, columns = _as_columns(gens)
    engine = _Engine(ring, rank, track=track)
    for col in columns:
        engine.add_column(col)
    engine.complete()
    _interreduce(engine)
    return GroebnerBasis(ring, rank, engine, len(columns), tracked=track)


def _interreduce(engine):
    """Make the basis minimal and tail-reduced, preserving bookkeeping."""
    # drop elements whose lead is divisible by another's lead
    desc_key = engine.desc_key
    dm = engine.ring.div_mask
    order = sorted(range(len(engine.basis)),
                   key=lambda i: desc_key(engine.basis[i].lt), reverse=True)
    keep = []
    for i in order:
        el = engine.basis[i]
        redundant = False
        for j in keep:
            ej = engine.basis[j]
            if ej.lt[0] == el.lt[0] and not (el.lexp - ej.lexp) & dm:
                redundant = True
                break
        if not redundant:
            keep.append(i)
    new_basis = [engine.basis[i] for i in keep]
    engine.basis = new_basis
    engine.by_pos = {}
    for idx, el in enumerate(engine.basis):
        engine.by_pos.setdefault(el.lt[0], []).append(idx)
    # tail-reduce each element against the others
    for idx, el in enumerate(engine.basis):
        tail = dict(el.vec)
        del tail[el.lt]
        # el never reduces its own tail: terms it divides are not below el.lt
        h, cofs, scale = engine.reduce_full(tail, track=engine.track)
        if scale != 1 or h != tail:
            vec = {el.lt: el.lc * scale, **h}
            rep = None
            if engine.track:
                rep = engine._combine_rep(cofs, base=el.rep, scale=scale)
            vec, rep = engine._normalize(vec, rep)
            engine.basis[idx] = _Element(vec, *engine._analyze(vec), rep)
    # canonical ordering
    order = sorted(range(len(engine.basis)),
                   key=lambda i: desc_key(engine.basis[i].lt), reverse=True)
    engine.basis = [engine.basis[i] for i in order]
    engine.by_pos = {}
    for idx, el in enumerate(engine.basis):
        engine.by_pos.setdefault(el.lt[0], []).append(idx)


def _preimage_basis(U, w_columns):
    """Reduced Gröbner basis of P = {a in S^u : U a in span(w_columns)}.

    Elimination: one basis of the columns [U_j; e_j] and [w; 0] of
    S^(amb+u), under the order in which the amb top positions rank above
    the u bottom ones.  Its elements led by a bottom position have a zero
    top part and form a basis of P; shifted down by amb they are under the
    order `buchberger` uses on S^u, and interreduced they are its reduced
    basis of P.
    """
    ring, amb, u = U.ring, U.rows, U.cols
    zero = Polynomial.zero(ring)
    one = Polynomial.one(ring)
    engine = _Engine(ring, amb + u, eliminate=amb)
    for j, col in enumerate(U.columns()):
        unit = [zero] * u
        unit[j] = one
        engine.add_column(col + unit)
    for col in w_columns:
        engine.add_column(list(col) + [zero] * u)
    engine.complete()
    lower = _Engine(ring, u)
    for el in engine.basis:
        if el.lt[0] >= amb:
            vec = {(p - amb, m): c for (p, m), c in el.vec.items()}
            lower.basis.append(_Element(vec, *lower._analyze(vec), None))
    _interreduce(lower)
    return GroebnerBasis(ring, u, lower, len(lower.basis))


# ---------------------------------------------------------------------------
# syzygies
# ---------------------------------------------------------------------------


def _syzygy_columns(F, rep_window=None):
    """Raw generating syzygies of F's columns as lists of polynomials.

    With rep_window=k only the first k coordinates of each syzygy are kept
    (cheaper when the remaining coordinates are irrelevant); columns whose
    kept part vanishes are dropped.
    """
    ring = F.ring
    engine = _Engine(ring, max(F.rows, 1), track=True, record_syzygies=True,
                     rep_window=rep_window)
    for col in F.columns():
        engine.add_column(col)
    engine.complete()
    width = F.cols if rep_window is None else min(rep_window, F.cols)
    columns = [[Polynomial.from_words(ring, syz.get(i, {}))
                for i in range(width)]
               for syz in engine.syzygies]
    columns = [c for c in columns if any(not p.is_zero() for p in c)]
    return _normalize_columns(ring, columns)


def _homogeneous_column_degrees(columns, row_degrees):
    """Per-column multidegree if every column is homogeneous, else None."""
    col_degs = []
    for col in columns:
        degs = set()
        for p, rowd in zip(col, row_degrees):
            if p.is_zero():
                continue
            d = p.multi_degree()
            if d is None:
                return None
            degs.add(tuple(a + b for a, b in zip(d, rowd)))
        if len(degs) != 1:
            return None
        col_degs.append(degs.pop())
    return col_degs


def syzygy_matrix(F):
    """Generating syzygies of the columns of F, none of them redundant
    (a minimal set when F is homogeneous).

    Returns a PolyMatrix S with F * S = 0 whose columns generate
    {v : F v = 0}.
    """
    ring = F.ring
    columns = _syzygy_columns(F)

    graded = ring.is_graded and F.col_degrees is not None and not ring.t_vars
    col_degs = None
    if graded:
        col_degs = _homogeneous_column_degrees(columns, F.col_degrees)
        graded = col_degs is not None

    if graded:
        # sorted by (total degree, degree, column key) as they are kept
        columns, col_degs = _minimal_columns_graded(
            ring, columns, F.col_degrees, col_degs)
    else:
        columns = sorted(_prune_redundant(ring, columns),
                         key=lambda c: _column_sort_key(ring, c))

    out = PolyMatrix.from_columns(
        ring, F.cols, columns, row_degrees=F.col_degrees, col_degrees=col_degs)
    # hard invariant: F * S == 0 identically
    if not (F * out).is_zero():
        raise VersalError("syzygy verification failed")
    return out


def _ideal_unit_columns(ring, gens, rank):
    """The columns h*e_pos of S^rank, position-major: every generator h of
    the ideal at position 0 first, then at position 1, and so on."""
    zero = Polynomial.zero(ring)
    cols = []
    for pos in range(rank):
        for h in gens:
            col = [zero] * rank
            col[pos] = h
            cols.append(col)
    return cols


def kernel_mod_ideal(M, ideal):
    """Generators of {v in S^cols : M v = 0 in (S/I)^rows}.

    `ideal` is the GroebnerBasis of I; for I = 0 it is empty.  Returns a
    PolyMatrix whose columns generate the kernel of the map induced by M on
    free modules over S/I, lifted to S.
    """
    ring = M.ring
    gens = ideal.polynomials()
    if M.cols == 0:
        return PolyMatrix.zero(ring, 0, 0)
    if M.rows == 0 or M.is_zero():
        return PolyMatrix.identity(ring, M.cols, degrees=M.col_degrees)
    block = PolyMatrix.from_columns(
        ring, M.rows, M.columns() + _ideal_unit_columns(ring, gens, M.rows))
    columns = _syzygy_columns(block, rep_window=M.cols)
    columns = sorted(columns, key=lambda c: _column_sort_key(ring, c))
    col_degs = None
    if ring.is_graded and M.col_degrees is not None:
        col_degs = _homogeneous_column_degrees(columns, M.col_degrees)
    out = PolyMatrix.from_columns(ring, M.cols, columns,
                                  row_degrees=M.col_degrees,
                                  col_degrees=col_degs)
    # verify: every entry of M*out must lie in the ideal
    prod = M * out
    for row in prod.entries:
        for p in row:
            if not p.is_zero() and not ideal.contains(p):
                raise VersalError("kernel verification failed")
    return out


def _column_lead(ring, col):
    """(key, coefficient) of the column's largest term, ranked by
    (monomial_key, -position); (None, None) for a zero column."""
    key = ring.monomial_key
    best = coeff = None
    for pos, p in enumerate(col):
        lt = p.leading_term()
        if lt is None:
            continue
        k = (key(lt[0]), -pos)
        if best is None or k > best:
            best, coeff = k, lt[1]
    return best, coeff


def _column_sort_key(ring, col):
    return _column_lead(ring, col)[0] or (0, 0)


def _normalize_columns(ring, columns):
    """Scale columns to primitive integer content with positive lead, dedupe."""
    out = []
    seen = set()
    for col in columns:
        den = 1
        for p in col:
            for c in p.terms_dict.values():
                den = den * c.denominator // gcd(den, c.denominator)
        num = 0
        for p in col:
            for c in p.terms_dict.values():
                num = gcd(num, int(c * den))
        if num == 0:
            continue
        scale = ratio(den, num)
        scaled = [p * scale for p in col]
        # sign: positive leading coefficient of the largest term across the column
        lead = _column_lead(ring, scaled)[1]
        if lead is not None and lead < 0:
            scaled = [-p for p in scaled]
        sig = tuple(tuple(sorted(p.terms_dict.items())) for p in scaled)
        if sig in seen:
            continue
        seen.add(sig)
        out.append(scaled)
    return out


def _minimal_columns_graded(ring, columns, row_degs, col_degs):
    """Graded minimal generators among homogeneous columns (Nakayama),
    with their degrees, sorted by (total degree, degree, column key)."""
    order = sorted(range(len(columns)),
                   key=lambda i: (sum(col_degs[i]), col_degs[i],
                                  _column_sort_key(ring, columns[i])))
    kept = []
    kept_degs = []
    by_degree = {}
    for i in order:
        by_degree.setdefault(col_degs[i], []).append(i)
    degrees = sorted(by_degree, key=lambda d: (sum(d), d))
    pack = ring.pack
    packed = [[p.words() for p in col] for col in columns]
    for d in degrees:
        label_index = {}
        for pos, rd in enumerate(row_degs):
            target = tuple(a - b for a, b in zip(d, rd))
            if any(c < 0 for c in target):
                continue
            for mono in monomials_of_degree(ring, target):
                label_index[(pos, pack(mono))] = len(label_index)

        def coords(i, shift=0):
            # coordinates of column i times the monomial of word `shift`;
            # None when a term lies outside this degree
            v = {}
            for pos, fd in enumerate(packed[i]):
                for w, c in fd.items():
                    idx = label_index.get((pos, w + shift))
                    if idx is None:
                        return None
                    v[idx] = c
            return integer_row(v)

        echelon = {}
        for k_idx, kd in zip(kept, kept_degs):
            diff = tuple(a - b for a, b in zip(d, kd))
            if any(c < 0 for c in diff):
                continue
            for mono in monomials_of_degree(ring, diff):
                v = coords(k_idx, pack(mono))
                if v is not None:
                    echelon_insert(echelon, v)
        for i in by_degree[d]:
            v = coords(i)
            if v is None or echelon_insert(echelon, v):
                kept.append(i)
                kept_degs.append(col_degs[i])
    # `kept` follows `order`, one degree after another in sorted order
    return [columns[i] for i in kept], kept_degs


def _prune_redundant(ring, columns):
    """Drop columns lying in the module generated by the others."""
    cols = sorted(columns, key=lambda c: _column_sort_key(ring, c), reverse=True)
    changed = True
    while changed:
        changed = False
        for i in range(len(cols)):
            others = cols[:i] + cols[i + 1:]
            if not others:
                break
            if buchberger(others).contains(cols[i]):
                cols.pop(i)
                changed = True
                break
    return cols


def koszul_syzygies(F):
    """The trivial syzygies F_j e_i - F_i e_j (i < j) of a row vector F."""
    if F.rows != 1:
        raise VersalError("koszul_syzygies expects a 1-row matrix")
    ring = F.ring
    m = F.cols
    cols = []
    degs = []
    for i in range(m):
        for j in range(i + 1, m):
            col = [Polynomial.zero(ring)] * m
            col[i] = F[0, j]
            col[j] = -F[0, i]
            cols.append(col)
            if F.col_degrees is not None:
                degs.append(tuple(a + b for a, b in zip(F.col_degrees[i], F.col_degrees[j])))
    return PolyMatrix.from_columns(
        ring, m, cols,
        row_degrees=F.col_degrees,
        col_degrees=tuple(degs) if F.col_degrees is not None else None,
    )


def module_quotient_lift(A, B):
    """Solve A X = B exactly.

    Returns the PolyMatrix X, or None when some column has no solution.
    """
    if A.rows != B.rows:
        raise VersalError("row mismatch in quotient lift")
    ring = A.ring
    engine = _Engine(ring, max(A.rows, 1), track=True)
    n_acols = A.cols
    for col in A.columns():
        engine.add_column(col)
    engine.complete()

    x_cols = []
    for col in B.columns():
        vec, den = _column_to_ivec(ring, col)
        h, cofs, scale = engine.nf_with_input_cofactors(vec)
        if h:
            return None
        x_cols.append(_cofactor_polys(ring, cofs, n_acols, scale * den))
    X = PolyMatrix.from_columns(ring, n_acols, x_cols,
                                row_degrees=A.col_degrees,
                                col_degrees=B.col_degrees)
    # verify: A·X must equal B
    if not (A * X - B).is_zero():
        raise LiftError("quotient lift verification failed")
    return X


# ---------------------------------------------------------------------------
# degree enumeration, Hilbert functions, graded pieces
# ---------------------------------------------------------------------------


def _as_degree(ring, d):
    """The degree d (an int or a sequence) as a tuple of ints; GradingError
    unless the ring is graded and d has its grading rank."""
    d = (d,) if isinstance(d, int) else tuple(int(c) for c in d)
    if not ring.is_graded:
        raise GradingError("ring %r has no grading" % (ring,))
    if len(d) != ring.grading_rank:
        raise GradingError(
            "degree %r does not match grading rank %d" % (d, ring.grading_rank))
    return d


def monomials_of_degree(ring, d):
    """All x-block monomials of multidegree d, largest first, as a tuple.

    Requires a graded ring with componentwise nonnegative, nonzero variable
    degrees (validated at ring construction), which makes the answer finite.
    The answer is memoised on the ring, one entry per degree.
    """
    d = _as_degree(ring, d)
    rank = ring.grading_rank
    if any(c < 0 for c in d):
        return ()
    memo = ring._degree_memo
    if d in memo:
        return memo[d]
    degs = ring.x_degrees
    n = len(degs)
    nt = ring.nt
    out = []
    current = [0] * n

    def rec(i, remaining):
        if i == n:
            if not any(remaining):
                out.append(tuple(current) + (0,) * nt)
            return
        dv = degs[i]
        emax = None
        for k in range(rank):
            if dv[k] > 0:
                q = remaining[k] // dv[k]
                emax = q if emax is None else min(emax, q)
        for e in range(emax + 1):
            current[i] = e
            rec(i + 1, tuple(r - e * c for r, c in zip(remaining, dv)))
        current[i] = 0

    rec(0, d)
    out.sort(key=ring.monomial_key, reverse=True)
    memo[d] = out = tuple(out)
    return out


def standard_monomials(gb, d):
    """Monomials of multidegree d outside the leading-term ideal of gb."""
    if gb.rank != 1:
        raise VersalError("standard_monomials expects an ideal basis")
    lts = [m for _, m in gb.leading_terms()]
    return [m for m in monomials_of_degree(gb.ring, d)
            if not any(mono_divides(l, m) for l in lts)]


def hilbert_function(ideal, d):
    """dim_QQ of the degree-d piece of S/I for a homogeneous ideal I."""
    if isinstance(ideal, GroebnerBasis):
        gb = ideal
    else:
        gens = [p for p in ideal if not p.is_zero()]
        if not gens:
            raise VersalError("hilbert_function needs a ring: supply a GroebnerBasis "
                              "or at least one polynomial")
        gb = buchberger(gens)
    if gb.ring.t_vars:
        raise GradingError("hilbert_function wants a parameter-free ring; "
                           "restrict to the parameter block first")
    return len(standard_monomials(gb, d))
