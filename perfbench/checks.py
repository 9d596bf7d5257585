"""Checks of `versal deform --json` output, made apart from the program.

Nothing here imports versal.  Polynomials are read from the JSON strings by
the small parser below into {exponent tuple: Fraction} dicts, and identities
are checked with exact Fraction arithmetic.  The only outside oracle is
sympy's `groebner`, used for the Hilbert function of the cone's base space.
"""

import json
import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement


class CheckError(Exception):
    """An output fails one of the checks."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# polynomials as {exponent tuple: Fraction}
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"([+-]?)([^+-]+)")


def parse_poly(text, index):
    """Parse a sum of terms such as '-x1^2 + 1/2*x0*t3' over the variables
    of `index` (name -> position)."""
    nvars = len(index)
    body = text.replace(" ", "")
    require(body, "empty polynomial string")
    if body == "0":
        return {}
    pos = 0
    out = {}
    for match in _TERM_RE.finditer(body):
        require(match.start() == pos, "cannot parse %r" % text)
        pos = match.end()
        sign, term = match.groups()
        coeff = Fraction(-1 if sign == "-" else 1)
        exps = [0] * nvars
        for factor in term.split("*"):
            if factor[:1].isdigit():
                coeff *= Fraction(factor)
                continue
            name, _, power = factor.partition("^")
            require(name in index, "unknown variable %r in %r" % (name, text))
            exps[index[name]] += int(power) if power else 1
        mono = tuple(exps)
        value = out.get(mono, 0) + coeff
        if value:
            out[mono] = value
        else:
            out.pop(mono, None)
    require(pos == len(body), "cannot parse %r" % text)
    return out


def add_into(acc, poly):
    for mono, c in poly.items():
        value = acc.get(mono, 0) + c
        if value:
            acc[mono] = value
        else:
            acc.pop(mono, None)


def read_vdef(path):
    """(variable names, generator strings) of an input file, for the plain
    expanded generators the workloads use."""
    names, gens, in_gens = None, [], False
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0]
            if not line.strip():
                continue
            if in_gens and line[0] in " \t":
                gens.append(line.strip())
                continue
            in_gens = False
            key, _, rest = line.strip().partition(":")
            if key == "vars":
                names = rest.split()
            elif key == "generators":
                in_gens = True
    require(names and gens, "input file %s has no vars or generators" % path)
    return names, gens


# ---------------------------------------------------------------------------
# the parsed output document
# ---------------------------------------------------------------------------


class Output:
    """One deform document, parsed once; `x_vars` come from the input file
    and every other variable must be a parameter t1, t2, ..."""

    MATRICES = ("F", "R", "G", "C")

    def __init__(self, raw, x_vars):
        self.raw = raw
        self.doc = json.loads(raw)
        names = set()
        for rows in self.doc["matrices"].values():
            for row in rows:
                for s in row:
                    names.update(re.findall(r"[A-Za-z][A-Za-z0-9_]*", s))
        params = sorted((n for n in names if n not in x_vars),
                        key=lambda n: (len(n), n))
        for n in params:
            require(re.fullmatch(r"t[1-9][0-9]*", n),
                    "unexpected variable %r in the output" % n)
        self.nx = len(x_vars)
        self.names = list(x_vars) + params
        self.index = {n: i for i, n in enumerate(self.names)}
        self.mat = {k: [[parse_poly(s, self.index) for s in row]
                        for row in self.doc["matrices"][k]]
                    for k in self.MATRICES}
        self.series = {
            k: {int(o): [[parse_poly(s, self.index) for s in row]
                         for row in rows]
                for o, rows in self.doc["series"][k].items()}
            for k in self.MATRICES}
        self.order = max(self.series["F"])

    def t_degree(self, mono):
        return sum(mono[self.nx:])

    def x_degree(self, mono):
        return sum(mono[:self.nx])


def check_structure(out, generators):
    """Shapes, series against totals, and F at t = 0 against the input."""
    doc = out.doc
    require(doc["command"] == "deform", "command is not deform")
    status = doc["status"]
    require(status in ("polynomial", "truncated"), "bad status %r" % status)
    require((doc["orders_log"][-1] == "Solution is polynomial")
            == (status == "polynomial"), "orders_log disagrees with status")
    F, R, G, C = (out.mat[k] for k in out.MATRICES)
    m, d = len(generators), doc["dims"]["t2"]
    require(len(F) == 1 and len(F[0]) == m, "F is not 1 x %d" % m)
    require(len(R) == m, "R does not have %d rows" % m)
    l = len(R[0])
    require(all(len(row) == l for row in R), "R is ragged")
    require(len(G) == d and all(len(row) == 1 for row in G),
            "G is not %d x 1" % d)
    require(len(C) == l and all(len(row) == d for row in C),
            "C is not %d x %d" % (l, d))
    for k in out.MATRICES:
        total = out.mat[k]
        acc = [[{} for _ in row] for row in total]
        for order, rows in out.series[k].items():
            require(len(rows) == len(total), "series %s[%d] shape" % (k, order))
            for i, row in enumerate(rows):
                for j, poly in enumerate(row):
                    require(all(out.t_degree(mo) == order for mo in poly),
                            "series %s[%d] is not of parameter order %d"
                            % (k, order, order))
                    add_into(acc[i][j], poly)
        require(acc == total, "matrix %s is not the sum of its series" % k)
    for row in G:
        require(all(out.x_degree(mo) == 0 for mo in row[0]),
                "G involves the ring variables")
    for j in range(l):
        require(any(out.t_degree(mo) == 0 for row in R for mo in row[j]),
                "column %d of R is zero at t = 0" % j)
    params = {i for poly in F[0] for mo in poly for i, e in enumerate(mo)
              if e and i >= out.nx}
    require(len(params) == doc["dims"]["t1"],
            "F uses %d parameters, dims say t1 = %d"
            % (len(params), doc["dims"]["t1"]))
    pad = (0,) * (len(out.names) - out.nx)
    for j, text in enumerate(generators):
        gen = {mo + pad: c for mo, c in
               parse_poly(text, {n: i for i, n in
                                 enumerate(out.names[:out.nx])}).items()}
        at_zero = {mo: c for mo, c in F[0][j].items() if out.t_degree(mo) == 0}
        require(at_zero == gen, "F at t = 0 differs from generator %d" % j)


def _series_at(poly, xs, ts, nx):
    """The polynomial along x = xs, t = s * ts, as {power of s: value}."""
    out = {}
    for mono, c in poly.items():
        v = c
        k = 0
        for i, e in enumerate(mono):
            if e:
                if i < nx:
                    v *= xs[i] ** e
                else:
                    v *= ts[i - nx] ** e
                    k += e
        out[k] = out.get(k, 0) + v
    return out


def _mul_into(acc, a, b):
    for i, u in a.items():
        for j, v in b.items():
            acc[i + j] = acc.get(i + j, 0) + u * v


def check_identity(out, rng):
    """transpose(F*R) + C*G along a random line x = r, t = s*a: every power
    of s vanishes when the status is polynomial, and every power up to the
    reached order when it is truncated."""
    nx = out.nx
    xs = [rng.choice((-1, 1)) * rng.randint(1, 97) for _ in range(nx)]
    ts = [rng.choice((-1, 1)) * rng.randint(1, 97)
          for _ in range(len(out.names) - nx)]
    ev = {k: [[_series_at(p, xs, ts, nx) for p in row] for row in rows]
          for k, rows in out.mat.items()}
    F, R, G, C = (ev[k] for k in out.MATRICES)
    cut = None if out.doc["status"] == "polynomial" else out.order
    for j in range(len(C)):
        acc = {}
        for i, f in enumerate(F[0]):
            _mul_into(acc, f, R[i][j])
        for k, g in enumerate(G):
            _mul_into(acc, C[j][k], g[0])
        bad = [p for p, v in acc.items() if v and (cut is None or p <= cut)]
        require(not bad, "transpose(F*R) + C*G fails in relation %d at "
                         "parameter order %d" % (j, min(bad) if bad else -1))


# ---------------------------------------------------------------------------
# facts about each workload, found without the program
# ---------------------------------------------------------------------------


def _monomials(nvars, degree):
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _rank(rows):
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((k for k in range(rank, len(rows)) if rows[k][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for k in range(len(rows)):
            if k != rank and rows[k][c]:
                f = rows[k][c] / p[c]
                rows[k] = [a - f * b for a, b in zip(rows[k], p)]
        rank += 1
    return rank


def monomial_syzygies(gens):
    """The pairwise syzygies lcm/g_i * e_i - lcm/g_j * e_j of monomial
    generators, each as {(generator, multiplier): +1 or -1}."""
    out = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            lcm = tuple(max(a, b) for a, b in zip(gens[i], gens[j]))
            out.append({(gi, tuple(a - b for a, b in zip(lcm, gens[gi]))):
                        sign for gi, sign in ((i, 1), (j, -1))})
    return out


def monomial_hom_degree0(gens):
    """(unknowns, independent conditions, dimension) of Hom(I, S/I) in
    degree 0 for a monomial ideal I, standard grading, by linear algebra
    over the pairwise (generating) syzygies."""
    nvars = len(gens[0])

    def std(deg):
        return [mo for mo in _monomials(nvars, deg)
                if not any(_divides(g, mo) for g in gens)]

    cols = {}
    for i, g in enumerate(gens):
        for mo in std(sum(g)):
            cols[(i, mo)] = len(cols)
    rows = []
    for syz in monomial_syzygies(gens):
        lcm_degree = next(sum(m) + sum(gens[g]) for g, m in syz)
        for target in std(lcm_degree):
            row = [Fraction(0)] * len(cols)
            for (gk, mult), sign in syz.items():
                if not _divides(mult, target):
                    continue
                source = tuple(a - b for a, b in zip(target, mult))
                if (gk, source) in cols:
                    row[cols[(gk, source)]] += sign
            rows.append(row)
    r = _rank(rows)
    return len(cols), r, len(cols) - r


def _vector_rank(vectors):
    """Rank over QQ of sparse vectors given as {key: coefficient}."""
    keys = sorted({k for v in vectors for k in v})
    return _rank([[Fraction(v.get(k, 0)) for k in keys] for v in vectors])


def hilbert_function(polys, nvars, upto):
    """Hilbert function of QQ[t]/(polys) in degrees 0..upto, read off the
    leading monomials of a sympy grevlex Groebner basis."""
    import sympy

    gens = sympy.symbols("u1:%d" % (nvars + 1))
    exprs = [sum(sympy.Rational(c.numerator, c.denominator)
                 * sympy.Mul(*[v ** e for v, e in zip(gens, mo)])
                 for mo, c in p.items()) for p in polys]
    gb = sympy.groebner(exprs, *gens, order="grevlex")
    leads = [sympy.Poly(g, *gens).monoms(order="grevlex")[0] for g in gb.exprs]
    return [sum(1 for mo in _monomials(nvars, k)
                if not any(_divides(ld, mo) for ld in leads))
            for k in range(upto + 1)]


def _nonzero_g(out):
    return [row[0] for row in out.mat["G"] if row[0]]


def _t_part(out, poly):
    return {mo[out.nx:]: c for mo, c in poly.items()}


def facts_cone(out, generators):
    dims = out.doc["dims"]
    require(dims["t1"] == 4 and dims["t2"] == 3,
            "cone: T1, T2 = %d, %d, expected 4, 3" % (dims["t1"], dims["t2"]))
    require(out.doc["status"] == "polynomial", "cone: family does not close")
    g = _nonzero_g(out)
    require(len(g) == 3, "cone: %d nonzero rows of G, expected 3" % len(g))
    require(all(out.t_degree(mo) == 2 for p in g for mo in p),
            "cone: G is not quadratic in t")
    hf = hilbert_function([_t_part(out, p) for p in g], 4, 2)
    require(hf == [1, 4, 7], "cone: base space Hilbert function %s, "
                             "expected [1, 4, 7]" % hf)


def facts_diagonal(out, generators):
    dims = out.doc["dims"]
    require(dims["t1"] == 18, "diagonal: T1 = %d, expected 18" % dims["t1"])
    require(out.doc["status"] == "polynomial" and out.order == 6,
            "diagonal: %s at order %d, expected polynomial at order 6"
            % (out.doc["status"], out.order))
    g = _nonzero_g(out)
    require(len(g) == 8, "diagonal: %d nonzero rows of G, expected 8" % len(g))
    require(all(out.t_degree(mo) == 3 for p in g for mo in p),
            "diagonal: G is not cubic in the parameters")


NONCLOSING_MAX_ORDER = 10


def facts_nonclosing(out, generators):
    x_index = {n: i for i, n in enumerate(out.names[:out.nx])}
    gens = []
    for text in generators:
        poly = parse_poly(text, x_index)
        require(len(poly) == 1 and set(poly.values()) == {1},
                "nonclosing: generator %r is not a monomial" % text)
        gens.append(next(iter(poly)))
    unknowns, conditions, dim = monomial_hom_degree0(gens)
    require((unknowns, conditions) == (11, 3),
            "nonclosing: %d unknowns and %d conditions, expected 11 and 3"
            % (unknowns, conditions))
    dims = out.doc["dims"]
    require(dims["t1"] == dim and dims["t2"] == 0,
            "nonclosing: T1, T2 = %d, %d, expected %d, 0"
            % (dims["t1"], dims["t2"], dim))
    require(not _nonzero_g(out), "nonclosing: G is not zero")
    # The three pairwise syzygies generate all relations and all have
    # degree 4, so the relations at t = 0 must span the same QQ-space.
    syz = monomial_syzygies(gens)
    r0 = [{(i, mo[:out.nx]): c for i, row in enumerate(out.mat["R"])
           for mo, c in row[j].items() if out.t_degree(mo) == 0}
          for j in range(len(out.mat["R"][0]))]
    ranks = (_vector_rank(syz), _vector_rank(r0), _vector_rank(syz + r0))
    require(ranks == (3, 3, 3),
            "nonclosing: R at t = 0 does not span the three monomial "
            "syzygies (ranks of syzygies, R, both: %d, %d, %d)" % ranks)
    require(out.doc["status"] == "polynomial"
            or out.order == NONCLOSING_MAX_ORDER,
            "nonclosing: truncated at order %d, not %d"
            % (out.order, NONCLOSING_MAX_ORDER))


FACTS = {"cone": facts_cone, "diagonal": facts_diagonal,
         "nonclosing": facts_nonclosing}


def check_output(workload, raw, x_vars, generators, rng):
    """Every check of one output; returns the parsed Output."""
    out = Output(raw, x_vars)
    check_structure(out, generators)
    FACTS[workload](out, generators)
    check_identity(out, rng)
    return out


def family_terms(out):
    return sum(len(p) for p in out.mat["F"][0])


def make_rng(seed, repeat):
    return random.Random(seed * 1_000_003 + repeat)
