"""Versal deformations by order-by-order lifting.

Starting from generators F0 of an ideal whose chosen tangent directions are
finite in number, the driver below extends the first-order family
F0 + sum(t_i * phi_i) through increasing parameter orders to a family F over
the parameter ring, together with lifted relations R, obstruction equations G
involving only the parameters, and a coefficient matrix C, so that

    transpose(F * R) + C * G == 0

holds modulo parameter terms beyond the current order -- and exactly, once
the lifting closes.  The vanishing of the entries of G cuts the base space
of the family out of the parameter space.  All arithmetic is exact over QQ.

Each step reduces its error term, the part of the identity of the order
it completes, once against a module basis whose generators involve no
parameter, with cofactors.  That basis is computed over the parameter
ring, and the reduction runs through its own Gröbner engine
(`groebner._Engine.reduce_full`), the loop every other module reduction
uses; `_XBasis` only converts between term dicts of exact rationals and
the engine's integer vectors.
The lift keeps every piece as term dicts keyed by packed monomials
(`polyring.RingSpec.pack`), so each product of two terms is one integer
addition; the pieces are packed once when the first-order family is known
and unpacked once into matrices for the result.
The normal form is absorbed into new G and C contributions (phase A); the
correction these make to the residual is reduced on its own when it is not
empty, and since reduction is linear the two results add up to those of
the whole residual.  The cofactors give the new F and R pieces.

The identity is verified exactly, one parameter order at a time.  Every
piece is checked to have the parameter order of its index when it is
stored, so the order-j part of the identity is the sum of the products of
pieces whose orders add up to j, and a piece of order k changes no part
below order k.  Each step therefore checks only the order it completes:
its error term plus the products of that order with the new pieces.
Whether the family has closed is decided from the parts above it, computed
from scratch up to the highest order any product reaches; the first of
them is the next step's error term, so every part is formed exactly once.
"""

from .cotangent import (as_generator_matrix, cotangent1, cotangent2,
                        first_syzygies, normal_matrix)
from .errors import LiftError, ObstructionError, VersalError
from .exactla import SparseMatrix, rref_with_transform
from .groebner import (PolyMatrix, _ideal_unit_columns, _TermQueue,
                       _terms_to_ivec, buchberger, module_quotient_lift)
from .polyring import (Polynomial, RingSpec, add_into, extend_with_parameters,
                       mul_into, ratio)

MSG_FIRST_ORDER = "Calculating first order deformations and obstruction space"
MSG_RELATIONS = "Calculating first order relations"
MSG_LIFTING = "Starting lifting"
MSG_ORDER = "Order %d"
MSG_POLYNOMIAL = "Solution is polynomial"


class _XBasis:
    """The lift's view of the reduction basis gb0, through gb0's own engine.

    gb0 is a tracked basis over the parameter ring whose inputs involve no
    parameter, so its leading terms involve none either: dividing a mixed
    term just transfers its parameter part to the cofactor, and reducing a
    column whose terms all have parameter order k stays within order k and
    terminates.  This class only converts formats: it clears the
    denominators of a column, reduces it with
    `_Engine.nf_with_input_cofactors`, and divides the results back through
    `ratio`, so integral coefficients stay `int`.  Monomials are words of
    the parameter ring throughout, as in the engine.
    """

    __slots__ = ("engine",)

    def __init__(self, gb):
        self.engine = gb._engine

    def reduce(self, col):
        """Normal form of a term-dict column ``{(pos, word): coeff}``, and
        its cofactors over the original generators of the basis, as
        ``{gen_index: {word: coeff}}`` with col == nf + sum(cof * gen)."""
        vec, den = _terms_to_ivec(col)
        h, cofs, scale = self.engine.nf_with_input_cofactors(vec)
        q = scale * den
        return ({t: ratio(c, q) for t, c in h.items()},
                {i: {m: ratio(c, q) for m, c in fd.items()}
                 for i, fd in cofs.items()})


class _LiftState:
    """Mutable bookkeeping for one lifting run.

    A piece is a matrix held as a list of rows of term dicts ``{word:
    coeff}`` (see `_words`).  Pieces are indexed by parameter order: F[k]
    (1 x m) and R[k] (m x l) are lists, G (d x 1) and C (l x d) dicts keyed
    by order (G starts at 2, C at 0 with C[0] = V, the obstruction vectors).
    ``lg`` maps a G row to the order of its lowest nonzero piece and
    ``lg_poly`` to that piece's term dict.  ``vhat_lookup`` is keyed by
    (position, word) and ``vhat_rows`` holds ((position, word), coeff)
    terms.  ``next_error`` is the order-(order + 1) part of the identity,
    kept by the last check for the next step.
    """

    __slots__ = ("ring", "m", "l", "d", "F", "R", "G", "C", "V",
                 "lg", "lg_poly", "order", "xbasis",
                 "ideal_exprs", "n_ideal", "vhat_lookup", "vhat_rows",
                 "vhat_T", "gbt", "next_error")

    def __init__(self, ring, m, l, d):
        self.ring = ring
        self.m = m
        self.l = l
        self.d = d
        self.F = []
        self.R = []
        self.G = {}
        self.C = {}
        self.V = None
        self.lg = {}
        self.lg_poly = {}
        self.order = 0
        self.xbasis = None
        self.ideal_exprs = None
        self.n_ideal = 0
        self.vhat_lookup = {}
        self.vhat_rows = []
        self.vhat_T = []
        self.gbt = None
        self.next_error = None


def _words(mat):
    """A PolyMatrix as a piece: its rows of term dicts keyed by words."""
    return [[p.words() for p in row] for row in mat.entries]


def _matrix(ring, piece, row_degrees=None, col_degrees=None):
    """A piece as a PolyMatrix."""
    return PolyMatrix(ring, [[Polynomial.from_words(ring, fd) for fd in row]
                             for row in piece], row_degrees, col_degrees)


def _require_order(ring, piece, k, what):
    """Raise LiftError unless every term of `piece` has parameter order k,
    and VersalError if a word of it overflowed."""
    overflow, t_degree = ring.overflow_mask, ring.t_degree
    for row in piece:
        for fd in row:
            for w in fd:
                if w & overflow:
                    raise ring.overflow_error()
                if t_degree(w) != k:
                    raise LiftError("%s piece of order %d has terms of "
                                    "another order" % (what, k))


def _reduction_setup(F0m, R0, St):
    """Tracked bases splitting residual columns into relation and ideal parts.

    Returns (gb0, ideal_exprs, n_ideal), all over the parameter ring St:
    gb0 is a tracked basis of the module spanned by the columns of
    transpose(R0) together with ideal multiples of the unit vectors; its
    generators are ordered so that the R0.cols columns of transpose(R0)
    come first, then for each position the ideal basis polynomials.
    ideal_exprs writes each ideal basis polynomial in the original
    generator columns of F0, as one term dict ``{word: coeff}`` per
    generator.  No input involves a parameter, so both bases are the
    parameter-free ones with padded monomials.
    """
    gbI = buchberger(F0m.promote(St), track=True)
    ideal_exprs = [{j: poly.words() for j, poly in cofs.items()}
                   for cofs in gbI.expressions()]
    hpolys = gbI.polynomials()
    l = R0.cols
    cols = R0.promote(St).transpose().columns()
    cols += _ideal_unit_columns(St, hpolys, l)
    gb0 = buchberger(PolyMatrix.from_columns(St, l, cols), track=True)
    return gb0, ideal_exprs, len(hpolys)


def _echelon_obstructions(V, gb0):
    """Echelonize the obstruction vectors modulo relations and the ideal.

    V holds the obstruction vectors as columns, over the ring of gb0.
    Returns (lookup, rows, T): lookup maps a leading (position, word) pair
    to an echelon row index; rows holds the echelon vectors as lists of
    ((position, word), coeff) terms with leading coefficient 1; row j of T
    expresses echelon vector j in the original obstruction vectors.
    """
    d = V.cols
    reduced = [[comp.words() for comp in gb0.normal_form(V.column(k))]
               for k in range(d)]
    support = {(pos, w) for red in reduced
               for pos, fd in enumerate(red) for w in fd}
    labels = sorted(support, key=lambda t: (t[1], -t[0]), reverse=True)
    col_of = {lab: c for c, lab in enumerate(labels)}
    vectors = [{col_of[(pos, w)]: c
                for pos, fd in enumerate(red) for w, c in fd.items()}
               for red in reduced]
    R, pivots, T = rref_with_transform(SparseMatrix(len(labels), vectors))
    if len(pivots) != d:
        raise LiftError("obstruction vectors are dependent modulo relations")
    lookup = {}
    rows = []
    trows = []
    for j, pc in enumerate(pivots):
        lookup[labels[pc]] = j
        rows.append([(labels[c], x) for c, x in R[j].items()])
        trows.append([T[j].get(k, 0) for k in range(d)])
    return lookup, rows, trows


def _lowest_g_basis(state):
    """Tracked scalar basis of the lowest-order pieces of the G rows.

    Each element is returned as (exponent word and word of the leading
    monomial, term dict, cofactor term dicts over the G rows); all of them
    involve only the parameters.
    """
    if not state.lg:
        state.gbt = ()
        return
    ring = state.ring
    rows = sorted(state.lg)
    gb = buchberger([Polynomial.from_words(ring, state.lg_poly[k])
                     for k in rows], track=True)
    out = []
    for el, lt, expr in zip(gb.elements, gb.leading_terms(), gb.expressions()):
        ltw = ring.pack(lt[1])
        urep = {rows[i]: c.words() for i, c in expr.items()}
        out.append((ring.exponents(ltw), ltw, el[0].words(), urep))
    state.gbt = tuple(out)


def _fr_into(acc, Fa, Rb):
    """acc[s] += (Fa * Rb)[0, s]: the rows of transpose(Fa * Rb), added to
    the per-row term dicts `acc`."""
    for fd, row in zip(Fa[0], Rb):
        if fd:
            for s, rd in enumerate(row):
                if rd:
                    mul_into(acc[s], fd, rd)


def _cg_into(acc, Cc, Gg):
    """acc[i] += (Cc * Gg)[i, 0] for an l x d piece Cc and a d x 1 Gg."""
    gcol = [row[0] for row in Gg]
    for a, row in zip(acc, Cc):
        for cd, gd in zip(row, gcol):
            if gd and cd:
                mul_into(a, cd, gd)


def _error_term(state, target):
    """The order-`target` part of transpose(F*R) + C*G from known pieces, as
    one term dict per relation.

    At the start of the step that computes order `target` the pieces F, R
    and G of that order do not exist yet, so this is the error that step
    must cancel.
    """
    acc = [{} for _ in range(state.l)]
    for a in range(max(0, target - len(state.R) + 1),
                   min(target, len(state.F) - 1) + 1):
        _fr_into(acc, state.F[a], state.R[target - a])
    for cc, Cp in state.C.items():
        Gp = state.G.get(target - cc)
        if Gp is not None:
            _cg_into(acc, Cp, Gp)
    return acc


def _phase_a(state, nf, target):
    """Absorb the reduced error term into new G and C contributions.

    Works down the reduced error greedily: a term whose parameter part is a
    multiple of an existing lowest-order obstruction equation is absorbed
    through C; otherwise its x-part must be the lead of an echelonized
    obstruction vector, which contributes to G.  A term matching neither is
    a genuine obstruction.

    Returns (g_new, c_new, b_sub): g_new maps a G row to a parameter-only
    term dict, c_new maps (position, G row) to a term dict, and b_sub is the
    exact total absorbed through C (needed to rebuild the residual).
    """
    ring = state.ring
    split, exponents, dm = ring.split, ring.exponents, ring.div_mask
    gbt = state.gbt or ()
    g_new = {}
    c_new = {}
    b_sub = {}
    # largest term first, in the term order of the reduction basis
    work = _TermQueue(state.xbasis.engine.desc_key, nf)
    add = work.add
    while (top := work.pop()) is not None:
        term, coeff = top
        pos, word = term
        xm, tm = split(word)
        hit = None
        if gbt:
            te = exponents(tm)
            for cand in gbt:
                if not (te - cand[0]) & dm:
                    hit = cand
                    break
        if hit is not None:
            _, ltm, hfd, urep = hit
            base = word - ltm  # the x-part times tm / ltm
            for hm, hc in hfd.items():
                t2 = (pos, base + hm)
                v = b_sub.get(t2, 0) + coeff * hc
                if v:
                    b_sub[t2] = v
                else:
                    b_sub.pop(t2, None)
                if t2 != term:
                    add(t2, -coeff * hc)
            for k, ufd in urep.items():
                acc = c_new.setdefault((pos, k), {})
                mul_into(acc, {base: -coeff}, ufd)
            continue
        j = state.vhat_lookup.get((pos, xm))
        if j is None:
            raise ObstructionError(
                "no deformation beyond order %d: relation %d carries an "
                "unliftable obstruction term" % (target - 1, pos))
        for t0, c2 in state.vhat_rows[j]:
            t2 = (t0[0], t0[1] + tm)
            if t2 != term:
                add(t2, -coeff * c2)
        for k, tk in enumerate(state.vhat_T[j]):
            if tk:
                acc = g_new.setdefault(k, {})
                v = acc.get(tm, 0) - coeff * tk
                if v:
                    acc[tm] = v
                else:
                    acc.pop(tm, None)
    return g_new, c_new, b_sub


def _lift_step(state):
    """Extend all pieces by one parameter order; returns True when the full
    identity transpose(F*R) + C*G is now exactly zero.

    The error to cancel is the part of order `target` that the previous
    check computed.  It is reduced once, tracked; phase A turns its normal
    form into new G and C contributions, and the correction V*g - b_sub
    they make to the residual is reduced on its own, only when it is
    nonempty.  Reduction is linear, so the two normal forms and cofactors
    add up to those of the whole residual.  As each new piece is stored,
    its products of order `target` are added to the error, which gives the
    exact order-`target` part of the identity; it must vanish (LiftError
    otherwise).  Closure is decided from the parts above it.
    """
    target = state.order + 1
    ring = state.ring
    m, l = state.m, state.l

    part = state.next_error
    ed = {(i, w): c for i, row in enumerate(part) for w, c in row.items()}
    nf, cofs = state.xbasis.reduce(ed)
    g_new, c_new, b_sub = _phase_a(state, nf, target)

    # The exact residual error + V*g - b_sub lies in the module spanned by
    # the relation and ideal columns, whose tracked cofactors give the new
    # F and R pieces.
    gpiece = None
    if any(fd for fd in g_new.values()):
        gpiece = [[g_new.get(k, {})] for k in range(state.d)]
    vg = [{} for _ in range(l)]  # V*g, which is also C[0]*G[target]
    if gpiece is not None:
        _cg_into(vg, state.V, gpiece)
    corr = {(i, w): c for i, row in enumerate(vg) for w, c in row.items()}
    add_into(corr, b_sub, -1)
    if corr:
        nf2, cofs2 = state.xbasis.reduce(corr)
        add_into(nf, nf2)
        for idx, fd in cofs2.items():
            add_into(cofs.setdefault(idx, {}), fd)
    if nf:
        raise LiftError("residual fails to decompose at order %d" % target)

    f_row = [{} for _ in range(m)]
    r_acc = [[{} for _ in range(l)] for _ in range(m)]
    ng = state.n_ideal
    for idx, fd in cofs.items():
        if idx < m:
            f_row[idx] = {w: -c for w, c in fd.items()}
        else:
            pos, gi = divmod(idx - m, ng)
            for j, expr in state.ideal_exprs[gi].items():
                mul_into(r_acc[j][pos], fd, expr, -1)
    state.F.append([f_row])
    state.R.append(r_acc)
    _require_order(ring, state.F[target], target, "F")
    _require_order(ring, state.R[target], target, "R")
    _fr_into(part, state.F[target], state.R[0])
    _fr_into(part, state.F[0], state.R[target])

    if gpiece is not None:
        state.G[target] = gpiece
        _require_order(ring, gpiece, target, "G")
        for a, row in zip(part, vg):
            add_into(a, row)
        for k in range(state.d):
            fd = gpiece[k][0]
            if fd and k not in state.lg:
                state.lg[k] = target
                state.lg_poly[k] = fd
                state.gbt = None
    if c_new:
        per_order = {}
        for (pos, k), fd in c_new.items():
            if fd:
                o = target - state.lg[k]
                per_order.setdefault(o, {})[(pos, k)] = fd
        for o, entries in per_order.items():
            addition = [[{} for _ in range(state.d)] for _ in range(l)]
            for (pos, k), fd in entries.items():
                addition[pos][k] = fd
            _require_order(ring, addition, o, "C")
            # the addition sits in the columns of G rows whose lowest piece
            # has order target - o, so this is its only product of order target
            _cg_into(part, addition, state.G[target - o])
            have = state.C.get(o)
            if have is None:
                state.C[o] = addition
            else:
                for hrow, arow in zip(have, addition):
                    for hd, ad in zip(hrow, arow):
                        add_into(hd, ad)

    state.order = target
    if any(part):
        raise LiftError("lifting identity fails through order %d" % target)
    return _identity_defect(state, target + 1) is None


def _identity_defect(state, low):
    """The lowest order >= `low` at which transpose(F*R) + C*G has a nonzero
    part, or None when it has none (or there are no relations to check).

    Every piece has the parameter order of its index, so the order-j part is
    _error_term(state, j), and a piece stored at step k only adds to parts
    of order k and above (an addition to C[o] at step k sits in the columns
    of G rows whose lowest piece has order k - o).  Parts are computed from
    scratch upwards from `low` to the highest order any product reaches,
    stopping at the first that is not zero; the order-(state.order + 1)
    part is kept as the next step's error term, and the step that lifts to
    that order completes the part from the products of its new pieces
    instead of computing it again.
    """
    if state.l == 0:
        return None
    top = len(state.F) + len(state.R) - 2
    if state.G:
        top = max(top, max(state.C) + max(state.G))
    for j in range(low, top + 1):
        part = _error_term(state, j)
        if j == state.order + 1:
            state.next_error = part
        if any(part):
            return j
    return None


class DeformationResult:
    """Outcome of a versal-deformation computation.

    Attributes:
      ring         ring with the deformation parameters appended
      parameters   the parameter names, one per tangent direction
      tangent      TangentBasis of first-order deformations
      obstruction  TangentBasis of the obstruction space
      F_pieces     list of 1 x m matrices, index = parameter order
      R_pieces     list of m x l matrices
      G_pieces     dict order -> d x 1 matrix of obstruction equations
      C_pieces     dict order -> l x d coefficient matrix
      polynomial   True when transpose(F*R) + C*G == 0 holds exactly
      order        highest parameter order computed
      log          progress lines, in order of emission
    """

    def __init__(self, ring, parameters, tangent, obstruction,
                 F_pieces, R_pieces, G_pieces, C_pieces,
                 polynomial, order, log):
        self.ring = ring
        self.parameters = parameters
        self.tangent = tangent
        self.obstruction = obstruction
        self.F_pieces = list(F_pieces)
        self.R_pieces = list(R_pieces)
        self.G_pieces = dict(G_pieces)
        self.C_pieces = dict(C_pieces)
        self.polynomial = polynomial
        self.order = order
        self.log = list(log)

    @staticmethod
    def _total(pieces):
        out = None
        for p in pieces:
            out = p if out is None else out + p
        return out

    def family(self):
        """The perturbed generators as a 1 x m matrix."""
        return self._total(self.F_pieces)

    def relations(self):
        """The lifted relations as an m x l matrix, with family() * relations()
        congruent to zero modulo the obstruction equations."""
        return self._total(self.R_pieces)

    def obstruction_equations(self):
        """A d x 1 matrix of parameter-only equations cutting out the base
        space (the zero matrix when the family is unobstructed)."""
        if self.G_pieces:
            return self._total(self.G_pieces[o] for o in sorted(self.G_pieces))
        d = self.obstruction.dimension if self.obstruction is not None else 0
        return PolyMatrix.zero(self.ring, d, 1)

    def coefficient_matrix(self):
        """The l x d matrix C pairing relations with obstruction equations."""
        if self.C_pieces:
            return self._total(self.C_pieces[o] for o in sorted(self.C_pieces))
        d = self.obstruction.dimension if self.obstruction is not None else 0
        l = self.R_pieces[0].cols if self.R_pieces else 0
        return PolyMatrix.zero(self.ring, l, d)

    @property
    def tangent_dimension(self):
        return self.tangent.dimension

    @property
    def obstruction_dimension(self):
        return self.obstruction.dimension if self.obstruction is not None else 0


def versal_deformation(F0, t1=None, t2=None, degree=None, max_order=20,
                       logger=None):
    """Lift the first-order deformations of the ideal generated by F0 to a
    power-series family, order by order.

    F0 is a list of polynomials, or a 1-row matrix, over a ring without
    parameters.  With ``degree`` the tangent directions are the degree-d
    part of the normal module (deformations inside the ambient space, for
    multigraded Hilbert scheme germs); without, they form a basis of the
    quotient by trivial deformations.  Precomputed bases may be passed as
    ``t1``/``t2``.  Lifting stops once the family closes up exactly or
    ``max_order`` is reached; ``logger`` receives progress lines.
    """
    if max_order < 1:
        raise VersalError("max_order must be at least 1")
    F0m = as_generator_matrix(F0)
    base = F0m.ring
    if base.t_vars:
        raise VersalError("generators must not involve parameters")
    log = []

    def emit(line):
        log.append(line)
        if logger is not None:
            logger(line)

    emit(MSG_FIRST_ORDER)
    if t1 is None:
        t1 = normal_matrix(F0m, degree) if degree is not None else cotangent1(F0m)
    if t2 is None:
        t2 = cotangent2(F0m, degree)
    n = t1.dimension
    R0 = first_syzygies(F0m)
    m, l, d = F0m.cols, R0.cols, t2.dimension

    if n == 0:
        emit(MSG_POLYNOMIAL)
        return DeformationResult(
            base, (), t1, t2, [F0m], [R0], {}, {0: t2.vectors},
            True, 0, log)

    if base.is_graded and t1.degrees is not None:
        tdegs = [tuple(-c for c in dd) for dd in t1.degrees]
        St, params = extend_with_parameters(base, n, tdegs)
    else:
        St, params = extend_with_parameters(RingSpec(base.x_vars, ()), n)

    emit(MSG_RELATIONS)
    F0s = F0m.promote(St)
    R0s = R0.promote(St)
    tcol = PolyMatrix.from_columns(
        St, n, [[Polynomial.variable(St, nm) for nm in params]])
    F1 = (t1.vectors.promote(St) * tcol).transpose()
    if l:
        B = (F1 * R0s).map_entries(lambda p: -p)
        R1 = module_quotient_lift(F0s, B)
        if R1 is None:
            raise LiftError("first-order relations do not lift")
    else:
        R1 = PolyMatrix.zero(St, m, 0)

    Vs = t2.vectors.promote(St)
    state = _LiftState(St, m, l, d)
    state.F = [_words(F0s), _words(F1)]
    state.R = [_words(R0s), _words(R1)]
    state.V = _words(Vs)
    state.C = {0: state.V}
    state.order = 1
    if l:
        gb0, state.ideal_exprs, state.n_ideal = _reduction_setup(F0m, R0, St)
        state.xbasis = _XBasis(gb0)
        if d:
            state.vhat_lookup, state.vhat_rows, state.vhat_T = \
                _echelon_obstructions(Vs, gb0)

    _require_order(St, state.F[1], 1, "F")
    _require_order(St, state.R[1], 1, "R")
    bad = _identity_defect(state, 0)
    if bad is not None and bad <= 1:
        raise LiftError("first-order family fails its own relations")
    emit(MSG_LIFTING)
    polynomial = bad is None
    if polynomial:
        emit(MSG_POLYNOMIAL)
    else:
        for target in range(2, max_order + 1):
            emit(MSG_ORDER % target)
            if state.gbt is None:
                _lowest_g_basis(state)
            if _lift_step(state):
                polynomial = True
                emit(MSG_POLYNOMIAL)
                break

    # orders 0 and 1 keep the matrices they were packed from, with their
    # degrees; G pieces carry V's column degrees as their row degrees
    rdeg = Vs.col_degrees
    cdeg = ((0,) * St.grading_rank,) if rdeg is not None else None
    F = [F0s, F1] + [_matrix(St, p) for p in state.F[2:]]
    R = [R0s, R1] + [_matrix(St, p) for p in state.R[2:]]
    G = {o: _matrix(St, p, rdeg, cdeg) for o, p in state.G.items()}
    C = {o: Vs if o == 0 else _matrix(St, p) for o, p in state.C.items()}
    return DeformationResult(
        St, params, t1, t2, F, R, G, C, polynomial, state.order, log)
