"""Tangent spaces, normal modules, and obstruction spaces of singularities.

The input throughout is a one-row matrix F of ideal generators.  With R the
matrix of first syzygies of F, a tangent vector is a column v over S/I
(I = ideal of F's entries) satisfying v^T R = 0 in S/I; first-order
deformation classes are such columns modulo the trivial ones coming from
derivations of the ambient ring.  Obstruction classes live one step up the
resolution: columns w over S/I indexed by the syzygies, vanishing against
both the Koszul relations and the second syzygies, modulo columns of R^T.

Both spaces come in two flavours:

* a graded piece of a fixed multidegree, computed by exact linear algebra on
  standard monomials (this is what drives multigraded Hilbert scheme
  computations), and
* the full space for a singularity with finite-dimensional tangent theory,
  computed through an explicit subquotient presentation.
"""

from functools import lru_cache

from .errors import FiniteDimError, GradingError, VersalError
from .exactla import SparseMatrix, kernel_basis, rref
from .groebner import (
    PolyMatrix,
    _homogeneous_column_degrees,
    _ideal_unit_columns,
    _preimage_basis,
    buchberger,
    kernel_mod_ideal,
    koszul_syzygies,
    module_quotient_lift,
    monomials_of_degree,
    standard_monomials,
    syzygy_matrix,
)
from .polyring import Polynomial


class TangentBasis:
    """Basis of a tangent or obstruction space (or a graded piece of one).

    `vectors` is a PolyMatrix whose columns are the basis elements: vectors
    in S^m (one slot per ideal generator) for tangent directions, in S^l
    (one slot per syzygy) for obstructions.  `degrees` records the
    multidegree of each column when that makes sense, with the convention
    that a tangent vector of degree d sends a generator of degree e to an
    element of degree d + e.
    """

    def __init__(self, vectors, degrees=None):
        self.vectors = vectors
        self.degrees = tuple(tuple(d) for d in degrees) if degrees is not None else None

    @property
    def ring(self):
        return self.vectors.ring

    @property
    def dimension(self):
        return self.vectors.cols

    def __len__(self):
        return self.vectors.cols

    def column(self, j):
        return self.vectors.column(j)

    def __repr__(self):
        return "TangentBasis(dim=%d)" % self.dimension


# ---------------------------------------------------------------------------
# shared setup
# ---------------------------------------------------------------------------


def as_generator_matrix(F0):
    """Normalize generators to a one-row PolyMatrix with column degrees."""
    if isinstance(F0, PolyMatrix):
        if F0.rows != 1:
            raise VersalError("expected a one-row matrix of generators")
        return F0
    polys = list(F0)
    if not polys:
        raise VersalError("no generators supplied")
    ring = polys[0].ring
    degs = None
    if ring.is_graded:
        degs = []
        for p in polys:
            d = p.multi_degree()
            if d is None:
                degs = None
                break
            degs.append(d)
    return PolyMatrix.row_vector(
        ring, polys, col_degrees=tuple(degs) if degs else None)


@lru_cache(maxsize=64)
def ideal_basis(F0):
    """Reduced Gröbner basis of the ideal of F0's entries (None for 0)."""
    gens = [p for p in F0.entries[0] if not p.is_zero()]
    return buchberger(gens) if gens else None


@lru_cache(maxsize=64)
def first_syzygies(F0):
    """Minimal generating syzygies R of the generator row (F * R = 0)."""
    return syzygy_matrix(F0)


@lru_cache(maxsize=64)
def _koszul_data(F0):
    """(K, Lambda, B): Koszul relations, their lift through R, and the
    second syzygies."""
    ring = F0.ring
    R0 = first_syzygies(F0)
    K = koszul_syzygies(F0)
    if K.cols == 0 or R0.cols == 0:
        lam = PolyMatrix.zero(ring, R0.cols, K.cols,
                              row_degrees=R0.col_degrees,
                              col_degrees=K.col_degrees)
    else:
        lam = module_quotient_lift(R0, K)
        if lam is None:
            raise VersalError("koszul relations failed to lift through the syzygies")
    B = syzygy_matrix(R0)
    return K, lam, B


def jacobian_matrix(F0):
    """m x n matrix of partial derivatives of the generators."""
    F0 = as_generator_matrix(F0)
    ring = F0.ring
    cols = []
    for i in range(ring.nx):
        cols.append([F0[0, j].partial_derivative(i) for j in range(F0.cols)])
    return PolyMatrix.from_columns(ring, F0.cols, cols)


def _as_degree(ring, d):
    if isinstance(d, int):
        d = (d,)
    d = tuple(int(c) for c in d)
    if not ring.is_graded:
        raise GradingError("ring %r has no grading" % (ring,))
    if len(d) != ring.grading_rank:
        raise GradingError(
            "degree %r does not match grading rank %d" % (d, ring.grading_rank))
    return d


def _shift(d, e):
    return tuple(a + b for a, b in zip(d, e))


def _neg(d):
    return tuple(-a for a in d)


# ---------------------------------------------------------------------------
# graded pieces
# ---------------------------------------------------------------------------


def _std_space(gbI, ring, position_degrees):
    """Standard-monomial coordinates (position, monomial) for each slot."""
    labels = []
    index = {}
    for pos, dp in enumerate(position_degrees):
        if any(c < 0 for c in dp):
            continue
        monos = (standard_monomials(gbI, dp) if gbI is not None
                 else monomials_of_degree(ring, dp))
        for mono in monos:
            index[(pos, mono)] = len(labels)
            labels.append((pos, mono))
    return labels, index


def _nf(gbI, p):
    return gbI.normal_form(p) if gbI is not None else p


def _vector_coords(gbI, column, index):
    """Coordinates {label index: entry} of an S^amb column after
    reduction, or raise."""
    v = {}
    for pos, p in enumerate(column):
        if p.is_zero():
            continue
        nf = _nf(gbI, p)
        for mono, c in nf.terms_dict.items():
            idx = index.get((pos, mono))
            if idx is None:
                raise GradingError("entry of unexpected degree; input is not "
                                   "homogeneous for the given grading")
            v[idx] = c
    return v


def _graded_kernel(F0, amb_degrees, cond, cond_degrees):
    """Kernel of the reduction of `cond`^T on the given graded slots.

    Returns (labels, index, kernel vectors {label index: entry} as from
    `kernel_basis`), with labels and index as from `_std_space`.  The
    conditions are the columns of `cond` paired against the ambient vector,
    each condition c landing in the degree cond_degrees[c] piece of S/I,
    whose coordinates are the `_std_space` labels of cond_degrees.
    """
    ring = F0.ring
    gbI = ideal_basis(F0)
    labels, index = _std_space(gbI, ring, amb_degrees)
    row_labels, row_index = _std_space(gbI, ring, cond_degrees)
    rows = [{} for _ in row_labels]
    for j, (pos, mono) in enumerate(labels):
        mu = Polynomial.from_monomial(ring, mono)
        for c in range(cond.cols):
            g = cond[pos, c]
            if g.is_zero():
                continue
            nf = _nf(gbI, mu * g)
            for m2, coeff in nf.terms_dict.items():
                ri = row_index.get((c, m2))
                if ri is None:
                    raise GradingError("condition of unexpected degree; input "
                                       "is not homogeneous for the given grading")
                row = rows[ri]
                row[j] = row.get(j, 0) + coeff
    return labels, index, kernel_basis(SparseMatrix(len(labels), rows))


def _coords_to_columns(ring, amb, labels, vectors, selection=None):
    if selection is not None:
        vectors = [vectors[j] for j in selection]
    cols = []
    for v in vectors:
        comps = [dict() for _ in range(amb)]
        for idx, c in v.items():
            pos, mono = labels[idx]
            comps[pos][mono] = c
        cols.append([Polynomial(ring, d) for d in comps])
    return cols


def _quotient_selection(trivial_vectors, kernel):
    """Indices of kernel vectors spanning kernel / span(trivial)."""
    ntr = len(trivial_vectors)
    rows = {}
    for j, v in enumerate(trivial_vectors + kernel):
        for i, c in v.items():
            rows.setdefault(i, {})[j] = c
    _, pivots = rref(SparseMatrix(ntr + len(kernel), list(rows.values())))
    return [p - ntr for p in pivots if p >= ntr]


def normal_matrix(F0, degree):
    """Basis of the degree-`degree` piece of the normal module Hom(I, S/I).

    Columns are m-vectors v over S (standard-monomial representatives) with
    v^T R = 0 modulo I; no quotient by trivial deformations is taken.
    """
    F0 = as_generator_matrix(F0)
    ring = F0.ring
    d = _as_degree(ring, degree)
    if F0.col_degrees is None:
        raise GradingError("generators must be homogeneous to take a graded piece")
    R0 = first_syzygies(F0)
    amb_degrees = [_shift(d, e) for e in F0.col_degrees]
    if R0.cols and R0.col_degrees is None:
        raise GradingError("syzygies are not homogeneous")
    cond_degrees = [_shift(d, e) for e in (R0.col_degrees or ())]
    labels, _, ker = _graded_kernel(F0, amb_degrees, R0, cond_degrees)
    cols = _coords_to_columns(ring, F0.cols, labels, ker)
    vectors = PolyMatrix.from_columns(
        ring, F0.cols, cols,
        row_degrees=tuple(_neg(e) for e in F0.col_degrees),
        col_degrees=tuple(d for _ in cols))
    return TangentBasis(vectors, degrees=[d] * len(cols))


def cotangent1(F0, degree=None):
    """First tangent space of the singularity defined by F0.

    With a degree: the graded piece, i.e. the degree-`degree` part of the
    normal module modulo trivial deformations.  Without: the full space,
    which must be finite-dimensional.
    """
    F0 = as_generator_matrix(F0)
    ring = F0.ring
    if degree is None:
        return _cotangent1_local(F0)
    d = _as_degree(ring, degree)
    if F0.col_degrees is None:
        raise GradingError("generators must be homogeneous to take a graded piece")
    gbI = ideal_basis(F0)
    R0 = first_syzygies(F0)
    amb_degrees = [_shift(d, e) for e in F0.col_degrees]
    cond_degrees = [_shift(d, e) for e in (R0.col_degrees or ())]
    labels, index, ker = _graded_kernel(F0, amb_degrees, R0, cond_degrees)
    jac = jacobian_matrix(F0)
    trivial = []
    for i in range(ring.nx):
        for mono in monomials_of_degree(ring, _shift(d, ring.x_degrees[i])):
            mu = Polynomial.from_monomial(ring, mono)
            trivial.append(_vector_coords(
                gbI, [mu * jac[p, i] for p in range(F0.cols)], index))
    selection = _quotient_selection(trivial, ker)
    cols = _coords_to_columns(ring, F0.cols, labels, ker, selection)
    vectors = PolyMatrix.from_columns(
        ring, F0.cols, cols,
        row_degrees=tuple(_neg(e) for e in F0.col_degrees),
        col_degrees=tuple(d for _ in cols))
    return TangentBasis(vectors, degrees=[d] * len(cols))


def cotangent2(F0, degree=None):
    """Obstruction space of the singularity defined by F0.

    Elements are l-vectors over S/I (l = number of syzygies) vanishing
    against the Koszul relations and second syzygies, modulo columns of R^T.
    With a degree, only that graded piece is computed.
    """
    F0 = as_generator_matrix(F0)
    ring = F0.ring
    R0 = first_syzygies(F0)
    l = R0.cols
    if l == 0:
        vectors = PolyMatrix.zero(ring, 0, 0)
        return TangentBasis(vectors, degrees=[] if ring.is_graded else None)
    if degree is None:
        return _cotangent2_local(F0)
    d = _as_degree(ring, degree)
    if F0.col_degrees is None or R0.col_degrees is None:
        raise GradingError("generators must be homogeneous to take a graded piece")
    gbI = ideal_basis(F0)
    K, lam, B = _koszul_data(F0)
    cond = lam.hstack(B) if B.cols else lam
    cond_shifts = list(K.col_degrees or ()) + list(B.col_degrees or ())
    if len(cond_shifts) != cond.cols:
        raise GradingError("relation degrees are unavailable")
    amb_degrees = [_shift(d, e) for e in R0.col_degrees]
    cond_degrees = [_shift(d, e) for e in cond_shifts]
    labels, index, ker = _graded_kernel(F0, amb_degrees, cond, cond_degrees)
    trivial = []
    for i in range(F0.cols):
        for mono in monomials_of_degree(ring, _shift(d, F0.col_degrees[i])):
            mu = Polynomial.from_monomial(ring, mono)
            trivial.append(_vector_coords(
                gbI, [mu * R0[i, s] for s in range(l)], index))
    selection = _quotient_selection(trivial, ker)
    cols = _coords_to_columns(ring, l, labels, ker, selection)
    vectors = PolyMatrix.from_columns(
        ring, l, cols,
        row_degrees=tuple(_neg(e) for e in R0.col_degrees),
        col_degrees=tuple(d for _ in cols))
    return TangentBasis(vectors, degrees=[d] * len(cols))


# ---------------------------------------------------------------------------
# full (local) spaces via subquotient presentations
# ---------------------------------------------------------------------------


def _strip_degrees(M):
    return PolyMatrix(M.ring, M.entries)


def _subquotient_std_basis(ring, gbI, U, w_columns):
    """Monomial basis of (im U)/(im W) inside S^amb.

    U presents a submodule of S^amb containing the span W of w_columns;
    the quotient is S^u / P for P = {a : U a in W}, and the basis is the
    standard-monomial one of that presentation, pushed back through U and
    reduced mod the ideal.  P's reduced Gröbner basis comes from one
    elimination (`_preimage_basis`), not from the syzygies of [U | W]; the
    output depends only on its leading terms.  Raises FiniteDimError when
    infinite-dimensional.
    """
    amb = U.rows
    if U.cols == 0:
        return []
    gbP = _preimage_basis(U, w_columns)
    if not gbP.is_finite_quotient():
        raise FiniteDimError(
            "space is not finite-dimensional (singularity is not isolated "
            "in the sense required here)")
    std = gbP.standard_module_monomials()
    out = []
    for pos, mono in std:
        mu = Polynomial.from_monomial(ring, mono)
        col = [_nf(gbI, mu * U[i, pos]) for i in range(amb)]
        out.append(col)
    return out


def _cotangent1_local(F0):
    ring = F0.ring
    gbI = ideal_basis(F0)
    R0 = first_syzygies(F0)
    m = F0.cols
    gens = gbI.polynomials() if gbI is not None else []
    if R0.cols == 0:
        U = PolyMatrix.identity(ring, m)
    else:
        U = kernel_mod_ideal(_strip_degrees(R0.transpose()), gbI)
    jac = jacobian_matrix(F0)
    w_cols = jac.columns() + _ideal_unit_columns(ring, gens, m)
    cols = _subquotient_std_basis(ring, gbI, U, w_cols)
    degrees = None
    if ring.is_graded and F0.col_degrees is not None:
        degrees = _homogeneous_column_degrees(
            cols, [_neg(e) for e in F0.col_degrees])
    vectors = PolyMatrix.from_columns(
        ring, m, cols,
        row_degrees=(tuple(_neg(e) for e in F0.col_degrees)
                     if F0.col_degrees is not None else None),
        col_degrees=degrees)
    return TangentBasis(vectors, degrees=degrees)


def _cotangent2_local(F0):
    ring = F0.ring
    gbI = ideal_basis(F0)
    R0 = first_syzygies(F0)
    l = R0.cols
    gens = gbI.polynomials() if gbI is not None else []
    K, lam, B = _koszul_data(F0)
    cond = lam.hstack(B) if B.cols else lam
    if cond.cols == 0:
        U = PolyMatrix.identity(ring, l)
    else:
        U = kernel_mod_ideal(_strip_degrees(cond.transpose()), gbI)
    w_cols = R0.transpose().columns() + _ideal_unit_columns(ring, gens, l)
    cols = _subquotient_std_basis(ring, gbI, U, w_cols)
    degrees = None
    if ring.is_graded and R0.col_degrees is not None:
        degrees = _homogeneous_column_degrees(
            cols, [_neg(e) for e in R0.col_degrees])
    vectors = PolyMatrix.from_columns(
        ring, l, cols,
        row_degrees=(tuple(_neg(e) for e in R0.col_degrees)
                     if R0.col_degrees is not None else None),
        col_degrees=degrees)
    return TangentBasis(vectors, degrees=degrees)
