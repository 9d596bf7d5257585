"""Tangent spaces, normal modules, and obstruction spaces of singularities.

The input throughout is a one-row matrix F of ideal generators, R its
matrix of first syzygies, and I the ideal of F's entries.  All three spaces
are one construction: the vectors v over S/I on which a condition matrix C
vanishes (v^T C = 0 in S/I), modulo the span of a matrix of trivial
directions.  Each public function only names its three inputs:

* the normal module Hom(I, S/I): conditions R, no trivial directions;
* the tangent space T1: conditions R, trivial directions the Jacobian
  matrix (the derivations of the ambient ring);
* the obstruction space T2, one step up the resolution: vectors indexed by
  the syzygies, conditions [Lambda | B] (the Koszul relations lifted
  through R, and the second syzygies), trivial directions R^T.

Shifts carry the grading: the slots of v, the conditions and the trivial
directions each have a degree, and `_space` builds either

* the graded piece of a fixed multidegree, by exact linear algebra on
  standard monomials (this is what drives multigraded Hilbert scheme
  computations), or, without a degree,
* the full space of a singularity with finite-dimensional tangent theory,
  through an explicit subquotient presentation.
"""

from functools import lru_cache

from .errors import FiniteDimError, GradingError, VersalError
from .exactla import SparseMatrix, kernel_basis, rref
from .groebner import (
    PolyMatrix,
    _as_degree,
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
    """Reduced Gröbner basis of the ideal of F0's entries; zero entries add
    nothing, so the zero ideal has an empty basis."""
    return buchberger(F0)


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


def _shift(d, e):
    return tuple(a + b for a, b in zip(d, e))


def _neg(d):
    return tuple(-a for a in d)


# ---------------------------------------------------------------------------
# graded pieces
# ---------------------------------------------------------------------------


def _std_space(gbI, position_degrees):
    """Standard-monomial coordinates (position, monomial) for each slot."""
    labels = []
    index = {}
    for pos, dp in enumerate(position_degrees):
        if any(c < 0 for c in dp):
            continue
        for mono in standard_monomials(gbI, dp):
            index[(pos, mono)] = len(labels)
            labels.append((pos, mono))
    return labels, index


def _vector_coords(gbI, column, index):
    """Coordinates {label index: entry} of a column after reduction modulo
    the ideal, or raise GradingError for an entry of unexpected degree."""
    v = {}
    for pos, p in enumerate(column):
        if p.is_zero():
            continue
        for mono, c in gbI.normal_form(p).terms_dict.items():
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
    labels, index = _std_space(gbI, amb_degrees)
    row_labels, row_index = _std_space(gbI, cond_degrees)
    rows = [{} for _ in row_labels]
    for j, (pos, mono) in enumerate(labels):
        mu = Polynomial.from_monomial(ring, mono)
        # the image of slot j: mu times row pos of cond, one entry per condition
        image = [g if g.is_zero() else mu * g for g in cond.entries[pos]]
        for ri, coeff in _vector_coords(gbI, image, row_index).items():
            rows[ri][j] = coeff
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
        col = [gbI.normal_form(mu * U[i, pos]) for i in range(amb)]
        out.append(col)
    return out


# ---------------------------------------------------------------------------
# the one construction
# ---------------------------------------------------------------------------


def _space(F0, degree, amb_shifts, cond, cond_shifts, trivial=None,
           trivial_shifts=()):
    """Vectors v in S^amb (amb = cond.rows) with v^T cond = 0 modulo I,
    taken modulo the columns of `trivial` (and of I S^amb).

    With a degree d, slot p of v lives in degree d + amb_shifts[p],
    condition c lands in degree d + cond_shifts[c], and column i of
    `trivial` is multiplied by every monomial of degree d + trivial_shifts[i];
    the result is the degree-d piece.  Without a degree it is the whole
    space, which must be finite-dimensional.  Slot p has row degree
    -amb_shifts[p] in the returned vectors.
    """
    ring = F0.ring
    amb = cond.rows
    if degree is not None:
        d = _as_degree(ring, degree)
        if any(s is None for s in (amb_shifts, cond_shifts, trivial_shifts)):
            raise GradingError(
                "generators must be homogeneous to take a graded piece")
    if amb == 0:  # T2 of an F without syzygies
        return TangentBasis(PolyMatrix.zero(ring, 0, 0),
                            degrees=[] if ring.is_graded else None)
    row_degrees = (tuple(_neg(e) for e in amb_shifts)
                   if amb_shifts is not None else None)
    gbI = ideal_basis(F0)

    if degree is None:
        if cond.cols == 0:
            U = PolyMatrix.identity(ring, amb)
        else:
            U = kernel_mod_ideal(_strip_degrees(cond.transpose()), gbI)
        w_cols = ((trivial.columns() if trivial is not None else [])
                  + _ideal_unit_columns(ring, gbI.polynomials(), amb))
        cols = _subquotient_std_basis(ring, gbI, U, w_cols)
        degrees = None
        if ring.is_graded and row_degrees is not None:
            degrees = _homogeneous_column_degrees(cols, row_degrees)
        vectors = PolyMatrix.from_columns(
            ring, amb, cols, row_degrees=row_degrees, col_degrees=degrees)
        return TangentBasis(vectors, degrees=degrees)

    amb_degrees = [_shift(d, e) for e in amb_shifts]
    cond_degrees = [_shift(d, e) for e in cond_shifts]
    labels, index, ker = _graded_kernel(F0, amb_degrees, cond, cond_degrees)
    selection = None
    if trivial is not None:
        trivial_vectors = []
        for i in range(trivial.cols):
            for mono in monomials_of_degree(ring, _shift(d, trivial_shifts[i])):
                mu = Polynomial.from_monomial(ring, mono)
                trivial_vectors.append(_vector_coords(
                    gbI, [mu * trivial[p, i] for p in range(amb)], index))
        selection = _quotient_selection(trivial_vectors, ker)
    cols = _coords_to_columns(ring, amb, labels, ker, selection)
    vectors = PolyMatrix.from_columns(
        ring, amb, cols, row_degrees=row_degrees,
        col_degrees=tuple(d for _ in cols))
    return TangentBasis(vectors, degrees=[d] * len(cols))


# ---------------------------------------------------------------------------
# the three spaces
# ---------------------------------------------------------------------------


def normal_matrix(F0, degree):
    """Basis of the degree-`degree` piece of the normal module Hom(I, S/I).

    Columns are m-vectors v over S (standard-monomial representatives) with
    v^T R = 0 modulo I; no quotient by trivial deformations is taken.
    """
    F0 = as_generator_matrix(F0)
    R0 = first_syzygies(F0)
    return _space(F0, degree, F0.col_degrees, R0, R0.col_degrees)


def cotangent1(F0, degree=None):
    """First tangent space of the singularity defined by F0.

    With a degree: the graded piece, i.e. the degree-`degree` part of the
    normal module modulo trivial deformations.  Without: the full space,
    which must be finite-dimensional.
    """
    F0 = as_generator_matrix(F0)
    R0 = first_syzygies(F0)
    return _space(F0, degree, F0.col_degrees, R0, R0.col_degrees,
                  jacobian_matrix(F0), F0.ring.x_degrees)


def cotangent2(F0, degree=None):
    """Obstruction space of the singularity defined by F0.

    Elements are l-vectors over S/I (l = number of syzygies) vanishing
    against the Koszul relations and second syzygies, modulo columns of R^T.
    With a degree, only that graded piece is computed.
    """
    F0 = as_generator_matrix(F0)
    R0 = first_syzygies(F0)
    _, lam, B = _koszul_data(F0)
    cond = lam.hstack(B) if B.cols else lam
    return _space(F0, degree, R0.col_degrees, cond, cond.col_degrees,
                  R0.transpose(), F0.col_degrees)
