"""Tests for exact rational linear algebra."""

from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from versal import ScalarMatrix, kernel_basis, rank, rref, rref_with_transform, solve
from versal.exactla import SparseMatrix


def mat(rows):
    return ScalarMatrix.from_rows([[Fraction(v) for v in row] for row in rows])


def matmul(A, B):
    C = ScalarMatrix(A.rows, B.cols)
    for i in range(A.rows):
        for j in range(B.cols):
            C.data[i * B.cols + j] = sum(
                A.data[i * A.cols + k] * B.data[k * B.cols + j]
                for k in range(A.cols))
    return C


entries = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def matrices(draw, max_dim=5):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    return mat([[draw(entries) for _ in range(c)] for _ in range(r)])


def test_rref_canonical_form():
    R, pivots = rref(mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]]))
    assert R.data == mat([[1, 0, 1], [0, 1, 1], [0, 0, 0]]).data
    assert pivots == [0, 1]


def test_rank_and_kernel_dimensions():
    M = mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(M) == 2
    K = kernel_basis(M)
    assert K.rows == 3 and K.cols == 1
    assert K.column(0) == [Fraction(-1), Fraction(-1), Fraction(1)]


def test_solve_consistent_and_inconsistent():
    M = mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    x = solve(M, [Fraction(6), Fraction(12), Fraction(2)])
    assert x == [Fraction(2), Fraction(2), Fraction(0)]
    assert solve(M, [Fraction(1), Fraction(0), Fraction(0)]) is None


def test_identity_and_transpose():
    I = ScalarMatrix.identity(3)
    assert rank(I) == 3
    M = mat([[1, 2], [3, 4], [5, 6]])
    assert M.transpose().row(0) == [Fraction(1), Fraction(3), Fraction(5)]
    assert M.transpose().transpose().data == M.data


def test_zero_sized_matrices():
    Z = ScalarMatrix(0, 3)
    assert rank(Z) == 0
    assert kernel_basis(Z).cols == 3  # everything is in the kernel
    assert rank(ScalarMatrix(3, 0)) == 0


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_rref_is_idempotent_and_rank_bounded(M):
    R, pivots = rref(M)
    R2, pivots2 = rref(R)
    assert R2.data == R.data and pivots2 == pivots
    assert len(pivots) == rank(M) <= min(M.rows, M.cols)


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(M):
    K = kernel_basis(M)
    assert rank(M) + K.cols == M.cols
    P = matmul(M, K)
    assert all(v == 0 for v in P.data)


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_transform_reproduces_rref(M):
    R, pivots, T = rref_with_transform(M)
    assert matmul(T, M).data == R.data
    Rplain, pivots_plain = rref(M)
    assert R.data == Rplain.data and pivots == pivots_plain


@settings(max_examples=50, deadline=None)
@given(matrices(), st.lists(entries, min_size=1, max_size=5))
def test_solve_round_trip(M, xs):
    xs = (xs * M.cols)[: M.cols]
    b = [sum(M.data[i * M.cols + j] * xs[j] for j in range(M.cols))
         for i in range(M.rows)]
    x = solve(M, b)
    assert x is not None
    bx = [sum(M.data[i * M.cols + j] * x[j] for j in range(M.cols))
          for i in range(M.rows)]
    assert bx == b


# -- independent oracle -------------------------------------------------------
# A plain Gauss-Jordan elimination over Fractions, written here without
# versal, against which the sparse integer eliminator is checked.

def reference_rref(rows, ncols):
    """(rows of the reduced row echelon form, pivot columns)."""
    a = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        k = next((k for k in range(r, len(a)) if a[k][c]), None)
        if k is None:
            continue
        a[r], a[k] = a[k], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for k in range(len(a)):
            if k != r and a[k][c]:
                f = a[k][c]
                a[k] = [x - f * y for x, y in zip(a[k], a[r])]
        pivots.append(c)
    return a, pivots


def reference_product(A, B, inner):
    return [[sum((A[i][k] * B[k][j] for k in range(inner)), Fraction(0))
             for j in range(len(B[0]) if B else 0)] for i in range(len(A))]


def as_rows(M):
    return [M.row(r) for r in range(M.rows)]


sparse_entries = st.one_of(st.just(Fraction(0)), entries)


@st.composite
def row_lists(draw, max_dim=5, min_rows=0):
    """(rows, ncols), 0 x n and n x 0 included, with zero and repeated rows."""
    r = draw(st.integers(min_value=min_rows, max_value=max_dim))
    c = draw(st.integers(min_value=0, max_value=max_dim))
    rows = []
    for i in range(r):
        kind = draw(st.sampled_from(["new", "zero", "repeat"]))
        if kind == "zero":
            rows.append([Fraction(0)] * c)
        elif kind == "repeat" and rows:
            rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
        else:
            rows.append([draw(sparse_entries) for _ in range(c)])
    return rows, c


def to_matrix(rows, c):
    return ScalarMatrix(len(rows), c, [x for row in rows for x in row])


EDGE_CASES = [([], 3), ([[], []], 0), ([[Fraction(0)] * 3] * 2, 3)]


@settings(max_examples=200, deadline=None)
@given(row_lists())
@example(EDGE_CASES[0])
@example(EDGE_CASES[1])
@example(EDGE_CASES[2])
def test_rref_matches_reference_gauss_jordan(rc):
    rows, c = rc
    R, pivots = rref(to_matrix(rows, c))
    Rref, pivots_ref = reference_rref(rows, c)
    assert (R.rows, R.cols) == (len(rows), c)
    assert as_rows(R) == Rref
    assert pivots == pivots_ref
    S = SparseMatrix(c, [{j: x for j, x in enumerate(row) if x} for row in rows])
    assert rref(S) == (R, pivots)


@settings(max_examples=200, deadline=None)
@given(row_lists())
@example(EDGE_CASES[0])
@example(EDGE_CASES[1])
@example(EDGE_CASES[2])
def test_transform_is_invertible_and_reproduces_rref(rc):
    rows, c = rc
    R, pivots, T = rref_with_transform(to_matrix(rows, c))
    Rref, pivots_ref = reference_rref(rows, c)
    assert as_rows(R) == Rref and pivots == pivots_ref
    assert (T.rows, T.cols) == (len(rows), len(rows))
    assert reference_product(as_rows(T), rows, len(rows)) == Rref
    assert len(reference_rref(as_rows(T), len(rows))[1]) == len(rows)


@st.composite
def wide_row_lists(draw, max_dim=5):
    """(rows, ncols) with 1 <= rows <= ncols, mostly of full row rank."""
    c = draw(st.integers(min_value=1, max_value=max_dim))
    r = draw(st.integers(min_value=1, max_value=c))
    return [[draw(entries) for _ in range(c)] for _ in range(r)], c


@settings(max_examples=200, deadline=None)
@given(wide_row_lists())
def test_transform_of_full_row_rank_is_inverse_on_pivots(rc):
    rows, c = rc
    _, pivots = reference_rref(rows, c)
    assume(len(pivots) == len(rows))
    # T * M = R and R is the identity on the pivot columns, so T is the
    # inverse of M restricted to those columns
    m = len(rows)
    square = [[row[p] for p in pivots] + [Fraction(int(i == k)) for k in range(m)]
              for i, row in enumerate(rows)]
    inverse = [row[m:] for row in reference_rref(square, 2 * m)[0]]
    _, _, T = rref_with_transform(to_matrix(rows, c))
    assert as_rows(T) == inverse
