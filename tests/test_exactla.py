"""Tests for exact rational linear algebra."""

from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from versal import kernel_basis, rank, rref, rref_with_transform
from versal.exactla import SparseMatrix


def mat(rows):
    """SparseMatrix of a list of rows of numbers, zero entries left out."""
    c = len(rows[0]) if rows else 0
    return SparseMatrix(c, [{j: Fraction(x) for j, x in enumerate(row) if x}
                            for row in rows])


def dense(rows, ncols, nrows=None):
    """Rows of {column: entry} as lists of Fractions, padded with zero
    rows up to `nrows`."""
    out = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]
    if nrows is not None:
        out += [[Fraction(0)] * ncols for _ in range(nrows - len(rows))]
    return out


def dot(row, vector):
    return sum((x * vector.get(j, 0) for j, x in row.items()), Fraction(0))


entries = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def matrices(draw, max_dim=5):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    return mat([[draw(entries) for _ in range(c)] for _ in range(r)])


def test_rref_canonical_form():
    R, pivots = rref(mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]]))
    assert R == [{0: 1, 2: 1}, {1: 1, 2: 1}]
    assert pivots == [0, 1]


def test_rank_and_kernel_dimensions():
    M = mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(M) == 2
    assert kernel_basis(M) == [{0: -1, 1: -1, 2: 1}]
    assert rank(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_zero_sized_matrices():
    Z = SparseMatrix(3, [])
    assert rank(Z) == 0
    assert kernel_basis(Z) == [{0: 1}, {1: 1}, {2: 1}]  # everything is in the kernel
    assert rank(SparseMatrix(0, [{}, {}, {}])) == 0


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_rref_is_idempotent_and_rank_bounded(M):
    R, pivots = rref(M)
    assert rref(SparseMatrix(M.cols, R)) == (R, pivots)
    assert len(pivots) == rank(M) <= min(M.rows, M.cols)


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(M):
    K = kernel_basis(M)
    assert rank(M) + len(K) == M.cols
    assert all(dot(row, v) == 0 for row in M.entries for v in K)


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_transform_reproduces_rref(M):
    R, pivots, T = rref_with_transform(M)
    assert len(R) == len(T) == M.rows
    for t, r in zip(T, R):
        assert [sum((c * M.entries[k].get(j, 0) for k, c in t.items()), Fraction(0))
                for j in range(M.cols)] == dense([r], M.cols)[0]
    assert (R[:len(pivots)], pivots) == rref(M)
    assert not any(R[len(pivots):])


def exact_and_sorted(row):
    return (list(row) == sorted(row)
            and all(x != 0 for x in row.values())
            and all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
                    for x in row.values()))


@settings(max_examples=100, deadline=None)
@given(matrices())
@example(mat([[2, 4], [3, 6]]))
@example(mat([[Fraction(1, 2), 1, 3], [0, 2, Fraction(2, 3)]]))
def test_results_are_sparse_exact_sorted_rows(M):
    # every entry returned is nonzero, an int when integral, and each
    # row's keys come in increasing order
    R, _ = rref(M)
    R2, _, T = rref_with_transform(M)
    for row in R + kernel_basis(M) + R2 + T:
        assert exact_and_sorted(row)


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
    """Every entry of `rows` given, zeros included."""
    return SparseMatrix(c, [dict(enumerate(row)) for row in rows])


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
    assert dense(R, c, len(rows)) == Rref
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
    assert dense(R, c) == Rref and pivots == pivots_ref
    T = dense(T, len(rows))
    assert len(T) == len(rows)
    assert reference_product(T, rows, len(rows)) == Rref
    assert len(reference_rref(T, len(rows))[1]) == len(rows)


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
    assert dense(T, m) == inverse
