"""Exact linear algebra over QQ on sparse rows.

Every solve -- `rref`, `rank`, `kernel_basis` and `rref_with_transform` --
goes through `rref`, and `rref` through one fraction-free eliminator.  A
row is a dict {column: nonzero int} with its content (the gcd of its
entries) divided out.  Forward elimination inserts the rows one at a time
into an echelon keyed by leading column (`echelon_insert`);
back-substitution then clears every pivot column from the other pivot rows,
and only the finished rows are divided by their pivot entries.

The matrix to eliminate is a `SparseMatrix`, and every result is sparse
too: a row or vector is a dict {index: nonzero entry} with its keys in
increasing order, each entry an `int` when integral and a `Fraction`
otherwise (`polyring.ratio`).  The reduced row echelon form of a matrix is
unique, so the result does not depend on the order in which rows are
eliminated, and repeated runs give identical bases.  No floating point
anywhere.
"""

from __future__ import annotations

from math import gcd, lcm

from .polyring import ratio


class SparseMatrix:
    """Matrix given by one dict {column: entry} per row; absent entries are 0.

    Entries are ints or Fractions, and an entry may be 0.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, cols, entries):
        self.rows = len(entries)
        self.cols = cols
        self.entries = entries


def _content_free(row):
    g = gcd(*row.values())
    return {k: v // g for k, v in row.items()} if g > 1 else row


def integer_row(entries):
    """{column: rational} -> content-free {column: int} spanning the same line.

    Zero entries are dropped; signs are kept.
    """
    den = lcm(*(x.denominator for x in entries.values()))
    return _content_free({k: x.numerator * (den // x.denominator)
                          for k, x in entries.items() if x})


def _clear(row, piv, c):
    """Integer combination of `row` and `piv` that is zero in column c."""
    g = gcd(piv[c], row[c])
    a, b = piv[c] // g, row[c] // g
    new = {k: a * v for k, v in row.items()}
    for k, v in piv.items():
        s = new.get(k, 0) - b * v
        if s:
            new[k] = s
        else:
            del new[k]
    return _content_free(new)


def echelon_insert(echelon, row):
    """Reduce the content-free integer row against `echelon`, a dict from
    pivot column to a row whose smallest column is that pivot; insert the
    remainder if it is nonzero.  Returns True when it was inserted."""
    while row:
        c = min(row)
        piv = echelon.get(c)
        if piv is None:
            echelon[c] = row
            return True
        row = _clear(row, piv, c)
    return False


def rref(matrix):
    """Reduced row echelon form of a SparseMatrix.

    Returns (rows, pivot columns): the nonzero rows, one per pivot column
    in increasing order, each with entry 1 at its pivot.
    """
    echelon = {}
    for entries in matrix.entries:
        echelon_insert(echelon, integer_row(entries))
    pivots = sorted(echelon)
    # back-substitution: higher pivot rows are already free of other pivots
    for c in reversed(pivots):
        row = echelon[c]
        for k in [k for k in row if k != c and k in echelon]:
            row = _clear(row, echelon[k], k)
        echelon[c] = row
    rows = []
    for c in pivots:
        row = echelon[c]
        a = row[c]
        rows.append({k: ratio(row[k], a) for k in sorted(row)})
    return rows, pivots


def rank(matrix):
    return len(rref(matrix)[1])


def kernel_basis(matrix):
    """Vectors spanning {v : M v = 0}, one per free column in increasing
    order: 1 there and 0 at the other free columns."""
    rows, pivots = rref(matrix)
    pivot_set = set(pivots)
    free = [c for c in range(matrix.cols) if c not in pivot_set]
    vectors = {c: {c: 1} for c in free}
    for pc, row in zip(pivots, rows):
        for k, v in row.items():
            if k != pc:
                vectors[k][pc] = -v
    return [dict(sorted(vectors[c].items())) for c in free]


def rref_with_transform(matrix):
    """(R, pivots, T) with T * matrix = R and T invertible.

    `[R | T]` is the reduced row echelon form of `[matrix | I]`, so R and T
    have one row each per row of `matrix`, and R's rows past the pivots are
    empty.  When `matrix` has full row rank, T is the unique such
    transform.
    """
    n = matrix.cols
    aug = [{**row, n + i: 1} for i, row in enumerate(matrix.entries)]
    rows, pivots = rref(SparseMatrix(n + matrix.rows, aug))
    R = [{k: v for k, v in row.items() if k < n} for row in rows]
    T = [{k - n: v for k, v in row.items() if k >= n} for row in rows]
    return R, [c for c in pivots if c < n], T
