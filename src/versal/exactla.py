"""Exact linear algebra over QQ on sparse integer rows.

Every solve -- `rref`, `rank`, `kernel_basis`, `solve` and
`rref_with_transform` -- goes through `rref`, and `rref` through one
fraction-free eliminator.  A row is a dict {column: nonzero int} with its
content (the gcd of its entries) divided out.  Forward elimination inserts
the rows one at a time into an echelon keyed by leading column
(`echelon_insert`); back-substitution then clears every pivot column from
the other pivot rows, and only the finished rows become Fractions.

The reduced row echelon form of a matrix is unique, so the result does not
depend on the order in which rows are eliminated, and repeated runs give
identical bases.  Matrices come in dense (`ScalarMatrix`) or as their nonzero
entries (`SparseMatrix`); no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import VersalError


class ScalarMatrix:
    """Dense matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [Fraction(0)] * (rows * cols)
        else:
            data = [x if isinstance(x, Fraction) else Fraction(x) for x in data]
            if len(data) != rows * cols:
                raise VersalError("data length %d != %d x %d" % (len(data), rows, cols))
            self.data = data

    @classmethod
    def from_rows(cls, rows_of_entries):
        rows = len(rows_of_entries)
        cols = len(rows_of_entries[0]) if rows else 0
        flat = []
        for row in rows_of_entries:
            if len(row) != cols:
                raise VersalError("ragged rows")
            flat.extend(row)
        return cls(rows, cols, flat)

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.data[i * n + i] = Fraction(1)
        return m

    def __getitem__(self, rc):
        r, c = rc
        return self.data[r * self.cols + c]

    def __setitem__(self, rc, value):
        r, c = rc
        self.data[r * self.cols + c] = Fraction(value)

    def row(self, r):
        return self.data[r * self.cols:(r + 1) * self.cols]

    def sparse_rows(self):
        """One dict {column: nonzero entry} per row."""
        return [{c: x for c, x in enumerate(self.row(r)) if x}
                for r in range(self.rows)]

    def column(self, c):
        return [self.data[r * self.cols + c] for r in range(self.rows)]

    def transpose(self):
        out = ScalarMatrix(self.cols, self.rows)
        for r in range(self.rows):
            for c in range(self.cols):
                out.data[c * self.rows + r] = self.data[r * self.cols + c]
        return out

    def __mul__(self, other):
        if self.cols != other.rows:
            raise VersalError("shape mismatch %dx%d * %dx%d"
                              % (self.rows, self.cols, other.rows, other.cols))
        out = ScalarMatrix(self.rows, other.cols)
        for r in range(self.rows):
            base = r * self.cols
            for k in range(self.cols):
                a = self.data[base + k]
                if a:
                    kk = k * other.cols
                    ob = r * other.cols
                    for c in range(other.cols):
                        b = other.data[kk + c]
                        if b:
                            out.data[ob + c] += a * b
        return out

    def __eq__(self, other):
        return (
            isinstance(other, ScalarMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in self.row(r)) for r in range(self.rows))
        return "ScalarMatrix(%dx%d: %s)" % (self.rows, self.cols, body)


class SparseMatrix:
    """Matrix given by one dict {column: entry} per row; absent entries are 0.

    Entries are ints or Fractions, and an entry may be 0.  Accepted wherever
    a ScalarMatrix is, as the matrix to eliminate.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, cols, entries):
        self.rows = len(entries)
        self.cols = cols
        self.entries = entries

    def sparse_rows(self):
        return self.entries


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
    """Reduced row echelon form.  Returns (ScalarMatrix, pivot columns).

    `matrix` is a ScalarMatrix or a SparseMatrix.
    """
    echelon = {}
    for entries in matrix.sparse_rows():
        echelon_insert(echelon, integer_row(entries))
    pivots = sorted(echelon)
    # back-substitution: higher pivot rows are already free of other pivots
    for c in reversed(pivots):
        row = echelon[c]
        for k in [k for k in row if k != c and k in echelon]:
            row = _clear(row, echelon[k], k)
        echelon[c] = row
    out = ScalarMatrix(matrix.rows, matrix.cols)
    for i, c in enumerate(pivots):
        row = echelon[c]
        a = row[c]
        base = i * matrix.cols
        for k, v in row.items():
            out.data[base + k] = Fraction(v, a)
    return out, pivots


def rank(matrix):
    return len(rref(matrix)[1])


def kernel_basis(matrix):
    """Columns spanning {v : M v = 0}; free variables set to 0/1 canonically."""
    R, pivots = rref(matrix)
    n = matrix.cols
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    out = ScalarMatrix(n, len(free))
    for j, fc in enumerate(free):
        out.data[fc * len(free) + j] = Fraction(1)
        for i, pc in enumerate(pivots):
            v = R[i, fc]
            if v:
                out.data[pc * len(free) + j] = -v
    return out


def solve(matrix, rhs):
    """One solution of M x = rhs with free variables 0, or None.

    `rhs` is a list of Fractions (length = matrix.rows).
    """
    if len(rhs) != matrix.rows:
        raise VersalError("rhs length %d != %d rows" % (len(rhs), matrix.rows))
    n = matrix.cols
    aug = [{**row, n: b} for row, b in zip(matrix.sparse_rows(), rhs)]
    R, pivots = rref(SparseMatrix(n + 1, aug))
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, pc in enumerate(pivots):
        x[pc] = R[i, n]
    return x


def rref_with_transform(matrix):
    """(R, pivots, T) with T * matrix = R and T invertible.

    `[R | T]` is the reduced row echelon form of `[matrix | I]`.  When
    `matrix` has full row rank, T is the unique such transform.
    """
    m, n = matrix.rows, matrix.cols
    aug = [{**row, n + i: 1} for i, row in enumerate(matrix.sparse_rows())]
    A, pivots = rref(SparseMatrix(n + m, aug))
    R = ScalarMatrix(m, n, [x for i in range(m) for x in A.row(i)[:n]])
    T = ScalarMatrix(m, m, [x for i in range(m) for x in A.row(i)[n:]])
    return R, [c for c in pivots if c < n], T
