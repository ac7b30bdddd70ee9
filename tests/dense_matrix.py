"""The dense Fraction matrix, kept as the oracle of `linalg.Matrix`.

Before `Matrix` kept its entries as ints over one denominator, the package
stored them as Fractions, row-major, and computed on them.  `DenseMatrix`
is that storage with that code, and `dense_linear_combination` is the
`linear_combination` that went with it.  Its rank is the pivot count of its
own Gauss-Jordan elimination.  `matrix_property.py` compares every
operation of `Matrix` with it.
"""

from fractions import Fraction

from antiflex.linalg import (LinAlgError, _nonzero_cols, integer_scaled,
                             render_rational)

_ZERO = Fraction(0)


class DenseMatrix:
    """Dense rows x cols matrix of Fractions, row-major, immutable."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        if rows < 0 or cols < 0:
            raise LinAlgError("negative matrix dimension")
        data = tuple(x if type(x) is Fraction else Fraction(x) for x in data)
        if len(data) != rows * cols:
            raise LinAlgError(
                f"matrix data length {len(data)} != {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.data = data

    def int_view(self):
        """(cols, den): each column's nonzero entries as (row, int) pairs
        over the common denominator den."""
        (ints,), den = integer_scaled(self.data)
        return _nonzero_cols(ints, self.rows, self.cols), den

    @staticmethod
    def from_rows(rows, cols=None):
        nrows = len(rows)
        if nrows == 0:
            return DenseMatrix(0, 0 if cols is None else cols, ())
        ncols = len(rows[0]) if cols is None else cols
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise LinAlgError("ragged rows")
            flat.extend(r)
        return DenseMatrix(nrows, ncols, flat)

    @staticmethod
    def from_cols(cols, rows=None):
        ncols = len(cols)
        if ncols == 0:
            return DenseMatrix(0 if rows is None else rows, 0, ())
        nrows = len(cols[0]) if rows is None else rows
        return DenseMatrix(nrows, ncols, [cols[j][i] for i in range(nrows)
                                          for j in range(ncols)])

    @staticmethod
    def identity(n):
        return DenseMatrix(n, n, [1 if i == j else 0 for i in range(n)
                                  for j in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.data[i * self.cols + j]

    def row(self, i):
        return self.data[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return tuple(self.data[i * self.cols + j] for i in range(self.rows))

    def _same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError(f"Matrix shape mismatch: {(self.rows, self.cols)}"
                              f" vs {(other.rows, other.cols)}")

    def __add__(self, other):
        self._same_shape(other)
        return DenseMatrix(self.rows, self.cols,
                           [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other):
        self._same_shape(other)
        return DenseMatrix(self.rows, self.cols,
                           [a - b for a, b in zip(self.data, other.data)])

    def __neg__(self):
        return DenseMatrix(self.rows, self.cols, [-a for a in self.data])

    def scale(self, c):
        c = Fraction(c)
        return DenseMatrix(self.rows, self.cols, [c * a for a in self.data])

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.data) == (other.rows, other.cols,
                                                      other.data)

    def __hash__(self):
        return hash(((self.rows, self.cols), self.data))

    def is_zero(self):
        return all(a == 0 for a in self.data)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise LinAlgError(
                f"cannot multiply {self.rows}x{self.cols} by "
                f"{other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum((ri[k] * other.data[k * other.cols + j]
                                for k in range(self.cols)), Fraction(0)))
        return DenseMatrix(self.rows, other.cols, out)

    def apply(self, v):
        if len(v) != self.cols:
            raise LinAlgError(f"matrix {self.rows}x{self.cols} applied to "
                              f"length-{len(v)} vector")
        return tuple(sum((a * b for a, b in zip(self.row(i), v)), Fraction(0))
                     for i in range(self.rows))

    def transpose(self):
        return DenseMatrix(self.cols, self.rows,
                           [self.data[i * self.cols + j]
                            for j in range(self.cols) for i in range(self.rows)])

    def is_square(self):
        return self.rows == self.cols

    def power(self, k):
        if not self.is_square():
            raise LinAlgError("power of non-square matrix")
        if k < 0:
            raise LinAlgError("negative matrix power")
        acc = DenseMatrix.identity(self.rows)
        for _ in range(k):
            acc = acc @ self
        return acc

    def _echelon(self):
        """Row echelon form by exact Gaussian elimination: (rows,
        pivot_cols) with rows the reduced row lists."""
        m = [list(self.row(i)) for i in range(self.rows)]
        pivots = []
        r = 0
        for c in range(self.cols):
            pivot = None
            for i in range(r, self.rows):
                if m[i][c] != 0:
                    pivot = i
                    break
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            pr = m[r]
            inv = 1 / pr[c]
            for j in range(c, self.cols):
                pr[j] *= inv
            for i in range(self.rows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    row_i = m[i]
                    for j in range(c, self.cols):
                        row_i[j] -= f * pr[j]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return m, pivots

    def rank(self):
        return len(self._echelon()[1])

    def kernel_basis(self):
        m, pivots = self._echelon()
        pivot_set = set(pivots)
        basis = []
        for fc in (c for c in range(self.cols) if c not in pivot_set):
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -m[r][fc]
            basis.append(tuple(v))
        return basis

    def solve(self, b):
        if len(b) != self.rows:
            raise LinAlgError(f"rhs length {len(b)} != rows {self.rows}")
        aug = DenseMatrix(self.rows, self.cols + 1,
                          [x for i in range(self.rows)
                           for x in (*self.row(i), b[i])])
        m, pivots = aug._echelon()
        if self.cols in pivots:
            return None
        x = [Fraction(0)] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = m[r][self.cols]
        return tuple(x)

    def inverse(self):
        if not self.is_square():
            return None
        n = self.rows
        aug = DenseMatrix(n, 2 * n,
                          [x for i in range(n)
                           for x in (*self.row(i),
                                     *(Fraction(1 if i == j else 0)
                                       for j in range(n)))])
        m, pivots = aug._echelon()
        if pivots != list(range(n)):
            return None
        return DenseMatrix(n, n, [m[i][n + j] for i in range(n)
                                  for j in range(n)])

    def __repr__(self):
        rows = "; ".join(
            " ".join(str(render_rational(x)) for x in self.row(i))
            for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {rows})"


def dense_linear_combination(coeffs, terms):
    """sum_i coeffs[i] * terms[i] over DenseMatrices of one shape."""
    if not terms or len(coeffs) != len(terms):
        raise LinAlgError(f"{len(coeffs)} coefficients for {len(terms)} terms")
    first = terms[0]
    acc = [_ZERO] * len(first.data)
    for c, term in zip(coeffs, terms):
        if c:
            first._same_shape(term)
            acc = [a + c * x for a, x in zip(acc, term.data)]
    return DenseMatrix(first.rows, first.cols, acc)
