"""Exact rational linear algebra: matrices, multilinear coefficient tensors,
rank / kernel / solve over Fraction entries.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely.  No floats anywhere: ranks and kernels are
exact, which the cohomology dimensions downstream depend on.

`integer_scaled` writes a group of exact values over one common denominator,
so that a homogeneous law can be checked in int arithmetic (see its
docstring).  `Matrix`, `Algebra` and `Bimodule` each keep one such view of
their entries, built on first use (`Matrix.int_view`).

Rank is scale-invariant, so `int_cols_rank` ranks such a view directly, by
fraction-free elimination on its sparse integer columns; `Matrix.rank` is
that rank of the matrix's own view.  Kernels, solutions and inverses come
from the dense Gauss-Jordan `Matrix._echelon`.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Rat = Fraction
_ZERO = Fraction(0)
_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?")
Scalar = Union[int, Fraction]

__all__ = [
    "Rat",
    "parse_rational",
    "render_rational",
    "Vector",
    "zero_vector",
    "basis_vector",
    "vec_add",
    "vec_sub",
    "vec_is_zero",
    "linear_combination",
    "flat_offset",
    "integer_scaled",
    "int_cols_rank",
    "Matrix",
    "MultiMap",
    "LinAlgError",
]


class LinAlgError(ValueError):
    """Shape mismatch or malformed input to a linear-algebra operation."""


def parse_rational(value) -> Fraction:
    """Parse a JSON-style rational: a bare int or a string like "-3/2"."""
    if isinstance(value, bool):
        raise LinAlgError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        text = value.strip()
        # only "p" or "p/q": Fraction(str) also takes "1.5", "1_000" and
        # exponents, whose cost grows faster than the exponent; a refusal
        # words its reason as Fraction(str) does for malformed text
        if not _RATIONAL.fullmatch(text):
            raise LinAlgError(f"unparseable rational {value!r}: "
                              f"Invalid literal for Fraction: {text!r}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise LinAlgError(f"unparseable rational {value!r}: {exc}") from None
    raise LinAlgError(f"not a rational: {value!r}")


def render_rational(q: Fraction) -> Union[int, str]:
    """Inverse of parse_rational: ints stay ints, proper fractions render "p/q"."""
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# vectors: plain tuples of Fractions
# ---------------------------------------------------------------------------

Vector = tuple  # tuple of Fraction


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def basis_vector(i: int, n: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def vec_add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise LinAlgError(f"vector length mismatch: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise LinAlgError(f"vector length mismatch: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vec_is_zero(u: Vector) -> bool:
    return all(a == 0 for a in u)


# ---------------------------------------------------------------------------
# the linear structure shared by matrices and multilinear maps
# ---------------------------------------------------------------------------

class _Dense:
    """A shape plus a flat tuple of Fractions in `data`.  Subclasses say
    what the shape is and how to build a value of it; the linear structure
    acts entrywise on `data` and lives here once."""

    __slots__ = ()

    def _shape(self) -> tuple:
        raise NotImplementedError

    def _like(self, data: Sequence[Scalar]) -> "_Dense":
        """A value of the same class and shape holding `data`."""
        raise NotImplementedError

    def _same_shape(self, other: "_Dense"):
        if self._shape() != other._shape():
            raise LinAlgError(f"{type(self).__name__} shape mismatch: "
                              f"{self._shape()} vs {other._shape()}")

    def __add__(self, other):
        self._same_shape(other)
        return self._like([a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other):
        self._same_shape(other)
        return self._like([a - b for a, b in zip(self.data, other.data)])

    def __neg__(self):
        return self._like([-a for a in self.data])

    def scale(self, c: Scalar):
        c = Fraction(c)
        return self._like([c * a for a in self.data])

    def __eq__(self, other) -> bool:
        # a foreign type (such as glie.SparseMap) decides equality itself
        if not isinstance(other, _Dense):
            return NotImplemented
        return self._shape() == other._shape() and self.data == other.data

    def __hash__(self):
        return hash((self._shape(), self.data))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.data)


def linear_combination(coeffs: Sequence[Scalar], terms: Sequence[_Dense]):
    """sum_i coeffs[i] * terms[i] over values of one shape, with no
    intermediate values built; with one action matrix per basis element,
    this is the action of the element whose coefficient vector is coeffs."""
    if not terms or len(coeffs) != len(terms):
        raise LinAlgError(f"{len(coeffs)} coefficients for {len(terms)} terms")
    first = terms[0]
    acc = [Fraction(0)] * len(first.data)
    for c, term in zip(coeffs, terms):
        if c:
            first._same_shape(term)
            acc = [a + c * x for a, x in zip(acc, term.data)]
    return first._like(acc)


def flat_offset(idx: Sequence[int], in_dim: int, out_dim: int) -> int:
    """Start of the image of the basis tuple idx in the row-major data of a
    multilinear map on range(in_dim) with images of length out_dim."""
    off = 0
    for i in idx:
        if not 0 <= i < in_dim:
            raise IndexError(idx)
        off = off * in_dim + i
    return off * out_dim


def integer_scaled(*parts: Iterable[Scalar]) -> tuple:
    """(ints, den): every value of the group `parts` over one denominator.

    den is the least common multiple of the denominators of all the values
    (1 for no values), and ints holds one list per part with
    part[i] == ints[part][i] / den.  A law that is homogeneous of degree k
    in the group's values takes den**k times its exact value on the ints,
    so it vanishes on the ints exactly when it vanishes on the values, and
    a nonzero integer residual r is recovered exactly as Fraction(r, den**k).
    Int products and sums skip the normalising gcd of every Fraction
    operation, which is what makes the scaled check fast.
    """
    parts = [tuple(p) for p in parts]
    den = math.lcm(*(x.denominator for p in parts for x in p))
    if den == 1:
        return [[x.numerator for x in p] for p in parts], den
    return [[x.numerator * (den // x.denominator) for x in p]
            for p in parts], den


def int_cols_rank(cols: Iterable[Sequence[tuple]]) -> int:
    """Rank of the matrix whose columns are sparse int vectors, each a
    sequence of (row, x) pairs with x != 0 and distinct rows.

    Fraction-free column elimination under a static Markowitz-style order:
    rows are ranked by how many columns they meet (fewest first, ties by
    row), and columns are taken shortest first.  Each column is reduced
    against the pivot columns kept so far, each keyed by its lowest-ranked
    row, by v <- a v - b p with a/b the ratio of the two entries at that
    row in lowest terms, and is then divided by the gcd of its entries; a
    column left nonzero becomes a pivot at its lowest-ranked row.  The
    order depends only on the input, so the run is deterministic, and
    every intermediate value is an int.  No column is modified.
    """
    cols = list(cols)
    count = {}
    for col in cols:
        for i, _ in col:
            count[i] = count.get(i, 0) + 1
    label = {i: k for k, i in enumerate(sorted(count,
                                              key=lambda i: (count[i], i)))}
    pivots = {}
    for col in sorted(cols, key=len):
        v = {label[i]: x for i, x in col}
        while v:
            r = min(v)
            p = pivots.get(r)
            if p is None:
                pivots[r] = v
                break
            g = math.gcd(p[r], v[r])
            a, b = p[r] // g, v[r] // g
            # v is this loop's own dict, never a pivot: update it in place
            w = {i: a * x for i, x in v.items()} if a != 1 else v
            for i, y in p.items():
                z = w.get(i, 0) - b * y
                if z:
                    w[i] = z
                else:
                    del w[i]
            g = math.gcd(*w.values())
            v = {i: x // g for i, x in w.items()} if g > 1 else w
    return len(pivots)


def _nonzero_cols(data: Sequence, rows: int, cols: int) -> list:
    """The columns of a row-major rows x cols matrix, as sparse vectors."""
    return [tuple((i, data[i * cols + j]) for i in range(rows) if data[i * cols + j])
            for j in range(cols)]


def _fractions(ints: Sequence[int], den: int) -> list:
    """The Fractions ints[i] / den, every zero the one shared _ZERO."""
    return [Fraction(x, den) if x else _ZERO for x in ints]


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Matrix(_Dense):
    """Dense rows x cols matrix of Fractions, row-major, immutable."""

    __slots__ = ("rows", "cols", "data", "_view")

    def __init__(self, rows: int, cols: int, data: Sequence[Scalar]):
        if rows < 0 or cols < 0:
            raise LinAlgError("negative matrix dimension")
        data = tuple(x if type(x) is Fraction else Fraction(x) for x in data)
        if len(data) != rows * cols:
            raise LinAlgError(
                f"matrix data length {len(data)} != {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.data = data
        self._view = None

    def int_view(self) -> tuple:
        """(cols, den): each column's nonzero entries as (row, int) pairs
        over the common denominator den, built once, on first use."""
        if self._view is None:
            (ints,), den = integer_scaled(self.data)
            self._view = (_nonzero_cols(ints, self.rows, self.cols), den)
        return self._view

    @staticmethod
    def _from_int_cols(rows: int, cols: list, den: int) -> "Matrix":
        """The matrix of sparse int columns over den, which are its view."""
        data = [0] * (rows * len(cols))
        for j, col in enumerate(cols):
            for i, x in col:
                data[i * len(cols) + j] = x
        out = Matrix(rows, len(cols), _fractions(data, den))
        out._view = (cols, den)
        return out

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]], cols: Optional[int] = None) -> "Matrix":
        nrows = len(rows)
        if nrows == 0:
            return Matrix(0, 0 if cols is None else cols, ())
        ncols = len(rows[0]) if cols is None else cols
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise LinAlgError("ragged rows")
            flat.extend(r)
        return Matrix(nrows, ncols, flat)

    @staticmethod
    def from_cols(cols: Sequence[Sequence[Scalar]], rows: Optional[int] = None) -> "Matrix":
        ncols = len(cols)
        if ncols == 0:
            return Matrix(0 if rows is None else rows, 0, ())
        nrows = len(cols[0]) if rows is None else rows
        return Matrix(nrows, ncols,
                      [cols[j][i] for i in range(nrows) for j in range(ncols)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, [0] * (rows * cols))

    # -- access ----------------------------------------------------------------

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.data[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> Vector:
        return tuple(self.data[i * self.cols + j] for i in range(self.rows))

    # -- algebra ----------------------------------------------------------------

    def _shape(self) -> tuple:
        return (self.rows, self.cols)

    def _like(self, data: Sequence[Scalar]) -> "Matrix":
        return Matrix(self.rows, self.cols, data)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise LinAlgError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum((ri[k] * other.data[k * other.cols + j]
                                for k in range(self.cols)), Fraction(0)))
        return Matrix(self.rows, other.cols, out)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise LinAlgError(f"matrix {self.rows}x{self.cols} applied to length-{len(v)} vector")
        return tuple(sum((a * b for a, b in zip(self.row(i), v)), Fraction(0))
                     for i in range(self.rows))

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      [self.data[i * self.cols + j]
                       for j in range(self.cols) for i in range(self.rows)])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def power(self, k: int) -> "Matrix":
        if not self.is_square():
            raise LinAlgError("power of non-square matrix")
        if k < 0:
            raise LinAlgError("negative matrix power")
        acc = Matrix.identity(self.rows)
        for _ in range(k):
            acc = acc @ self
        return acc

    # -- elimination -------------------------------------------------------------

    def _echelon(self):
        """Row echelon form by exact Gaussian elimination.

        Returns (rows, pivot_cols) where rows is a list of reduced row lists.
        """
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

    def rank(self) -> int:
        """The rank, by `int_cols_rank` on this matrix's integer view (a
        common denominator does not change the rank); the pivot count of
        `_echelon` is the same number, and the tests keep it as the
        oracle."""
        return int_cols_rank(self.int_view()[0])

    def kernel_basis(self) -> list:
        """Basis of the right kernel {v : self @ v = 0}, as a list of vectors.

        Size is always cols - rank; each vector satisfies M v = 0 exactly.
        """
        m, pivots = self._echelon()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for fc in free:
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            # pivot rows are normalized to 1 and pivot columns are cleared,
            # so each pivot variable reads off directly
            for r, pc in enumerate(pivots):
                v[pc] = -m[r][fc]
            basis.append(tuple(v))
        return basis

    def solve(self, b: Vector) -> Optional[Vector]:
        """Some exact solution x of self @ x = b, or None if inconsistent."""
        if len(b) != self.rows:
            raise LinAlgError(f"rhs length {len(b)} != rows {self.rows}")
        aug = Matrix(self.rows, self.cols + 1,
                     [x for i in range(self.rows)
                      for x in (*self.row(i), b[i])])
        m, pivots = aug._echelon()
        if self.cols in pivots:
            return None
        x = [Fraction(0)] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = m[r][self.cols]
        return tuple(x)

    def inverse(self) -> Optional["Matrix"]:
        """Exact inverse, or None when the matrix is singular or non-square."""
        if not self.is_square():
            return None
        n = self.rows
        aug = Matrix(n, 2 * n,
                     [x for i in range(n)
                      for x in (*self.row(i),
                                *(Fraction(1 if i == j else 0) for j in range(n)))])
        m, pivots = aug._echelon()
        if pivots != list(range(n)):
            return None
        return Matrix(n, n, [m[i][n + j] for i in range(n) for j in range(n)])

    def __repr__(self):
        rows = "; ".join(
            " ".join(str(render_rational(x)) for x in self.row(i))
            for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {rows})"


# ---------------------------------------------------------------------------
# dense coefficient tensors of multilinear maps V_in^(x)n -> V_out
# ---------------------------------------------------------------------------

class MultiMap(_Dense):
    """Multilinear map V_in^(x)arity -> V_out, stored densely.

    Entries are indexed by (i_1, ..., i_arity, k): the e_k-coefficient of the
    image of the basis tuple (e_{i_1}, ..., e_{i_arity}), with i over the
    in_dim input basis and k over the out_dim output basis.  Arity 0 is
    allowed and is just a vector (a constant).  The constructor builds
    square maps (in_dim = out_dim = dim); a non-square map is a cochain
    (glie.Cochain), a subclass that shares everything below.
    """

    __slots__ = ("arity", "in_dim", "out_dim", "data")

    def __init__(self, arity: int, dim: int, data: Sequence[Scalar]):
        self._setup(arity, dim, dim, data)

    def _setup(self, arity: int, in_dim: int, out_dim: int,
               data: Sequence[Scalar]):
        """Validate and fill the slots.  Subclass constructors call this,
        not MultiMap.__init__, so a construction runs exactly one class's
        __init__ (perfbench/spans.py counts constructions there)."""
        if arity < 0 or in_dim < 0 or out_dim < 0:
            raise LinAlgError("negative arity or dimension")
        data = tuple(x if type(x) is Fraction else Fraction(x) for x in data)
        if len(data) != in_dim ** arity * out_dim:
            raise LinAlgError(
                f"tensor data length {len(data)} != {in_dim}^{arity} * {out_dim}")
        self.arity = arity
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.data = data

    @classmethod
    def _make(cls, arity: int, in_dim: int, out_dim: int,
              data: Sequence[Scalar]) -> "MultiMap":
        """A value of this class with the given shape; a subclass whose
        constructor takes other arguments overrides this one hook."""
        if in_dim != out_dim:
            raise LinAlgError(
                f"a {cls.__name__} is square, not {in_dim} -> {out_dim}")
        return cls(arity, in_dim, data)

    @property
    def dim(self) -> int:
        """The one dimension of a square map."""
        if self.in_dim != self.out_dim:
            raise LinAlgError(
                f"map {self.in_dim} -> {self.out_dim} is not square")
        return self.in_dim

    def _shape(self) -> tuple:
        return (self.arity, self.in_dim, self.out_dim)

    def _like(self, data: Sequence[Scalar]) -> "MultiMap":
        return self._make(self.arity, self.in_dim, self.out_dim, data)

    @staticmethod
    def zero(arity: int, dim: int) -> "MultiMap":
        return MultiMap(arity, dim, [0] * dim ** (arity + 1))

    @staticmethod
    def from_function(arity: int, dim: int, fn) -> "MultiMap":
        """Build from fn(basis index tuple) -> image vector of length dim."""
        data = []
        for idx in itertools.product(range(dim), repeat=arity):
            img = fn(idx)
            if len(img) != dim:
                raise LinAlgError("image vector has wrong length")
            data.extend(img)
        return MultiMap(arity, dim, data)

    @classmethod
    def from_matrix(cls, m: Matrix) -> "MultiMap":
        """The arity-1 map acting as the rows x cols matrix m."""
        return cls._make(1, m.cols, m.rows,
                         [x for j in range(m.cols) for x in m.col(j)])

    @staticmethod
    def constant(v: Vector) -> "MultiMap":
        return MultiMap(0, len(v), v)

    def value(self, idx: Sequence[int]) -> Vector:
        """Image of a basis tuple, as a coefficient vector."""
        if len(idx) != self.arity:
            raise LinAlgError(f"expected {self.arity} indices, got {len(idx)}")
        off = flat_offset(idx, self.in_dim, self.out_dim)
        return self.data[off:off + self.out_dim]

    def evaluate(self, *args: Vector) -> Vector:
        """Multilinear extension to arbitrary coefficient vectors."""
        if len(args) != self.arity:
            raise LinAlgError(f"expected {self.arity} arguments, got {len(args)}")
        for a in args:
            if len(a) != self.in_dim:
                raise LinAlgError("argument has wrong dimension")
        out_dim = self.out_dim
        out = [Fraction(0)] * out_dim
        for idx in itertools.product(range(self.in_dim), repeat=self.arity):
            c = Fraction(1)
            for a, i in zip(args, idx):
                c *= a[i]
                if c == 0:
                    break
            if c == 0:
                continue
            val = self.value(idx)
            for k in range(out_dim):
                if val[k]:
                    out[k] += c * val[k]
        return tuple(out)

    def as_matrix(self) -> Matrix:
        if self.arity != 1:
            raise LinAlgError("only arity-1 maps convert to matrices")
        return Matrix.from_cols([self.value((j,)) for j in range(self.in_dim)],
                                rows=self.out_dim)

    def permute_inputs(self, perm: Sequence[int]) -> "MultiMap":
        """Pull back along a permutation: result(x_1..x_n) = self(x_{perm[0]+1}, ...).

        perm is 0-based: perm[slot] tells which input of the result feeds
        that slot of self.
        """
        if sorted(perm) != list(range(self.arity)):
            raise LinAlgError(f"not a permutation of {self.arity} inputs: {perm}")
        data = []
        for idx in itertools.product(range(self.in_dim), repeat=self.arity):
            data.extend(self.value(tuple(idx[p] for p in perm)))
        return self._like(data)

    def __repr__(self):
        nz = sum(1 for a in self.data if a != 0)
        return (f"{type(self).__name__}(arity={self.arity}, "
                f"in_dim={self.in_dim}, out_dim={self.out_dim}, nonzeros={nz})")
