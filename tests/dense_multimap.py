"""The dense multilinear map, kept as the oracle of `linalg.MultiMap`.

Before `MultiMap` kept only its nonzero entries as ints over one
denominator, the package stored all in_dim^arity * out_dim slots of a map
as Fractions, row-major, and computed on them.  `DenseMap` is that storage
with that code.  `dense_bracket.py` builds its maps as DenseMaps, and
`multimap_property.py` compares every operation of `MultiMap` and `Cochain`
with it.  A DenseMap equals a `MultiMap` of the same shape and slots.
"""

import itertools
from fractions import Fraction

from antiflex.linalg import LinAlgError, Matrix, MultiMap, flat_offset


class DenseMap:
    """Multilinear map V_in^(x)arity -> V_out with every slot stored: the
    e_k-coefficient of the image of (e_{i_1}, ..., e_{i_arity}) is at
    flat_offset((i_1, ..., i_arity), in_dim, out_dim) + k of `data`."""

    __slots__ = ("arity", "in_dim", "out_dim", "data")

    def __init__(self, arity, in_dim, out_dim, data):
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

    @property
    def dim(self):
        if self.in_dim != self.out_dim:
            raise LinAlgError(
                f"map {self.in_dim} -> {self.out_dim} is not square")
        return self.in_dim

    def _shape(self):
        return (self.arity, self.in_dim, self.out_dim)

    def _like(self, data):
        return DenseMap(self.arity, self.in_dim, self.out_dim, data)

    @staticmethod
    def zero(arity, dim):
        return DenseMap(arity, dim, dim, [0] * dim ** (arity + 1))

    @staticmethod
    def from_function(arity, dim, fn):
        data = []
        for idx in itertools.product(range(dim), repeat=arity):
            img = fn(idx)
            if len(img) != dim:
                raise LinAlgError("image vector has wrong length")
            data.extend(img)
        return DenseMap(arity, dim, dim, data)

    @staticmethod
    def from_matrix(m):
        return DenseMap(1, m.cols, m.rows,
                        [x for j in range(m.cols) for x in m.col(j)])

    def value(self, idx):
        if len(idx) != self.arity:
            raise LinAlgError(f"expected {self.arity} indices, got {len(idx)}")
        off = flat_offset(idx, self.in_dim, self.out_dim)
        return self.data[off:off + self.out_dim]

    def evaluate(self, *args):
        """The sum over the basis tuples in the product of the arguments'
        supports of the weighted values."""
        if len(args) != self.arity:
            raise LinAlgError(f"expected {self.arity} arguments, got {len(args)}")
        for a in args:
            if len(a) != self.in_dim:
                raise LinAlgError("argument has wrong dimension")
        out = [Fraction(0)] * self.out_dim
        supports = [[i for i, x in enumerate(a) if x] for a in args]
        for idx in itertools.product(*supports):
            c = Fraction(1)
            for a, i in zip(args, idx):
                c *= a[i]
            val = self.value(idx)
            for k in range(self.out_dim):
                if val[k]:
                    out[k] += c * val[k]
        return tuple(out)

    def as_matrix(self):
        if self.arity != 1:
            raise LinAlgError("only arity-1 maps convert to matrices")
        return Matrix.from_cols([self.value((j,)) for j in range(self.in_dim)],
                                rows=self.out_dim)

    def permute_inputs(self, perm):
        """result(x_1..x_n) = self(x_{perm[0]+1}, ...)."""
        if sorted(perm) != list(range(self.arity)):
            raise LinAlgError(f"not a permutation of {self.arity} inputs: {perm}")
        data = []
        for idx in itertools.product(range(self.in_dim), repeat=self.arity):
            data.extend(self.value(tuple(idx[p] for p in perm)))
        return self._like(data)

    def _same_shape(self, other):
        if self._shape() != other._shape():
            raise LinAlgError(f"shape mismatch: {self._shape()} vs {other._shape()}")

    def __add__(self, other):
        self._same_shape(other)
        return self._like([a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other):
        self._same_shape(other)
        return self._like([a - b for a, b in zip(self.data, other.data)])

    def __neg__(self):
        return self._like([-a for a in self.data])

    def scale(self, c):
        c = Fraction(c)
        return self._like([c * a for a in self.data])

    def is_zero(self):
        return all(a == 0 for a in self.data)

    def __eq__(self, other):
        if not isinstance(other, (DenseMap, MultiMap)):
            return NotImplemented
        return ((self.arity, self.in_dim, self.out_dim)
                == (other.arity, other.in_dim, other.out_dim)
                and self.data == other.data)
