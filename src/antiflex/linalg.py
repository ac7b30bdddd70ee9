"""Exact rational linear algebra: multilinear maps, matrices, and rank /
kernel / solve over the rationals.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely.  No floats anywhere: ranks and kernels are
exact, which the cohomology dimensions downstream depend on.

A `MultiMap` is the one form of a linear or multilinear map in the package:
its nonzero entries as ints over one denominator, in lowest terms, so its
cost follows its nonzeros and not its dim^(arity+1) slots.  Its two
subclasses add only names and reads: the non-square `glie.Cochain`, and
`Matrix`, the arity-1 map whose rows x cols layout is read row-major.  One
normalisation, one sum, difference, negation and scale, and one
composition, `_insertion_sum`, serve all three: the graded bracket of
`glie` grafts with it, and `Matrix @` is its arity-1 case.  The
constructors still take exact values and `data` still gives Fractions
back, for callers outside the package.

`integer_scaled` writes a group of exact values over one common denominator,
so that a homogeneous law can be checked in int arithmetic (see its
docstring); it is the one route from exact values to ints, which the
constructors (`_scaled_entries`) and the search grids take too.  Each
`MultiMap` keeps one integer view of its entries (`int_view`), which is
also the view of a `Matrix`, of an `Algebra`'s product and, rescaled to
one denominator (`_rescaled`), of a `Bimodule`.

One exact elimination, `_eliminate`, runs fraction-free on sparse integer
columns.  Rank is scale-invariant, so `int_cols_rank` ranks such a view
directly; `Matrix.rank` is that rank of the matrix's own view.  Kernels,
solutions and inverses are the relations `_relations` reads off the same
elimination in natural column order, rescaled by the denominators.
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
    return not any(u)


# ---------------------------------------------------------------------------
# flat layouts, integer views and the sparse integer rank
# ---------------------------------------------------------------------------

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
    operation, which is what makes the scaled check fast.  The values are
    ints or Fractions, and each is written as numerator * (den //
    denominator), den 1 included.
    """
    parts = [tuple(p) for p in parts]
    den = math.lcm(*(x.denominator for p in parts for x in p))
    return [[x.numerator * (den // x.denominator) for x in p]
            for p in parts], den


def _row_labels(cols: Sequence[Sequence[tuple]]) -> dict:
    """Each row the columns meet -> its label in a static Markowitz-style
    order: by how many columns it meets, fewest first, ties by row."""
    count = {}
    for col in cols:
        for i, _ in col:
            count[i] = count.get(i, 0) + 1
    return {i: k for k, i in enumerate(sorted(count,
                                              key=lambda i: (count[i], i)))}


def _eliminate(cols: Iterable[dict]) -> dict:
    """Fraction-free elimination of sparse int columns, each a dict from a
    row label (lowest taken first) to a nonzero int, in the given order;
    returns the pivot columns, each keyed by its lowest label.

    Each column is reduced against the pivot columns kept so far by
    v <- a v - b p, with a/b the ratio of the two entries at v's lowest
    label in lowest terms, and is then divided by the gcd of its entries;
    a column left nonzero becomes a pivot at its lowest label.  Every value
    is an int.  The column dicts are the loop's own.
    """
    pivots = {}
    for v in cols:
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
    return pivots


def int_cols_rank(cols: Iterable[Sequence[tuple]]) -> int:
    """Rank of the matrix whose columns are sparse int vectors, each a
    sequence of (row, x) pairs with x != 0 and distinct rows: the pivot
    count of `_eliminate` with the rows labelled by `_row_labels` and the
    columns taken shortest first.  The order depends only on the input, so
    the run is deterministic.  No column is modified."""
    cols = list(cols)
    label = _row_labels(cols)
    return len(_eliminate([{label[i]: x for i, x in col}
                           for col in sorted(cols, key=len)]))


def _relations(cols: Sequence[Sequence[tuple]]) -> list:
    """For each of the sparse int columns, whose rows may be any sortable
    keys, in order: None when it is independent of the columns before it,
    else its one relation over the earlier independent columns, as
    {column: c} with sum c * column = 0.

    `_eliminate` in the given column order, each column carrying 1 at a tag
    row of its own, the tags labelled after every row and in reverse column
    order: a column cancelled by earlier ones is kept at its own tag, and
    its tags hold the relation, the reduced-echelon kernel vector or
    solution up to scale.
    """
    label = _row_labels(cols)
    last = len(label) + len(cols) - 1  # the tag of column j is last - j
    pivots = _eliminate([{**{label[i]: x for i, x in col}, last - j: 1}
                         for j, col in enumerate(cols)])
    return [{last - t: c for t, c in pivots[last - j].items()}
            if last - j in pivots else None for j in range(len(cols))]


def _nonzero_cols(data: Sequence, rows: int, cols: int) -> list:
    """The columns of a row-major rows x cols matrix, as sparse vectors."""
    return [tuple([(i, x) for i, x in enumerate(data[j::cols]) if x])
            for j in range(cols)]


def _rescaled(groups: list, den: int, scale: int) -> list:
    """The sparse int groups of a view over den, written over scale, a
    multiple of den; the groups themselves when scale is den."""
    if scale == den:
        return groups
    return [tuple((k, x * (scale // den)) for k, x in img) for img in groups]


# ---------------------------------------------------------------------------
# multilinear maps V_in^(x)n -> V_out, kept as their nonzero entries
# ---------------------------------------------------------------------------

def _exact(c: Scalar):
    """c as an int or a Fraction: those two as they are, anything else
    Fraction takes (a "p/q" string, a float) converted."""
    return c if type(c) is int or type(c) is Fraction else Fraction(c)


def _scaled_entries(items: Iterable[tuple]) -> tuple:
    """(entries, den): the nonzero values of the (key, value) items, read
    by `_exact`, as `integer_scaled` writes them.  The zeros are dropped
    first, since a zero's denominator is 1 and its int is 0; no factor is
    common to den and every int, so the pair is in lowest terms."""
    nonzero = {key: v for key, x in items if (v := _exact(x))}
    (ints,), den = integer_scaled(nonzero.values())
    return dict(zip(nonzero, ints)), den


class MultiMap:
    """Multilinear map V_in^(x)arity -> V_out, kept as its nonzero entries.

    `entries` maps (i_1, ..., i_arity, k) to a nonzero int, with i over the
    in_dim input basis and k over the out_dim output basis: the
    e_k-coefficient of the image of the basis tuple (e_{i_1}, ...,
    e_{i_arity}) is entries[(i_1, ..., i_arity, k)] / den.  The pair is in
    lowest terms (den > 0, no factor common to den and every entry; den 1
    for the zero map), so equal maps have equal entries and den.  Every
    operation costs in the nonzeros, not in the in_dim^arity * out_dim
    slots.  Arity 0 is allowed and is just a vector (a constant).

    The constructor takes the dense row-major data of a square map (in_dim
    = out_dim = dim), and `data` gives it back; the package itself builds
    maps from ints (`_of_ints`), or from a parsed document's exact values
    (`_of_values`), and never reads `data`.  Two subclasses
    share everything below: a non-square map is a cochain (glie.Cochain),
    and an arity-1 map is a `Matrix`.
    """

    __slots__ = ("arity", "in_dim", "out_dim", "entries", "den", "_view")

    def __init__(self, arity: int, dim: int, data: Sequence[Scalar]):
        self._setup(arity, dim, dim, data)

    def _setup(self, arity: int, in_dim: int, out_dim: int,
               data: Sequence[Scalar]):
        """Validate dense row-major data and fill the slots from it.
        Subclass constructors call this or `_fill`, not MultiMap.__init__,
        so a construction runs exactly one class's __init__
        (perfbench/spans.py counts constructions there)."""
        if arity < 0 or in_dim < 0 or out_dim < 0:
            raise LinAlgError("negative arity or dimension")
        data = tuple(data)
        if len(data) != in_dim ** arity * out_dim:
            raise LinAlgError(
                f"tensor data length {len(data)} != {in_dim}^{arity} * {out_dim}")
        keys = itertools.product(*[range(in_dim)] * arity, range(out_dim))
        self._fill(arity, in_dim, out_dim, *_scaled_entries(zip(keys, data)))

    def _fill(self, arity: int, in_dim: int, out_dim: int, entries: dict,
              den: int):
        self.arity = arity
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.entries = entries
        self.den = den
        self._view = None

    @classmethod
    def _of_ints(cls, arity: int, in_dim: int, out_dim: int, entries: dict,
                 den: int = 1) -> "MultiMap":
        """The map of this class whose entries are the ints `entries` over
        den > 0, with zeros dropped and the pair put in lowest terms; no
        constructor runs.  The map may keep the dict itself, so the caller
        hands it over."""
        if not all(entries.values()):
            entries = {key: x for key, x in entries.items() if x}
        if den != 1:
            g = math.gcd(den, *entries.values())
            if g > 1:
                entries = {key: x // g for key, x in entries.items()}
                den //= g
        out = cls.__new__(cls)
        out._fill(arity, in_dim, out_dim, entries, den)
        return out

    @classmethod
    def _of_values(cls, arity: int, in_dim: int, out_dim: int,
                   items: Iterable[tuple]) -> "MultiMap":
        """The map whose entries are the exact values of the (key, value)
        items, every other entry zero."""
        out = cls.__new__(cls)
        out._fill(arity, in_dim, out_dim, *_scaled_entries(items))
        return out

    @classmethod
    def _of_view(cls, arity: int, in_dim: int, out_dim: int, groups: list,
                 den: int) -> "MultiMap":
        """The map of this class with the integer view (groups, den), laid
        out as `int_view` gives it, which it keeps: the map is put in
        lowest terms and the view is not, so its den may be a multiple of
        the map's."""
        if arity == 1:
            entries = {(j, k): x for j, img in enumerate(groups)
                       for k, x in img}
        else:
            entries = {(p // in_dim, p % in_dim, k): x
                       for p, img in enumerate(groups) for k, x in img}
        out = cls._of_ints(arity, in_dim, out_dim, entries, den)
        out._view = (groups, den)
        return out

    def int_view(self) -> tuple:
        """(groups, den) of a map of arity 1 or 2: at input index i, or i *
        in_dim + j, the nonzero entries of the image as (k, int) pairs in
        increasing k, over den.  Read off the entries on first use unless
        `_of_view` filled it; a filled den need not be the map's, so a
        reader takes the view's."""
        if self._view is None:
            groups = [[] for _ in range(self.in_dim ** self.arity)]
            if self.arity == 1:
                for (j, k), x in sorted(self.entries.items()):
                    groups[j].append((k, x))
            else:
                n = self.in_dim
                for (i, j, k), x in sorted(self.entries.items()):
                    groups[i * n + j].append((k, x))
            self._view = ([tuple(img) for img in groups], self.den)
        return self._view

    def _like(self, entries: dict, den: int) -> "MultiMap":
        """A map of the same class and shape with these int entries."""
        return self._of_ints(self.arity, self.in_dim, self.out_dim, entries,
                             den)

    def _recast(self, cls) -> "MultiMap":
        """This map as one of class cls, sharing its entries (no map
        mutates them); no constructor runs."""
        out = cls.__new__(cls)
        out._fill(self.arity, self.in_dim, self.out_dim, self.entries,
                  self.den)
        return out

    @property
    def dim(self) -> int:
        """The one dimension of a square map."""
        if self.in_dim != self.out_dim:
            raise LinAlgError(
                f"map {self.in_dim} -> {self.out_dim} is not square")
        return self.in_dim

    @property
    def data(self) -> tuple:
        """All in_dim^arity * out_dim entries as Fractions, in the row-major
        layout the constructor takes, built anew on each read."""
        out = [_ZERO] * (self.in_dim ** self.arity * self.out_dim)
        for key, x in self.entries.items():
            out[flat_offset(key[:-1], self.in_dim, self.out_dim)
                + key[-1]] = Fraction(x, self.den)
        return tuple(out)

    def _shape(self) -> tuple:
        return (self.arity, self.in_dim, self.out_dim)

    @staticmethod
    def zero(arity: int, dim: int) -> "MultiMap":
        return MultiMap._of_ints(arity, dim, dim, {})

    @staticmethod
    def from_function(arity: int, dim: int, fn) -> "MultiMap":
        """Build from fn(basis index tuple) -> image vector of length dim."""
        def items():
            for idx in itertools.product(range(dim), repeat=arity):
                img = fn(idx)
                if len(img) != dim:
                    raise LinAlgError("image vector has wrong length")
                for k, x in enumerate(img):
                    yield idx + (k,), x

        return MultiMap._of_values(arity, dim, dim, items())

    @classmethod
    def from_matrix(cls, m: "Matrix") -> "MultiMap":
        """The arity-1 map acting as the rows x cols matrix m (square for a
        plain MultiMap): m itself, as a map of this class."""
        if cls is MultiMap and not m.is_square():
            raise LinAlgError(
                f"a MultiMap is square, not {m.cols} -> {m.rows}")
        return m._recast(cls)

    @staticmethod
    def constant(v: Vector) -> "MultiMap":
        return MultiMap(0, len(v), v)

    def value(self, idx: Sequence[int]) -> Vector:
        """Image of a basis tuple, as a coefficient vector."""
        if len(idx) != self.arity:
            raise LinAlgError(f"expected {self.arity} indices, got {len(idx)}")
        if not all(0 <= i < self.in_dim for i in idx):
            raise IndexError(idx)
        get, key, den = self.entries.get, tuple(idx), self.den
        ints = [get(key + (k,), 0) for k in range(self.out_dim)]
        return tuple(Fraction(x, den) if x else _ZERO for x in ints)

    def evaluate(self, *args: Vector) -> Vector:
        """Multilinear extension to arbitrary coefficient vectors: the sum
        over the nonzero entries whose input indices all meet nonzero
        coefficients of the arguments."""
        if len(args) != self.arity:
            raise LinAlgError(f"expected {self.arity} arguments, got {len(args)}")
        for a in args:
            if len(a) != self.in_dim:
                raise LinAlgError("argument has wrong dimension")
        out = [_ZERO] * self.out_dim
        for key, x in self.entries.items():
            for a, i in zip(args, key):
                if not a[i]:
                    break
                x *= a[i]
            else:
                out[key[-1]] += x
        den = self.den
        return tuple(out) if den == 1 else tuple(v / den for v in out)

    def as_matrix(self) -> "Matrix":
        """This arity-1 map as a Matrix (out_dim x in_dim)."""
        if self.arity != 1:
            raise LinAlgError("only arity-1 maps convert to matrices")
        return self._recast(Matrix)

    def permute_inputs(self, perm: Sequence[int]) -> "MultiMap":
        """Pull back along a permutation: result(x_1..x_n) = self(x_{perm[0]+1}, ...).

        perm is 0-based: perm[slot] tells which input of the result feeds
        that slot of self.
        """
        if sorted(perm) != list(range(self.arity)):
            raise LinAlgError(f"not a permutation of {self.arity} inputs: {perm}")
        entries = {}
        for key, x in self.entries.items():
            idx = list(key)
            for slot, p in enumerate(perm):
                idx[p] = key[slot]
            entries[tuple(idx)] = x
        return self._like(entries, self.den)

    # -- linear structure on the entries -------------------------------------

    def _same_shape(self, other: "MultiMap"):
        if (self.arity != other.arity or self.in_dim != other.in_dim
                or self.out_dim != other.out_dim):
            raise LinAlgError(f"{type(self).__name__} shape mismatch: "
                              f"{self._shape()} vs {other._shape()}")

    def _combine(self, other: "MultiMap", sign: int) -> "MultiMap":
        self._same_shape(other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        acc = {key: a * x for key, x in self.entries.items()}
        for key, y in other.entries.items():
            acc[key] = acc.get(key, 0) + b * y
        return self._like(acc, den)

    def __add__(self, other: "MultiMap") -> "MultiMap":
        return self._combine(other, 1)

    def __sub__(self, other: "MultiMap") -> "MultiMap":
        return self._combine(other, -1)

    def __neg__(self) -> "MultiMap":
        return self._like({key: -x for key, x in self.entries.items()},
                          self.den)

    def scale(self, c: Scalar) -> "MultiMap":
        c = _exact(c)
        return self._like({key: c.numerator * x
                           for key, x in self.entries.items()},
                          self.den * c.denominator)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiMap):
            return NotImplemented
        return (self._shape() == other._shape() and self.den == other.den
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self._shape(), self.den, frozenset(self.entries.items())))

    def __repr__(self):
        return (f"{type(self).__name__}(arity={self.arity}, "
                f"in_dim={self.in_dim}, out_dim={self.out_dim}, "
                f"nonzeros={len(self.entries)})")


def _insertion_sum(f: MultiMap, g: MultiMap, signs: Sequence[int]) -> MultiMap:
    """The one composition of multilinear maps: the sum over the (0-based)
    slots of f of signs[slot] (+1, -1, or 0 to skip the slot) times g
    grafted into that slot; arity f.arity + g.arity - 1, in_dim g's and
    out_dim f's.  An entry f[pre, t, post, k] meets every entry g[idx, t]
    whose output is t and adds their product at (pre, idx, post, k), so
    the cost is O(nnz(f) nnz(g) arity).  The result has the class of f
    and g when they share one, else it is a MultiMap: on two matrices with
    signs (1,) it is their product (`Matrix.__matmul__`)."""
    acc = {}
    get = acc.get
    by_out = {}
    if f.arity == 1 and g.arity == 1:
        # the arity-1 graft splices no tuples: g[j, t] meets f[t, k] at
        # (j, k)
        for (j, t), y in g.entries.items():
            by_out.setdefault(t, []).append((j, y))
        sign = signs[0]
        for (t, k), x in f.entries.items() if sign else ():
            c = sign * x
            for j, y in by_out.get(t, ()):
                acc[j, k] = get((j, k), 0) + c * y
    else:
        for key, y in g.entries.items():
            by_out.setdefault(key[-1], []).append((key[:-1], y))
        for key, x in f.entries.items():
            for slot, sign in enumerate(signs):
                hits = by_out.get(key[slot]) if sign else None
                if hits is None:
                    continue
                pre, post, c = key[:slot], key[slot + 1:], sign * x
                for idx, y in hits:
                    out = pre + idx + post
                    acc[out] = get(out, 0) + c * y
    cls = type(f) if type(f) is type(g) else MultiMap
    return cls._of_ints(f.arity + g.arity - 1, g.in_dim, f.out_dim, acc,
                        f.den * g.den)


# ---------------------------------------------------------------------------
# matrices: the arity-1 maps
# ---------------------------------------------------------------------------

class Matrix(MultiMap):
    """rows x cols matrix over Q, immutable: the arity-1 MultiMap from a
    cols-dimensional space to a rows-dimensional one, with entry (i, j) at
    key (j, i).

    Lowest terms, sums, differences, negation, `scale` and `is_zero` are
    MultiMap's, and the product is the composition `_insertion_sum` that
    the bracket runs on, so none of them reads a dense layout.  Its own
    are the constructor, the names rows and cols, the row-major reads, the
    eliminations on the integer view (`int_view`, whose groups are the
    sparse columns), and an equality that never holds with a plain
    MultiMap of the same entries.

    The constructor takes the row-major entries as exact values (ints,
    Fractions or anything Fraction takes), and `data`, `row`, `col` and
    m[i, j] give them back as Fractions, built anew on each read; `ints`
    gives them as ints over den.  Bimodule views and search hits are built
    from their nonzero ints (`_of_ints`), and parsed documents from their
    exact values (`_of_values`).
    """

    __slots__ = ()

    def __init__(self, rows: int, cols: int, data: Sequence[Scalar]):
        if rows < 0 or cols < 0:
            raise LinAlgError("negative matrix dimension")
        data = tuple(data)
        if len(data) != rows * cols:
            raise LinAlgError(
                f"matrix data length {len(data)} != {rows}x{cols}")
        self._fill(1, cols, rows, *_scaled_entries(
            ((k % cols, k // cols), x) for k, x in enumerate(data)))

    rows = property(lambda self: self.out_dim)
    cols = property(lambda self: self.in_dim)

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

    # -- access: row-major, Fractions built on each read ----------------------

    @property
    def ints(self) -> tuple:
        """All rows * cols entries as ints over den, row-major."""
        out = [0] * (self.out_dim * self.in_dim)
        n = self.in_dim
        for (j, i), x in self.entries.items():
            out[i * n + j] = x
        return tuple(out)

    @property
    def data(self) -> tuple:
        """All rows * cols entries as Fractions, row-major."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.ints)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return Fraction(self.entries.get((j, i), 0), self.den)

    def row(self, i: int) -> Vector:
        get, den = self.entries.get, self.den
        return tuple(Fraction(get((j, i), 0), den) for j in range(self.cols))

    def col(self, j: int) -> Vector:
        return self.value((j,))

    # -- algebra ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiMap):
            return NotImplemented
        # a Matrix's __eq__ runs first on either side of a plain MultiMap
        return isinstance(other, Matrix) and MultiMap.__eq__(self, other)

    __hash__ = MultiMap.__hash__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise LinAlgError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return _insertion_sum(self, other, (1,))

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise LinAlgError(f"matrix {self.rows}x{self.cols} applied to length-{len(v)} vector")
        return self.evaluate(v)

    def transpose(self) -> "Matrix":
        return Matrix._of_ints(1, self.rows, self.cols, {
            (i, j): x for (j, i), x in self.entries.items()}, self.den)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def power(self, k: int) -> "Matrix":
        if not self.is_square():
            raise LinAlgError("power of non-square matrix")
        if k < 0:
            raise LinAlgError("negative matrix power")
        n = self.rows
        acc = Matrix._of_ints(1, n, n, {(i, i): 1 for i in range(n)})
        for _ in range(k):
            acc = acc @ self
        return acc

    # -- elimination: `int_cols_rank` and `_relations` on the int view --------

    def rank(self) -> int:
        """The rank, by `int_cols_rank` on this matrix's integer view (a
        common denominator does not change the rank)."""
        return int_cols_rank(self.int_view()[0])

    def kernel_basis(self) -> list:
        """Basis of the right kernel {v : self @ v = 0}, as a list of vectors.

        Size is always cols - rank; each vector satisfies M v = 0 exactly.
        It is the reduced-echelon basis: one vector per column dependent on
        the columns before it, 1 there and 0 at every other such column.
        """
        return [tuple(Fraction(rel.get(i, 0), rel[j])
                      for i in range(self.cols))
                for j, rel in enumerate(_relations(self.int_view()[0])) if rel]

    def solve(self, b: Vector) -> Optional[Vector]:
        """The reduced-echelon solution x of self @ x = b (0 at every column
        dependent on the columns before it), or None if inconsistent."""
        if len(b) != self.rows:
            raise LinAlgError(f"rhs length {len(b)} != rows {self.rows}")
        cols, den = self.int_view()
        (bints,), bden = integer_scaled(b)
        b_col = [(i, x) for i, x in enumerate(bints) if x]
        rel = _relations([*cols, b_col])[-1]
        if rel is None:
            return None
        # ints @ y = bints for y_i = -c_i / c_b, and x = y * den / bden
        c = rel[self.cols] * bden
        return tuple(Fraction(-den * rel.get(i, 0), c)
                     for i in range(self.cols))

    def inverse(self) -> Optional["Matrix"]:
        """Exact inverse, or None when the matrix is singular or non-square:
        column k is den * y for ints @ y = e_k, read off the relation of the
        unit column k appended after the matrix's own columns."""
        if not self.is_square():
            return None
        n = self.rows
        cols, den = self.int_view()
        rels = _relations([*cols, *([(k, 1)] for k in range(n))])
        if any(rels[:n]):
            return None
        units = [rel[n + k] for k, rel in enumerate(rels[n:])]
        out = math.lcm(*units)
        return Matrix._of_ints(1, n, n, {
            (k, i): -den * (out // c) * x
            for k, (c, rel) in enumerate(zip(units, rels[n:]))
            for i, x in rel.items() if i < n}, out)

    def __repr__(self):
        rows = "; ".join(
            " ".join(str(render_rational(x)) for x in self.row(i))
            for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {rows})"


def linear_combination(coeffs: Sequence[Scalar],
                       terms: Sequence[MultiMap]) -> MultiMap:
    """sum_i coeffs[i] * terms[i] over maps of one shape and class, with no
    intermediate maps built; with one action matrix per basis element,
    this is the action of the element whose coefficient vector is coeffs.
    The sum runs on the entries of the terms and the ints of the
    coefficients, over the product of their two common denominators."""
    if not terms or len(coeffs) != len(terms):
        raise LinAlgError(f"{len(coeffs)} coefficients for {len(terms)} terms")
    (cints,), cden = integer_scaled(coeffs)
    first = terms[0]
    used = [(c, term) for c, term in zip(cints, terms) if c]
    for _, term in used:
        first._same_shape(term)
    den = math.lcm(*(term.den for _, term in used))
    acc = {}
    get = acc.get
    for c, term in used:
        f = c * (den // term.den)
        for key, x in term.entries.items():
            acc[key] = get(key, 0) + f * x
    return first._like(acc, den * cden)
