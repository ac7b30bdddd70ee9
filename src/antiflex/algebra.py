"""Finite-dimensional algebras given by structure constants.

An algebra is a dim-d space with a bilinear product stored as an arity-2
`MultiMap` (e_i . e_j = sum_k c_{ij}^k e_k), that is, as its nonzero
structure constants.  All identity checks run over basis tuples only;
every law in scope is multilinear, so basis verification is complete.

An algebra's integer view (`Algebra.int_view`) is the one its product map
keeps (`MultiMap.int_view`): its nonzero products, e_i.e_j at pair index
i*d + j, as ints C over a common denominator D, c = C / D.  Associators,
deformed products and the law checks contract it: (e_i e_j) e_k -
e_i (e_j e_k) is sum_s c_ij^s c_sk^t - c_jk^s c_is^t, homogeneous of
degree 2 in c, so exactly D**-2 times the int associator.  A law holds on
c exactly when it holds on C, at the same first triple, and the witness is
Fraction(int_residual, D**2).  `anti_flexible_report`, which searches and
`bimodule._induced_view` read for every candidate, adds its four
contractions per triple in one plain loop and hands the first failure's
int residual and D**2 to the report, which forms the witness when it is
read.  `classify` forms the associators of each mirror pair of triples
as it visits the pair and keeps none of them, so its memory does not grow
with dim**3.  `direct_sum` and `tensor_with_associative` build their
products from the nonzero entries of the two factors alone.  An algebra
built without labels shares the default labels of its dimension, built
once.

The structure element mu + l + r of a bimodule on A + M
(`_structure_element`) is laid out here from the bimodule's integer view,
the only thing it reads: `semidirect_product` is the algebra of it, `glie`
brackets it and `operators` contracts it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import (LinAlgError, Matrix, MultiMap, Vector, basis_vector,
                     vec_add, vec_sub, zero_vector)
from .reports import CheckReport

__all__ = [
    "Algebra",
    "LieAlgebra",
    "ClassifyFlags",
    "classify",
    "tensor_with_associative",
    "direct_sum",
    "semidirect_product",
    "deformed_product",
    "commutator_lie",
]


@functools.cache
def _default_labels(dim: int) -> tuple:
    """e1, ..., e_dim, built once per dimension and shared by every algebra
    of that dimension built without labels."""
    return tuple(f"e{i + 1}" for i in range(dim))


class Algebra:
    """A based algebra (A, .) with product given by structure constants."""

    __slots__ = ("dim", "labels", "mul")

    def __init__(self, mul: MultiMap, labels: Optional[Sequence[str]] = None):
        if mul.arity != 2:
            raise LinAlgError("algebra product must be an arity-2 tensor")
        self.mul = mul
        self.dim = mul.dim
        if labels is None:
            self.labels = _default_labels(self.dim)
        else:
            self.labels = tuple(labels)
            if len(self.labels) != self.dim:
                raise LinAlgError("label count != dimension")
            if len(set(self.labels)) != self.dim:
                raise LinAlgError("duplicate basis labels")

    def int_view(self) -> tuple:
        """(prod, den): at pair index i*d + j, e_i.e_j's nonzero entries as
        (k, int) pairs in increasing k over den, the view of the product
        map."""
        return self.mul.int_view()

    @staticmethod
    def zero(dim: int, labels: Optional[Sequence[str]] = None) -> "Algebra":
        return Algebra(MultiMap.zero(2, dim), labels)

    @staticmethod
    def from_products(dim: int, products: dict, labels: Optional[Sequence[str]] = None) -> "Algebra":
        """Build from a sparse {(i, j): {k: coeff}} table, absent entries zero."""
        return Algebra(MultiMap._of_values(
            2, dim, dim, (((i, j, k), c) for (i, j), img in products.items()
                          for k, c in img.items())), labels)

    def multiply(self, x: Vector, y: Vector) -> Vector:
        return self.mul.evaluate(x, y)

    def basis_product(self, i: int, j: int) -> Vector:
        return self.mul.value((i, j))

    def associator(self, a: Vector, b: Vector, c: Vector) -> Vector:
        return vec_sub(self.multiply(self.multiply(a, b), c),
                       self.multiply(a, self.multiply(b, c)))

    def basis_associator(self, i: int, j: int, k: int) -> Vector:
        d = self.dim
        if not all(0 <= x < d for x in (i, j, k)):
            raise IndexError((i, j, k))
        prod, den = self.int_view()
        return tuple(Fraction(x, den * den)
                     for x in _associator(prod, d, i, j, k, [0] * d))

    def left_matrix(self, i: int) -> Matrix:
        """Matrix of x -> e_i . x, read off the product's entries."""
        return self._action_matrix(i, 0)

    def right_matrix(self, i: int) -> Matrix:
        """Matrix of x -> x . e_i, read off the product's entries."""
        return self._action_matrix(i, 1)

    def _action_matrix(self, i: int, slot: int) -> Matrix:
        """Column j is the product with e_i in `slot` and e_j in the other."""
        if not 0 <= i < self.dim:
            raise IndexError(i)
        return Matrix._of_ints(1, self.dim, self.dim, {
            (key[1 - slot], key[2]): x for key, x in self.mul.entries.items()
            if key[slot] == i}, self.mul.den)

    def is_commutative(self) -> bool:
        entries = self.mul.entries
        return all(entries.get((j, i, k)) == x
                   for (i, j, k), x in entries.items())

    def __eq__(self, other):
        return isinstance(other, Algebra) and self.mul == other.mul

    def __hash__(self):
        return hash(self.mul)

    def __repr__(self):
        return f"Algebra(dim={self.dim})"


# ---------------------------------------------------------------------------
# contractions of structure constants
# ---------------------------------------------------------------------------
# Sparse vectors are lists of (index, coefficient) with nonzero coefficients.
# Each helper adds its term into the dense int list `acc` and returns it.

def _associator(prod: list, d: int, i: int, j: int, k: int, acc: list) -> list:
    """acc + (e_i e_j) e_k - e_i (e_j e_k), from the sparse products prod."""
    for s, a in prod[i * d + j]:
        for t, b in prod[s * d + k]:
            acc[t] += a * b
    for s, a in prod[j * d + k]:
        for t, b in prod[i * d + s]:
            acc[t] -= a * b
    return acc


def _multiply(prod: list, d: int, u: list, v: list, acc: list) -> list:
    """acc + u.v for sparse vectors u and v."""
    for a, x in u:
        for b, y in v:
            xy = x * y
            for k, z in prod[a * d + b]:
                acc[k] += xy * z
    return acc


def _subtract_image(cols: list, v, acc: list) -> list:
    """acc - N(v) for the operator N with sparse columns cols and v given
    as (index, coefficient) pairs, zero coefficients allowed."""
    for s, z in v:
        if z:
            for k, x in cols[s]:
                acc[k] -= x * z
    return acc


def _deformed(prod: list, ncols: list, d: int, i: int, j: int,
              acc: list) -> list:
    """acc + N(e_i).e_j + e_i.N(e_j) - N(e_i.e_j) for the operator N with
    sparse columns ncols."""
    for a, x in ncols[i]:
        for k, z in prod[a * d + j]:
            acc[k] += x * z
    for b, y in ncols[j]:
        for k, z in prod[i * d + b]:
            acc[k] += y * z
    return _subtract_image(ncols, prod[i * d + j], acc)


@dataclass(frozen=True)
class ClassifyFlags:
    anti_flexible: bool
    flexible: bool
    associative: bool


def classify(alg: Algebra) -> ClassifyFlags:
    """Check the associative, flexible and anti-flexible laws on all basis triples.

    One pass over the mirror pairs of basis triples, (i, j, k) with i <= k,
    forms each triple's int associator t and its mirror's m, (k, j, i), from
    the integer view (m is t when i = k) and keeps no table of them.
    Anti-flexible is (a,b,c) = (c,b,a), and the flexible law (x,y,x) = 0,
    polarized, is (a,b,c) + (c,b,a) = 0.  A nonzero t equal to m fails the
    associative and flexible laws (the sum 2t is nonzero); t unequal to m
    fails the associative and anti-flexible laws, and the flexible one too
    when t + m is nonzero.  The pass returns once the flexible and
    anti-flexible flags are both false, and then every flag is.
    """
    d = alg.dim
    prod, _ = alg.int_view()
    anti_flexible = flexible = associative = True
    for i in range(d):
        for j in range(d):
            for k in range(i, d):
                t = _associator(prod, d, i, j, k, [0] * d)
                m = t if k == i else _associator(prod, d, k, j, i, [0] * d)
                if t != m:
                    associative = anti_flexible = False
                    if flexible and any(map(operator.add, t, m)):
                        flexible = False
                elif any(t):
                    associative = flexible = False
                else:
                    continue
                if not (anti_flexible or flexible):
                    return ClassifyFlags(False, False, False)
    return ClassifyFlags(anti_flexible=anti_flexible, flexible=flexible,
                         associative=associative)


def anti_flexible_report(alg: Algebra) -> CheckReport:
    """Anti-flexible law with a witness: (a,b,c) - (c,b,a) on basis triples.

    The residual at (k, j, i) is minus the one at (i, j, k), and it is zero
    at i = k, so the loop visits only the triples with i < k, in product
    order (i, then j, then k), and adds the four contractions of
    (e_i e_j)e_k - e_i(e_j e_k) - (e_k e_j)e_i + e_k(e_j e_i) into one int
    list: the mirror of a failing triple with i > k comes earlier and fails
    too, so the first failure, its witness and its text are those of the
    full sweep.  A passing algebra builds no report beyond its name, and a
    failing one keeps its int residual over D**2 until the witness is
    read."""
    d = alg.dim
    prod, den = alg.int_view()
    report = CheckReport("anti_flexible")
    for i in range(d - 1):
        for j in range(d):
            ij, ji = prod[i * d + j], prod[j * d + i]
            for k in range(i + 1, d):
                acc = [0] * d
                for s, a in ij:
                    for t, b in prod[s * d + k]:
                        acc[t] += a * b
                for s, a in prod[j * d + k]:
                    for t, b in prod[i * d + s]:
                        acc[t] -= a * b
                for s, a in prod[k * d + j]:
                    for t, b in prod[s * d + i]:
                        acc[t] -= a * b
                for s, a in ji:
                    for t, b in prod[k * d + s]:
                        acc[t] += a * b
                if any(acc):
                    report.fail("(a,b,c) = (c,b,a)", (i, j, k), acc,
                                den * den)
                    return report
    return report


def tensor_with_associative(alg: Algebra, other: Algebra) -> Algebra:
    """Tensor product algebra A (x) B for associative B.

    Product is (a1 (x) b1)(a2 (x) b2) = a1 a2 (x) b1 b2 on the flattened
    index (i, p) -> i * other.dim + p: each pair of nonzero entries
    multiplies into one, over the product of the two denominators.
    """
    if not classify(other).associative:
        raise ValueError("tensor factor must be associative")
    d2, n = other.dim, alg.dim * other.dim
    entries = {(i * d2 + p, j * d2 + q, k * d2 + r): a * b
               for (i, j, k), a in alg.mul.entries.items()
               for (p, q, r), b in other.mul.entries.items()}
    labels = tuple(f"{la}*{lb}" for la in alg.labels for lb in other.labels)
    return Algebra(MultiMap._of_ints(2, n, n, entries,
                                     alg.mul.den * other.mul.den), labels)


def direct_sum(alg: Algebra, other: Algebra) -> Algebra:
    """Componentwise product on A + B (block-diagonal structure constants):
    the nonzero entries of both, B's shifted past A's basis, over the lcm
    of the two denominators."""
    d1, n = alg.dim, alg.dim + other.dim
    den = math.lcm(alg.mul.den, other.mul.den)
    entries = {key: x * (den // alg.mul.den)
               for key, x in alg.mul.entries.items()}
    entries.update(((i + d1, j + d1, k + d1), x * (den // other.mul.den))
                   for (i, j, k), x in other.mul.entries.items())
    labels = (tuple(f"a.{x}" for x in alg.labels)
              + tuple(f"b.{x}" for x in other.labels))
    return Algebra(MultiMap._of_ints(2, n, n, entries, den), labels)


def semidirect_product(alg: Algebra, mod) -> Algebra:
    """Semidirect product on A + M: (a,m).(b,n) = (a.b, l(a)n + r(b)m).

    mod must be a valid bimodule over alg; the basis order is A first, then M.
    """
    _check_base(alg, mod)
    mod.validate().require("invalid bimodule")
    return _semidirect_product(alg, mod)


def _check_base(alg: Algebra, mod) -> None:
    if mod.base is not alg and mod.base != alg:
        raise ValueError("bimodule is over a different algebra")


def _semidirect_product(alg: Algebra, mod) -> Algebra:
    """`semidirect_product` without validating `mod`, for callers whose
    bimodule was validated when it was built."""
    _check_base(alg, mod)
    labels = (tuple(f"a.{x}" for x in alg.labels)
              + tuple(f"m{i + 1}" for i in range(mod.mdim)))
    return Algebra(_structure_element(mod), labels)


def _structure_element(mod) -> MultiMap:
    """mu + l + r on A + M (algebra block first), whose integer view is
    laid out from that of the bimodule mod."""
    prod, left, right, den = mod.int_view()
    d, md = mod.base.dim, mod.mdim
    groups = []
    for i in range(d):
        # (e_i, e_j) -> e_i.e_j and (e_i, m_j) -> l(e_i) m_j
        groups += prod[i * d:(i + 1) * d] + _shifted(left[i], d)
    for j in range(md):
        # (m_j, e_i) -> r(e_i) m_j and (m_j, m_k) -> 0
        groups += _shifted([right[i][j] for i in range(d)], d) + [()] * md
    return MultiMap._of_view(2, d + md, d + md, groups, den)


def _shifted(cols: list, d: int) -> list:
    """Sparse int columns with every output index moved up by d."""
    return [tuple((d + k, x) for k, x in col) for col in cols]


def deformed_product(alg: Algebra, op: Matrix) -> Algebra:
    """The product a ._N b = Na.b + a.Nb - N(a.b) deformed by a square operator.

    Always formed; it is anti-flexible whenever the operator has vanishing
    Nijenhuis torsion.
    """
    if not op.is_square() or op.rows != alg.dim:
        raise LinAlgError("deforming operator must be square of the algebra dimension")
    d = alg.dim
    prod, den1 = alg.int_view()
    ncols, den2 = op.int_view()
    entries = {}
    for i, j in itertools.product(range(d), repeat=2):
        for k, x in enumerate(_deformed(prod, ncols, d, i, j, [0] * d)):
            entries[(i, j, k)] = x
    # linear in the constants and in N, so over den1 * den2
    return Algebra(MultiMap._of_ints(2, d, d, entries, den1 * den2),
                   alg.labels)


class LieAlgebra:
    """A based Lie algebra; construction checks antisymmetry and Jacobi."""

    __slots__ = ("dim", "bracket")

    def __init__(self, bracket: MultiMap):
        if bracket.arity != 2:
            raise LinAlgError("Lie bracket must be an arity-2 tensor")
        self.bracket = bracket
        self.dim = bracket.dim
        self.validate().require("not a Lie algebra")

    def validate(self) -> CheckReport:
        d = self.dim

        def antisymmetry(i, j):
            return vec_add(self.bracket.value((i, j)), self.bracket.value((j, i)))

        def jacobi(i, j, k):
            s = zero_vector(d)
            # [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]
            for (p, q, r) in ((i, j, k), (j, k, i), (k, i, j)):
                s = vec_add(s, self.bracket.evaluate(self.bracket.value((p, q)),
                                                     basis_vector(r, d)))
            return s

        return (CheckReport("lie_algebra")
                .sweep("antisymmetry", itertools.product(range(d), repeat=2),
                       antisymmetry)
                .sweep("jacobi", itertools.product(range(d), repeat=3), jacobi))

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim})"


def commutator_lie(alg: Algebra) -> LieAlgebra:
    """The commutator bracket [a,b] = a.b - b.a of an anti-flexible algebra."""
    if not anti_flexible_report(alg).ok:
        raise ValueError("commutator bracket requires an anti-flexible algebra")
    mul = alg.mul
    entries = dict(mul.entries)
    for (i, j, k), x in mul.entries.items():
        entries[(j, i, k)] = entries.get((j, i, k), 0) - x
    return LieAlgebra(mul._like(entries, mul.den))
