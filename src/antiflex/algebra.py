"""Finite-dimensional algebras given by structure constants.

An algebra is a dim-d space with a bilinear product stored as an arity-2
`MultiMap` (e_i . e_j = sum_k c_{ij}^k e_k), that is, as its nonzero
structure constants.  All identity checks run over basis tuples only;
every law in scope is multilinear, so basis verification is complete.

An algebra keeps one integer view (`Algebra.int_view`), read on first use
off the entries of its product map: its nonzero products as ints C over
their common denominator D, c = C / D.  Associators, deformed products
and the law checks contract it: (e_i e_j) e_k - e_i (e_j e_k) is sum_s
c_ij^s c_sk^t - c_jk^s c_is^t, homogeneous of degree 2 in c, so exactly
D**-2 times the int associator.  A law holds on c exactly when it holds on
C, at the same first triple, and the witness is Fraction(int_residual, D**2).
"""

from __future__ import annotations

import itertools
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


def _default_labels(dim: int) -> tuple:
    return tuple(f"e{i + 1}" for i in range(dim))


class Algebra:
    """A based algebra (A, .) with product given by structure constants."""

    __slots__ = ("dim", "labels", "mul", "_view")

    def __init__(self, mul: MultiMap, labels: Optional[Sequence[str]] = None):
        if mul.arity != 2:
            raise LinAlgError("algebra product must be an arity-2 tensor")
        self.mul = mul
        self.dim = mul.dim
        self.labels = tuple(labels) if labels is not None else _default_labels(mul.dim)
        if len(self.labels) != self.dim:
            raise LinAlgError("label count != dimension")
        if len(set(self.labels)) != self.dim:
            raise LinAlgError("duplicate basis labels")
        self._view = None

    def int_view(self) -> tuple:
        """(prod, den): at pair index i*d + j, e_i.e_j's nonzero entries as
        (k, int) pairs in increasing k over the common denominator den, read
        off the entries and the denominator of the product map."""
        if self._view is None:
            self._view = (_sparse_products(self.mul.entries, self.dim),
                          self.mul.den)
        return self._view

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

def _sparse_products(entries: dict, d: int) -> list:
    """At pair index i*d + j, the nonzero entries[(i, j, k)] of a product
    on range(d) as (k, x) pairs in increasing k."""
    prod = [[] for _ in range(d * d)]
    for (i, j, k), x in sorted(entries.items()):
        if x:
            prod[i * d + j].append((k, x))
    return [tuple(p) for p in prod]


def _product_entries(prod: list, d: int) -> dict:
    """{(i, j, k): x} from sparse products, e_i.e_j at pair index i*d + j;
    the inverse of `_sparse_products`."""
    return {(p // d, p % d, k): x for p, img in enumerate(prod) for k, x in img}


def _algebra_of_ints(entries: dict, den: int,
                     labels: Sequence[str]) -> "Algebra":
    """The algebra with structure constants entries[(i, j, k)] / den."""
    d = len(labels)
    return Algebra(MultiMap._of_ints(2, d, d, entries, den), labels)


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


def _scaled_associators(alg: "Algebra") -> tuple:
    """(assoc, scale): every basis associator of the integer-scaled
    constants as an int list, at flat index (i*d + j)*d + k; each is scale
    times the exact one."""
    d = alg.dim
    prod, den = alg.int_view()
    return ([_associator(prod, d, i, j, k, [0] * d)
             for i, j, k in itertools.product(range(d), repeat=3)], den * den)


@dataclass(frozen=True)
class ClassifyFlags:
    anti_flexible: bool
    flexible: bool
    associative: bool


def classify(alg: Algebra) -> ClassifyFlags:
    """Check the associative, flexible and anti-flexible laws on all basis triples.

    Shares one sweep of the integer-scaled associators.  Anti-flexible is
    (a,b,c) = (c,b,a), and the flexible law (x,y,x) = 0, polarized, is
    (a,b,c) + (c,b,a) = 0.  Where either fails, one of the two associators
    is nonzero, so both are checked at the nonzero associators alone, which
    have already made the associative flag false: a nonzero one equal to
    its mirror fails the flexible law, and one that is not fails the
    anti-flexible law.  The sweep stops once both of those flags are false.
    """
    d = alg.dim
    anti_flexible = True
    flexible = True
    associative = True
    assoc, _ = _scaled_associators(alg)
    for (i, j, k), t in zip(itertools.product(range(d), repeat=3), assoc):
        if any(t):
            associative = False
            mirror = assoc[(k * d + j) * d + i]
            if t == mirror:  # then the sum 2t is nonzero
                flexible = False
            else:
                anti_flexible = False
                flexible = flexible and not any(map(operator.add, t, mirror))
            if not (anti_flexible or flexible):
                break
    return ClassifyFlags(anti_flexible=anti_flexible, flexible=flexible,
                         associative=associative)


def anti_flexible_report(alg: Algebra) -> CheckReport:
    """Anti-flexible law with a witness: (a,b,c) - (c,b,a) on basis triples.

    The residual at (k, j, i) is minus the one at (i, j, k), and it is zero
    at i = k, so the sweep visits only the triples with i < k, in product
    order, and forms their two associators as it reaches them: the mirror
    of a failing triple with i > k comes earlier and fails too, so the first
    failure, its witness and its text are those of the full sweep."""
    d = alg.dim
    prod, den = alg.int_view()

    def residual(i, j, k):
        mirror = _associator(prod, d, k, j, i, [0] * d)
        return tuple(_associator(prod, d, i, j, k, [-x for x in mirror]))

    return CheckReport("anti_flexible").sweep(
        "(a,b,c) = (c,b,a)",
        (t for t in itertools.product(range(d), repeat=3) if t[0] < t[2]),
        residual, witness=lambda res: tuple(Fraction(x, den * den) for x in res))


def tensor_with_associative(alg: Algebra, other: Algebra) -> Algebra:
    """Tensor product algebra A (x) B for associative B.

    Product is (a1 (x) b1)(a2 (x) b2) = a1 a2 (x) b1 b2 on the flattened
    index (i, p) -> i * other.dim + p.
    """
    if not classify(other).associative:
        raise ValueError("tensor factor must be associative")
    d1, d2 = alg.dim, other.dim
    products = {}
    for i, j, p, q in itertools.product(range(d1), range(d1), range(d2), range(d2)):
        va, vb = alg.basis_product(i, j), other.basis_product(p, q)
        products[(i * d2 + p, j * d2 + q)] = {
            k * d2 + r: a * b for k, a in enumerate(va) for r, b in enumerate(vb)}
    labels = tuple(f"{la}*{lb}" for la in alg.labels for lb in other.labels)
    return Algebra.from_products(d1 * d2, products, labels)


def direct_sum(alg: Algebra, other: Algebra) -> Algebra:
    """Componentwise product on A + B (block-diagonal structure constants)."""
    products = {}
    for off, part in ((0, alg), (alg.dim, other)):
        for i, j in itertools.product(range(part.dim), repeat=2):
            products[(off + i, off + j)] = {
                off + k: x for k, x in enumerate(part.basis_product(i, j))}
    labels = (tuple(f"a.{x}" for x in alg.labels)
              + tuple(f"b.{x}" for x in other.labels))
    return Algebra.from_products(alg.dim + other.dim, products, labels)


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
    from .glie import _structure_element

    labels = (tuple(f"a.{x}" for x in alg.labels)
              + tuple(f"m{i + 1}" for i in range(mod.mdim)))
    return Algebra(_structure_element(mod), labels)


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
    return _algebra_of_ints(entries, den1 * den2, alg.labels)


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
    if not classify(alg).anti_flexible:
        raise ValueError("commutator bracket requires an anti-flexible algebra")
    mul = alg.mul
    entries = dict(mul.entries)
    for (i, j, k), x in mul.entries.items():
        entries[(j, i, k)] = entries.get((j, i, k), 0) - x
    return LieAlgebra(mul._like(entries, mul.den))
