"""Finite-dimensional algebras given by structure constants.

An algebra is a dim-d space with a bilinear product stored as an arity-2
coefficient tensor (e_i . e_j = sum_k c_{ij}^k e_k).  All identity checks
run over basis tuples only; every law in scope is multilinear, so basis
verification is complete.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .linalg import (LinAlgError, Matrix, MultiMap, Vector, basis_vector,
                     vec_add, vec_is_zero, vec_sub, zero_vector)
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


def _default_labels(dim: int, prefix: str = "e") -> tuple:
    return tuple(f"{prefix}{i + 1}" for i in range(dim))


class Algebra:
    """A based algebra (A, .) with product given by structure constants."""

    __slots__ = ("dim", "labels", "mul")

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

    @staticmethod
    def zero(dim: int, labels: Optional[Sequence[str]] = None) -> "Algebra":
        return Algebra(MultiMap.zero(2, dim), labels)

    @staticmethod
    def from_products(dim: int, products: dict, labels: Optional[Sequence[str]] = None) -> "Algebra":
        """Build from a sparse {(i, j): {k: coeff}} table, absent entries zero."""
        data = MultiMap.zero(2, dim).data
        flat = list(data)
        for (i, j), img in products.items():
            for k, c in img.items():
                flat[(i * dim + j) * dim + k] = c
        return Algebra(MultiMap(2, dim, flat), labels)

    def multiply(self, x: Vector, y: Vector) -> Vector:
        return self.mul.evaluate(x, y)

    def basis_product(self, i: int, j: int) -> Vector:
        return self.mul.value((i, j))

    def associator(self, a: Vector, b: Vector, c: Vector) -> Vector:
        return vec_sub(self.multiply(self.multiply(a, b), c),
                       self.multiply(a, self.multiply(b, c)))

    def basis_associator(self, i: int, j: int, k: int) -> Vector:
        return vec_sub(
            self.multiply(self.basis_product(i, j), basis_vector(k, self.dim)),
            self.multiply(basis_vector(i, self.dim), self.basis_product(j, k)))

    def left_matrix(self, i: int) -> Matrix:
        """Matrix of x -> e_i . x."""
        return Matrix.from_cols([self.basis_product(i, j) for j in range(self.dim)],
                                rows=self.dim)

    def right_matrix(self, i: int) -> Matrix:
        """Matrix of x -> x . e_i."""
        return Matrix.from_cols([self.basis_product(j, i) for j in range(self.dim)],
                                rows=self.dim)

    def is_commutative(self) -> bool:
        return all(self.basis_product(i, j) == self.basis_product(j, i)
                   for i in range(self.dim) for j in range(self.dim))

    def __eq__(self, other):
        return isinstance(other, Algebra) and self.mul == other.mul

    def __hash__(self):
        return hash(self.mul)

    def __repr__(self):
        return f"Algebra(dim={self.dim})"


@dataclass(frozen=True)
class ClassifyFlags:
    anti_flexible: bool
    flexible: bool
    associative: bool


def classify(alg: Algebra) -> ClassifyFlags:
    """Check the associative, flexible and anti-flexible laws on all basis triples.

    Shares one associator sweep; associativity forces the other two flags,
    which holds automatically since a zero associator satisfies both laws.
    """
    d = alg.dim
    anti_flexible = True
    flexible = True
    associative = True
    assoc = {}
    for i, j, k in itertools.product(range(d), repeat=3):
        assoc[(i, j, k)] = alg.basis_associator(i, j, k)
    for i, j, k in itertools.product(range(d), repeat=3):
        t = assoc[(i, j, k)]
        if associative and not vec_is_zero(t):
            associative = False
        if anti_flexible and not vec_is_zero(vec_sub(t, assoc[(k, j, i)])):
            anti_flexible = False
        if flexible and i == k and not vec_is_zero(t):
            flexible = False
    return ClassifyFlags(anti_flexible=anti_flexible, flexible=flexible,
                         associative=associative)


def anti_flexible_report(alg: Algebra) -> CheckReport:
    """Anti-flexible law with a witness: (a,b,c) - (c,b,a) on basis triples."""
    return CheckReport("anti_flexible").sweep(
        "(a,b,c) = (c,b,a)", itertools.product(range(alg.dim), repeat=3),
        lambda i, j, k: vec_sub(alg.basis_associator(i, j, k),
                                alg.basis_associator(k, j, i)))


def tensor_with_associative(alg: Algebra, other: Algebra) -> Algebra:
    """Tensor product algebra A (x) B for associative B.

    Product is (a1 (x) b1)(a2 (x) b2) = a1 a2 (x) b1 b2 on the flattened
    index (i, p) -> i * other.dim + p.
    """
    if not classify(other).associative:
        raise ValueError("tensor factor must be associative")
    d1, d2 = alg.dim, other.dim
    dim = d1 * d2

    def fn(idx):
        (ip, jq) = idx
        i, p = divmod(ip, d2)
        j, q = divmod(jq, d2)
        va = alg.basis_product(i, j)
        vb = other.basis_product(p, q)
        out = [0] * dim
        for k in range(d1):
            if va[k] == 0:
                continue
            for r in range(d2):
                if vb[r] == 0:
                    continue
                out[k * d2 + r] = va[k] * vb[r]
        return out

    labels = tuple(f"{la}*{lb}" for la in alg.labels for lb in other.labels)
    return Algebra(MultiMap.from_function(2, dim, fn), labels)


def direct_sum(alg: Algebra, other: Algebra) -> Algebra:
    """Componentwise product on A + B (block-diagonal structure constants)."""
    d1, d2 = alg.dim, other.dim
    dim = d1 + d2

    def fn(idx):
        i, j = idx
        out = [0] * dim
        if i < d1 and j < d1:
            v = alg.basis_product(i, j)
            out[:d1] = v
        elif i >= d1 and j >= d1:
            v = other.basis_product(i - d1, j - d1)
            out[d1:] = v
        return out

    labels = (tuple(f"a.{x}" for x in alg.labels)
              + tuple(f"b.{x}" for x in other.labels))
    return Algebra(MultiMap.from_function(2, dim, fn), labels)


def semidirect_product(alg: Algebra, mod) -> Algebra:
    """Semidirect product on A + M: (a,m).(b,n) = (a.b, l(a)n + r(b)m).

    mod must be a valid bimodule over alg; the basis order is A first, then M.
    """
    if mod.base is not alg and mod.base != alg:
        raise ValueError("bimodule is over a different algebra")
    mod.validate().require("invalid bimodule")
    from .glie import structure_element

    labels = (tuple(f"a.{x}" for x in alg.labels)
              + tuple(f"m{i + 1}" for i in range(mod.mdim)))
    return Algebra(structure_element(alg.mul, mod.left, mod.right, mod.mdim),
                   labels)


def deformed_product(alg: Algebra, op: Matrix) -> Algebra:
    """The product a ._N b = Na.b + a.Nb - N(a.b) deformed by a square operator.

    Always formed; it is anti-flexible whenever the operator has vanishing
    Nijenhuis torsion.
    """
    if not op.is_square() or op.rows != alg.dim:
        raise LinAlgError("deforming operator must be square of the algebra dimension")

    def fn(idx):
        i, j = idx
        ni = op.col(i)
        nj = op.col(j)
        t1 = alg.multiply(ni, basis_vector(j, alg.dim))
        t2 = alg.multiply(basis_vector(i, alg.dim), nj)
        t3 = op.apply(alg.basis_product(i, j))
        return [t1[k] + t2[k] - t3[k] for k in range(alg.dim)]

    return Algebra(MultiMap.from_function(2, alg.dim, fn), alg.labels)


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
                inner = self.bracket.value((p, q))
                term = self.bracket.evaluate(inner, basis_vector(r, d))
                s = vec_add(s, term)
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

    def fn(idx):
        i, j = idx
        return vec_sub(alg.basis_product(i, j), alg.basis_product(j, i))

    return LieAlgebra(MultiMap.from_function(2, alg.dim, fn))
