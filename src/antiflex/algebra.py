"""Finite-dimensional algebras given by structure constants.

An algebra is a dim-d space with a bilinear product stored as an arity-2
coefficient tensor (e_i . e_j = sum_k c_{ij}^k e_k).  All identity checks
run over basis tuples only; every law in scope is multilinear, so basis
verification is complete.

Basis associators and deformed products are contracted from the nonzero
structure constants, (e_i e_j) e_k - e_i (e_j e_k) = sum_s c_ij^s c_sk^t -
c_jk^s c_is^t, rather than evaluated on basis vectors.  The law checks
(`classify`, `anti_flexible_report`) contract the constants scaled to
integers by `linalg.integer_scaled`: the associator is homogeneous of degree
2 in c, so with c = C / D it is exactly D**-2 times the int associator of C.
A law holds on c exactly when it holds on C, the first failing triple is the
same, and the witness is rebuilt exactly as Fraction(int_residual, D**2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import (LinAlgError, Matrix, MultiMap, Vector, basis_vector,
                     integer_scaled, vec_add, vec_sub, zero_vector)
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
        d = self.dim
        if not all(0 <= x < d for x in (i, j, k)):
            raise IndexError((i, j, k))
        prod = _nonzero_products(self.mul.data, d)
        return tuple(_associator(prod, d, i, j, k, [Fraction(0)] * d))

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


# ---------------------------------------------------------------------------
# contractions of structure constants
# ---------------------------------------------------------------------------
# Sparse vectors are lists of (index, coefficient) with nonzero coefficients.
# Each helper adds its term into the dense list `acc` and returns it, so one
# helper serves Fraction data and int-scaled data alike.

def _nonzero_products(c: Sequence, d: int) -> list:
    """For each pair index i*d + j, the sparse product e_i.e_j, from the
    flat row-major structure constants c of a dim-d algebra."""
    return [[(k, x) for k, x in enumerate(c[p * d:(p + 1) * d]) if x]
            for p in range(d * d)]


def _nonzero_cols(data: Sequence, rows: int, cols: int) -> list:
    """The columns of a row-major rows x cols matrix, as sparse vectors."""
    return [[(i, data[i * cols + j]) for i in range(rows) if data[i * cols + j]]
            for j in range(cols)]


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
    (c,), den = integer_scaled(alg.mul.data)
    prod = _nonzero_products(c, d)
    return ([_associator(prod, d, i, j, k, [0] * d)
             for i, j, k in itertools.product(range(d), repeat=3)], den * den)


@dataclass(frozen=True)
class ClassifyFlags:
    anti_flexible: bool
    flexible: bool
    associative: bool


def classify(alg: Algebra) -> ClassifyFlags:
    """Check the associative, flexible and anti-flexible laws on all basis triples.

    Shares one sweep of the integer-scaled associators; associativity forces
    the other two flags, which holds automatically since a zero associator
    satisfies both laws.  The sweep stops once the flexible and anti-flexible
    flags are false: a failed flexible law has already met a nonzero
    associator, so associativity is false too.
    """
    d = alg.dim
    anti_flexible = True
    flexible = True
    associative = True
    assoc, _ = _scaled_associators(alg)
    for (i, j, k), t in zip(itertools.product(range(d), repeat=3), assoc):
        if any(t):
            associative = False
            flexible = flexible and i != k
        if anti_flexible and t != assoc[(k * d + j) * d + i]:
            anti_flexible = False
        if not (anti_flexible or flexible):
            break
    return ClassifyFlags(anti_flexible=anti_flexible, flexible=flexible,
                         associative=associative)


def anti_flexible_report(alg: Algebra) -> CheckReport:
    """Anti-flexible law with a witness: (a,b,c) - (c,b,a) on basis triples."""
    d = alg.dim
    assoc, scale = _scaled_associators(alg)

    def residual(i, j, k):
        return tuple(a - b for a, b in zip(assoc[(i * d + j) * d + k],
                                           assoc[(k * d + j) * d + i]))

    return CheckReport("anti_flexible").sweep(
        "(a,b,c) = (c,b,a)", itertools.product(range(d), repeat=3), residual,
        witness=lambda res: tuple(Fraction(x, scale) for x in res))


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
    d = alg.dim
    prod = _nonzero_products(alg.mul.data, d)
    ncols = _nonzero_cols(op.data, d, d)
    data = []
    for i, j in itertools.product(range(d), repeat=2):
        data.extend(_deformed(prod, ncols, d, i, j, [Fraction(0)] * d))
    return Algebra(MultiMap(2, d, data), alg.labels)


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
