"""Bimodules over anti-flexible algebras and the representations derived
from them.

A bimodule is a pair of action maps (l, r) into gl(M), one matrix per basis
element of the base algebra, subject to the two coupled equations

    l(a.b) - l(a)l(b) = r(a)r(b) - r(b.a)
    l(a)r(b) - r(b)l(a) = l(b)r(a) - r(a)l(b)

checked on all basis pairs.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .algebra import Algebra, LieAlgebra, classify, commutator_lie
from .linalg import (LinAlgError, Matrix, Vector, basis_vector,
                     linear_combination, vec_sub)
from .reports import CheckReport

__all__ = [
    "Bimodule",
    "LieRepresentation",
    "is_bimodule",
    "regular_bimodule",
    "zero_bimodule",
    "dual_bimodule_candidate",
    "lie_representation",
    "induced_bimodule_on_base",
    "tilde_bimodule",
]


class Bimodule:
    """Action data (l, r) of an algebra on an mdim-dimensional space."""

    __slots__ = ("base", "mdim", "left", "right")

    def __init__(self, base: Algebra, left: Sequence[Matrix], right: Sequence[Matrix],
                 check: bool = True):
        self.base = base
        self.mdim = _action_dim(base.dim, left, right)
        self.left = tuple(left)
        self.right = tuple(right)
        if check:
            self.validate().require("not a bimodule")

    def left_of(self, a: Vector) -> Matrix:
        """Action matrix of an arbitrary algebra element (linear extension)."""
        return linear_combination(a, self.left)

    def right_of(self, a: Vector) -> Matrix:
        return linear_combination(a, self.right)

    def validate(self) -> CheckReport:
        return is_bimodule(self.base, self.left, self.right)

    def __eq__(self, other):
        return (isinstance(other, Bimodule) and self.base == other.base
                and self.left == other.left and self.right == other.right)

    def __repr__(self):
        return f"Bimodule(base dim={self.base.dim}, mdim={self.mdim})"


def _action_dim(d: int, left: Sequence[Matrix], right: Sequence[Matrix]) -> int:
    """The common size of the square action matrices, one per basis element."""
    if len(left) != d or len(right) != d:
        raise LinAlgError("need one action matrix per algebra basis element")
    mdim = left[0].rows if d else 0
    for m in itertools.chain(left, right):
        if m.rows != mdim or m.cols != mdim:
            raise LinAlgError("action matrices must be square of equal size")
    return mdim


def is_bimodule(alg: Algebra, left: Sequence[Matrix], right: Sequence[Matrix]) -> CheckReport:
    """Both bimodule equations on all basis pairs, with residual witnesses."""
    d = alg.dim
    _action_dim(d, left, right)

    def product_law(i, j):
        lhs = linear_combination(alg.basis_product(i, j), left) - left[i] @ left[j]
        rhs = right[i] @ right[j] - linear_combination(alg.basis_product(j, i), right)
        return lhs - rhs

    def commutation_law(i, j):
        lhs = left[i] @ right[j] - right[j] @ left[i]
        rhs = left[j] @ right[i] - right[i] @ left[j]
        return lhs - rhs

    return (CheckReport("bimodule")
            .sweep("l(ab)-l(a)l(b) = r(a)r(b)-r(ba)",
                   itertools.product(range(d), repeat=2), product_law)
            .sweep("l(a)r(b)-r(b)l(a) = l(b)r(a)-r(a)l(b)",
                   itertools.product(range(d), repeat=2), commutation_law))


def regular_bimodule(alg: Algebra) -> Bimodule:
    """Left/right multiplication actions of an anti-flexible algebra on itself."""
    if not classify(alg).anti_flexible:
        raise ValueError("regular bimodule requires an anti-flexible algebra")
    left = [alg.left_matrix(i) for i in range(alg.dim)]
    right = [alg.right_matrix(i) for i in range(alg.dim)]
    return Bimodule(alg, left, right)


def zero_bimodule(alg: Algebra, mdim: int) -> Bimodule:
    """Zero actions on a space of any dimension; always a bimodule."""
    z = Matrix.zeros(mdim, mdim)
    return Bimodule(alg, [z] * alg.dim, [z] * alg.dim)


def dual_bimodule_candidate(alg: Algebra, mod: Bimodule):
    """Candidate dual actions l*(a) = r(a)^T, r*(a) = l(a)^T, then validate.

    Returns (bimodule_or_None, report).  The convention is not assumed
    correct: the report carries the verdict and any violated equation.
    """
    left = [mod.right[i].transpose() for i in range(alg.dim)]
    right = [mod.left[i].transpose() for i in range(alg.dim)]
    report = is_bimodule(alg, left, right)
    if not report.ok:
        report.notes["candidate"] = "transpose-swap dual convention fails for this algebra"
        return None, report
    return Bimodule(alg, left, right, check=False), report


class LieRepresentation:
    """A representation rho of a Lie algebra on an mdim space."""

    __slots__ = ("lie", "mdim", "rho")

    def __init__(self, lie: LieAlgebra, rho: Sequence[Matrix]):
        if len(rho) != lie.dim:
            raise LinAlgError("need one matrix per Lie algebra basis element")
        self.lie = lie
        self.rho = tuple(rho)
        self.mdim = rho[0].rows if rho else 0
        self.validate().require("not a representation")

    def of(self, x: Vector) -> Matrix:
        return linear_combination(x, self.rho)

    def validate(self) -> CheckReport:
        def residual(i, j):
            lhs = self.of(self.lie.bracket.value((i, j)))
            rhs = self.rho[i] @ self.rho[j] - self.rho[j] @ self.rho[i]
            return lhs - rhs

        return CheckReport("lie_representation").sweep(
            "rho([a,b]) = [rho(a),rho(b)]",
            itertools.product(range(self.lie.dim), repeat=2), residual)


def lie_representation(alg: Algebra, mod: Bimodule) -> LieRepresentation:
    """rho = l - r on the commutator Lie algebra of the base."""
    lie = commutator_lie(alg)
    rho = [mod.left[i] - mod.right[i] for i in range(alg.dim)]
    return LieRepresentation(lie, rho)


def induced_bimodule_on_base(alg: Algebra, mod: Bimodule, op: Matrix) -> Bimodule:
    """Bimodule of the induced algebra (M, star) acting back on A.

    For a Rota-Baxter operator op: M -> A the actions are
        l(m)(a) = op(m).a - op(r(a)m),   r(m)(a) = a.op(m) - op(l(a)m),
    and the base algebra of the result is the star-product algebra on M.
    `mod` is trusted: its constructor validates it unless told not to.
    """
    from .operators import _star_product, is_rota_baxter

    is_rota_baxter(alg, mod, op).require("operator is not Rota-Baxter")
    star = _star_product(mod, op)
    d, md = alg.dim, mod.mdim

    left = []
    right = []
    for i in range(md):
        ti = op.col(i)
        lcols = []
        rcols = []
        for j in range(d):
            ej = basis_vector(j, d)
            lcols.append(vec_sub(alg.multiply(ti, ej), op.apply(mod.right[j].col(i))))
            rcols.append(vec_sub(alg.multiply(ej, ti), op.apply(mod.left[j].col(i))))
        left.append(Matrix.from_cols(lcols, rows=d))
        right.append(Matrix.from_cols(rcols, rows=d))
    # a bimodule when the base is anti-flexible (the paper); else validate
    return Bimodule(star, left, right, check=not classify(alg).anti_flexible)


def tilde_bimodule(mod: Bimodule, alg_op: Matrix, mod_op: Matrix) -> Bimodule:
    """Actions twisted by a Nijenhuis structure (N on A, S on M):

        l~(a) = l(N(a)) - l(a) S + S l(a),
        r~(a) = r(N(a)) - r(a) S + S r(a).
    """
    from .deformation import is_nijenhuis_structure

    alg = mod.base
    is_nijenhuis_structure(alg, mod, alg_op, mod_op).require("not a Nijenhuis structure")
    left = []
    right = []
    for i in range(alg.dim):
        na = alg_op.col(i)
        left.append(mod.left_of(na) - mod.left[i] @ mod_op + mod_op @ mod.left[i])
        right.append(mod.right_of(na) - mod.right[i] @ mod_op + mod_op @ mod.right[i])
    return Bimodule(alg, left, right)
