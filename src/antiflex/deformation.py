"""Infinitesimal deformations of bimodules over anti-flexible algebras:
validity and closedness of generators, equivalence and triviality,
Nijenhuis structures (a compatible operator pair on algebra and module),
and their powers.

A deformation generator is a triple (omega, phi, psi): a bilinear map on A
together with two action perturbations, packaged as the degree-1 element
delta = omega + phi + psi on A + M.  The generator is valid when
(pi + t delta) squares to zero under the bracket composition identically
in t, which splits into the coefficient conditions [pi, delta] = 0 and
delta ob delta = 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .algebra import Algebra, _semidirect_product, deformed_product
from .bimodule import Bimodule, _action_dim, _rebased, _twisted_actions
from .glie import (HARD_ARITY_CAP, SparseMap, _insertion_sum,
                   _structure_element, compose_bar, graded_bracket,
                   structure_element)
from .linalg import LinAlgError, Matrix, MultiMap, int_cols_rank
from .operators import _is_algebra_morphism, is_nijenhuis
from .reports import CheckReport

__all__ = [
    "InfinitesimalDeformation",
    "block_operator",
    "is_valid_deformation",
    "is_closed_2cochain",
    "are_equivalent_deformations",
    "is_trivial_deformation",
    "trivial_deformation_from",
    "trivial_deformation_ledger",
    "is_nijenhuis_structure",
    "nijenhuis_structure_powers",
    "deformation_difference_is_exact",
]


class InfinitesimalDeformation:
    """Generator data (omega, phi, psi) for a t-linear deformation."""

    __slots__ = ("omega", "phi", "psi", "adim", "mdim")

    def __init__(self, omega: MultiMap, phi: Sequence[Matrix], psi: Sequence[Matrix]):
        if omega.arity != 2:
            raise LinAlgError("omega must be an arity-2 tensor on the algebra")
        self.mdim = _action_dim(omega.dim, phi, psi)
        self.omega = omega
        self.phi = tuple(phi)
        self.psi = tuple(psi)
        self.adim = omega.dim

    @staticmethod
    def zero(adim: int, mdim: int) -> "InfinitesimalDeformation":
        z = Matrix.zeros(mdim, mdim)
        return InfinitesimalDeformation(MultiMap.zero(2, adim),
                                        [z] * adim, [z] * adim)

    @staticmethod
    def of_structure(alg: Algebra, mod: Bimodule) -> "InfinitesimalDeformation":
        """The generator equal to the ambient structure itself."""
        return InfinitesimalDeformation(alg.mul, mod.left, mod.right)

    def element(self) -> SparseMap:
        """omega + phi + psi as a degree-1 map on A + M."""
        return structure_element(self.omega, self.phi, self.psi, self.mdim)

    def _same_shape(self, other: "InfinitesimalDeformation"):
        if self.adim != other.adim or self.mdim != other.mdim:
            raise LinAlgError("deformation shape mismatch")

    def __sub__(self, other: "InfinitesimalDeformation") -> "InfinitesimalDeformation":
        self._same_shape(other)
        return InfinitesimalDeformation(
            self.omega - other.omega,
            [a - b for a, b in zip(self.phi, other.phi)],
            [a - b for a, b in zip(self.psi, other.psi)])

    def __eq__(self, other):
        return (isinstance(other, InfinitesimalDeformation)
                and self.omega == other.omega and self.phi == other.phi
                and self.psi == other.psi)

    def __repr__(self):
        return f"InfinitesimalDeformation(adim={self.adim}, mdim={self.mdim})"


def _context(alg: Algebra, mod: Bimodule, defo: InfinitesimalDeformation):
    if defo.adim != alg.dim or defo.mdim != mod.mdim:
        raise LinAlgError("deformation does not match the ambient pair")
    return _structure_element(_rebased(alg, mod), mod.mdim), defo.element()


def is_valid_deformation(alg: Algebra, mod: Bimodule,
                         defo: InfinitesimalDeformation) -> bool:
    """Whether (pi + t delta) ob (pi + t delta) = 0 identically in t.

    The t^1 coefficient is [pi, delta] and the t^2 coefficient is
    delta ob delta; the t^0 one holds by ambient validity.
    """
    pi, delta = _context(alg, mod, defo)
    if not graded_bracket(pi, delta, HARD_ARITY_CAP).is_zero():
        return False
    return compose_bar(delta, delta, HARD_ARITY_CAP).is_zero()


def is_closed_2cochain(alg: Algebra, mod: Bimodule,
                       defo: InfinitesimalDeformation) -> bool:
    """The t^1 condition alone: [pi, omega + phi + psi] = 0."""
    pi, delta = _context(alg, mod, defo)
    return graded_bracket(pi, delta, HARD_ARITY_CAP).is_zero()


def block_operator(alg_op: Matrix, mod_op: Matrix) -> Matrix:
    """Block-diagonal operator on A + M from operators on the two factors."""
    if not alg_op.is_square() or not mod_op.is_square():
        raise LinAlgError("block factors must be square")
    d, md = alg_op.rows, mod_op.rows
    cols = ([alg_op.col(j) + (Fraction(0),) * md for j in range(d)]
            + [(Fraction(0),) * d + mod_op.col(j) for j in range(md)])
    return Matrix.from_cols(cols, rows=d + md)


def are_equivalent_deformations(alg: Algebra, mod: Bimodule,
                                defo: InfinitesimalDeformation,
                                other: InfinitesimalDeformation,
                                alg_op: Matrix, mod_op: Matrix) -> bool:
    """Equivalence via the pair (Id + tN, Id + tS), checked coefficientwise:

      (i)   delta - delta' = [pi, N + S]
      (ii)  delta'((N+S)x, (N+S)y) = 0
      (iii) (N+S) delta(x,y) = delta'(x, (N+S)y) + delta'((N+S)x, y)
                               + pi((N+S)x, (N+S)y)
    """
    pi, delta = _context(alg, mod, defo)
    _, delta2 = _context(alg, mod, other)
    lam = SparseMap.from_matrix(block_operator(alg_op, mod_op))

    def on_both(f):  # f(lam x, lam y): lam grafted into each slot in turn
        return _insertion_sum(_insertion_sum(f, lam, (1, 0)), lam, (0, 1))

    if delta - delta2 != graded_bracket(pi, lam, HARD_ARITY_CAP):
        return False
    if not on_both(delta2).is_zero():
        return False
    return _insertion_sum(lam, delta, (1,)) \
        == _insertion_sum(delta2, lam, (1, 1)) + on_both(pi)


def is_trivial_deformation(alg: Algebra, mod: Bimodule,
                           defo: InfinitesimalDeformation,
                           alg_op: Matrix, mod_op: Matrix) -> bool:
    """Trivial = equivalent to the undeformed bimodule via (Id+tN, Id+tS)."""
    zero = InfinitesimalDeformation.zero(alg.dim, mod.mdim)
    return are_equivalent_deformations(alg, mod, defo, zero, alg_op, mod_op)


def _eq_4_7(mod: Bimodule, alg_op: Matrix, mod_op: Matrix,
            phi: Sequence[Matrix], use_left: bool) -> CheckReport:
    """l(N(a))S = S phi(a) per basis element (or with r and psi), for phi
    as `bimodule._twisted_actions` builds it with sign +1."""
    law = ("l(Na)S = S(l(Na) + l(a)S - S l(a))" if use_left
           else "r(Na)S = S(r(Na) + r(a)S - S r(a))")
    act_of = mod.left_of if use_left else mod.right_of

    def residual(i):
        return act_of(alg_op.col(i)) @ mod_op - mod_op @ phi[i]

    return CheckReport(law).sweep(law, ((i,) for i in range(mod.base.dim)),
                                  residual)


def _variant_s_squared(mod: Bimodule, alg_op: Matrix, mod_op: Matrix,
                       phi: Sequence[Matrix], use_left: bool) -> bool:
    """The alternative compatibility displayed with S^2 terms, reading the
    stray x as a: l(Na)S = S l(Na) + l(a)S^2 - S l(a) S (or with r and psi).
    As phi(a)S = l(Na)S + l(a)S^2 - S l(a) S for the (4.7) twist phi, its
    residual is exactly 2 l(Na)S - S l(Na) - phi(a)S, formed here."""
    act_of = mod.left_of if use_left else mod.right_of
    acted = (act_of(alg_op.col(i)) for i in range(mod.base.dim))
    return all(((a.scale(2) - p) @ mod_op - mod_op @ a).is_zero()
               for a, p in zip(acted, phi))


def is_nijenhuis_structure(alg: Algebra, mod: Bimodule,
                           alg_op: Matrix, mod_op: Matrix) -> CheckReport:
    """Dual-route verdict for a Nijenhuis structure (N, S).

    Primary: N + S is a Nijenhuis operator on the semidirect product.
    Secondary: N is Nijenhuis and S satisfies both compatibility equations.
    The routes agree (their component equations are identical); both are
    recorded in the report notes, along with the outcome of the alternative
    S^2-variant condition, which is observational only.
    """
    if alg_op.rows != alg.dim or mod_op.rows != mod.mdim:
        raise LinAlgError("operator shapes do not match the pair")
    semi = _semidirect_product(alg, mod)
    primary = is_nijenhuis(semi, block_operator(alg_op, mod_op))

    report = CheckReport("nijenhuis_structure")
    n_check = is_nijenhuis(alg, alg_op)
    phi, psi = _twisted_actions(mod, alg_op, mod_op, 1)
    left_check = _eq_4_7(mod, alg_op, mod_op, phi, use_left=True)
    right_check = _eq_4_7(mod, alg_op, mod_op, psi, use_left=False)
    secondary_ok = n_check.ok and left_check.ok and right_check.ok

    report.merge(primary)
    report.notes["primary_semidirect"] = primary.ok
    report.notes["secondary_componentwise"] = secondary_ok
    report.notes["variant_s_squared_left"] = _variant_s_squared(
        mod, alg_op, mod_op, phi, use_left=True)
    report.notes["variant_s_squared_right"] = _variant_s_squared(
        mod, alg_op, mod_op, psi, use_left=False)
    return report


def trivial_deformation_from(alg: Algebra, mod: Bimodule, alg_op: Matrix,
                             mod_op: Matrix) -> InfinitesimalDeformation:
    """The trivial deformation generated by a Nijenhuis structure:

        omega(a,b) = N(a).b + a.N(b) - N(a.b)
        phi(a) = l(N(a)) + l(a) S - S l(a)
        psi(a) = r(N(a)) + r(a) S - S r(a)
    """
    is_nijenhuis_structure(alg, mod, alg_op, mod_op).require("not a Nijenhuis structure")
    return _trivial_deformation(alg, mod, alg_op, mod_op)


def _trivial_deformation(alg: Algebra, mod: Bimodule, alg_op: Matrix,
                         mod_op: Matrix) -> InfinitesimalDeformation:
    """`trivial_deformation_from` on a pair already checked."""
    return InfinitesimalDeformation(deformed_product(alg, alg_op).mul,
                                    *_twisted_actions(mod, alg_op, mod_op, 1))


def trivial_deformation_ledger(alg: Algebra, mod: Bimodule, alg_op: Matrix,
                               mod_op: Matrix,
                               defo: InfinitesimalDeformation) -> dict:
    """The six exact identities a trivial generator satisfies, itemized:
    omega, phi and psi against `_trivial_deformation`, (4.7) by `_eq_4_7`."""
    trivial = _trivial_deformation(alg, mod, alg_op, mod_op)
    out = {}
    out["omega_formula"] = defo.omega == trivial.omega
    out["omega_nijenhuis_compat"] = _is_algebra_morphism(
        Algebra(defo.omega), alg, alg_op)
    out["phi_formula"] = defo.phi == trivial.phi
    out["phi_s_compat"] = _eq_4_7(mod, alg_op, mod_op, defo.phi, True).ok
    out["psi_formula"] = defo.psi == trivial.psi
    out["psi_s_compat"] = _eq_4_7(mod, alg_op, mod_op, defo.psi, False).ok
    return out


def nijenhuis_structure_powers(alg: Algebra, mod: Bimodule, alg_op: Matrix,
                               mod_op: Matrix, power: int) -> bool:
    """Whether (N^i, S^i) is again a Nijenhuis structure."""
    _check_power(power)
    is_nijenhuis_structure(alg, mod, alg_op, mod_op).require("not a Nijenhuis structure")
    return _structure_power(alg, mod, alg_op, mod_op, power)


def _check_power(power: int) -> None:
    if power < 1 or power > 3:
        raise ValueError("power must lie in [1, 3]")


def _structure_power(alg: Algebra, mod: Bimodule, alg_op: Matrix,
                     mod_op: Matrix, power: int) -> bool:
    """`nijenhuis_structure_powers` without checking (N, S) or the power,
    for a caller that has checked both: the primary route of
    `is_nijenhuis_structure` on (N^p, S^p), which alone decides its verdict;
    the secondary route and the notes are not formed."""
    return is_nijenhuis(_semidirect_product(alg, mod),
                        block_operator(alg_op.power(power),
                                       mod_op.power(power))).ok


def deformation_difference_is_exact(alg: Algebra, mod: Bimodule,
                                    defo: InfinitesimalDeformation,
                                    other: InfinitesimalDeformation) -> bool:
    """Whether delta - delta' lies in the image of d = [pi, .] on degree-0
    maps of the sum space: the image of d is spanned by d of the matrix
    units, and delta - delta' lies in it exactly when adding it as one more
    column leaves the rank unchanged (each column may carry its own scale,
    which changes no rank)."""
    pi, delta = _context(alg, mod, defo)
    _, delta2 = _context(alg, mod, other)
    total = alg.dim + mod.mdim
    image = [graded_bracket(pi, SparseMap(1, total, {(q, p): 1}),
                            HARD_ARITY_CAP).flat()
             for q in range(total) for p in range(total)]
    return int_cols_rank(image + [(delta - delta2).flat()]) \
        == int_cols_rank(image)
