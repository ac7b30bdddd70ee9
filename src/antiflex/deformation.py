"""Infinitesimal deformations of bimodules over anti-flexible algebras:
validity and closedness of generators, equivalence and triviality,
Nijenhuis structures (a compatible operator pair on algebra and module),
and their powers.

A deformation generator (omega, phi, psi) is action data (phi, psi) of the
algebra (A, omega), held as one unchecked `Bimodule`; the degree-1 element
delta = omega + phi + psi on A + M is read from its integer view, built once
per generator.  The generator is valid when (pi + t delta) squares to zero
under the bracket composition identically in t, which splits into the
coefficient conditions [pi, delta] = 0 and delta ob delta = 0.

A Nijenhuis-structure check forms l(N(e_i)) and r(N(e_i)) once; the twists
phi and psi, the (4.7) compatibilities and the S^2 notes all read them.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .algebra import (Algebra, _semidirect_product, _structure_element,
                      deformed_product)
from .bimodule import Bimodule, _image_actions, _rebased, _twisted_actions
from .glie import HARD_ARITY_CAP, compose_bar, embed_blocks, graded_bracket
from .linalg import LinAlgError, Matrix, MultiMap, _insertion_sum, _relations
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
    """Generator data (omega, phi, psi) for a t-linear deformation, held as
    the unchecked `Bimodule` (phi, psi) over (A, omega), which reads mdim."""

    __slots__ = ("action",)

    def __init__(self, omega: MultiMap, phi: Sequence[Matrix], psi: Sequence[Matrix],
                 mdim: Optional[int] = None):
        self.action = Bimodule(Algebra(omega), phi, psi, check=False, mdim=mdim)

    omega = property(lambda self: self.action.base.mul)
    phi = property(lambda self: self.action.left)
    psi = property(lambda self: self.action.right)
    adim = property(lambda self: self.action.base.dim)
    mdim = property(lambda self: self.action.mdim)

    @staticmethod
    def zero(adim: int, mdim: int) -> "InfinitesimalDeformation":
        z = Matrix.zeros(mdim, mdim)
        return InfinitesimalDeformation(MultiMap.zero(2, adim),
                                        [z] * adim, [z] * adim, mdim)

    @staticmethod
    def of_structure(alg: Algebra, mod: Bimodule) -> "InfinitesimalDeformation":
        """The generator equal to the ambient structure itself."""
        return InfinitesimalDeformation(alg.mul, mod.left, mod.right, mod.mdim)

    def __eq__(self, other):
        return isinstance(other, InfinitesimalDeformation) \
            and self.action == other.action

    def __repr__(self):
        return f"InfinitesimalDeformation(adim={self.adim}, mdim={self.mdim})"


def _context(alg: Algebra, mod: Bimodule, *defos: InfinitesimalDeformation):
    """pi on A + M, then delta of each generator, from their integer views."""
    if any((d.adim, d.mdim) != (alg.dim, mod.mdim) for d in defos):
        raise LinAlgError("deformation does not match the ambient pair")
    return [_structure_element(m) for m in (_rebased(alg, mod),
                                            *(d.action for d in defos))]


def _closed_and_valid(alg: Algebra, mod: Bimodule,
                      defo: InfinitesimalDeformation) -> tuple:
    """(closed, valid) from one [pi, delta]."""
    pi, delta = _context(alg, mod, defo)
    closed = graded_bracket(pi, delta, HARD_ARITY_CAP).is_zero()
    return closed, closed and compose_bar(delta, delta, HARD_ARITY_CAP).is_zero()


def is_valid_deformation(alg: Algebra, mod: Bimodule,
                         defo: InfinitesimalDeformation) -> bool:
    """Whether (pi + t delta) ob (pi + t delta) = 0 identically in t.

    The t^1 coefficient is [pi, delta] and the t^2 coefficient is
    delta ob delta; the t^0 one holds by ambient validity.
    """
    return _closed_and_valid(alg, mod, defo)[1]


def is_closed_2cochain(alg: Algebra, mod: Bimodule,
                       defo: InfinitesimalDeformation) -> bool:
    """The t^1 condition alone: [pi, omega + phi + psi] = 0."""
    pi, delta = _context(alg, mod, defo)
    return graded_bracket(pi, delta, HARD_ARITY_CAP).is_zero()


def block_operator(alg_op: Matrix, mod_op: Matrix) -> Matrix:
    """Block-diagonal operator on A + M from operators on the two factors."""
    if not alg_op.is_square() or not mod_op.is_square():
        raise LinAlgError("block factors must be square")
    d, total = alg_op.rows, alg_op.rows + mod_op.rows
    return (embed_blocks(alg_op, 0, 0, total)
            + embed_blocks(mod_op, d, d, total)).as_matrix()


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
    pi, delta, delta2 = _context(alg, mod, defo, other)
    lam = block_operator(alg_op, mod_op)

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


def _eq_4_7(acted: Sequence[Matrix], mod_op: Matrix, phi: Sequence[Matrix]) -> bool:
    """(4.7), l(N(a))S = S phi(a), on every basis element, for acted the
    l(N(e_i)) and phi the sign +1 twist (or with r and psi)."""
    return all((a @ mod_op - mod_op @ p).is_zero() for a, p in zip(acted, phi))


def _variant_s_squared(acted: Sequence[Matrix], mod_op: Matrix,
                       phi: Sequence[Matrix]) -> bool:
    """The alternative compatibility displayed with S^2 terms, reading the
    stray x as a: l(Na)S = S l(Na) + l(a)S^2 - S l(a) S (or with r and psi).
    As phi(a)S = l(Na)S + l(a)S^2 - S l(a) S for the (4.7) twist phi, its
    residual is exactly 2 l(Na)S - S l(Na) - phi(a)S, formed here."""
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
    return _nijenhuis_structure(alg, mod, alg_op, mod_op)[0]


def _nijenhuis_structure(alg: Algebra, mod: Bimodule, alg_op: Matrix,
                         mod_op: Matrix) -> tuple:
    """`is_nijenhuis_structure` with the actions and +1 twists it formed."""
    if alg_op.rows != alg.dim or mod_op.rows != mod.mdim:
        raise LinAlgError("operator shapes do not match the pair")
    primary = is_nijenhuis(_semidirect_product(alg, mod),
                           block_operator(alg_op, mod_op))
    acted = _image_actions(mod, alg_op)  # read by phi/psi, (4.7) and S^2
    twists = _twisted_actions(mod, acted, mod_op, 1)

    report = CheckReport("nijenhuis_structure")
    report.merge(primary)
    report.notes["primary_semidirect"] = primary.ok
    report.notes["secondary_componentwise"] = (
        is_nijenhuis(alg, alg_op).ok
        and all(_eq_4_7(a, mod_op, t) for a, t in zip(acted, twists)))
    for side, a, t in zip(("left", "right"), acted, twists):
        report.notes[f"variant_s_squared_{side}"] = _variant_s_squared(a, mod_op, t)
    return report, acted, twists


def trivial_deformation_from(alg: Algebra, mod: Bimodule, alg_op: Matrix,
                             mod_op: Matrix) -> InfinitesimalDeformation:
    """The trivial deformation generated by a Nijenhuis structure:

        omega(a,b) = N(a).b + a.N(b) - N(a.b)
        phi(a) = l(N(a)) + l(a) S - S l(a)
        psi(a) = r(N(a)) + r(a) S - S r(a)
    """
    report, _, twists = _nijenhuis_structure(alg, mod, alg_op, mod_op)
    report.require("not a Nijenhuis structure")
    return _trivial_deformation(alg, mod, alg_op, twists)


def _trivial_deformation(alg: Algebra, mod: Bimodule, alg_op: Matrix,
                         twists: tuple) -> InfinitesimalDeformation:
    """`trivial_deformation_from` on the twists (phi, psi) of a checked pair."""
    return InfinitesimalDeformation(deformed_product(alg, alg_op).mul, *twists,
                                    mod.mdim)


def trivial_deformation_ledger(alg: Algebra, mod: Bimodule, alg_op: Matrix,
                               mod_op: Matrix,
                               defo: InfinitesimalDeformation) -> dict:
    """The six exact identities a trivial generator satisfies, itemized:
    omega, phi and psi against their formulas in `trivial_deformation_from`,
    (4.7) by `_eq_4_7`."""
    acted = _image_actions(mod, alg_op)
    return _ledger(alg, alg_op, mod_op, acted, _trivial_deformation(
        alg, mod, alg_op, _twisted_actions(mod, acted, mod_op, 1)), defo)


def _ledger(alg: Algebra, alg_op: Matrix, mod_op: Matrix, acted: tuple,
            trivial: InfinitesimalDeformation, defo: InfinitesimalDeformation) -> dict:
    """`trivial_deformation_ledger` on formed actions and trivial generator."""
    return {
        "omega_formula": defo.omega == trivial.omega,
        "omega_nijenhuis_compat": _is_algebra_morphism(defo.action.base, alg, alg_op),
        "phi_formula": defo.phi == trivial.phi,
        "phi_s_compat": _eq_4_7(acted[0], mod_op, defo.phi),
        "psi_formula": defo.psi == trivial.psi,
        "psi_s_compat": _eq_4_7(acted[1], mod_op, defo.psi),
    }


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
    units, and delta - delta' lies in it exactly when, taken as one more
    column after them, it depends on them (`linalg._relations`); each
    column may carry its own scale, which changes no dependence."""
    pi, delta, delta2 = _context(alg, mod, defo, other)
    total = alg.dim + mod.mdim
    image = [graded_bracket(pi, MultiMap._of_ints(1, total, total, {(q, p): 1}),
                            HARD_ARITY_CAP).entries.items()
             for q in range(total) for p in range(total)]
    return _relations(image + [(delta - delta2).entries.items()])[-1] \
        is not None
