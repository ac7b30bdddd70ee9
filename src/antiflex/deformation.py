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

import itertools
from fractions import Fraction
from typing import Sequence

from .algebra import Algebra, deformed_product, semidirect_product
from .bimodule import Bimodule
from .glie import (HARD_ARITY_CAP, compose_bar, graded_bracket,
                   structure_element)
from .linalg import (LinAlgError, Matrix, MultiMap, basis_vector, vec_add,
                     vec_is_zero, vec_sub)
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
        adim = omega.dim
        if len(phi) != adim or len(psi) != adim:
            raise LinAlgError("need one phi and psi matrix per algebra basis element")
        mdim = phi[0].rows if adim else 0
        for m in itertools.chain(phi, psi):
            if m.rows != mdim or m.cols != mdim:
                raise LinAlgError("phi/psi matrices must be square of equal size")
        self.omega = omega
        self.phi = tuple(phi)
        self.psi = tuple(psi)
        self.adim = adim
        self.mdim = mdim

    @staticmethod
    def zero(adim: int, mdim: int) -> "InfinitesimalDeformation":
        z = Matrix.zeros(mdim, mdim)
        return InfinitesimalDeformation(MultiMap.zero(2, adim),
                                        [z] * adim, [z] * adim)

    @staticmethod
    def of_structure(alg: Algebra, mod: Bimodule) -> "InfinitesimalDeformation":
        """The generator equal to the ambient structure itself."""
        return InfinitesimalDeformation(alg.mul, mod.left, mod.right)

    def element(self) -> MultiMap:
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
    pi = structure_element(alg.mul, mod.left, mod.right, mod.mdim)
    return pi, defo.element()


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
    n = d + md
    cols = []
    for j in range(d):
        cols.append(tuple(alg_op.col(j)) + (Fraction(0),) * md)
    for j in range(md):
        cols.append((Fraction(0),) * d + tuple(mod_op.col(j)))
    return Matrix.from_cols(cols, rows=n)


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
    lam = block_operator(alg_op, mod_op)
    lam_map = MultiMap.from_matrix(lam)
    total = alg.dim + mod.mdim

    diff = delta - delta2
    if diff != graded_bracket(pi, lam_map, HARD_ARITY_CAP):
        return False
    for i, j in itertools.product(range(total), repeat=2):
        li, lj = lam.col(i), lam.col(j)
        if not vec_is_zero(delta2.evaluate(li, lj)):
            return False
        lhs = lam.apply(delta.value((i, j)))
        rhs = vec_add(vec_add(delta2.evaluate(basis_vector(i, total), lj),
                              delta2.evaluate(li, basis_vector(j, total))),
                      pi.evaluate(li, lj))
        if not vec_is_zero(vec_sub(lhs, rhs)):
            return False
    return True


def is_trivial_deformation(alg: Algebra, mod: Bimodule,
                           defo: InfinitesimalDeformation,
                           alg_op: Matrix, mod_op: Matrix) -> bool:
    """Trivial = equivalent to the undeformed bimodule via (Id+tN, Id+tS)."""
    zero = InfinitesimalDeformation.zero(alg.dim, mod.mdim)
    return are_equivalent_deformations(alg, mod, defo, zero, alg_op, mod_op)


def _eq_4_7(mod: Bimodule, alg_op: Matrix, mod_op: Matrix, use_left: bool) -> CheckReport:
    """l(N(a))S = S(l(N(a)) + l(a)S - S l(a)) per basis element (or with r)."""
    law = ("l(Na)S = S(l(Na) + l(a)S - S l(a))" if use_left
           else "r(Na)S = S(r(Na) + r(a)S - S r(a))")
    actions = mod.left if use_left else mod.right
    act_of = mod.left_of if use_left else mod.right_of

    def residual(i):
        acted = act_of(alg_op.col(i))
        return acted @ mod_op - mod_op @ (acted + actions[i] @ mod_op
                                          - mod_op @ actions[i])

    return CheckReport(law).sweep(law, ((i,) for i in range(mod.base.dim)),
                                  residual)


def _variant_s_squared(mod: Bimodule, alg_op: Matrix, mod_op: Matrix,
                       use_left: bool) -> bool:
    """The alternative compatibility displayed with S^2 terms:
    l(Na)S = S l(Na) + l(a)S^2 - S l(a) S (reading the stray x as a)."""
    actions = mod.left if use_left else mod.right
    act_of = mod.left_of if use_left else mod.right_of
    s2 = mod_op @ mod_op
    for i in range(mod.base.dim):
        acted = act_of(alg_op.col(i))
        res = acted @ mod_op - (mod_op @ acted + actions[i] @ s2
                                - mod_op @ actions[i] @ mod_op)
        if not res.is_zero():
            return False
    return True


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
    semi = semidirect_product(alg, mod)
    primary = is_nijenhuis(semi, block_operator(alg_op, mod_op))

    report = CheckReport("nijenhuis_structure")
    n_check = is_nijenhuis(alg, alg_op)
    left_check = _eq_4_7(mod, alg_op, mod_op, use_left=True)
    right_check = _eq_4_7(mod, alg_op, mod_op, use_left=False)
    secondary_ok = n_check.ok and left_check.ok and right_check.ok

    report.merge(primary)
    report.notes["primary_semidirect"] = primary.ok
    report.notes["secondary_componentwise"] = secondary_ok
    report.notes["variant_s_squared_left"] = _variant_s_squared(
        mod, alg_op, mod_op, use_left=True)
    report.notes["variant_s_squared_right"] = _variant_s_squared(
        mod, alg_op, mod_op, use_left=False)
    return report


def trivial_deformation_from(alg: Algebra, mod: Bimodule, alg_op: Matrix,
                             mod_op: Matrix) -> InfinitesimalDeformation:
    """The trivial deformation generated by a Nijenhuis structure:

        omega(a,b) = N(a).b + a.N(b) - N(a.b)
        phi(a) = l(N(a)) + l(a) S - S l(a)
        psi(a) = r(N(a)) + r(a) S - S r(a)
    """
    is_nijenhuis_structure(alg, mod, alg_op, mod_op).require("not a Nijenhuis structure")
    omega = deformed_product(alg, alg_op).mul
    phi = [mod.left_of(alg_op.col(i)) + mod.left[i] @ mod_op
           - mod_op @ mod.left[i] for i in range(alg.dim)]
    psi = [mod.right_of(alg_op.col(i)) + mod.right[i] @ mod_op
           - mod_op @ mod.right[i] for i in range(alg.dim)]
    return InfinitesimalDeformation(omega, phi, psi)


def trivial_deformation_ledger(alg: Algebra, mod: Bimodule, alg_op: Matrix,
                               mod_op: Matrix,
                               defo: InfinitesimalDeformation) -> dict:
    """The six exact identities a trivial generator satisfies, itemized."""
    out = {}
    out["omega_formula"] = defo.omega == deformed_product(alg, alg_op).mul
    out["omega_nijenhuis_compat"] = _is_algebra_morphism(
        Algebra(defo.omega), alg, alg_op)
    out["phi_formula"] = all(
        defo.phi[i] == mod.left_of(alg_op.col(i)) + mod.left[i] @ mod_op
        - mod_op @ mod.left[i] for i in range(alg.dim))
    out["phi_s_compat"] = all(
        (mod.left_of(alg_op.col(i)) @ mod_op - mod_op @ defo.phi[i]).is_zero()
        for i in range(alg.dim))
    out["psi_formula"] = all(
        defo.psi[i] == mod.right_of(alg_op.col(i)) + mod.right[i] @ mod_op
        - mod_op @ mod.right[i] for i in range(alg.dim))
    out["psi_s_compat"] = all(
        (mod.right_of(alg_op.col(i)) @ mod_op - mod_op @ defo.psi[i]).is_zero()
        for i in range(alg.dim))
    return out


def nijenhuis_structure_powers(alg: Algebra, mod: Bimodule, alg_op: Matrix,
                               mod_op: Matrix, power: int, cap: int = 3) -> bool:
    """Whether (N^i, S^i) is again a Nijenhuis structure."""
    if power < 1 or power > cap:
        raise ValueError(f"power must lie in [1, {cap}]")
    is_nijenhuis_structure(alg, mod, alg_op, mod_op).require("not a Nijenhuis structure")
    return bool(is_nijenhuis_structure(alg, mod, alg_op.power(power),
                                       mod_op.power(power)))


def deformation_difference_is_exact(alg: Algebra, mod: Bimodule,
                                    defo: InfinitesimalDeformation,
                                    other: InfinitesimalDeformation) -> bool:
    """Whether delta - delta' lies in the image of d = [pi, .] on degree-0
    maps of the sum space, by exact linear solving."""
    pi, delta = _context(alg, mod, defo)
    _, delta2 = _context(alg, mod, other)
    total = alg.dim + mod.mdim
    cols = []
    for q in range(total):
        for p in range(total):
            unit = Matrix.from_cols(
                [basis_vector(p, total) if j == q else (Fraction(0),) * total
                 for j in range(total)], rows=total)
            cols.append(graded_bracket(pi, MultiMap.from_matrix(unit),
                                       HARD_ARITY_CAP).data)
    dmat = Matrix.from_cols(cols, rows=total ** 3)
    target = (delta - delta2).data
    return dmat.solve(tuple(target)) is not None
