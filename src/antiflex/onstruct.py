"""ON-structures: a Rota-Baxter operator compatible with a Nijenhuis
structure, the deformed module products they induce, and the two-way bridge
to compatible pairs of Rota-Baxter operators.

The triple (T, N, S) is an ON-structure when T is Rota-Baxter, (N, S) is a
Nijenhuis structure, N T = T S, and the S-deformation of the induced module
product agrees with the product induced by N T.
"""

from __future__ import annotations

import itertools
from typing import Tuple

from .algebra import Algebra, deformed_product
from .bimodule import Bimodule, tilde_bimodule
from .deformation import is_nijenhuis_structure
from .linalg import LinAlgError, Matrix
from .operators import _star_product, is_nijenhuis, is_rota_baxter, star_algebra
from .reports import CheckReport

__all__ = [
    "star_deformed",
    "is_on_structure",
    "lemma_tilde_star_check",
    "are_compatible_rb",
    "nijenhuis_from_compatible",
    "deformed_rb_suite",
    "on_from_compatible",
    "pairwise_power_compatibility",
]


def star_deformed(alg: Algebra, mod: Bimodule, op: Matrix, mod_op: Matrix) -> Algebra:
    """The S-deformed induced product on M:
    m star^S n = S(m) star n + m star S(n) - S(m star n)."""
    star = star_algebra(alg, mod, op)
    if mod_op.rows != mod.mdim or not mod_op.is_square():
        raise LinAlgError("deforming operator must be square on the module")
    return deformed_product(star, mod_op)


def is_on_structure(alg: Algebra, mod: Bimodule, op: Matrix, alg_op: Matrix,
                    mod_op: Matrix) -> CheckReport:
    """All four defining conditions, itemized in the report notes:
    T Rota-Baxter; (N, S) a Nijenhuis structure; N T = T S; and
    star_{N T} = star^S_T as tensors on M."""
    report = CheckReport("on_structure")
    rb = is_rota_baxter(alg, mod, op)
    ns = is_nijenhuis_structure(alg, mod, alg_op, mod_op)
    compose_res = alg_op @ op - op @ mod_op
    star_nt = _star_product(mod, alg_op @ op)
    star_s = deformed_product(_star_product(mod, op), mod_op)
    tensors_equal = star_nt.mul == star_s.mul

    report.notes["rota_baxter"] = rb.ok
    report.notes["nijenhuis_structure"] = ns.ok
    report.notes["compose_commutes"] = compose_res.is_zero()
    report.notes["deformed_star_agrees"] = tensors_equal
    if not rb.ok:
        report.merge(rb)
    if not ns.ok:
        report.merge(ns)
    if not compose_res.is_zero():
        report.fail("N T = T S", (), compose_res)
    if not tensors_equal:
        report.fail("star_{N T} = star^S_T", (), star_nt.mul - star_s.mul)
    return report


def lemma_tilde_star_check(alg: Algebra, mod: Bimodule, op: Matrix,
                           alg_op: Matrix, mod_op: Matrix) -> Tuple[bool, bool]:
    """(star~_T = star^S_T,  star~_T + star^S_T = 2 star_{N T}).

    star~ is built from the twisted actions: m star~ n = l~(T(m))n + r~(T(n))m.
    Both identities hold for every ON-structure; the averaging identity holds
    whenever the twisted bimodule exists.
    """
    is_on_structure(alg, mod, op, alg_op, mod_op).require("not an ON-structure")
    twisted = tilde_bimodule(mod, alg_op, mod_op)
    star_tilde = _star_product(twisted, op).mul
    star_s = deformed_product(_star_product(mod, op), mod_op).mul
    star_nt = _star_product(mod, alg_op @ op).mul
    equal = star_tilde == star_s
    averaging = (star_tilde + star_s) == star_nt.scale(2)
    return equal, averaging


def are_compatible_rb(alg: Algebra, mod: Bimodule, op1: Matrix, op2: Matrix) -> bool:
    """Whether the sum of two Rota-Baxter operators is again Rota-Baxter."""
    for name, t in (("first", op1), ("second", op2)):
        is_rota_baxter(alg, mod, t).require(f"{name} operator is not Rota-Baxter")
    return bool(is_rota_baxter(alg, mod, op1 + op2))


def nijenhuis_from_compatible(alg: Algebra, mod: Bimodule, op1: Matrix,
                              op2: Matrix) -> Tuple[Matrix, CheckReport]:
    """N = T1 T2^{-1} for compatible Rota-Baxter operators with T2 invertible.

    Returns the operator together with its Nijenhuis verdict (which holds
    whenever the compatibility hypothesis does).
    """
    for name, t in (("first", op1), ("second", op2)):
        is_rota_baxter(alg, mod, t).require(f"{name} operator is not Rota-Baxter")
    inv = op2.inverse()
    if inv is None:
        raise ValueError("second operator is not invertible")
    composed = op1 @ inv
    return composed, is_nijenhuis(alg, composed)


def deformed_rb_suite(alg: Algebra, mod: Bimodule, op: Matrix, alg_op: Matrix,
                      mod_op: Matrix) -> dict:
    """Three exact consequences of an ON-structure:

      deformed_rb    T is Rota-Baxter from (M, l~, r~) into (A, ._N)
      composed_rb    N T is Rota-Baxter on the original pair
      compatible     T and N T are compatible
    """
    is_on_structure(alg, mod, op, alg_op, mod_op).require("not an ON-structure")
    twisted = tilde_bimodule(mod, alg_op, mod_op)
    deformed = deformed_product(alg, alg_op)
    rebased = Bimodule(deformed, twisted.left, twisted.right, check=False)
    out = {}
    out["deformed_rb"] = bool(is_rota_baxter(deformed, rebased, op))
    composed = alg_op @ op
    out["composed_rb"] = bool(is_rota_baxter(alg, mod, composed))
    out["compatible"] = bool(is_rota_baxter(alg, mod, op + composed))
    return out


def on_from_compatible(alg: Algebra, mod: Bimodule, op1: Matrix,
                       op2: Matrix) -> Tuple[Matrix, Matrix, Matrix]:
    """The ON-structure (T2, N = T1 T2^{-1}, S = T2^{-1} T1) built from a
    compatible pair with T2 invertible."""
    if not are_compatible_rb(alg, mod, op1, op2):
        raise ValueError("operators are not compatible")
    inv = op2.inverse()
    if inv is None:
        raise ValueError("second operator is not invertible")
    return op2, op1 @ inv, inv @ op1


def pairwise_power_compatibility(alg: Algebra, mod: Bimodule, op: Matrix,
                                 alg_op: Matrix, mod_op: Matrix,
                                 k_max: int = 3) -> dict:
    """Observational sweep over the family N^k T, 0 <= k <= k_max.

    For each pair i < j reports whether N^i T and N^j T are individually
    Rota-Baxter and whether their sum is.  Only the (0, 1) pair is a proved
    property; the rest is exploration data.
    """
    if k_max < 1 or k_max > 4:
        raise ValueError("power sweep bound must lie in [1, 4]")
    is_on_structure(alg, mod, op, alg_op, mod_op).require("not an ON-structure")
    family = [alg_op.power(k) @ op for k in range(k_max + 1)]
    verdicts = {}
    for i, j in itertools.combinations(range(k_max + 1), 2):
        verdicts[(i, j)] = {
            "rb_first": bool(is_rota_baxter(alg, mod, family[i])),
            "rb_second": bool(is_rota_baxter(alg, mod, family[j])),
            "sum_rb": bool(is_rota_baxter(alg, mod, family[i] + family[j])),
        }
    return verdicts
