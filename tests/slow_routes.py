"""Slow forms of routes the package now takes more directly, kept as their
oracles.

Each function here is the form the package used before the direct one:

- `evaluate_all_tuples`: `MultiMap.evaluate` over every basis tuple, which
  skips a tuple once a coefficient on it is zero;
- `graph_check_direct_sum`: `operators.rb_morphism_graph_check` multiplying
  graph vectors in the direct sum of the two semidirect products (through
  `evaluate_all_tuples`);
- `variant_s_squared_displayed`: the S^2-variant note of
  `deformation.is_nijenhuis_structure` in its displayed form, with S^2,
  l(a)S^2 and S l(a) S built from scratch;
- `structure_power_oracle`: the verdict of the whole dual-route report on
  (N^p, S^p);
- `ledger_rederived`: `deformation.trivial_deformation_ledger` with omega,
  phi and psi derived again from their formulas.
"""

import itertools
from fractions import Fraction

from antiflex.algebra import (Algebra, _semidirect_product, deformed_product,
                              direct_sum)
from antiflex.bimodule import _twisted_actions
from antiflex.deformation import _eq_4_7, is_nijenhuis_structure
from antiflex.linalg import LinAlgError, basis_vector, vec_is_zero, vec_sub
from antiflex.operators import _check_operator_shape, _is_algebra_morphism


def evaluate_all_tuples(mm, *args):
    if len(args) != mm.arity:
        raise LinAlgError(f"expected {mm.arity} arguments, got {len(args)}")
    for a in args:
        if len(a) != mm.in_dim:
            raise LinAlgError("argument has wrong dimension")
    out_dim = mm.out_dim
    out = [Fraction(0)] * out_dim
    for idx in itertools.product(range(mm.in_dim), repeat=mm.arity):
        c = Fraction(1)
        for a, i in zip(args, idx):
            c *= a[i]
            if c == 0:
                break
        if c == 0:
            continue
        val = mm.value(idx)
        for k in range(out_dim):
            if val[k]:
                out[k] += c * val[k]
    return tuple(out)


def graph_check_direct_sum(alg, mod, op, alg2, mod2, op2, phi, psi):
    _check_operator_shape(phi, alg.dim, alg2.dim, "algebra map")
    _check_operator_shape(psi, mod.mdim, mod2.mdim, "module map")
    semi1 = _semidirect_product(alg, mod)
    semi2 = _semidirect_product(alg2, mod2)
    both = direct_sum(semi1, semi2)
    d1, n1 = alg.dim, alg.dim + mod.mdim

    def pair_map(x):
        a, m = x[:d1], x[d1:]
        return tuple(phi.apply(a)) + tuple(psi.apply(m))

    def embed(x):
        return tuple(x) + pair_map(x)

    for i, j in itertools.product(range(n1), repeat=2):
        u = embed(basis_vector(i, n1))
        v = embed(basis_vector(j, n1))
        w = evaluate_all_tuples(both.mul, u, v)
        first, second = w[:n1], w[n1:]
        if not vec_is_zero(vec_sub(second, pair_map(first))):
            return False
    for i in range(mod.mdim):
        graph_image = tuple(phi.apply(op.col(i))) + tuple(psi.col(i))
        expected = tuple(op2.apply(psi.col(i))) + tuple(psi.col(i))
        if not vec_is_zero(vec_sub(graph_image, expected)):
            return False
    return True


def variant_s_squared_displayed(mod, alg_op, mod_op, use_left):
    """l(Na)S = S l(Na) + l(a)S^2 - S l(a) S on every basis element a (or
    with r)."""
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


def structure_power_oracle(alg, mod, alg_op, mod_op, power):
    return bool(is_nijenhuis_structure(alg, mod, alg_op.power(power),
                                       mod_op.power(power)))


def ledger_rederived(alg, mod, alg_op, mod_op, defo):
    phi, psi = _twisted_actions(mod, alg_op, mod_op, 1)
    out = {}
    out["omega_formula"] = defo.omega == deformed_product(alg, alg_op).mul
    out["omega_nijenhuis_compat"] = _is_algebra_morphism(
        Algebra(defo.omega), alg, alg_op)
    out["phi_formula"] = all(defo.phi[i] == phi[i] for i in range(alg.dim))
    out["phi_s_compat"] = _eq_4_7(mod, alg_op, mod_op, defo.phi, True).ok
    out["psi_formula"] = all(defo.psi[i] == psi[i] for i in range(alg.dim))
    out["psi_s_compat"] = _eq_4_7(mod, alg_op, mod_op, defo.psi, False).ok
    return out
