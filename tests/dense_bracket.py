"""The dense bracket route, kept as the oracle of the sparse one in
`antiflex.glie`.

Every map built here is a `dense_multimap.DenseMap` over all
(dim)^(arity+1) slots, built by `DenseMap.from_function` one basis tuple at
a time, as the package did before its brackets moved to the nonzero
entries of `linalg.MultiMap`.  The conventions are the ones stated in the
`glie` module docstring; nothing here reads the entries of a map, so the
two routes share only the inputs and the reading of their slots.
"""

import itertools
from fractions import Fraction

from antiflex.deformation import block_operator
from antiflex.glie import ClosureError, Cochain, HARD_ARITY_CAP, _check_cap
from antiflex.linalg import (LinAlgError, Matrix, basis_vector,
                             vec_add, vec_is_zero, vec_sub)
from antiflex.reports import CheckReport
from tests.dense_multimap import DenseMap


def _insertion_sum(f, g, signs):
    """The sum over the (0-based) slots of f of signs(slot) = +-1 times g
    grafted into that slot, built in one pass; arity f.arity + g.arity - 1."""
    d = f.dim
    fa, ga = f.arity, g.arity
    negated = [signs(slot) == -1 for slot in range(fa)]

    def fn(idx):
        acc = [Fraction(0)] * d
        for slot, negate in enumerate(negated):
            pre, post = idx[:slot], idx[slot + ga:]
            gval = g.value(idx[slot:slot + ga])
            for s in range(d):
                c = gval[s]
                if c == 0:
                    continue
                if negate:
                    c = -c
                fval = f.value(pre + (s,) + post)
                for k in range(d):
                    if fval[k]:
                        acc[k] += c * fval[k]
        return acc

    return DenseMap.from_function(fa + ga - 1, d, fn)


def reversal(f):
    p = f.arity
    if p <= 1:
        return f
    sign = -1 if (p * (p - 1) // 2) % 2 else 1
    rev = f.permute_inputs(tuple(range(p - 1, -1, -1)))
    return rev.scale(sign) if sign == -1 else rev


def compose_bar(f, g, cap=None):
    if f.dim != g.dim:
        raise LinAlgError("maps live on different spaces")
    out_arity = f.arity + g.arity - 1
    if out_arity < 0:
        raise LinAlgError("cannot compose two constants")
    _check_cap(max(out_arity, f.arity, g.arity), cap)
    if f.arity == 0:
        return DenseMap.zero(out_arity, f.dim)
    if g.arity == 0:
        return _insertion_sum(f, g, lambda slot: -1 if slot % 2 == 0 else 1)
    n = g.arity - 1
    plain = _insertion_sum(f, g, lambda slot: -1 if (slot * n) % 2 else 1)
    if f.arity == 1 or g.arity == 1:
        return plain
    return plain + reversal(plain)


def graded_bracket(f, g, cap=None):
    m, n = f.arity - 1, g.arity - 1
    left = compose_bar(f, g, cap)
    right = compose_bar(g, f, cap)
    if (m * n) % 2:
        return left + right
    return left - right


def structure_element(product, left, right, mdim):
    d = product.dim
    total = d + mdim

    def fn(idx):
        i, j = idx
        out = [Fraction(0)] * total
        if i < d and j < d:
            out[:d] = product.value((i, j))
        elif i < d and j >= d:
            out[d:] = left[i].col(j - d)
        elif i >= d and j < d:
            out[d:] = right[j].col(i - d)
        return out

    return DenseMap.from_function(2, total, fn)


def embed_blocks(c, in_offset, out_offset, total):
    lo, hi = in_offset, in_offset + c.mdim

    def fn(idx):
        if any(not lo <= i < hi for i in idx):
            return [0] * total
        val = c.value(tuple(i - lo for i in idx))
        out = [Fraction(0)] * total
        out[out_offset:out_offset + c.adim] = val
        return out

    return DenseMap.from_function(c.degree, total, fn)


def restrict_blocks(mm, in_offset, in_dim, out_offset, out_dim):
    report = CheckReport("cochain_restriction")
    n = mm.arity
    total = mm.dim
    lo, hi = in_offset, in_offset + in_dim
    data = []
    for jdx in itertools.product(range(in_dim), repeat=n):
        val = mm.value(tuple(lo + j for j in jdx))
        data.extend(val[out_offset:out_offset + out_dim])
        if report.ok:
            stray = tuple(val[k] for k in range(total)
                          if not out_offset <= k < out_offset + out_dim)
            if not vec_is_zero(stray):
                report.fail("component outside the output block", jdx, stray)
    report.sweep("nonzero value outside the input block",
                 (idx for idx in itertools.product(range(total), repeat=n)
                  if not all(lo <= i < hi for i in idx)),
                 lambda *idx: mm.value(idx))
    return Cochain(n, in_dim, out_dim, data), report


def space_pi(alg, mod):
    return structure_element(alg.mul, mod.left, mod.right, mod.mdim)


def derived_bracket(alg, mod, p, q, cap=None):
    """[[P, Q]] through the dense ambient bracket on A + M."""
    pi, total = space_pi(alg, mod), alg.dim + mod.mdim
    m = p.degree
    _check_cap(max(m + 1, m + q.degree), cap)
    inner = graded_bracket(pi, embed_blocks(p, alg.dim, 0, total), cap)
    outer = graded_bracket(inner, embed_blocks(q, alg.dim, 0, total), cap)
    if m % 2 == 0:
        outer = outer.scale(-1)
    cochain, report = restrict_blocks(outer, alg.dim, mod.mdim, 0, alg.dim)
    if not report.ok:
        raise ClosureError(report.describe())
    return cochain


def bracket_on_blocks(pi, f):
    """(the restricted bracket [pi, f] on the second block, its report)."""
    k = f.mdim
    br = graded_bracket(pi, embed_blocks(f, 0, k, pi.dim), HARD_ARITY_CAP)
    return restrict_blocks(br, 0, k, k, f.adim)


def mc_check(alg, left, right):
    mdim = left[0].rows if left else 0
    pi = structure_element(alg.mul, left, right, mdim)
    return compose_bar(pi, pi, HARD_ARITY_CAP).is_zero()


def _context(alg, mod, defo):
    return (space_pi(alg, mod),
            structure_element(defo.omega, defo.phi, defo.psi, defo.mdim))


def is_valid_deformation(alg, mod, defo):
    pi, delta = _context(alg, mod, defo)
    if not graded_bracket(pi, delta, HARD_ARITY_CAP).is_zero():
        return False
    return compose_bar(delta, delta, HARD_ARITY_CAP).is_zero()


def are_equivalent_deformations(alg, mod, defo, other, alg_op, mod_op):
    pi, delta = _context(alg, mod, defo)
    _, delta2 = _context(alg, mod, other)
    lam = block_operator(alg_op, mod_op)
    lam_map = DenseMap.from_matrix(lam)
    total = alg.dim + mod.mdim
    if delta - delta2 != graded_bracket(pi, lam_map, HARD_ARITY_CAP):
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


def deformation_difference_is_exact(alg, mod, defo, other):
    pi, delta = _context(alg, mod, defo)
    _, delta2 = _context(alg, mod, other)
    total = alg.dim + mod.mdim
    cols = []
    for q in range(total):
        for p in range(total):
            unit = Matrix.from_cols(
                [basis_vector(p, total) if j == q else (Fraction(0),) * total
                 for j in range(total)], rows=total)
            cols.append(graded_bracket(pi, DenseMap.from_matrix(unit),
                                       HARD_ARITY_CAP).data)
    dmat = Matrix.from_cols(cols, rows=total ** 3)
    return dmat.solve(tuple((delta - delta2).data)) is not None


def equivalence_conditions(alg, mod, defo, other, alg_op, mod_op):
    """The three conditions of `are_equivalent_deformations` one by one:
    ((i), (ii), (iii)) as booleans, each over every basis pair."""
    pi, delta = _context(alg, mod, defo)
    _, delta2 = _context(alg, mod, other)
    lam = block_operator(alg_op, mod_op)
    total = alg.dim + mod.mdim
    first = delta - delta2 == graded_bracket(pi, DenseMap.from_matrix(lam),
                                             HARD_ARITY_CAP)
    second = third = True
    for i, j in itertools.product(range(total), repeat=2):
        li, lj = lam.col(i), lam.col(j)
        second = second and vec_is_zero(delta2.evaluate(li, lj))
        lhs = lam.apply(delta.value((i, j)))
        rhs = vec_add(vec_add(delta2.evaluate(basis_vector(i, total), lj),
                              delta2.evaluate(li, basis_vector(j, total))),
                      pi.evaluate(li, lj))
        third = third and vec_is_zero(vec_sub(lhs, rhs))
    return first, second, third
