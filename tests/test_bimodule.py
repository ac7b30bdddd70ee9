"""Bimodule axioms and derived module structures."""

import random

import pytest

from antiflex.algebra import classify
from antiflex.bimodule import (Bimodule, dual_bimodule_candidate,
                               induced_bimodule_on_base, is_bimodule,
                               lie_representation, regular_bimodule,
                               tilde_bimodule, zero_bimodule)
from antiflex.linalg import Matrix
from antiflex.operators import is_rota_baxter

rng = random.Random(1003)


def test_zero_actions_always_pass(a2, na2):
    z = Matrix.zeros(2, 2)
    assert is_bimodule(a2, [z, z], [z, z]).ok
    # even over a non-anti-flexible algebra: the equations couple l and r only
    assert is_bimodule(na2, [z, z], [z, z]).ok


def test_regular_actions_iff_anti_flexible(a2, na2, af_nonassoc):
    for alg in (a2, af_nonassoc):
        left = [alg.left_matrix(i) for i in range(alg.dim)]
        right = [alg.right_matrix(i) for i in range(alg.dim)]
        assert is_bimodule(alg, left, right).ok
        assert classify(alg).anti_flexible
    left = [na2.left_matrix(i) for i in range(2)]
    right = [na2.right_matrix(i) for i in range(2)]
    report = is_bimodule(na2, left, right)
    assert not report.ok
    assert report.first() is not None  # carries the violating pair + residual
    with pytest.raises(ValueError):
        regular_bimodule(na2)


def test_regular_bimodule_values(a0_2, a1, a2):
    for i in range(2):
        for m in regular_bimodule(a0_2).left + regular_bimodule(a0_2).right:
            assert m.is_zero()
    m1 = regular_bimodule(a1)
    assert m1.left[0] == Matrix.identity(1)
    assert m1.right[0] == Matrix.identity(1)
    m2 = regular_bimodule(a2)
    assert m2.left[0] == Matrix.from_rows([[0, 0], [1, 0]])
    assert m2.right[0] == Matrix.from_rows([[0, 0], [1, 0]])
    assert m2.left[1].is_zero() and m2.right[1].is_zero()


def test_dual_candidate(a2, m_a2, a0_2):
    dual, report = dual_bimodule_candidate(a2, m_a2)
    assert report.ok and dual is not None
    assert dual.left[0] == m_a2.right[0].transpose()
    zero = zero_bimodule(a0_2, 2)
    dual0, report0 = dual_bimodule_candidate(a0_2, zero)
    assert report0.ok
    for m in dual0.left + dual0.right:
        assert m.is_zero()


def test_dual_candidate_on_search_corpus(af_nonassoc):
    """The transpose-swap convention is checked, never assumed; on the dim-2
    sweep corpus it happens to hold whenever the original actions do."""
    mod = regular_bimodule(af_nonassoc)
    dual, report = dual_bimodule_candidate(af_nonassoc, mod)
    assert report.ok and dual is not None


def test_lie_representation(a2, m_a2, af_nonassoc):
    # l = r for a commutative algebra: zero representation
    rep = lie_representation(a2, m_a2)
    for m in rep.rho:
        assert m.is_zero()
    rep2 = lie_representation(af_nonassoc, regular_bimodule(af_nonassoc))
    assert rep2.validate().ok


def test_induced_bimodule_on_base(a2, m_a2, t_inv, t_nil, a0_2, m_a0_2,
                                  noncommutative_rb, defect_rb):
    for op in (t_inv, t_nil, Matrix.zeros(2, 2)):
        induced = induced_bimodule_on_base(a2, m_a2, op)
        assert induced.validate().ok
    # built without re-checking the bimodule equations, which the paper
    # proves for every Rota-Baxter operator; noncommutative data included
    for alg, mod, op in (noncommutative_rb, defect_rb):
        assert induced_bimodule_on_base(alg, mod, op).validate().ok
    zero_case = induced_bimodule_on_base(a0_2, m_a0_2,
                                         Matrix.from_rows([[1, 2], [3, 4]]))
    for m in zero_case.left + zero_case.right:
        assert m.is_zero()


def test_induced_bimodule_rejects_non_rb(a1, m_a1):
    assert not is_rota_baxter(a1, m_a1, Matrix.identity(1)).ok
    with pytest.raises(ValueError):
        induced_bimodule_on_base(a1, m_a1, Matrix.identity(1))


def test_tilde_bimodule(a2, m_a2, e21):
    ident = Matrix.identity(2)
    same = tilde_bimodule(m_a2, ident, ident)
    assert same.left == m_a2.left and same.right == m_a2.right
    zero = tilde_bimodule(m_a2, Matrix.zeros(2, 2), Matrix.zeros(2, 2))
    for m in zero.left + zero.right:
        assert m.is_zero()
    twisted = tilde_bimodule(m_a2, e21, e21)
    assert twisted.validate().ok


def test_shape_errors(a2):
    with pytest.raises(Exception):
        Bimodule(a2, [Matrix.zeros(2, 2)], [Matrix.zeros(2, 2)])
    with pytest.raises(Exception):
        is_bimodule(a2, [Matrix.zeros(2, 2), Matrix.zeros(3, 3)],
                    [Matrix.zeros(2, 2), Matrix.zeros(2, 2)])
