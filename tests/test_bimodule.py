"""Bimodule axioms and derived module structures."""

import itertools
import random

import pytest

from antiflex.algebra import Algebra, classify
from antiflex.bimodule import (Bimodule, dual_bimodule_candidate,
                               induced_bimodule_on_base, is_bimodule,
                               lie_representation, regular_bimodule,
                               tilde_bimodule, zero_bimodule)
from antiflex.linalg import LinAlgError, Matrix
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


def test_module_dimension_is_kept_over_a_zero_dimensional_algebra(a2):
    """With no basis element there is no action matrix to read mdim from:
    the one given is kept.  Over a larger algebra it must match the
    matrices, and a negative one is refused."""
    empty = Algebra.zero(0)
    assert zero_bimodule(empty, 3).mdim == 3
    assert Bimodule(empty, [], [], mdim=3).mdim == 3
    assert Bimodule(empty, [], []).mdim == 0
    assert zero_bimodule(empty, 3) != zero_bimodule(empty, 2)
    assert zero_bimodule(empty, 3) == Bimodule(empty, [], [], mdim=3)
    assert dual_bimodule_candidate(empty, zero_bimodule(empty, 3))[0].mdim == 3
    z = Matrix.zeros(2, 2)
    assert Bimodule(a2, [z, z], [z, z], mdim=2).mdim == 2
    with pytest.raises(LinAlgError, match="^action matrices are 2x2, "
                                          "module dimension is 3$"):
        Bimodule(a2, [z, z], [z, z], mdim=3)
    with pytest.raises(LinAlgError, match="must be nonnegative, got -1$"):
        Bimodule(empty, [], [], mdim=-1)


def test_lie_representation_keeps_its_module_dimension(a2, m_a2):
    """rho = l - r carries the bimodule's mdim, also when the algebra has no
    basis element and rho no matrix; a given mdim must match the matrices."""
    from antiflex.algebra import commutator_lie
    from antiflex.bimodule import LieRepresentation
    empty = Algebra.zero(0)
    for mdim in (0, 3):
        assert lie_representation(empty, zero_bimodule(empty, mdim)).mdim == mdim
    assert lie_representation(a2, m_a2).mdim == 2
    assert LieRepresentation(commutator_lie(empty), []).mdim == 0
    rho = [m_a2.left[i] - m_a2.right[i] for i in range(2)]
    with pytest.raises(LinAlgError, match="^action matrices are 2x2, "
                                          "module dimension is 3$"):
        LieRepresentation(commutator_lie(a2), rho, 3)


# -- the twisted bimodule lives over A_N ---------------------------------------

def _nijenhuis_probe_slice(seed, count):
    """(alg, mod, N) with S = N a Nijenhuis structure: `count` seeded
    anti-flexible dim-2 algebras over {-1, 0, 1} with their regular
    bimodules, each with every Nijenhuis endomorphism over {-1, 0, 1}."""
    from antiflex.deformation import is_nijenhuis_structure
    from antiflex.search import search_algebras, search_operators

    algs = search_algebras(2, (-1, 0, 1), ("anti-flexible",))
    for alg in random.Random(seed).sample(algs, count):
        mod = regular_bimodule(alg)
        for n in search_operators(alg, None, (-1, 0, 1), ("nijenhuis",),
                                  shape="algebra-endo"):
            if is_nijenhuis_structure(alg, mod, n, n).ok:
                yield alg, mod, n


def _module_actions(alg, big):
    """(phi, psi) read off a product on A + M (A first) in which A.M and
    M.A lie in M: phi(e_i) m_j = e_i m_j and psi(e_i) m_j = m_j e_i."""
    d = alg.dim
    md = big.dim - d

    def acts(side):
        return tuple(Matrix.from_cols(
            [big.basis_product(*side(i, d + j))[d:] for j in range(md)],
            rows=md) for i in range(d))

    return acts(lambda i, m: (i, m)), acts(lambda i, m: (m, i))


def test_deformed_semidirect_product_is_the_plus_twist_over_a_n():
    """The product of semidirect(A, M) deformed by N + S restricts to A_N
    on A, vanishes on M x M, and acts on M by a bimodule (phi, psi) over
    A_N equal to the sign +1 twist; read off the deformed product, not
    built by `_twisted_actions`."""
    from antiflex.algebra import deformed_product, semidirect_product
    from antiflex.bimodule import _image_actions, _twisted_actions
    from antiflex.deformation import block_operator

    count = 0
    for alg, mod, n in _nijenhuis_probe_slice(1201, 4):
        d, md = alg.dim, mod.mdim
        big = deformed_product(semidirect_product(alg, mod),
                               block_operator(n, n))
        a_n = deformed_product(alg, n)
        for i, j in itertools.product(range(d + md), repeat=2):
            val = big.basis_product(i, j)
            if i < d and j < d:
                assert val == a_n.basis_product(i, j) + (0,) * md
            else:
                assert all(x == 0 for x in val[:d])
                if i >= d and j >= d:
                    assert all(x == 0 for x in val)
        phi, psi = _module_actions(alg, big)
        assert Bimodule(a_n, phi, psi, check=False).validate().ok
        assert (phi, psi) == _twisted_actions(mod, _image_actions(mod, n),
                                              n, 1)
        count += 1
    assert count >= 40, count


def test_tilde_bimodule_exists_over_a_n_when_the_dual_carries_the_structure():
    """(l~, r~) is the transpose-swap dual of the sign +1 twist of the dual
    bimodule by (N, S^T): whenever (N, S^T) is a Nijenhuis structure on
    that dual, `tilde_bimodule` returns a bimodule over A_N.  Not
    necessary, and not implied by (N, S) alone: both other outcomes
    occur, as does a twist that is a bimodule over A_N but not over A."""
    from antiflex.algebra import _semidirect_product, deformed_product
    from antiflex.deformation import block_operator, is_nijenhuis_structure

    seen = {"sufficient": 0, "without_dual": 0, "refused": 0, "not_over_a": 0}
    for alg, mod, n in _nijenhuis_probe_slice(1202, 4):
        dual, _ = dual_bimodule_candidate(alg, mod)
        s_t = n.transpose()
        dual_structure = is_nijenhuis_structure(alg, dual, n, s_t).ok
        # the dual's sign +1 twist, read off its deformed semidirect product
        phi_d, psi_d = _module_actions(alg, deformed_product(
            _semidirect_product(alg, dual), block_operator(n, s_t)))
        try:
            tilde = tilde_bimodule(mod, n, n)
        except ValueError as exc:
            assert not dual_structure
            assert str(exc).startswith("not a bimodule: bimodule: FAIL - ")
            seen["refused"] += 1
            continue
        assert tilde.base == deformed_product(alg, n)
        assert tilde.left == tuple(m.transpose() for m in psi_d)
        assert tilde.right == tuple(m.transpose() for m in phi_d)
        seen["sufficient" if dual_structure else "without_dual"] += 1
        if not is_bimodule(alg, tilde.left, tilde.right).ok:
            seen["not_over_a"] += 1
    assert all(seen.values()), seen


def test_tilde_bimodule_forms_the_image_actions_once(a2, m_a2, e21,
                                                     monkeypatch):
    """One `_image_actions` per `tilde_bimodule` call: the Nijenhuis-
    structure check forms l(N(e_i)) and r(N(e_i)) and the twist reads
    them."""
    import antiflex.bimodule
    import antiflex.deformation
    from antiflex.bimodule import tilde_bimodule

    acted = []
    real = antiflex.bimodule._image_actions

    def counting(mod, alg_op):
        acted.append(alg_op)
        return real(mod, alg_op)

    for module in (antiflex.bimodule, antiflex.deformation):
        monkeypatch.setattr(module, "_image_actions", counting)
    n = Matrix.from_rows([[0, 0], ["1/2", 0]])
    tilde = tilde_bimodule(m_a2, n, e21)
    assert acted == [n]
    assert tilde.mdim == m_a2.mdim
