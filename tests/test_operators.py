"""Rota-Baxter and Nijenhuis predicates, graphs, splittings, morphisms."""

import random
from fractions import Fraction

import pytest

from antiflex.algebra import classify
from antiflex.bimodule import lie_representation
from antiflex.linalg import LinAlgError, Matrix
from antiflex.operators import (induced_pre_anti_flexible, is_lie_rota_baxter,
                                is_nijenhuis, is_rb_morphism, is_rota_baxter,
                                nijenhuis_power_suite, nt_nijenhuis_equivalence,
                                nt_operator,
                                rb_graph_is_subalgebra,
                                rb_morphism_graph_check,
                                rb_morphism_preserves_pre_structure,
                                star_algebra)
from tests.conftest import random_matrix


def test_rota_baxter_examples(a1, m_a1, a0_2, m_a0_2, a2, m_a2, t_inv, t_nil):
    rng = random.Random(100401)
    assert is_rota_baxter(a1, m_a1, Matrix.zeros(1, 1)).ok
    # on a zero-multiplication base every operator is Rota-Baxter
    assert is_rota_baxter(a0_2, m_a0_2, random_matrix(rng, 2, 2)).ok
    # identity on the field: T(e).T(e) = e but T(l(Te)e + r(Te)e) = 2e
    report = is_rota_baxter(a1, m_a1, Matrix.identity(1))
    assert not report.ok
    assert report.first().where == (0, 0)
    assert is_rota_baxter(a2, m_a2, t_inv).ok
    assert is_rota_baxter(a2, m_a2, t_nil).ok


def test_graph_route_agrees_everywhere(rb_pairs):
    rng = random.Random(100402)
    for alg, mod in rb_pairs:
        for _ in range(12):
            op = random_matrix(rng, alg.dim, mod.mdim)
            assert rb_graph_is_subalgebra(alg, mod, op) \
                == is_rota_baxter(alg, mod, op).ok


def test_quadratic_homogeneity(a2, m_a2, t_inv, t_nil):
    for op in (t_inv, t_nil):
        for lam in (Fraction(2), Fraction(-1), Fraction(3, 2), Fraction(0)):
            assert is_rota_baxter(a2, m_a2, op.scale(lam)).ok


def test_nijenhuis_examples(a1, a2, e21):
    for lam in (0, 1, -2, Fraction(1, 2)):
        assert is_nijenhuis(a2, Matrix.identity(2).scale(lam)).ok
        assert is_nijenhuis(a1, Matrix.identity(1).scale(lam)).ok
    assert is_nijenhuis(a2, e21).ok
    # on A2 the torsion forces upper-right zero: find a failing operator
    bad = Matrix.from_rows([[0, 1], [0, 0]])
    assert not is_nijenhuis(a2, bad).ok


def test_nijenhuis_power_suite(a2, e21):
    expected = {"deformed_anti_flexible", "power_nijenhuis",
                "tower_composition", "linear_combinations",
                "power_homomorphism"}
    for op, k, l in [(Matrix.identity(2), 2, 3), (Matrix.zeros(2, 2), 1, 1),
                     (e21, 1, 2), (e21, 2, 1), (e21, 0, 2)]:
        out = nijenhuis_power_suite(a2, op, k, l)
        assert set(out) == expected
        assert all(out.values()), out


def test_nijenhuis_power_suite_on_search_example(af_nonassoc):
    from antiflex.search import search_operators
    hits = search_operators(af_nonassoc, None, (-1, 0, 1),
                            ("nijenhuis", "not-scalar"), shape="algebra-endo",
                            limit=1)
    if not hits:
        pytest.skip("no non-scalar Nijenhuis operator in the grid")
    out = nijenhuis_power_suite(af_nonassoc, hits[0], 1, 2)
    assert all(out.values()), out


def test_power_suite_preconditions(a2):
    bad = Matrix.from_rows([[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        nijenhuis_power_suite(a2, bad, 1, 1)
    with pytest.raises(ValueError):
        nijenhuis_power_suite(a2, Matrix.identity(2), 1, 9)


def test_nt_equivalence(rb_pairs):
    rng = random.Random(100403)
    for alg, mod in rb_pairs:
        for _ in range(10):
            op = random_matrix(rng, alg.dim, mod.mdim)
            rb, nij = nt_nijenhuis_equivalence(alg, mod, op)
            assert rb == nij


def test_induced_pre_anti_flexible(a2, m_a2, t_inv, t_nil, a0_2, m_a0_2):
    rng = random.Random(100404)
    for op in (t_inv, t_nil):
        pre = induced_pre_anti_flexible(a2, m_a2, op)
        assert pre.validate().ok
        star = star_algebra(a2, m_a2, op)
        assert star.mul == pre.total()
        assert classify(star).anti_flexible
    zero_pre = induced_pre_anti_flexible(a0_2, m_a0_2,
                                         random_matrix(rng, 2, 2))
    assert zero_pre.prec.is_zero() and zero_pre.succ.is_zero()


def test_induced_pre_rejects_non_rb(a1, m_a1):
    with pytest.raises(ValueError):
        induced_pre_anti_flexible(a1, m_a1, Matrix.identity(1))


def test_star_equals_prec_plus_succ_on_noncommutative(noncommutative_rb):
    alg, mod, op = noncommutative_rb
    pre = induced_pre_anti_flexible(alg, mod, op)
    assert pre.validate().ok
    star = star_algebra(alg, mod, op)
    assert star.mul == pre.total()
    assert classify(star).anti_flexible


def test_rb_morphism_identity_and_scaling(a2, m_a2, t_inv):
    ident = Matrix.identity(2)
    check = is_rb_morphism(a2, m_a2, t_inv, a2, m_a2, t_inv, ident, ident)
    assert check.ok
    assert rb_morphism_graph_check(a2, m_a2, t_inv, a2, m_a2, t_inv,
                                   ident, ident)
    assert rb_morphism_preserves_pre_structure(a2, m_a2, t_inv, a2, m_a2,
                                               t_inv, ident, ident)


def test_rb_morphism_zero_pair(a0_2, m_a0_2):
    rng = random.Random(100405)
    t1 = random_matrix(rng, 2, 2)
    t2 = random_matrix(rng, 2, 2)
    zero = Matrix.zeros(2, 2)
    assert is_rb_morphism(a0_2, m_a0_2, t1, a0_2, m_a0_2, t2, zero, zero).ok


def test_rb_morphism_graph_agreement_randomized(a2, m_a2, t_inv, t_nil,
                                                a0_2, m_a0_2):
    rng = random.Random(100406)
    cases = [(a2, m_a2, t_inv, a2, m_a2, t_nil),
             (a2, m_a2, t_inv, a2, m_a2, t_inv),
             (a0_2, m_a0_2, random_matrix(rng, 2, 2), a0_2, m_a0_2,
              random_matrix(rng, 2, 2))]
    for src_alg, src_mod, t, dst_alg, dst_mod, t2 in cases:
        for _ in range(10):
            phi = random_matrix(rng, dst_alg.dim, src_alg.dim)
            psi = random_matrix(rng, dst_mod.mdim, src_mod.mdim)
            direct = is_rb_morphism(src_alg, src_mod, t, dst_alg, dst_mod,
                                    t2, phi, psi).ok
            graph = rb_morphism_graph_check(src_alg, src_mod, t, dst_alg,
                                            dst_mod, t2, phi, psi)
            assert direct == graph


def test_rb_morphism_failing_pair_matches_graph(a2, m_a2, t_inv, t_nil):
    ident = Matrix.identity(2)
    check = is_rb_morphism(a2, m_a2, t_inv, a2, m_a2, t_nil, ident, ident)
    assert not check.ok
    assert not rb_morphism_graph_check(a2, m_a2, t_inv, a2, m_a2, t_nil,
                                       ident, ident)


def test_morphism_intertwining_condition_alone_is_not_enough(a0_2, m_a0_2):
    """On a zero algebra the action conditions are vacuous, so a pair failing
    only T' psi = phi T separates the full check from plain graph closure."""
    t = Matrix.zeros(2, 2)
    t2 = Matrix.identity(2)
    ident = Matrix.identity(2)
    check = is_rb_morphism(a0_2, m_a0_2, t, a0_2, m_a0_2, t2, ident, ident)
    assert not check.ok
    assert check.first().law == "T' psi = phi T"
    assert not rb_morphism_graph_check(a0_2, m_a0_2, t, a0_2, m_a0_2, t2,
                                       ident, ident)


def test_morphism_scaling_pair_verdicts(a2, m_a2, t_inv, t_nil):
    # the pair (lam id, lam id) from T to lam T satisfies the intertwining
    # and action conditions iff lam^2 = lam, so only lam in {0, 1} qualifies
    for op in (t_inv, t_nil):
        for lam in (Fraction(0), Fraction(1), Fraction(3), Fraction(-1)):
            phi = Matrix.identity(2).scale(lam)
            target = op.scale(lam)
            check = is_rb_morphism(a2, m_a2, op, a2, m_a2, target, phi, phi)
            assert check.ok == (lam * lam == lam)
            if check.ok:
                assert rb_morphism_preserves_pre_structure(
                    a2, m_a2, op, a2, m_a2, target, phi, phi)


def test_rb_morphism_reads_each_action_on_its_side(noncommutative_rb):
    """l != r on the noncommutative fixture: the identity pair is a morphism
    only when l(phi(a)) and r(phi(a)) are each matched with their own side,
    and random pairs agree with the graph route."""
    rng = random.Random(100407)
    alg, mod, op = noncommutative_rb
    ident = Matrix.identity(alg.dim)
    assert mod.left != mod.right
    assert is_rb_morphism(alg, mod, op, alg, mod, op, ident, ident).ok
    for _ in range(20):
        phi = random_matrix(rng, alg.dim, alg.dim, -1, 1)
        psi = random_matrix(rng, mod.mdim, mod.mdim, -1, 1)
        assert is_rb_morphism(alg, mod, op, alg, mod, op, phi, psi).ok \
            == rb_morphism_graph_check(alg, mod, op, alg, mod, op, phi, psi)


def _lie_rb_by_basis_sums(lie, rep, op):
    """[Tm, Tn] = T(rho(Tm)n - rho(Tn)m) with rho(x)y summed entry by entry
    over the basis, not formed as a matrix."""
    n = rep.mdim
    for i in range(n):
        for j in range(n):
            tm, tn = op.col(i), op.col(j)
            inner = [sum(tm[k] * rep.rho[k][r, j] - tn[k] * rep.rho[k][r, i]
                         for k in range(lie.dim)) for r in range(n)]
            if lie.bracket.evaluate(tm, tn) != op.apply(inner):
                return False
    return True


def test_lie_rota_baxter_equals_basis_sums(noncommutative_rb):
    """Every endomorphism over {-1, 0, 1} of the noncommutative fixture's
    commutator algebra, on rho = l - r; both verdicts occur."""
    from antiflex.algebra import commutator_lie
    from antiflex.search import search_operators
    alg, mod, _ = noncommutative_rb
    lie, rep = commutator_lie(alg), lie_representation(alg, mod)
    seen = set()
    for op in search_operators(alg, None, (-1, 0, 1), (), shape="algebra-endo"):
        got = is_lie_rota_baxter(lie, rep, op).ok
        assert got == _lie_rb_by_basis_sums(lie, rep, op)
        seen.add(got)
    assert seen == {True, False}


def test_is_lie_rota_baxter_trivial(a2, m_a2):
    from antiflex.algebra import commutator_lie
    lie = commutator_lie(a2)
    rep = lie_representation(a2, m_a2)
    assert is_lie_rota_baxter(lie, rep, Matrix.zeros(2, 2)).ok


def test_anti_flexible_rb_passes_lie_rb(a2, m_a2, t_inv, t_nil,
                                        noncommutative_rb):
    from antiflex.algebra import commutator_lie
    cases = [(a2, m_a2, t_inv), (a2, m_a2, t_nil)]
    alg, mod, op = noncommutative_rb
    cases.append((alg, mod, op))
    for alg, mod, op in cases:
        lie = commutator_lie(alg)
        rep = lie_representation(alg, mod)
        assert is_lie_rota_baxter(lie, rep, op).ok


def test_nt_operator_is_t_in_the_upper_right_block(rb_pairs):
    """nt_operator is [[0, T], [0, 0]] on A + M, column by column, and a T
    of another shape than dim A x mdim is refused."""
    for alg, mod in rb_pairs:
        d, md = alg.dim, mod.mdim
        op = Matrix(d, md, [Fraction(k + 1, 2) for k in range(d * md)])
        zero = (Fraction(0),) * md
        cols = ([(Fraction(0),) * (d + md)] * d
                + [op.col(j) + zero for j in range(md)])
        assert nt_operator(alg, mod, op) == Matrix.from_cols(cols, rows=d + md)
        for r, c in ((d, md - 1), (d - 1, md), (d + 1, md)):
            if r >= 0 and c >= 0:
                with pytest.raises(LinAlgError):
                    nt_operator(alg, mod, Matrix.zeros(r, c))
