"""ON-structures and compatible Rota-Baxter operators."""

import random
from fractions import Fraction

import pytest

from antiflex.algebra import deformed_product
from antiflex.linalg import Matrix, MultiMap
from antiflex.onstruct import (are_compatible_rb, deformed_rb_suite,
                               is_on_structure, lemma_tilde_star_check,
                               nijenhuis_from_compatible, on_from_compatible,
                               pairwise_power_compatibility, star_deformed)
from antiflex.operators import is_rota_baxter, star_algebra
from tests.conftest import random_matrix


@pytest.fixture(scope="module")
def on_triple(a2, m_a2, t_inv, t_nil):
    """The ON-structure produced from the compatible pair (T_nil, T_inv)."""
    return on_from_compatible(a2, m_a2, t_nil, t_inv)


def test_star_deformed_identity_and_zero(a2, m_a2, t_inv):
    ident = Matrix.identity(2)
    assert star_deformed(a2, m_a2, t_inv, ident).mul \
        == star_algebra(a2, m_a2, t_inv).mul
    assert star_deformed(a2, m_a2, t_inv, Matrix.zeros(2, 2)).mul.is_zero()


def test_star_deformed_agrees_with_deformed_product(a2, m_a2, t_inv, e21):
    direct = star_deformed(a2, m_a2, t_inv, e21)
    via = deformed_product(star_algebra(a2, m_a2, t_inv), e21)
    assert direct.mul == via.mul


def test_identity_pair_is_on_structure(a2, m_a2, t_inv, t_nil, a0_2, m_a0_2):
    ident = Matrix.identity(2)
    for op in (t_inv, t_nil, Matrix.zeros(2, 2)):
        assert is_on_structure(a2, m_a2, op, ident, ident).ok
    assert is_on_structure(a0_2, m_a0_2, Matrix.zeros(2, 2), ident, ident).ok


def test_zero_operator_with_valid_structure(a2, m_a2, e21):
    report = is_on_structure(a2, m_a2, Matrix.zeros(2, 2), e21, e21)
    assert report.ok


def test_on_structure_report_itemizes(a2, m_a2, t_inv):
    bad = Matrix.from_rows([[0, 1], [0, 0]])
    report = is_on_structure(a2, m_a2, t_inv, bad, bad)
    assert not report.ok
    assert report.notes["rota_baxter"] is True
    assert report.notes["nijenhuis_structure"] is False


def test_on_structure_reports_a_non_rota_baxter_operator_first(a2, m_a2):
    """T = id is not Rota-Baxter on A2 (T(e1)T(e1) = e2, while the right
    side is 2 e2).  With (N, S) = (id, id) it is the only failure; with a
    pair that is no Nijenhuis structure, the Rota-Baxter violation still
    comes first."""
    ident = Matrix.identity(2)
    rb = is_rota_baxter(a2, m_a2, ident)
    assert not rb.ok
    report = is_on_structure(a2, m_a2, ident, ident, ident)
    assert not report.ok
    assert report.notes == {"rota_baxter": False,
                            "nijenhuis_structure": True,
                            "compose_commutes": True,
                            "deformed_star_agrees": True}
    assert report.violations == rb.violations
    bad = Matrix.from_rows([[0, 1], [0, 0]])
    report = is_on_structure(a2, m_a2, ident, bad, bad)
    assert report.notes["rota_baxter"] is False
    assert report.notes["nijenhuis_structure"] is False
    assert len(report.violations) > len(rb.violations)
    assert report.violations[:len(rb.violations)] == rb.violations
    assert report.describe().startswith(
        "on_structure: FAIL - " + rb.first().describe())


def test_on_from_compatible_roundtrip(a2, m_a2, t_inv, t_nil, on_triple):
    base, alg_op, mod_op = on_triple
    assert base == t_inv
    assert alg_op == Matrix.from_rows([[0, 0], [Fraction(1, 2), 0]])
    assert mod_op == Matrix.from_rows([[0, 0], [1, 0]])
    report = is_on_structure(a2, m_a2, base, alg_op, mod_op)
    assert report.ok
    assert alg_op @ base == t_nil


def test_on_from_compatible_scalar_family(a2, m_a2, t_inv):
    for lam in (1, 2, -1):
        t1 = t_inv.scale(lam)
        base, alg_op, mod_op = on_from_compatible(a2, m_a2, t1, t_inv)
        assert alg_op == Matrix.identity(2).scale(lam)
        assert mod_op == Matrix.identity(2).scale(lam)
        assert is_on_structure(a2, m_a2, base, alg_op, mod_op).ok
        assert alg_op @ base == t1


def test_on_from_compatible_on_zero_base(a0_2, m_a0_2):
    rng = random.Random(100801)
    t2 = Matrix.from_rows([[1, 1], [0, 1]])
    t1 = random_matrix(rng, 2, 2)
    base, alg_op, mod_op = on_from_compatible(a0_2, m_a0_2, t1, t2)
    assert is_on_structure(a0_2, m_a0_2, base, alg_op, mod_op).ok


def test_compatibility_basics(a2, m_a2, t_inv, t_nil):
    assert are_compatible_rb(a2, m_a2, t_inv, Matrix.zeros(2, 2))
    assert are_compatible_rb(a2, m_a2, t_inv, t_inv)
    for lam in (Fraction(2), Fraction(-3, 2)):
        assert are_compatible_rb(a2, m_a2, t_inv, t_inv.scale(lam))
    assert are_compatible_rb(a2, m_a2, t_nil, t_inv)


def test_compatibility_precondition(a1, m_a1):
    with pytest.raises(ValueError):
        are_compatible_rb(a1, m_a1, Matrix.identity(1), Matrix.zeros(1, 1))


def test_nijenhuis_from_compatible_directions(a2, m_a2, t_inv, t_nil, a0_2,
                                              m_a0_2):
    rng = random.Random(100802)
    op, report = nijenhuis_from_compatible(a2, m_a2, t_inv, t_inv)
    assert op == Matrix.identity(2) and report.ok
    op, report = nijenhuis_from_compatible(a2, m_a2, Matrix.zeros(2, 2), t_inv)
    assert op.is_zero() and report.ok
    op, report = nijenhuis_from_compatible(a2, m_a2, t_nil, t_inv)
    assert report.ok
    # converse on a zero base: every operator pair is compatible and every
    # operator is vacuously Nijenhuis
    t2 = Matrix.from_rows([[2, 1], [1, 1]])
    t1 = random_matrix(rng, 2, 2)
    assert are_compatible_rb(a0_2, m_a0_2, t1, t2)
    op, report = nijenhuis_from_compatible(a0_2, m_a0_2, t1, t2)
    assert report.ok


def test_nijenhuis_from_compatible_converse_with_invertibles(a2, m_a2, t_inv):
    """Both operators invertible and the quotient Nijenhuis force
    compatibility."""
    for lam in (1, 2, -1, Fraction(1, 2)):
        t1 = t_inv.scale(lam)
        op, report = nijenhuis_from_compatible(a2, m_a2, t1, t_inv)
        assert report.ok
        assert t1.inverse() is not None
        assert are_compatible_rb(a2, m_a2, t1, t_inv)


def test_nijenhuis_from_compatible_requires_invertible(a2, m_a2, t_inv, t_nil):
    with pytest.raises(ValueError):
        nijenhuis_from_compatible(a2, m_a2, t_inv, t_nil)


def test_lemma_tilde_star(a2, m_a2, t_inv, t_nil, on_triple):
    ident = Matrix.identity(2)
    for op in (t_inv, t_nil, Matrix.zeros(2, 2)):
        assert lemma_tilde_star_check(a2, m_a2, op, ident, ident) == (True, True)
    base, alg_op, mod_op = on_triple
    assert lemma_tilde_star_check(a2, m_a2, base, alg_op, mod_op) == (True, True)


def test_deformed_rb_suite(a2, m_a2, t_inv, t_nil, on_triple):
    ident = Matrix.identity(2)
    for op in (t_inv, t_nil, Matrix.zeros(2, 2)):
        out = deformed_rb_suite(a2, m_a2, op, ident, ident)
        assert all(out.values()), out
    base, alg_op, mod_op = on_triple
    out = deformed_rb_suite(a2, m_a2, base, alg_op, mod_op)
    assert all(out.values()), out


def test_deformed_rb_suite_requires_on_structure(a2, m_a2, t_inv):
    bad = Matrix.from_rows([[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        deformed_rb_suite(a2, m_a2, t_inv, bad, bad)


def test_pairwise_power_sweep(a2, m_a2, t_inv, on_triple):
    ident = Matrix.identity(2)
    sweep = pairwise_power_compatibility(a2, m_a2, t_inv, ident, ident, 3)
    assert all(all(v.values()) for v in sweep.values())
    base, alg_op, mod_op = on_triple
    sweep = pairwise_power_compatibility(a2, m_a2, base, alg_op, mod_op, 3)
    assert sweep[(0, 1)]["rb_first"] and sweep[(0, 1)]["rb_second"]
    assert sweep[(0, 1)]["sum_rb"]
    # the rest of the hierarchy is recorded, not asserted; it may or may not
    # hold beyond the proved (0, 1) pair
    assert set(sweep) == {(i, j) for i in range(4) for j in range(4) if i < j}


def test_pairwise_power_sweep_checks_each_operator_once(a2, m_a2, on_triple,
                                                        monkeypatch):
    import antiflex.onstruct

    checked = []
    real = antiflex.onstruct.is_rota_baxter

    def counting(alg, mod, op):
        checked.append(op)
        return real(alg, mod, op)

    monkeypatch.setattr(antiflex.onstruct, "is_rota_baxter", counting)
    base, alg_op, mod_op = on_triple
    sweep = pairwise_power_compatibility(a2, m_a2, base, alg_op, mod_op, 3)
    family = [alg_op.power(k) @ base for k in range(4)]
    sums = [family[i] + family[j] for i, j in sorted(sweep)]
    # one check in is_on_structure, one per family member, one per pair sum
    assert checked == [base] + family + sums


@pytest.mark.parametrize("check", [lemma_tilde_star_check, deformed_rb_suite])
def test_twisted_checks_verify_the_nijenhuis_structure_once(a2, m_a2, on_triple,
                                                            check, monkeypatch):
    """One Nijenhuis-structure check, inside the ON-structure check, and
    one formation of l(N(e_i)) and r(N(e_i)), which the twisted actions
    read."""
    import antiflex.bimodule
    import antiflex.deformation
    import antiflex.onstruct

    checked, acted = [], []
    real_check = antiflex.deformation._nijenhuis_structure
    real_acted = antiflex.bimodule._image_actions

    def counting_check(alg, mod, alg_op, mod_op):
        checked.append((alg_op, mod_op))
        return real_check(alg, mod, alg_op, mod_op)

    def counting_acted(mod, alg_op):
        acted.append(alg_op)
        return real_acted(mod, alg_op)

    for module in (antiflex.deformation, antiflex.onstruct):
        monkeypatch.setattr(module, "_nijenhuis_structure", counting_check)
    for module in (antiflex.bimodule, antiflex.deformation):
        monkeypatch.setattr(module, "_image_actions", counting_acted)
    base, alg_op, mod_op = on_triple
    check(a2, m_a2, base, alg_op, mod_op)
    # once, inside is_on_structure; the twisted actions are built unchecked
    assert checked == [(alg_op, mod_op)]
    assert acted == [alg_op]


def test_lemma_check_forms_each_star_algebra_once(a2, m_a2, on_triple,
                                                  monkeypatch):
    """star_{N T} and star^S_T come from the ON-structure check, so the
    lemma forms only star~_T on top: three star products and one
    deformation in all."""
    import antiflex.onstruct

    stars, deformed = [], []
    real_star = antiflex.onstruct._star_product
    real_deformed = antiflex.onstruct.deformed_product

    def counting_star(mod, op):
        stars.append(op)
        return real_star(mod, op)

    def counting_deformed(alg, op):
        deformed.append(op)
        return real_deformed(alg, op)

    monkeypatch.setattr(antiflex.onstruct, "_star_product", counting_star)
    monkeypatch.setattr(antiflex.onstruct, "deformed_product",
                        counting_deformed)
    base, alg_op, mod_op = on_triple
    assert lemma_tilde_star_check(a2, m_a2, base, alg_op, mod_op) \
        == (True, True)
    assert stars == [alg_op @ base, base, base]
    assert deformed == [mod_op]


def test_twisted_checks_return_where_the_twist_fails_over_a():
    """Every structure constant -1 and N = S = -Id with T = 0: the twisted
    pair is a bimodule over A_N but not over A, and both checks return."""
    from antiflex.algebra import Algebra
    from antiflex.bimodule import is_bimodule, regular_bimodule, tilde_bimodule

    alg = Algebra(MultiMap(2, 2, [-1] * 8))
    mod = regular_bimodule(alg)
    n = Matrix.identity(2).scale(-1)
    tilde = tilde_bimodule(mod, n, n)
    assert not is_bimodule(alg, tilde.left, tilde.right).ok
    assert tilde.base == deformed_product(alg, n)
    zero = Matrix.zeros(2, 2)
    assert lemma_tilde_star_check(alg, mod, zero, n, n) == (True, True)
    assert deformed_rb_suite(alg, mod, zero, n, n) == {
        "deformed_rb": True, "composed_rb": True, "compatible": True}
