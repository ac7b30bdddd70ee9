"""Deformation generators, equivalence, triviality, Nijenhuis structures."""

import random
from fractions import Fraction

import pytest

from antiflex.deformation import (InfinitesimalDeformation, block_operator,
                                  are_equivalent_deformations,
                                  deformation_difference_is_exact,
                                  is_closed_2cochain, is_nijenhuis_structure,
                                  is_trivial_deformation, is_valid_deformation,
                                  nijenhuis_structure_powers,
                                  trivial_deformation_from,
                                  trivial_deformation_ledger)
from antiflex.linalg import Matrix, MultiMap
from tests.conftest import random_matrix

rng = random.Random(1007)


def test_zero_deformation_is_valid(a2, m_a2):
    zero = InfinitesimalDeformation.zero(2, 2)
    assert is_valid_deformation(a2, m_a2, zero)
    assert is_closed_2cochain(a2, m_a2, zero)


def test_pair_over_a_zero_dimensional_algebra_keeps_its_module():
    """With no basis element neither the bimodule nor a generator has a
    matrix to read the module size from: the bimodule keeps the mdim it is
    given, and a generator acts on it, as does a Nijenhuis structure."""
    from antiflex.algebra import Algebra
    from antiflex.bimodule import tilde_bimodule, zero_bimodule
    empty = Algebra.zero(0)
    mod = zero_bimodule(empty, 2)
    zero = InfinitesimalDeformation.zero(0, 2)
    assert is_valid_deformation(empty, mod, zero)
    assert is_closed_2cochain(empty, mod, zero)
    n, s = Matrix.zeros(0, 0), Matrix.from_rows([[1, 2], [0, 1]])
    report = is_nijenhuis_structure(empty, mod, n, s)
    assert report.ok and all(report.notes.values())
    assert trivial_deformation_from(empty, mod, n, s) == zero
    assert tilde_bimodule(mod, n, s).mdim == 2
    assert is_trivial_deformation(empty, mod, zero, n, s)


def test_generator_keeps_its_module_dimension():
    """A generator over a 0-dimensional algebra has no matrix either: it
    keeps the mdim it is given, equality reads it, the document parser
    passes the bimodule's, and a generator on another module is refused."""
    from antiflex.algebra import Algebra
    from antiflex.bimodule import zero_bimodule
    from antiflex.document import parse_document
    from antiflex.linalg import LinAlgError
    empty = Algebra.zero(0)
    assert InfinitesimalDeformation.zero(0, 3).mdim == 3
    assert InfinitesimalDeformation.zero(0, 2) != InfinitesimalDeformation.zero(0, 3)
    assert InfinitesimalDeformation.zero(0, 3) \
        == InfinitesimalDeformation(empty.mul, [], [], 3)
    assert InfinitesimalDeformation(empty.mul, [], []).mdim == 0
    doc = parse_document(
        '{"field": "Q", "algebra": {"dim": 0, "basis": [], "products": {}},'
        ' "bimodule": {"mdim": 3, "l": [], "r": []},'
        ' "deformation": {"omega": {}, "phi": [], "psi": []}}')
    assert doc.deformation == InfinitesimalDeformation.zero(0, 3)
    assert InfinitesimalDeformation.of_structure(empty, doc.bimodule) \
        == doc.deformation
    with pytest.raises(LinAlgError, match="^deformation does not match"):
        is_valid_deformation(empty, zero_bimodule(empty, 3),
                             InfinitesimalDeformation.zero(0, 2))
    z = Matrix.zeros(2, 2)
    with pytest.raises(LinAlgError, match="^action matrices are 2x2, "
                                          "module dimension is 3$"):
        InfinitesimalDeformation(MultiMap.zero(2, 2), [z, z], [z, z], 3)


def test_redeforming_by_the_structure_itself(a2, m_a2):
    defo = InfinitesimalDeformation.of_structure(a2, m_a2)
    assert is_valid_deformation(a2, m_a2, defo)


def test_trivial_deformation_identity_case(a2, m_a2):
    ident = Matrix.identity(2)
    defo = trivial_deformation_from(a2, m_a2, ident, ident)
    assert defo.omega == a2.mul
    assert defo.phi == m_a2.left
    assert defo.psi == m_a2.right
    zero = Matrix.zeros(2, 2)
    assert trivial_deformation_from(a2, m_a2, zero, zero) \
        == InfinitesimalDeformation.zero(2, 2)


def test_trivial_deformation_full_ledger(a2, m_a2, e21):
    defo = trivial_deformation_from(a2, m_a2, e21, e21)
    assert is_valid_deformation(a2, m_a2, defo)
    assert is_closed_2cochain(a2, m_a2, defo)
    ledger = trivial_deformation_ledger(a2, m_a2, e21, e21, defo)
    assert all(ledger.values()), ledger
    assert is_trivial_deformation(a2, m_a2, defo, e21, e21)
    assert deformation_difference_is_exact(
        a2, m_a2, defo, InfinitesimalDeformation.zero(2, 2))


def test_validity_implies_closedness_and_perturbation_breaks_it(a2, m_a2, e21):
    defo = trivial_deformation_from(a2, m_a2, e21, e21)
    assert is_valid_deformation(a2, m_a2, defo)
    assert is_closed_2cochain(a2, m_a2, defo)
    # perturb omega so the t^1 coefficient fails
    bumped = MultiMap(2, 2, [x + (1 if i == 0 else 0)
                             for i, x in enumerate(defo.omega.data)])
    broken = InfinitesimalDeformation(bumped, defo.phi, defo.psi)
    assert not is_closed_2cochain(a2, m_a2, broken)
    assert not is_valid_deformation(a2, m_a2, broken)


def test_equivalence_reflexive_and_generated(a2, m_a2, e21):
    zero_op = Matrix.zeros(2, 2)
    defo = trivial_deformation_from(a2, m_a2, e21, e21)
    assert are_equivalent_deformations(a2, m_a2, defo, defo, zero_op, zero_op)
    assert are_equivalent_deformations(
        a2, m_a2, defo, InfinitesimalDeformation.zero(2, 2), e21, e21)
    # mismatched random pair
    other = InfinitesimalDeformation(
        MultiMap(2, 2, [Fraction(1)] + [Fraction(0)] * 7),
        defo.phi, defo.psi)
    assert not are_equivalent_deformations(a2, m_a2, defo, other, e21, e21)


def test_nijenhuis_structure_identity_and_scalar(a2, m_a2):
    for lam in (1, -2, Fraction(1, 2)):
        op = Matrix.identity(2).scale(lam)
        report = is_nijenhuis_structure(a2, m_a2, op, op)
        assert report.ok
        assert report.notes["primary_semidirect"] \
            == report.notes["secondary_componentwise"] is True


def test_nijenhuis_structure_dual_route_agreement_randomized(rb_pairs):
    for alg, mod in rb_pairs:
        for _ in range(12):
            alg_op = random_matrix(rng, alg.dim, alg.dim)
            mod_op = random_matrix(rng, mod.mdim, mod.mdim)
            report = is_nijenhuis_structure(alg, mod, alg_op, mod_op)
            assert report.notes["primary_semidirect"] \
                == report.notes["secondary_componentwise"]


def test_nijenhuis_structure_variant_recorded_not_folded(a2, m_a2, e21):
    report = is_nijenhuis_structure(a2, m_a2, e21, e21)
    assert report.ok
    assert "variant_s_squared_left" in report.notes
    assert "variant_s_squared_right" in report.notes


def test_block_operator_layout(e21):
    blk = block_operator(e21, Matrix.identity(2))
    assert blk.rows == 4
    assert blk[1, 0] == 1 and blk[2, 2] == 1 and blk[3, 3] == 1
    assert blk[2, 0] == 0


def test_nijenhuis_structure_powers(a2, m_a2, e21):
    for i in (1, 2, 3):
        assert nijenhuis_structure_powers(a2, m_a2, e21, e21, i)
        ident = Matrix.identity(2)
        assert nijenhuis_structure_powers(a2, m_a2, ident, ident, i)


def test_powers_preconditions(a2, m_a2):
    bad = Matrix.from_rows([[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        nijenhuis_structure_powers(a2, m_a2, bad, bad, 2)
    with pytest.raises(ValueError):
        nijenhuis_structure_powers(a2, m_a2, Matrix.identity(2),
                                   Matrix.identity(2), 9)


def test_trivial_deformation_requires_structure(a2, m_a2):
    bad = Matrix.from_rows([[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        trivial_deformation_from(a2, m_a2, bad, bad)


def test_dual_module_pair_from_algebra_nijenhuis(a2, m_a2, e21, af_nonassoc):
    """A Nijenhuis operator N paired with its transpose on the dual of the
    regular bimodule.  The claim that (N, N^T) is always a Nijenhuis
    structure there is checked, never assumed; the dual-route agreement is
    asserted (a theorem), the structure verdict itself is recorded."""
    from antiflex.bimodule import dual_bimodule_candidate, regular_bimodule
    from antiflex.search import search_operators

    dual, report = dual_bimodule_candidate(a2, m_a2)
    assert report.ok
    verdict = is_nijenhuis_structure(a2, dual, e21, e21.transpose())
    assert verdict.notes["primary_semidirect"] \
        == verdict.notes["secondary_componentwise"]
    assert verdict.ok  # holds for this instance

    mod = regular_bimodule(af_nonassoc)
    dual2, report2 = dual_bimodule_candidate(af_nonassoc, mod)
    assert report2.ok
    outcomes = []
    for op in search_operators(af_nonassoc, None, (-1, 0, 1),
                               ("nijenhuis", "nonzero"),
                               shape="algebra-endo", limit=4):
        v = is_nijenhuis_structure(af_nonassoc, dual2, op, op.transpose())
        assert v.notes["primary_semidirect"] \
            == v.notes["secondary_componentwise"]
        outcomes.append(v.ok)
    assert outcomes  # at least one instance evaluated; truth recorded per case


def test_equivalent_deformations_are_cohomologous(a2, m_a2, e21):
    """Two generators produced by different Nijenhuis structures differ by an
    exact term whenever they are equivalent through some pair; here both are
    trivial, so each lies in the image of d."""
    first = trivial_deformation_from(a2, m_a2, e21, e21)
    ident = Matrix.identity(2)
    second = trivial_deformation_from(a2, m_a2, ident, ident)
    zero = InfinitesimalDeformation.zero(2, 2)
    assert deformation_difference_is_exact(a2, m_a2, first, zero)
    assert deformation_difference_is_exact(a2, m_a2, second, zero)
    assert deformation_difference_is_exact(a2, m_a2, first, second)


def test_internal_semidirect_products_do_not_revalidate(a2, m_a2, e21, t_inv,
                                                        monkeypatch):
    from antiflex.algebra import semidirect_product
    from antiflex.bimodule import Bimodule
    from antiflex.operators import (nt_nijenhuis_equivalence,
                                    rb_graph_is_subalgebra,
                                    rb_morphism_graph_check)

    validated = []
    real = Bimodule.validate

    def counting(self):
        validated.append(self)
        return real(self)

    monkeypatch.setattr(Bimodule, "validate", counting)
    ident = Matrix.identity(2)
    assert is_nijenhuis_structure(a2, m_a2, e21, e21).ok
    assert rb_graph_is_subalgebra(a2, m_a2, t_inv)
    assert nt_nijenhuis_equivalence(a2, m_a2, t_inv) == (True, True)
    assert rb_morphism_graph_check(a2, m_a2, t_inv, a2, m_a2, t_inv,
                                   ident, ident)
    assert validated == []
    # the public construction still checks its input
    semidirect_product(a2, m_a2)
    assert validated == [m_a2]
