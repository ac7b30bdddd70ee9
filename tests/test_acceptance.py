"""Acceptance criteria: exact, zero-tolerance verification over the
rationals.  Each criterion prints one PASS/FAIL line (run with -s to see
them on success)."""

import itertools
import random
from fractions import Fraction

import pytest

from antiflex.algebra import classify, commutator_lie
from antiflex.bimodule import (induced_bimodule_on_base, is_bimodule,
                               lie_representation)
from antiflex.cohomology import (RBComplex, check_sign_relation,
                                 hochschild_to_ce_morphism_check)
from antiflex.deformation import (is_closed_2cochain, is_nijenhuis_structure,
                                  is_valid_deformation,
                                  nijenhuis_structure_powers,
                                  trivial_deformation_from,
                                  trivial_deformation_ledger)
from antiflex.document import parse_document, render_document
from antiflex.glie import (Cochain, CochainSpace, HARD_ARITY_CAP, compose_bar,
                           mc_check_algebra_bimodule, rb_differential,
                           rb_mc_equivalence, twisted_mc_check)
from antiflex.linalg import Matrix, MultiMap
from antiflex.onstruct import (are_compatible_rb, deformed_rb_suite,
                               is_on_structure, lemma_tilde_star_check,
                               nijenhuis_from_compatible, on_from_compatible)
from antiflex.operators import (induced_pre_anti_flexible, is_lie_rota_baxter,
                                is_rota_baxter,
                                nt_nijenhuis_equivalence,
                                rb_graph_is_subalgebra)
from antiflex.search import search_operators
from tests.conftest import random_matrix


def _record(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def dim2_sweep():
    """All 3^8 = 6561 dim-2 structure-constant tensors over {-1, 0, 1}."""
    from antiflex.algebra import Algebra
    sweep = []
    for entries in itertools.product((-1, 0, 1), repeat=8):
        alg = Algebra(MultiMap(2, 2, entries))
        sweep.append((alg, classify(alg)))
    return sweep


def test_criterion_01_axiom_soundness(dim2_sweep):
    assert len(dim2_sweep) == 6561
    implication = all(flags.anti_flexible for _, flags in dim2_sweep
                      if flags.associative)
    witness = any(flags.anti_flexible and not flags.associative
                  for _, flags in dim2_sweep)
    _record(1, "axiom-soundness", implication and witness,
            f"{sum(1 for _, f in dim2_sweep if f.associative)} associative, "
            f"{sum(1 for _, f in dim2_sweep if f.anti_flexible)} anti-flexible")


def test_criterion_02_regular_bimodule_equivalence(dim2_sweep):
    ok = True
    for alg, flags in dim2_sweep:
        left = [alg.left_matrix(i) for i in range(2)]
        right = [alg.right_matrix(i) for i in range(2)]
        if is_bimodule(alg, left, right).ok != flags.anti_flexible:
            ok = False
            break
    _record(2, "regular-bimodule-equivalence", ok)


def test_criterion_03_graph_and_block_nijenhuis(rb_pairs):
    rng = random.Random(30003)
    samples = 0
    ok = True
    for alg, mod in rb_pairs:
        for _ in range(24):
            op = random_matrix(rng, alg.dim, mod.mdim)
            samples += 1
            rb = is_rota_baxter(alg, mod, op).ok
            if rb_graph_is_subalgebra(alg, mod, op) != rb:
                ok = False
            if nt_nijenhuis_equivalence(alg, mod, op) != (rb, rb):
                ok = False
    _record(3, "graph-and-block-characterizations",
            ok and len(rb_pairs) >= 5 and samples >= 100,
            f"{samples} operators over {len(rb_pairs)} pairs")


def test_criterion_04_induced_splitting(a2, m_a2, noncommutative_rb):
    checked = 0
    ok = True
    corpora = [(a2, m_a2)]
    alg_nc, mod_nc, _ = noncommutative_rb
    corpora.append((alg_nc, mod_nc))
    for alg, mod in corpora:
        for op in search_operators(alg, mod, (-1, 0, 1), ("rota-baxter",)):
            pre = induced_pre_anti_flexible(alg, mod, op)
            checked += 1
            if not pre.validate().ok:
                ok = False
    _record(4, "induced-pre-anti-flexible", ok and checked > 0,
            f"{checked} oracle-found operators")


def test_criterion_05_mc_pinning(dim2_sweep, a2, na2):
    sweep_ok = True
    for alg, flags in dim2_sweep:
        if compose_bar(alg.mul, alg.mul).is_zero() != flags.anti_flexible:
            sweep_ok = False
            break
    corpus_ok = True
    for alg in (a2, na2):
        left = [alg.left_matrix(i) for i in range(2)]
        right = [alg.right_matrix(i) for i in range(2)]
        axioms = classify(alg).anti_flexible and is_bimodule(alg, left,
                                                             right).ok
        if mc_check_algebra_bimodule(alg, left, right) != axioms:
            corpus_ok = False
    # negative bimodule case over a positive algebra
    z = Matrix.zeros(2, 2)
    bad_left = [Matrix.from_rows([[1, 0], [0, 0]]), z]
    negative_ok = (not is_bimodule(a2, bad_left, [z, z]).ok
                   and not mc_check_algebra_bimodule(a2, bad_left, [z, z]))
    _record(5, "maurer-cartan-pinning", sweep_ok and corpus_ok and negative_ok)


def test_criterion_06_rb_mc_and_differential(rb_pairs, cohomology_corpus):
    rng = random.Random(30006)
    equiv_ok = True
    for alg, mod in rb_pairs:
        space = CochainSpace(alg, mod)
        for _ in range(10):
            op = random_matrix(rng, alg.dim, mod.mdim)
            mc_zero, rb = rb_mc_equivalence(space, op)
            if mc_zero != rb:
                equiv_ok = False
    d2_ok = True
    cochains = 0
    for name, alg, mod, op, _ in cohomology_corpus:
        space = CochainSpace(alg, mod)
        degrees = (0, 1) if alg.dim + mod.mdim > 4 else (0, 1, 2)
        for degree in degrees:
            for _ in range(2):
                size = mod.mdim ** degree * alg.dim
                p = Cochain(degree, mod.mdim, alg.dim,
                            [Fraction(rng.randint(-2, 2))
                             for _ in range(size)])
                once = rb_differential(space, op, p, HARD_ARITY_CAP)
                if not rb_differential(space, op, once,
                                       HARD_ARITY_CAP).is_zero():
                    d2_ok = False
                cochains += 1
    _record(6, "mc-equivalence-and-differential",
            equiv_ok and d2_ok and cochains >= 20,
            f"{cochains} random cochains")


def test_criterion_07_twisted_mc(cohomology_corpus):
    rng = random.Random(30007)
    ok = True
    checked = 0
    for name, alg, mod, op, _ in cohomology_corpus:
        space = CochainSpace(alg, mod)
        per_fixture = 50 if alg.dim + mod.mdim <= 4 else 50
        for _ in range(per_fixture):
            other = random_matrix(rng, alg.dim, mod.mdim)
            sum_rb, twisted = twisted_mc_check(space, op, other)
            checked += 1
            if sum_rb != twisted:
                ok = False
    _record(7, "twisted-maurer-cartan", ok, f"{checked} perturbations")


def test_criterion_08_induced_module_and_signs(cohomology_corpus,
                                               noncommutative_rb):
    rng = random.Random(30008)
    fixtures = [(name, alg, mod, op)
                for name, alg, mod, op, _ in cohomology_corpus]
    alg, mod, op = noncommutative_rb
    fixtures.append(("noncommutative", alg, mod, op))
    induced_ok = True
    sign_ok = True
    lie_ok = True
    for name, alg, mod, op in fixtures:
        if not induced_bimodule_on_base(alg, mod, op).validate().ok:
            induced_ok = False
        cx = RBComplex(alg, mod, op)
        degrees = (0, 1) if alg.dim + mod.mdim > 4 else (0, 1, 2)
        for degree in degrees:
            for _ in range(2):
                size = mod.mdim ** degree * alg.dim
                f = Cochain(degree, mod.mdim, alg.dim,
                            [Fraction(rng.randint(-2, 2))
                             for _ in range(size)])
                if not check_sign_relation(alg, mod, op, f, cx):
                    sign_ok = False
        lie = commutator_lie(alg)
        rep = lie_representation(alg, mod)
        if not is_lie_rota_baxter(lie, rep, op).ok:
            lie_ok = False
    _record(8, "induced-module-sign-lie", induced_ok and sign_ok and lie_ok)


def test_criterion_09_cohomology_sanity(cohomology_corpus):
    anchor_ok = None
    regression_ok = True
    for name, alg, mod, op, anchors in cohomology_corpus:
        cx = RBComplex(alg, mod, op)
        report = cx.dims(anchors[-1][0])
        if report.degrees != anchors:
            regression_ok = False
        for (n, c, z, b, h) in report.degrees:
            if not (c == mod.mdim ** n * alg.dim and 0 <= b <= z <= c
                    and h == z - b):
                regression_ok = False
        if name == "A0_1/zero/T=id":
            anchor_ok = [row[4] for row in report.degrees[:3]] == [1, 1, 1]
    _record(9, "cohomology-sanity", bool(anchor_ok) and regression_ok,
            "H0=H1=H2=1 on the trivial fixture; regression anchors exact")


def test_criterion_10_skew_symmetrization_square(a2, m_a2, a2_plus_a1,
                                                 m_a2_plus_a1,
                                                 noncommutative_rb):
    rng = random.Random(30010)
    pairs = [(a2, m_a2), (a2_plus_a1, m_a2_plus_a1)]
    alg_nc, mod_nc, _ = noncommutative_rb
    pairs.append((alg_nc, mod_nc))
    ok = True
    for alg, mod in pairs:
        for degree in (0, 1):
            for _ in range(4):
                size = alg.dim ** degree * mod.mdim
                f = Cochain(degree, alg.dim, mod.mdim,
                            [Fraction(rng.randint(-2, 2))
                             for _ in range(size)])
                if not hochschild_to_ce_morphism_check(alg, mod, f):
                    ok = False
    _record(10, "skew-symmetrization-square", ok)


def test_criterion_11_deformation_suite(a2, m_a2, e21, rb_pairs):
    rng = random.Random(30011)
    ident = Matrix.identity(2)
    structures = [(a2, m_a2, e21, e21), (a2, m_a2, ident, ident),
                  (a2, m_a2, ident.scale(3), ident.scale(3))]
    ledger_ok = True
    closed_ok = True
    powers_ok = True
    for alg, mod, n_op, s_op in structures:
        defo = trivial_deformation_from(alg, mod, n_op, s_op)
        if not is_valid_deformation(alg, mod, defo):
            ledger_ok = False
        if not all(trivial_deformation_ledger(alg, mod, n_op, s_op,
                                              defo).values()):
            ledger_ok = False
        if is_valid_deformation(alg, mod, defo) \
                and not is_closed_2cochain(alg, mod, defo):
            closed_ok = False
        for i in (1, 2, 3):
            if not nijenhuis_structure_powers(alg, mod, n_op, s_op, i):
                powers_ok = False
    dual_ok = True
    samples = 0
    for alg, mod in rb_pairs:
        for _ in range(24):
            n_op = random_matrix(rng, alg.dim, alg.dim)
            s_op = random_matrix(rng, mod.mdim, mod.mdim)
            report = is_nijenhuis_structure(alg, mod, n_op, s_op)
            samples += 1
            if report.notes["primary_semidirect"] \
                    != report.notes["secondary_componentwise"]:
                dual_ok = False
    _record(11, "deformation-suite",
            ledger_ok and closed_ok and powers_ok and dual_ok
            and samples >= 100,
            f"{samples} random operator pairs")


def test_criterion_12_on_structures(a2, m_a2, t_inv, t_nil, a0_2, m_a0_2,
                                    a2_plus_a1, m_a2_plus_a1):
    ident2 = Matrix.identity(2)
    corpus = [(a2, m_a2, t_inv, ident2, ident2),
              (a2, m_a2, t_nil, ident2, ident2),
              (a2, m_a2, Matrix.zeros(2, 2), ident2, ident2),
              (a0_2, m_a0_2, Matrix.from_rows([[1, 2], [3, 4]]), ident2, ident2),
              (a2_plus_a1, m_a2_plus_a1,
               Matrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 0]]),
               Matrix.identity(3), Matrix.identity(3))]
    base, alg_op, mod_op = on_from_compatible(a2, m_a2, t_nil, t_inv)
    corpus.append((a2, m_a2, base, alg_op, mod_op))
    suite_ok = True
    for alg, mod, op, n_op, s_op in corpus:
        if not is_on_structure(alg, mod, op, n_op, s_op).ok:
            suite_ok = False
        if lemma_tilde_star_check(alg, mod, op, n_op, s_op) != (True, True):
            suite_ok = False
        if not all(deformed_rb_suite(alg, mod, op, n_op, s_op).values()):
            suite_ok = False
    scalar_ok = True
    for lam in (1, 2, -1):
        t1 = t_inv.scale(lam)
        b, n_op, s_op = on_from_compatible(a2, m_a2, t1, t_inv)
        if not is_on_structure(a2, m_a2, b, n_op, s_op).ok:
            scalar_ok = False
        if n_op @ b != t1:
            scalar_ok = False
    direction_ok = True
    for t1, t2 in [(t_nil, t_inv), (t_inv.scale(2), t_inv),
                   (t_inv.scale(-1), t_inv)]:
        if not are_compatible_rb(a2, m_a2, t1, t2):
            direction_ok = False
            continue
        _, report = nijenhuis_from_compatible(a2, m_a2, t1, t2)
        if not report.ok:
            direction_ok = False
        if t1.inverse() is not None and not are_compatible_rb(a2, m_a2, t1, t2):
            direction_ok = False
    _record(12, "on-structure-suite", suite_ok and scalar_ok and direction_ok,
            f"{len(corpus)} corpus triples")


def test_criterion_13_cli_contract(tmp_path, a2, m_a2, t_inv, na2):
    from antiflex.cli import main
    from antiflex.document import WorkspaceDocument

    doc = WorkspaceDocument(a2, None, m_a2, None, {"T": t_inv}, None)
    good = tmp_path / "good.json"
    good.write_text(render_document(doc), encoding="utf-8")
    text = good.read_text(encoding="utf-8")
    roundtrip_ok = render_document(parse_document(text)) == text

    bad_doc = WorkspaceDocument(na2, None, None, None, {}, None)
    failing = tmp_path / "failing.json"
    failing.write_text(render_document(bad_doc), encoding="utf-8")
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{\"field\": \"Q\"", encoding="utf-8")

    status_pass = main(["--fixture", str(good), "check", "rb", "--op", "T"])
    status_fail = main(["--fixture", str(failing), "check", "algebra"])
    status_error = main(["--fixture", str(malformed), "check", "algebra"])
    _record(13, "cli-contract",
            roundtrip_ok and (status_pass, status_fail, status_error)
            == (0, 1, 2),
            f"statuses {(status_pass, status_fail, status_error)}")
