"""The direct routes of `MultiMap.evaluate`, `rb_morphism_graph_check`, the
Nijenhuis-structure report with its S^2-variant notes, the twists phi/psi
and l~/r~, the Nijenhuis-structure powers, the trivial-deformation ledger,
`deform verify`, `deform generate` and the search predicates against their
slow forms in `tests/slow_routes.py`, on the fixture corpus, on
ON-structures and on seeded random inputs; each verdict and note takes both
values somewhere."""

import argparse
import collections
import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest

import antiflex
from antiflex.algebra import Algebra, _semidirect_product, deformed_product
from antiflex.bimodule import (_image_actions, _tilde_bimodule,
                               _twisted_actions, regular_bimodule,
                               tilde_bimodule, zero_bimodule)
from antiflex.cli import Report, _deform_generate
from antiflex.deformation import (InfinitesimalDeformation,
                                  _closed_and_valid, _nijenhuis_structure,
                                  _structure_power, _trivial_deformation,
                                  _variant_s_squared, is_closed_2cochain,
                                  is_nijenhuis_structure, is_valid_deformation,
                                  trivial_deformation_ledger)
from antiflex.document import (WorkspaceDocument, _document_object,
                               load_document)
from antiflex.glie import Cochain
from antiflex.linalg import LinAlgError, Matrix, MultiMap
from antiflex.onstruct import (deformed_rb_suite, is_on_structure,
                               lemma_tilde_star_check, on_from_compatible)
from antiflex.operators import (_star_product, is_rota_baxter,
                                rb_morphism_graph_check)
from antiflex.search import (algebra_predicate, operator_predicate,
                             search_algebras, search_operators)
from tests.conftest import random_matrix
from tests.test_cli import frac_fixture  # noqa: F401  (a fixture)
from tests.test_int_views import transport
from tests.slow_routes import (algebra_predicate_dispatched,
                               deform_generate_each, evaluate_all_tuples,
                               graph_check_direct_sum, graph_check_fractions,
                               ledger_rederived,
                               nijenhuis_structure_each,
                               operator_predicate_dispatched,
                               search_operators_each,
                               structure_power_oracle, tilde_bimodule_each,
                               twisted_actions_each,
                               variant_s_squared_displayed, verify_rebuilt)

VALUES = (-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 4))


def _entries(rng, n, kind):
    """n coefficients: all zero, about one in four nonzero, or all nonzero."""
    if kind == "zero":
        return [Fraction(0)] * n
    if kind == "sparse":
        return [rng.choice(VALUES) if rng.random() < 0.25 else Fraction(0)
                for _ in range(n)]
    return [Fraction(rng.choice(VALUES)) for _ in range(n)]


def _same(got, want):
    assert got == want
    assert all(type(x) is Fraction for x in got)


@pytest.fixture(scope="module")
def swept_structures():
    """(alg, mod, N, S): a seeded sample of operator pairs from the
    Nijenhuis operators of every 7th dim-2 anti-flexible algebra over
    {-1, 0, 1} with its regular bimodule."""
    rng = random.Random(1207)
    out = []
    for alg in search_algebras(2, [-1, 0, 1], ["anti-flexible"])[::7]:
        mod = regular_bimodule(alg)
        ops = search_operators(alg, None, [-1, 0, 1], ["nijenhuis"],
                               shape="algebra-endo")
        out += [(alg, mod, rng.choice(ops), rng.choice(ops))
                for _ in range(4)]
    return out


@pytest.fixture(scope="module")
def pair_sample(rb_pairs, swept_structures):
    """Random operator pairs on the fixture pairs, then the swept sample."""
    rng = random.Random(1208)
    out = []
    for alg, mod in rb_pairs:
        out.append((alg, mod, Matrix.identity(alg.dim),
                    Matrix.identity(mod.mdim)))
        out += [(alg, mod, random_matrix(rng, alg.dim, alg.dim, -1, 1),
                 random_matrix(rng, mod.mdim, mod.mdim, -1, 1))
                for _ in range(6)]
    return out + swept_structures


@pytest.fixture(scope="module")
def on_corpus(a2, m_a2, swept_structures):
    """(alg, mod, T, N, S) ON-structures: (T2, T1 T2^-1, T2^-1 T1) from each
    compatible pair of Rota-Baxter operators on A2 over {-1, 0, 1, 2} with
    T2 invertible, and (0, N, S) for each Nijenhuis structure (N, S) of the
    swept sample (with T = 0 every other condition holds)."""
    out = []
    rbs = search_operators(a2, m_a2, [-1, 0, 1, 2], ["rota-baxter"])
    for t1, t2 in itertools.product(rbs, rbs):
        if (t1 != t2 and t2.inverse() is not None
                and is_rota_baxter(a2, m_a2, t1 + t2)):
            out.append((a2, m_a2, *on_from_compatible(a2, m_a2, t1, t2)))
    for alg, mod, n, s in swept_structures:
        if is_nijenhuis_structure(alg, mod, n, s):
            out.append((alg, mod, Matrix.zeros(alg.dim, mod.mdim), n, s))
    assert all(is_on_structure(*entry) for entry in out)
    return out


def _trivial(alg, mod, n, s):
    """The trivial generator of (n, s) from the twists its structure check
    formed, whether or not (n, s) is a Nijenhuis structure."""
    return _trivial_deformation(alg, mod, n,
                                _nijenhuis_structure(alg, mod, n, s)[2])


def _outcome(fn, *args):
    """fn(*args), or the text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("arity", [0, 1, 2, 3])
def test_evaluate_equals_all_tuples_on_random_maps(arity):
    rng = random.Random(1209 + arity)
    for in_dim, out_dim in ((0, 2), (1, 1), (2, 2), (3, 3), (2, 3), (3, 1)):
        for map_kind in ("zero", "sparse", "dense"):
            data = _entries(rng, in_dim ** arity * out_dim, map_kind)
            mm = (MultiMap(arity, in_dim, data) if in_dim == out_dim
                  else Cochain(arity, in_dim, out_dim, data))
            for _ in range(6):
                args = [_entries(rng, in_dim, rng.choice(
                    ("zero", "sparse", "dense"))) for _ in range(arity)]
                _same(mm.evaluate(*args), evaluate_all_tuples(mm, *args))
                # int coefficients, as callers pass basis vectors
                ints = [tuple(int(x) for x in a) for a in args]
                _same(mm.evaluate(*ints), evaluate_all_tuples(mm, *ints))


def test_evaluate_refuses_as_the_all_tuples_form():
    mm = MultiMap(2, 2, range(8))
    for args in ([(1, 0)], [(1, 0), (1, 0), (1, 0)], [(1, 0), (1, 0, 0)]):
        for fn in (mm.evaluate, lambda *a: evaluate_all_tuples(mm, *a)):
            with pytest.raises(LinAlgError):
                fn(*args)


def test_evaluate_equals_all_tuples_on_the_corpus(rb_pairs, cohomology_corpus):
    rng = random.Random(1210)
    algebras = [alg for alg, _ in rb_pairs]
    algebras += [_semidirect_product(alg, mod) for alg, mod in rb_pairs]
    algebras += [entry[1] for entry in cohomology_corpus]
    for alg in algebras:
        for _ in range(8):
            x = _entries(rng, alg.dim, rng.choice(("zero", "sparse", "dense")))
            y = _entries(rng, alg.dim, rng.choice(("zero", "sparse", "dense")))
            _same(alg.multiply(x, y), evaluate_all_tuples(alg.mul, x, y))


def _morphism_cases(rng, cohomology_corpus, noncommutative_rb, a2, m_a2,
                    a2_plus_a1, m_a2_plus_a1):
    """Morphism checks on the fixture corpus: the identity pair of each
    triple, a pair with a closed graph but T' psi != phi T, the zero pair
    and seeded random pairs, then the inclusion of A2 into A2 + A1."""
    cases = []
    triples = [entry[1:4] for entry in cohomology_corpus]
    for alg, mod, op in [noncommutative_rb] + triples:
        d, md = alg.dim, mod.mdim
        ident_a, ident_m = Matrix.identity(d), Matrix.identity(md)
        bumped = op + Matrix(d, md, [1] + [0] * (d * md - 1))
        cases += [
            (alg, mod, op, alg, mod, op, ident_a, ident_m),
            # closed graph, but T' psi != phi T
            (alg, mod, op, alg, mod, bumped, ident_a, ident_m),
            (alg, mod, op, alg, mod, op, Matrix.zeros(d, d),
             Matrix.zeros(md, md)),
        ]
        cases += [(alg, mod, op, alg, mod, op,
                   random_matrix(rng, d, d, -1, 1),
                   random_matrix(rng, md, md, -1, 1)) for _ in range(4)]
    # into a larger target: the inclusion of A2 into A2 + A1
    incl = Matrix.from_rows([[1, 0], [0, 1], [0, 0]])
    t_blk = Matrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 0]])
    t_inv = Matrix.from_rows([[2, 0], [0, 1]])
    cases += [(a2, m_a2, t_inv, a2_plus_a1, m_a2_plus_a1, t_blk, incl, incl),
              (a2, m_a2, t_inv, a2_plus_a1, m_a2_plus_a1, t_blk,
               random_matrix(rng, 3, 2, -1, 1), incl)]
    return cases


def test_graph_route_equals_the_direct_sum_route(cohomology_corpus,
                                                 noncommutative_rb, a2,
                                                 m_a2, a2_plus_a1,
                                                 m_a2_plus_a1):
    cases = _morphism_cases(random.Random(1211), cohomology_corpus,
                            noncommutative_rb, a2, m_a2, a2_plus_a1,
                            m_a2_plus_a1)
    seen = []
    for case in cases:
        got = rb_morphism_graph_check(*case)
        assert got == graph_check_direct_sum(*case)
        seen.append(got)
    assert seen[1] is False and seen[0] is True
    assert True in seen[3:] and False in seen[3:]


def _seeded_pairs(rng, alg, mod, op, alg2, mod2, op2):
    """(phi, psi) pairs with entries over {-1, 0, 1, 1/2, -2/3}, and the
    pairs (lam id, lam id) into lam T for seeded lam, a morphism exactly
    when lam is 0 or 1 (source and target equal)."""
    values = (-1, 0, 1, Fraction(1, 2), Fraction(-2, 3))
    d, d2, md, md2 = alg.dim, alg2.dim, mod.mdim, mod2.mdim
    cases = [(alg, mod, op, alg2, mod2, op2,
              Matrix(d2, d, [rng.choice(values) for _ in range(d * d2)]),
              Matrix(md2, md, [rng.choice(values) for _ in range(md * md2)]))
             for _ in range(6)]
    if (alg, mod, op) == (alg2, mod2, op2):
        for lam in (0, 1) + tuple(rng.sample(values, 2)):
            cases.append((alg, mod, op, alg, mod, op.scale(lam),
                          Matrix.identity(d).scale(lam),
                          Matrix.identity(md).scale(lam)))
    return cases


def test_int_graph_route_equals_the_fraction_route(
        cohomology_corpus, noncommutative_rb, defect_rb, a2, m_a2, t_inv,
        t_nil, a0_2, m_a0_2, a2_plus_a1, m_a2_plus_a1, frac_fixture):
    """The graph route on ints against its Fraction form: on the fixture
    morphisms, on the morphism of the fractional CLI document and pairs
    near it, and on seeded pairs; each verdict is taken both ways."""
    rng = random.Random(1212)
    cases = _morphism_cases(rng, cohomology_corpus, noncommutative_rb, a2,
                            m_a2, a2_plus_a1, m_a2_plus_a1)
    doc = load_document(frac_fixture)
    ops = doc.operators
    frac = (doc.algebra, doc.bimodule, ops["T"], doc.algebra2, doc.bimodule2,
            ops["T2"])
    phi, psi = ops["phi"], ops["psi"]
    cases += [frac + (phi, psi), frac + (phi.scale(Fraction(1, 2)), psi),
              frac + (phi, psi + Matrix.identity(2).scale(Fraction(1, 3)))]
    # isomorphisms onto copies in other bases of A and of M, with
    # denominators 5 (phi) and 2 (psi)
    p, q = Matrix.from_rows([[2, 1], [1, 3]]), Matrix.from_rows([[1, 1],
                                                                 [0, 2]])
    isos = [(alg, mod, op) + transport(alg, mod, op, p, q)
            + (p.inverse(), q.inverse())
            for alg, mod, op in ((a2, m_a2, t_inv), noncommutative_rb)]
    # on the zero algebra any (phi, psi) passes the action conditions, so
    # it is a morphism exactly when T' psi = phi T
    t = random_matrix(rng, 2, 2)
    psi0 = Matrix.from_rows([[1, 2], [0, Fraction(-1, 3)]])
    phi0 = random_matrix(rng, 2, 2).scale(Fraction(1, 2))
    zero_pair = (a0_2, m_a0_2, t, a0_2, m_a0_2, phi0 @ t @ psi0.inverse())
    cases += isos + [zero_pair + (phi0, psi0),
                     zero_pair + (phi0.scale(2), psi0)]
    seeded = []
    for triples in ((a2, m_a2, t_inv, a2, m_a2, t_nil),
                    (a2, m_a2, t_inv) * 2, noncommutative_rb * 2,
                    defect_rb * 2, zero_pair[:3] * 2,
                    (a2, m_a2, t_inv, a2_plus_a1, m_a2_plus_a1,
                     cohomology_corpus[-1][3])):
        seeded += _seeded_pairs(rng, *triples)
    verdicts = collections.Counter()
    for k, case in enumerate(cases + seeded):
        got = rb_morphism_graph_check(*case)
        assert got is graph_check_fractions(*case), k
        verdicts[(k >= len(cases), got)] += 1
    assert set(verdicts) == {(False, True), (False, False), (True, True),
                             (True, False)}
    assert rb_morphism_graph_check(*frac, phi, psi)
    assert all(rb_morphism_graph_check(*case)
               for case in isos + [zero_pair + (phi0, psi0)])


def test_s_squared_note_equals_the_displayed_form(pair_sample):
    seen = {True: set(), False: set()}
    for alg, mod, n, s in pair_sample:
        acted = _image_actions(mod, n)
        twists = _twisted_actions(mod, acted, s, 1)
        report = is_nijenhuis_structure(alg, mod, n, s)
        for k, (side, use_left) in enumerate((("left", True),
                                              ("right", False))):
            want = variant_s_squared_displayed(mod, n, s, use_left)
            assert _variant_s_squared(acted[k], s, twists[k]) is want
            assert report.notes[f"variant_s_squared_{side}"] is want
            seen[want].add((side, report.ok))
    # both values on both sides, on structures and on other pairs
    for value in (True, False):
        assert seen[value] == {("left", True), ("left", False),
                               ("right", True), ("right", False)}


def test_structure_powers_equal_the_dual_route_verdict(pair_sample):
    seen = set()
    for alg, mod, n, s in pair_sample:
        for power in (1, 2, 3):
            want = structure_power_oracle(alg, mod, n, s, power)
            assert _structure_power(alg, mod, n, s, power) is want
            seen.add((power, want))
    assert seen == {(p, v) for p in (1, 2, 3) for v in (True, False)}


def test_ledger_equals_the_rederived_ledger(pair_sample):
    rng = random.Random(1212)
    seen = {}
    structures = [(alg, mod, n, s) for alg, mod, n, s in pair_sample
                  if is_nijenhuis_structure(alg, mod, n, s)]
    assert len(structures) >= 40
    for alg, mod, n, s in structures:
        trivial = _trivial(alg, mod, n, s)
        d, md = alg.dim, mod.mdim
        bump = Matrix(md, md, [1] + [0] * (md * md - 1))
        defos = [
            trivial,
            InfinitesimalDeformation(
                MultiMap(2, d, [x + (1 if i == 0 else 0)
                                for i, x in enumerate(trivial.omega.data)]),
                trivial.phi, trivial.psi),
            InfinitesimalDeformation(trivial.omega,
                                     (trivial.phi[0] + bump,) + trivial.phi[1:],
                                     trivial.psi),
            InfinitesimalDeformation(trivial.omega, trivial.phi,
                                     trivial.psi[:-1] + (trivial.psi[-1] + bump,)),
            InfinitesimalDeformation(
                MultiMap(2, d, [rng.randint(-1, 1) for _ in range(d ** 3)]),
                [random_matrix(rng, md, md, -1, 1) for _ in range(d)],
                [random_matrix(rng, md, md, -1, 1) for _ in range(d)]),
        ]
        for defo in defos:
            got = trivial_deformation_ledger(alg, mod, n, s, defo)
            assert got == ledger_rederived(alg, mod, n, s, defo)
            for name, value in got.items():
                seen.setdefault(name, set()).add(value)
    assert len(seen) == 6
    assert all(values == {True, False} for values in seen.values()), seen


def test_nijenhuis_structure_report_equals_the_each_form(pair_sample,
                                                        on_corpus):
    """Verdict, violations (law, basis tuple and witness matrix) and notes,
    in order, as when each check formed the actions of the N(e_i) itself."""
    pairs = pair_sample + [(alg, mod, n, s) for alg, mod, _, n, s in on_corpus]
    seen = set()
    for alg, mod, n, s in pairs:
        got = is_nijenhuis_structure(alg, mod, n, s)
        want = nijenhuis_structure_each(alg, mod, n, s)
        assert got == want
        assert list(got.notes.items()) == list(want.notes.items())
        assert [repr(v.residual) for v in got.violations] \
            == [repr(v.residual) for v in want.violations]
        seen.add(got.ok)
        seen.update(("witness", v.residual is not None)
                    for v in got.violations)
        seen.add(("s2 split", got.notes["variant_s_squared_left"]
                  != got.notes["variant_s_squared_right"]))
    assert seen == {True, False, ("witness", True), ("s2 split", True),
                    ("s2 split", False)}


def test_twists_equal_the_each_form(pair_sample, on_corpus):
    """phi/psi of the trivial deformation, and l~/r~ over A_N (or the
    refusal that they are no bimodule there), on every pair."""
    pairs = pair_sample + [(alg, mod, n, s) for alg, mod, _, n, s in on_corpus]
    seen = set()
    for alg, mod, n, s in pairs:
        defo = _trivial(alg, mod, n, s)
        assert (defo.phi, defo.psi) == twisted_actions_each(mod, n, s, 1)
        assert defo.omega == deformed_product(alg, n).mul
        got = _outcome(_tilde_bimodule, mod, n, s, _image_actions(mod, n))
        want = _outcome(tilde_bimodule_each, mod, n, s)
        assert got == want
        if not isinstance(got, str):
            assert (got.base, got.left, got.right) \
                == (want.base, want.left, want.right)
            assert got.mdim == mod.mdim
        structure = bool(is_nijenhuis_structure(alg, mod, n, s))
        if structure:
            assert _outcome(tilde_bimodule, mod, n, s) == got
        seen.add((structure, isinstance(got, str)))
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


def test_on_twisted_checks_equal_the_each_form(on_corpus):
    """`lemma_tilde_star_check` and `deformed_rb_suite` against the same
    identities on the twist of `tilde_bimodule_each`."""
    seen = set()
    for alg, mod, op, n, s in on_corpus:
        tilde = _outcome(tilde_bimodule_each, mod, n, s)
        if isinstance(tilde, str):
            want_lemma = want_suite = tilde
        else:
            star_tilde = _star_product(tilde, op).mul
            star_s = deformed_product(_star_product(mod, op), s).mul
            star_nt = _star_product(mod, n @ op).mul
            want_lemma = (star_tilde == star_s,
                          star_tilde + star_s == star_nt.scale(2))
            want_suite = {
                "deformed_rb": bool(is_rota_baxter(tilde.base, tilde, op)),
                "composed_rb": bool(is_rota_baxter(alg, mod, n @ op)),
                "compatible": bool(is_rota_baxter(alg, mod, op + n @ op))}
        assert _outcome(lemma_tilde_star_check, alg, mod, op, n, s) \
            == want_lemma
        assert _outcome(deformed_rb_suite, alg, mod, op, n, s) == want_suite
        seen.add(isinstance(tilde, str))
    assert seen == {True, False}


def test_nijenhuis_structure_forms_each_action_once(pair_sample,
                                                    monkeypatch):
    """One `linear_combination` per basis element and side in each
    `is_nijenhuis_structure` call, wherever the package reads it from."""
    real = antiflex.linalg.linear_combination
    calls = []

    def counting(coeffs, terms):
        calls.append(len(terms))
        return real(coeffs, terms)

    for name in dir(antiflex):
        module = getattr(antiflex, name)
        if getattr(module, "linear_combination", None) is real:
            monkeypatch.setattr(module, "linear_combination", counting)
    for alg, mod, n, s in pair_sample:
        calls.clear()
        is_nijenhuis_structure(alg, mod, n, s)
        assert calls == [alg.dim] * (2 * alg.dim)


def test_deform_verify_equals_the_rebuilt_route(pair_sample, on_corpus):
    """(closed, valid) from one [pi, delta], and each public verdict, as
    when each verdict rebuilt pi, delta and its bracket; on the trivial
    generator of every pair (closed; valid or not), with omega bumped, and
    on the zero generator over a 0-dimensional algebra."""
    pairs = pair_sample + [(alg, mod, n, s) for alg, mod, _, n, s in on_corpus]
    cases = []
    for alg, mod, n, s in pairs:
        trivial = _trivial(alg, mod, n, s)
        bump = MultiMap(2, alg.dim, [1] + [0] * (alg.dim ** 3 - 1))
        cases += [(alg, mod, trivial),
                  (alg, mod, InfinitesimalDeformation(
                      trivial.omega + bump, trivial.phi, trivial.psi))]
    empty = Algebra.zero(0)
    cases.append((empty, zero_bimodule(empty, 3),
                  InfinitesimalDeformation.zero(0, 3)))
    seen = set()
    for alg, mod, defo in cases:
        want = verify_rebuilt(alg, mod, defo)
        assert _closed_and_valid(alg, mod, defo) == want
        assert (is_closed_2cochain(alg, mod, defo),
                is_valid_deformation(alg, mod, defo)) == want
        seen.add(want)
    assert seen == {(True, True), (True, False), (False, False)}


def test_deform_generate_equals_the_three_formation_path(pair_sample,
                                                         on_corpus):
    """Verdicts, witnesses, notes, ledger items and the emitted generator of
    `deform generate`, as when the structure check, the generator and the
    ledger each formed the actions, the twists and A_N."""
    pairs = pair_sample + [(alg, mod, n, s) for alg, mod, _, n, s in on_corpus]
    seen = set()
    for alg, mod, n, s in pairs:
        doc = WorkspaceDocument(alg, None, mod, None, {"N": n, "S": s}, None)
        got = Report("deform generate")
        _deform_generate(got, argparse.Namespace(ops="N,S"), doc)
        report, defo, ledger, valid = deform_generate_each(alg, mod, n, s)
        want = Report("deform generate")
        want.from_check("nijenhuis_structure", report)
        if defo is not None:
            for name, ok in ledger.items():
                want.verdict(name, ok)
            want.verdict("valid_deformation", valid)
            want.payload["document"] = _document_object(dataclasses.replace(
                doc, deformation=InfinitesimalDeformation(*defo)))
        assert (got.verdicts, got.witnesses, got.payload) \
            == (want.verdicts, want.witnesses, want.payload)
        assert list(got.verdicts) == list(want.verdicts)
        seen.add((report.ok, valid))
    assert seen == {(False, None), (True, True)}


PREDICATE_GRID = [-1, 0, 2]
FRACTION_GRID = [-1, 0, Fraction(1, 2)]
OPERATOR_NAMES = ("rota-baxter", "nijenhuis", "nonzero", "scalar",
                  "invertible")


def _typed_outcome(check, op):
    """check(op), or the type and text of the ValueError it raises."""
    try:
        return check(op)
    except ValueError as exc:
        return type(exc), str(exc)


def _predicate_values(name, pair, ops):
    """The values of `operator_predicate(name, *pair)` on ops, asserted
    equal to those of its dispatched form, refusals included."""
    got = [_typed_outcome(operator_predicate(name, *pair), op) for op in ops]
    assert got == [_typed_outcome(operator_predicate_dispatched(name, *pair),
                                  op) for op in ops], name
    return got


def test_search_predicates_equal_the_dispatched_forms(a1, a2, m_a2,
                                                      noncommutative_rb):
    """Every predicate name and its "not-" form, built once, against the
    form that reads its name on each application: the same values on
    every candidate of small grids, int and fractional, on operators of
    the wrong shape and in the module-endo frame, the same refusals, and
    the same hits, in order, from the searches."""
    algebras = [Algebra(MultiMap(2, 2, entries)) for entries in
                itertools.islice(itertools.product(PREDICATE_GRID, repeat=8),
                                 0, None, 37)]
    for name in ("anti-flexible", "flexible", "associative", "commutative"):
        for full in (name, "not-" + name):
            got, want = algebra_predicate(full), algebra_predicate_dispatched(full)
            values = [got(alg) for alg in algebras]
            assert values == [want(alg) for alg in algebras]
            assert set(values) == {True, False}
    alg, mod, _ = noncommutative_rb
    fractional = [Matrix(2, 2, e)
                  for e in itertools.product(FRACTION_GRID, repeat=4)]
    rng = random.Random(3101)
    wrong = [Matrix(rows, cols, [rng.choice(FRACTION_GRID)
                                 for _ in range(rows * cols)])
             for rows, cols in ((1, 2), (2, 1), (2, 3), (3, 2), (3, 3))
             for _ in range(6)] + [Matrix.identity(3).scale(Fraction(1, 2))]
    for pair in ((a2, m_a2), (alg, mod)):
        for shape, rows, cols in (("module-to-algebra", 2, 2),
                                  ("algebra-endo", 2, 2)):
            ops = [Matrix(rows, cols, e) for e in
                   itertools.product(PREDICATE_GRID, repeat=rows * cols)]
            for name in OPERATOR_NAMES:
                for full in (name, "not-" + name):
                    assert set(_predicate_values(full, pair, ops)) \
                        == {True, False}, full
            assert search_operators(*pair, PREDICATE_GRID,
                                    ["not-nijenhuis", "invertible"],
                                    shape=shape) \
                == [op for op in ops
                    if not operator_predicate_dispatched("nijenhuis", *pair)(op)
                    and operator_predicate_dispatched("invertible", *pair)(op)]
        # fractional entries: each predicate holds on an operator with den > 1
        for name in OPERATOR_NAMES:
            assert set(_predicate_values("not-" + name, pair, fractional)) \
                == {True, False}, name
            values = _predicate_values(name, pair, fractional)
            assert set(values) == {True, False}, name
            assert any(v and op.den > 1 for op, v in zip(fractional, values))
        # the wrong shape: both laws refuse, and no non-square operator is
        # a scalar or invertible
        for name in ("rota-baxter", "nijenhuis"):
            for full in (name, "not-" + name):
                assert all(value[0] is LinAlgError for value in
                           _predicate_values(full, pair, wrong)), full
        for name in ("nonzero", "scalar", "invertible"):
            for full in (name, "not-" + name):
                values = _predicate_values(full, pair, wrong)
                assert set(values) == {True, False}, full
                if name != "nonzero":
                    assert {v for op, v in zip(wrong, values)
                            if not op.is_square()} \
                        == {full.startswith("not-")}, full
    # the module-endo frame over a bimodule of another dimension
    endo = (a1, zero_bimodule(a1, 2))
    for name in OPERATOR_NAMES:
        for full in (name, "not-" + name):
            values = _predicate_values(full, endo, fractional)
            if name in ("rota-baxter", "nijenhuis"):
                assert all(value[0] is LinAlgError for value in values), full
            else:
                assert set(values) == {True, False}, full
    for predicates in (["not-scalar", "invertible"], ["nonzero", "scalar"],
                       ["nonzero", "rota-baxter"], ["scalar", "nijenhuis"]):
        assert _outcome(functools.partial(search_operators, *endo,
                                          shape="module-endo"),
                        FRACTION_GRID, predicates) \
            == _outcome(functools.partial(search_operators_each, *endo,
                                          shape="module-endo"),
                        FRACTION_GRID, predicates), predicates
    for name in ("rota-baxter", "not-rota-baxter"):
        assert _outcome(operator_predicate(name, a2, None), Matrix.zeros(2, 2)) \
            == _outcome(operator_predicate_dispatched(name, a2, None),
                        Matrix.zeros(2, 2))
    for name in ("bogus", "not-", "not-not-nonzero"):
        assert _outcome(algebra_predicate, name) \
            == _outcome(algebra_predicate_dispatched, name)
        assert _outcome(operator_predicate, name, a2, m_a2) \
            == _outcome(operator_predicate_dispatched, name, a2, m_a2)
    assert search_algebras(2, PREDICATE_GRID, ["anti-flexible",
                                               "not-commutative"], limit=40) \
        == [alg for alg in (Algebra(MultiMap(2, 2, e)) for e in
                            itertools.product(PREDICATE_GRID, repeat=8))
            if algebra_predicate_dispatched("anti-flexible")(alg)
            and algebra_predicate_dispatched("not-commutative")(alg)][:40]
