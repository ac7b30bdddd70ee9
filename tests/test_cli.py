"""CLI contract: commands, exit statuses, machine/human parity."""

import dataclasses
import itertools
import json
import os
from fractions import Fraction

import pytest

from antiflex.cli import main
from antiflex.bimodule import Bimodule
from antiflex.document import (WorkspaceDocument, parse_document,
                               render_document)
from antiflex.linalg import Matrix


@pytest.fixture()
def a2_fixture(tmp_path, a2, m_a2, t_inv, t_nil, e21):
    doc = WorkspaceDocument(
        a2, None, m_a2, None,
        {"T": t_inv,
         "T1": t_nil,
         "N": Matrix.from_rows([[0, 0], ["1/2", 0]]),
         "S": e21,
         "BadN": Matrix.from_rows([[0, 1], [0, 0]])},
        None)
    path = tmp_path / "a2.json"
    path.write_text(render_document(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def pair_fixture(tmp_path, a2, m_a2, t_inv):
    """Two copies of A2 and its regular bimodule, for `check morphism`."""
    from antiflex.algebra import Algebra
    a2f = Algebra(a2.mul, ("f1", "f2"))
    doc = WorkspaceDocument(
        a2, a2f, m_a2, Bimodule(a2f, m_a2.left, m_a2.right, check=False),
        {"T": t_inv, "phi": Matrix.identity(2), "psi": Matrix.identity(2)},
        None)
    path = tmp_path / "pair.json"
    path.write_text(render_document(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def frac_fixture(tmp_path, a2, m_a2, t_inv, e21):
    """The A2 triple of `a2_fixture` in the basis given by the columns of
    p, and again, as the second algebra, in that of q, with the products
    and actions scaled by 1/2, T and T2 by -1/3, and N and S by 1/2: every
    map of the document has entries over mixed denominators (2, 3, 4, 5,
    10, 15 and 20).  phi = psi = q^-1 p carries the first copy onto the
    second."""
    from antiflex.algebra import Algebra
    from tests.test_int_views import transport
    p = Matrix.from_rows([[2, 1], [1, 3]])
    q = Matrix.from_rows([[1, 1], [0, 2]])
    half, third = Fraction(1, 2), Fraction(-1, 3)
    alg, mod, t = transport(a2, m_a2, t_inv, p, p, half, third)
    n = transport(a2, m_a2, Matrix.from_rows([[0, 0], ["1/2", 0]]), p, p,
                  half, half)[2]
    s = transport(a2, m_a2, e21, p, p, half, half)[2]
    alg2, mod2, t2 = transport(a2, m_a2, t_inv, q, q, half, third)
    alg2 = Algebra(alg2.mul, ("f1", "f2"))
    phi = q.inverse() @ p
    doc = WorkspaceDocument(
        alg, alg2, mod, Bimodule(alg2, mod2.left, mod2.right, check=False),
        {"T": t, "T2": t2, "N": n, "S": s, "phi": phi, "psi": phi}, None)
    path = tmp_path / "frac.json"
    path.write_text(render_document(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def s2_fixture(tmp_path):
    """A Nijenhuis structure (N, S) on a non-associative anti-flexible
    algebra with its regular bimodule, on which the S^2-variant notes read
    false on both sides."""
    from antiflex.algebra import Algebra
    from antiflex.bimodule import regular_bimodule
    alg = Algebra.from_products(2, {(0, 0): {0: -1}, (0, 1): {0: -1},
                                    (1, 0): {0: 1}, (1, 1): {0: -1, 1: -1}})
    n = Matrix.from_rows([[-1, 1], [-1, 0]])
    doc = WorkspaceDocument(alg, None, regular_bimodule(alg), None,
                            {"N": n, "S": n}, None)
    path = tmp_path / "s2.json"
    path.write_text(render_document(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def s2_split_fixture(tmp_path):
    """A Nijenhuis structure (N, S), N != S, on a non-associative
    anti-flexible algebra with its regular bimodule, from the seeded sample
    of `test_slow_routes.swept_structures`: its left S^2-variant note reads
    false and its right one true."""
    from antiflex.algebra import Algebra
    from antiflex.bimodule import regular_bimodule
    alg = Algebra.from_products(2, {(0, 0): {0: -1}, (0, 1): {0: 1},
                                    (1, 1): {1: 1}})
    doc = WorkspaceDocument(alg, None, regular_bimodule(alg), None,
                            {"N": Matrix.from_rows([[0, 0], [-1, 0]]),
                             "S": Matrix.from_rows([[0, 0], [0, 1]])}, None)
    path = tmp_path / "s2split.json"
    path.write_text(render_document(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def nc_fixture(tmp_path):
    """A noncommutative anti-flexible algebra with its regular bimodule:
    T is Rota-Baxter but its complex does not square to zero below
    degree 3, Bad is no Rota-Baxter operator, and Wide has the wrong
    shape."""
    from antiflex.algebra import Algebra
    from antiflex.bimodule import regular_bimodule
    alg = Algebra.from_products(2, {(0, 0): {0: -1, 1: -1}, (0, 1): {1: -1}})
    doc = WorkspaceDocument(alg, None, regular_bimodule(alg), None,
                            {"T": Matrix.from_rows([[0, 0], [-1, 0]]),
                             "Bad": Matrix.from_rows([[0, 1], [0, 0]]),
                             "Wide": Matrix.from_rows([[1, 0, 0], [0, 1, 0]])},
                            None)
    path = tmp_path / "nc.json"
    path.write_text(render_document(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def naf_fixture(tmp_path):
    """A non-anti-flexible algebra with a zero bimodule and a Rota-Baxter
    operator T whose induced actions on the algebra are no bimodule."""
    from antiflex.algebra import Algebra
    from antiflex.bimodule import zero_bimodule
    img = {0: -1, 1: -1}
    alg = Algebra.from_products(2, {(0, 0): img, (0, 1): img, (1, 0): img})
    doc = WorkspaceDocument(alg, None, zero_bimodule(alg, 1), None,
                            {"T": Matrix.from_rows([[0], [-1]])}, None)
    path = tmp_path / "naf.json"
    path.write_text(render_document(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def na2_fixture(tmp_path, na2):
    doc = WorkspaceDocument(na2, None, None, None, {}, None)
    path = tmp_path / "na2.json"
    path.write_text(render_document(doc), encoding="utf-8")
    return str(path)


def test_check_algebra_pass(a2_fixture, capsys):
    assert main(["--fixture", a2_fixture, "check", "algebra"]) == 0
    out = capsys.readouterr().out
    assert "anti_flexible" in out and "pass" in out


def test_check_algebra_fail(na2_fixture, capsys):
    assert main(["--fixture", na2_fixture, "check", "algebra"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_malformed_fixture_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"field": "Q", "algebra": {"dim": 1, "basis": ["e"], '
                    '"products": {"e,e": {"e": "1/0"}}}}', encoding="utf-8")
    assert main(["--fixture", str(path), "check", "algebra"]) == 2
    assert "$.algebra.products" in capsys.readouterr().err


A2_RAW = {"dim": 2, "basis": ["e1", "e2"], "products": {"e1,e1": {"e2": 1}}}
M_A2_RAW = {"mdim": 2, "l": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
            "r": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}


@pytest.mark.parametrize("raw, argv, message", [
    ({"field": "Q", "algebra": 1}, ["check", "algebra"],
     "$.algebra: expected an object, got int"),
    ({"field": "Q"}, ["check", "algebra"],
     "$: missing required key 'algebra'"),
    ({"field": "R", "algebra": A2_RAW}, ["check", "algebra"],
     "$.field: only the rational field 'Q' is supported"),
    ({"field": "Q", "algebra": A2_RAW, "operators": []}, ["check", "algebra"],
     "$.operators: expected an object"),
    ({"field": "Q", "algebra": dict(A2_RAW, products=[])}, ["check", "algebra"],
     "$.algebra.products: expected an object of sparse products"),
    ({"field": "Q", "algebra": dict(A2_RAW, products={"e1,e1": 1})},
     ["check", "algebra"], "$.algebra.products.e1,e1: expected an object"),
    ({"field": "Q", "algebra": dict(A2_RAW, products={"e1,e1": {"e3": 1}})},
     ["check", "algebra"], "$.algebra.products.e1,e1.e3: unknown basis label"),
    ({"field": "Q", "algebra": dict(A2_RAW, basis=["e1"])}, ["check", "algebra"],
     "$.algebra.basis: expected 2 string labels"),
    ({"field": "Q", "algebra": A2_RAW,
      "bimodule": dict(M_A2_RAW, l=[[[0, 0]], [[0, 0], [0, 0]]])},
     ["check", "algebra"], "$.bimodule.l[0]: expected 2 rows, got 1"),
    ({"field": "Q", "algebra": A2_RAW}, ["mc-check"],
     "document has no bimodule section"),
    ({"field": "Q", "algebra": A2_RAW,
      "bimodule": dict(M_A2_RAW, l=[[[1, 0], [0, 1]], [[0, 0], [0, 0]]]),
      "operators": {"T": [[0, 0], [0, 0]]}}, ["check", "rb", "--op", "T"],
     "bimodule section fails the bimodule axioms: bimodule: FAIL - "
     "l(ab)-l(a)l(b) = r(a)r(b)-r(ba) fails at basis tuple (0, 0): "
     "residual Matrix(2x2: -1 0; 0 -1)"),
])
def test_a_refused_document_is_exit_2_with_its_message(tmp_path, capsys,
                                                       raw, argv, message):
    """Each refusal of a malformed document, or of a section a command
    needs, exits 2 with its one-line message and no traceback."""
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["--fixture", str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_check_morphism_fails_on_a_map_that_is_no_algebra_morphism(
        tmp_path, capsys):
    """phi = diag(1, 2) on A2 sends e1.e1 = e2 to 2 e2 but e1 to e1: the
    morphism check fails first at its algebra law, with no residual, and
    the graph route agrees."""
    raw = {"field": "Q", "algebra": A2_RAW, "bimodule": M_A2_RAW,
           "algebra2": {"dim": 2, "basis": ["f1", "f2"],
                        "products": {"f1,f1": {"f2": 1}}},
           "bimodule2": M_A2_RAW,
           "operators": {"P": [[1, 0], [0, 2]], "I": [[1, 0], [0, 1]],
                         "Z": [[0, 0], [0, 0]]}}
    path = tmp_path / "morphism.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["--fixture", str(path), "--json", "check", "morphism",
                 "--ops", "P,I,Z,Z"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["verdicts"]["rb_morphism"]["ok"] is False
    assert data["verdicts"]["graph_route_agrees"]["ok"] is True
    assert data["witnesses"] == [{"law": "phi(a.b) = phi(a).phi(b)",
                                  "at": [], "residual": None}]


def test_oversized_integer_is_exit_2(tmp_path, capsys):
    """An integer literal past Python's 4,300-digit limit is a document
    error at "$", not an error without a path."""
    path = tmp_path / "huge.json"
    path.write_text('{"field": "Q", "algebra": {"dim": 1, "basis": ["e"], '
                    '"products": {"e,e": {"e": ' + "7" * 5000 + '}}}}',
                    encoding="utf-8")
    assert main(["--fixture", str(path), "check", "algebra"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: $: invalid JSON: ")


def test_over_bound_dim_is_exit_2_at_once(tmp_path, capsys):
    """A short document asking for a million-dimensional algebra is refused
    at its dim before any product table is allocated."""
    import time
    raw = {"field": "Q",
           "algebra": {"dim": 10 ** 6, "basis": ["e1", "e2"],
                       "products": {"e1,e1": {"e2": 1}}},
           "operators": {"T": [[1, 0], [0, 1]]}}
    path = tmp_path / "huge_dim.json"
    path.write_text(json.dumps(raw, indent=1), encoding="utf-8")
    assert path.stat().st_size < 400
    start = time.perf_counter()
    assert main(["--fixture", str(path), "check", "algebra"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: $.algebra.dim: dim 1000000 ")


def test_deform_generate_checks_the_structure_once(a2_fixture, capsys,
                                                   monkeypatch):
    """The report's check of (N, S) is the only one; the generator is
    built unchecked after it passes.  `is_nijenhuis_structure` is the
    report of `_nijenhuis_structure`, which forms every check of a pair."""
    import antiflex.cli as cli
    import antiflex.deformation as deformation
    original = deformation._nijenhuis_structure
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "_nijenhuis_structure", counted)
    monkeypatch.setattr(deformation, "_nijenhuis_structure", counted)
    assert main(["--fixture", a2_fixture, "deform", "generate",
                 "--ops", "N,S"]) == 0
    assert len(calls) == 1


def _count_calls(monkeypatch, name, modules, keep=lambda *args: True):
    """Wrap `name` in each module that binds it; the list of the argument
    tuples of the calls that `keep` accepts."""
    import importlib
    calls = []
    original = getattr(importlib.import_module(modules[0]), name)

    def counted(*args, **kwargs):
        if keep(*args):
            calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        module = importlib.import_module(module)
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


PACKAGE = [f"antiflex.{name}" for name in (
    "algebra", "bimodule", "cli", "cohomology", "deformation", "document",
    "glie", "onstruct", "operators", "search")]


def test_anti_flexibility_alone_is_read_from_the_half_sweep(
        a2_fixture, a2, na2, e21, capsys, monkeypatch):
    """`mc-check`, `commutator_lie` and `nijenhuis_power_suite` read only
    whether an algebra is anti-flexible, from `anti_flexible_report`, and
    make no full `classify` sweep; `check algebra`, which reports every
    flag, still makes one."""
    from antiflex.algebra import commutator_lie
    from antiflex.operators import nijenhuis_power_suite
    calls = _count_calls(monkeypatch, "classify",
                         ["antiflex.algebra", *PACKAGE])
    assert main(["--fixture", a2_fixture, "mc-check"]) == 0
    assert commutator_lie(a2).dim == 2
    with pytest.raises(ValueError, match="requires an anti-flexible"):
        commutator_lie(na2)
    assert nijenhuis_power_suite(a2, e21, 1, 2)["deformed_anti_flexible"]
    assert calls == []
    assert main(["--fixture", a2_fixture, "check", "algebra"]) == 0
    assert len(calls) == 1


def test_deform_verify_brackets_pi_and_delta_once(
        deformed_fixture, closed_fixture, unclosed_fixture, empty_fixture,
        capsys, monkeypatch):
    """One [pi, delta] serves both verdicts, and pi and delta are each
    formed once: one structure element of the document's bimodule and one
    of the generator's."""
    from antiflex.glie import _structure_element
    brackets = _count_calls(monkeypatch, "graded_bracket",
                            ["antiflex.glie", *PACKAGE])
    elements = _count_calls(monkeypatch, "_structure_element",
                            ["antiflex.glie", *PACKAGE])
    for path, status in ((deformed_fixture, 0), (closed_fixture, 1),
                         (unclosed_fixture, 1), (empty_fixture, 0)):
        brackets.clear()
        elements.clear()
        assert main(["--fixture", path, "deform", "verify"]) == status
        assert len(brackets) == 1
        (mod,), (action,) = elements
        assert type(mod).__name__ == type(action).__name__ == "Bimodule"
        assert mod is not action
        assert brackets[0][:2] == (_structure_element(mod),
                                   _structure_element(action))


def test_cohomology_sweeps_the_rota_baxter_identity_once(
        a2_fixture, nc_fixture, capsys, monkeypatch):
    """`cohomology` sweeps the Rota-Baxter identity once, in the complex
    it builds, whether the complex then passes or fails its check; only an
    operator that fails the identity is swept again, for its witness.
    Every sweep, `is_rota_baxter`'s and the induced view's, is one
    `_rota_baxter_sweep`."""
    calls = _count_calls(monkeypatch, "_rota_baxter_sweep",
                         ["antiflex.bimodule", *PACKAGE])
    for path, op, status, sweeps in ((a2_fixture, "T", 0, 1),
                                     (nc_fixture, "T", 1, 1),
                                     (nc_fixture, "Bad", 1, 2)):
        calls.clear()
        assert main(["--fixture", path, "cohomology", "--op", op]) == status
        assert len(calls) == sweeps


def test_mc_check_forms_pi_from_the_documents_bimodule(a2, m_a2,
                                                       monkeypatch):
    """`mc-check` forms pi once, from the document's own bimodule: its
    integer view, and its module dimension over a 0-dimensional algebra."""
    import argparse

    from antiflex.algebra import Algebra
    from antiflex.bimodule import zero_bimodule
    from antiflex.cli import Report, _mc_check
    elements = _count_calls(monkeypatch, "_structure_element",
                            ["antiflex.glie", *PACKAGE])
    empty = Algebra.zero(0)
    for alg, mod in ((a2, m_a2), (empty, zero_bimodule(empty, 3))):
        elements.clear()
        report = Report("mc-check")
        _mc_check(report, argparse.Namespace(),
                  WorkspaceDocument(alg, None, mod, None, {}, None))
        assert report.verdicts["maurer_cartan"]["ok"]
        assert len(elements) == 1 and elements[0][0] is mod
        assert elements[0][0].mdim == mod.mdim


def test_deform_generate_forms_each_piece_once(a2_fixture, s2_fixture,
                                               s2_split_fixture, capsys,
                                               monkeypatch):
    """A successful `deform generate` forms l(N e_i)/r(N e_i), the sign +1
    twists and A_N once; the structure check, the generator and the ledger
    all read them."""
    acted = _count_calls(monkeypatch, "_image_actions",
                         ["antiflex.bimodule", *PACKAGE])
    twists = _count_calls(monkeypatch, "_twisted_actions",
                          ["antiflex.bimodule", *PACKAGE])
    deformed = _count_calls(monkeypatch, "deformed_product",
                            ["antiflex.algebra", *PACKAGE],
                            keep=lambda alg, op: op.rows == alg.dim)
    for path in (a2_fixture, s2_fixture, s2_split_fixture):
        for calls in (acted, twists, deformed):
            calls.clear()
        assert main(["--fixture", path, "deform", "generate",
                     "--ops", "N,S"]) == 0
        assert (len(acted), len(twists), len(deformed)) == (1, 1, 1)
        assert twists[0][0] is acted[0][0] and twists[0][3] == 1
        assert deformed[0][1] is acted[0][1]


def test_missing_fixture_is_exit_2(capsys):
    assert main(["--fixture", "/nonexistent.json", "check", "algebra"]) == 2


def test_missing_operator_is_exit_2(a2_fixture, capsys):
    assert main(["--fixture", a2_fixture, "check", "rb", "--op", "nope"]) == 2
    assert "nope" in capsys.readouterr().err


def test_check_rb_and_nijenhuis(a2_fixture, capsys):
    assert main(["--fixture", a2_fixture, "check", "rb", "--op", "T"]) == 0
    assert main(["--fixture", a2_fixture, "check", "nijenhuis", "--op", "N"]) == 0
    assert main(["--fixture", a2_fixture, "check", "nijenhuis",
                 "--op", "BadN"]) == 1


def test_check_nij_structure_and_on(a2_fixture):
    assert main(["--fixture", a2_fixture, "check", "nij-structure",
                 "--ops", "N,S", "--power-cap", "3"]) == 0
    assert main(["--fixture", a2_fixture, "check", "on",
                 "--ops", "T,N,S", "--power-cap", "2"]) == 0


def test_mc_check(a2_fixture):
    assert main(["--fixture", a2_fixture, "mc-check"]) == 0


def test_cohomology_command(a2_fixture, capsys):
    assert main(["--fixture", a2_fixture, "--json", "cohomology",
                 "--op", "T", "--max-degree", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    dims = data["payload"]["dimensions"]
    assert dims[0] == {"degree": 0, "c": 2, "z": 2, "b": 0, "h": 2}


@pytest.mark.parametrize("degree", ["-1", "7"])
def test_cohomology_refuses_degree_out_of_range(a2_fixture, degree, capsys):
    assert main(["--fixture", a2_fixture, "cohomology", "--op", "T",
                 "--max-degree", degree]) == 2
    assert "degree" in capsys.readouterr().err


def test_glie_bracket_self(a2_fixture, capsys):
    assert main(["--fixture", a2_fixture, "--json", "glie", "bracket",
                 "--op", "T"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["payload"]["is_zero"] is True


def test_deform_generate_and_verify(a2_fixture, tmp_path, capsys):
    assert main(["--fixture", a2_fixture, "--json", "deform", "generate",
                 "--ops", "N,S"]) == 0
    data = json.loads(capsys.readouterr().out)
    emitted = data["payload"]["document"]
    path = tmp_path / "deformed.json"
    path.write_text(json.dumps(emitted), encoding="utf-8")
    assert main(["--fixture", str(path), "deform", "verify"]) == 0


def test_json_and_text_verdicts_agree(a2_fixture, capsys):
    assert main(["--fixture", a2_fixture, "--json", "check", "rb",
                 "--op", "T"]) == 0
    machine = json.loads(capsys.readouterr().out)
    assert main(["--fixture", a2_fixture, "check", "rb", "--op", "T"]) == 0
    human = capsys.readouterr().out
    for name, verdict in machine["verdicts"].items():
        assert name in human
        expected = "pass" if verdict["ok"] else "FAIL"
        line = next(l for l in human.splitlines() if name in l)
        assert expected in line


def test_search_command(capsys):
    assert main(["--json", "search", "--kind", "algebra", "--dim", "1",
                 "--coeffs", "0,1", "--predicates", "anti-flexible"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["payload"]["count"] == 2


def test_search_operator_command(a2_fixture, capsys):
    assert main(["--fixture", a2_fixture, "--json", "search", "--kind",
                 "operator", "--predicates", "rota-baxter,nonzero",
                 "--limit", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["payload"]["count"] == 3


def test_cohomology_reports_complex_failure(tmp_path, defect_rb, capsys):
    alg, mod, op = defect_rb
    doc = WorkspaceDocument(alg, None, mod, None, {"T": op}, None)
    path = tmp_path / "defect.json"
    path.write_text(render_document(doc), encoding="utf-8")
    assert main(["--fixture", str(path), "--json", "cohomology", "--op", "T",
                 "--max-degree", "2"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["verdicts"]["complex_property"]["ok"] is False
    assert "complex_error" in data["payload"]


def test_cohomology_refuses_non_anti_flexible_base(tmp_path, capsys):
    from antiflex.algebra import Algebra
    alg = Algebra.from_products(2, {(0, 1): {1: 1}})
    zero = Matrix.zeros(1, 1)
    doc = WorkspaceDocument(
        alg, None, Bimodule(alg, [zero, zero], [zero, zero], check=False), None,
        {"T": Matrix.from_rows([[1], [0]])}, None)
    path = tmp_path / "not_anti_flexible.json"
    path.write_text(render_document(doc), encoding="utf-8")
    assert main(["--fixture", str(path), "cohomology", "--op", "T",
                 "--max-degree", "1"]) == 2
    assert "error: not a bimodule: " in capsys.readouterr().err


def test_deform_verify_rejects_invalid_generator(tmp_path, a2, m_a2):
    from antiflex.deformation import InfinitesimalDeformation
    from antiflex.linalg import MultiMap
    bad_omega = MultiMap(2, 2, [1] + [0] * 7)
    doc = WorkspaceDocument(
        a2, None, m_a2, None, {},
        InfinitesimalDeformation(bad_omega, (Matrix.zeros(2, 2),) * 2,
                                 (Matrix.zeros(2, 2),) * 2))
    path = tmp_path / "bad_deform.json"
    path.write_text(render_document(doc), encoding="utf-8")
    assert main(["--fixture", str(path), "deform", "verify"]) == 1


def test_a_structure_check_forms_few_fractions(frac_fixture, capsys,
                                               monkeypatch):
    """Matrices are ints over one denominator, so a check forms Fractions
    only where it reads or writes them.  `check nij-structure --power-cap
    3` on the document over mixed denominators constructed 965 Fractions
    when matrices stored Fractions, and 115 once they stored ints; the
    bound is half the first count."""
    original = Fraction.__new__
    built = []

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    status = main(["--fixture", frac_fixture, "check", "nij-structure",
                   "--ops", "N,S", "--power-cap", "3"])
    monkeypatch.undo()
    assert status == 0
    assert "powers_3             pass" in capsys.readouterr().out
    assert 0 < len(built) <= 965 // 2


def test_check_morphism_command(pair_fixture):
    assert main(["--fixture", pair_fixture, "check", "morphism",
                 "--ops", "phi,psi,T,T"]) == 0


def test_fixture_roundtrip_byte_identical(a2_fixture):
    text = open(a2_fixture, encoding="utf-8").read()
    assert render_document(parse_document(text)) == text


def test_check_bimodule_on_a_zero_dimensional_module(tmp_path, a2, capsys):
    from antiflex.bimodule import zero_bimodule
    mod = zero_bimodule(a2, 0)
    doc = WorkspaceDocument(a2, None, mod, None, {}, None)
    path = tmp_path / "mdim0.json"
    path.write_text(render_document(doc), encoding="utf-8")
    assert main(["--json", "--fixture", str(path), "check", "bimodule"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdicts == {"bimodule_axioms": {"ok": True, "asserted": True}}


def test_console_script_runs(a2_fixture):
    import os
    import subprocess
    import sys

    import antiflex
    # run the package this test imported, however pytest found it
    root = os.path.dirname(os.path.dirname(antiflex.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "antiflex", "--fixture", a2_fixture,
         "check", "algebra"], capture_output=True, text=True, env=env)
    assert result.returncode == 0


def test_search_limit_zero_and_negative(capsys):
    argv = ["--json", "search", "--kind", "algebra", "--dim", "1",
            "--predicates", "anti-flexible"]
    assert main(argv + ["--limit", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["count"] == 0
    assert main(argv + ["--limit", "-3"]) == 2
    assert "limit" in capsys.readouterr().err


def test_search_negative_dim_is_refused(capsys):
    assert main(["search", "--kind", "algebra", "--dim", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: search dimension must be nonnegative, got -1\n"


def test_nij_structure_power_cap_is_bounded(a2_fixture, capsys):
    """A cap out of range is refused before the pair is checked, so a
    failing pair (BadN, S) does not hide it."""
    for ops, cap in (("N,S", "4"), ("BadN,S", "9")):
        argv = ["--fixture", a2_fixture, "check", "nij-structure", "--ops", ops]
        assert main(argv + ["--power-cap", cap]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: power must lie in [1, 3]\n"
        assert main(argv + ["--power-cap", "-1"]) == 2
        assert "--power-cap" in capsys.readouterr().err


def test_on_negative_power_cap_is_exit_2(a2_fixture, capsys):
    assert main(["--fixture", a2_fixture, "check", "on", "--ops", "T,N,S",
                 "--power-cap", "-2"]) == 2
    assert "--power-cap" in capsys.readouterr().err


def test_nij_structure_powers_verify_the_pair_once(a2_fixture, capsys,
                                                   monkeypatch):
    import antiflex.cli
    import antiflex.deformation
    from tests.slow_routes import structure_power_oracle

    checked, decided = [], []
    real = antiflex.deformation.is_nijenhuis_structure
    real_power = antiflex.deformation._structure_power

    def counting(alg, mod, alg_op, mod_op):
        checked.append((alg_op, mod_op))
        return real(alg, mod, alg_op, mod_op)

    def counting_power(alg, mod, alg_op, mod_op, power):
        verdict = real_power(alg, mod, alg_op, mod_op, power)
        decided.append((power, verdict,
                        structure_power_oracle(alg, mod, alg_op, mod_op,
                                               power)))
        return verdict

    monkeypatch.setattr(antiflex.deformation, "is_nijenhuis_structure", counting)
    monkeypatch.setattr(antiflex.cli, "is_nijenhuis_structure", counting)
    monkeypatch.setattr(antiflex.cli, "_structure_power", counting_power)
    assert main(["--json", "--fixture", a2_fixture, "check", "nij-structure",
                 "--ops", "N,S", "--power-cap", "3"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdicts["powers_2"]["ok"] and verdicts["powers_3"]["ok"]
    # the pair itself, once
    assert len(checked) == 1
    # (N^2, S^2) and (N^3, S^3), each decided once, as the oracle decides
    assert [power for power, _, _ in decided] == [2, 3]
    assert all(verdict is oracle for _, verdict, oracle in decided)


def test_on_power_sweep_verifies_the_triple_once(a2_fixture, capsys,
                                                 monkeypatch):
    import antiflex.cli
    import antiflex.onstruct

    checked = []
    real = antiflex.onstruct.is_on_structure

    def counting(*args):
        checked.append(args)
        return real(*args)

    monkeypatch.setattr(antiflex.onstruct, "is_on_structure", counting)
    monkeypatch.setattr(antiflex.cli, "is_on_structure", counting)
    argv = ["--fixture", a2_fixture, "check", "on", "--ops", "T,N,S"]
    assert main(["--json"] + argv + ["--power-cap", "2"]) == 0
    sweep = json.loads(capsys.readouterr().out)["payload"]["power_sweep"]
    assert sorted(sweep) == ["0,1", "0,2", "1,2"]
    assert len(checked) == 1
    # the bound of the sweep is still enforced, before any triple is
    # checked, so the failing (T, BadN, S) does not hide it
    for ops in ("T,N,S", "T,BadN,S"):
        assert main(argv[:-1] + [ops, "--power-cap", "5"]) == 2
        assert "power sweep bound" in capsys.readouterr().err
    assert len(checked) == 1


@pytest.mark.parametrize("section, key", [("algebra", "dim"),
                                          ("bimodule", "mdim")])
def test_boolean_dimension_is_exit_2(tmp_path, capsys, section, key):
    raw = {"field": "Q", "algebra": {"dim": 1, "basis": ["e"], "products": {}},
           "bimodule": {"mdim": 1, "l": [[[0]]], "r": [[[0]]]}}
    raw[section][key] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["--fixture", str(path), "check", "algebra"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: $.{section}.{key}: "
                            "expected a nonnegative integer\n")


def test_one_parser_serves_every_call(a2_fixture, tmp_path, capsys,
                                      monkeypatch):
    """`main` reuses one parser per process; a run of different commands,
    argument errors among them, prints and exits exactly as the same run
    with a fresh parser per call does."""
    import antiflex.cli as cli

    # a fixed clock, so that elapsed_ms is the same in both runs
    monkeypatch.setattr(cli, "time", type("Clock", (), {
        "perf_counter": staticmethod(lambda: 0.0)}))
    runs = [["--fixture", a2_fixture, "check", "algebra"],
            ["--fixture", a2_fixture, "--json", "check", "rb", "--op", "T"],
            ["--fixture", a2_fixture, "check", "nijenhuis", "--op", "BadN"],
            ["--fixture", a2_fixture, "cohomology", "--op", "T"],
            ["--fixture", a2_fixture, "check", "bogus"],
            ["--fixture", a2_fixture, "--json", "mc-check"],
            ["search", "--kind", "algebra", "--dim", "1"],
            ["--fixture", a2_fixture, "glie", "bracket", "--op", "T"],
            ["--fixture", a2_fixture, "check", "rb"],
            ["check"],
            ["--fixture", a2_fixture, "check", "algebra"]]

    def outcomes():
        got = []
        for argv in runs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        return got

    cli._build_parser.cache_clear()
    shared = outcomes()
    assert cli._build_parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert outcomes() == shared
    assert [code for code, _, _ in shared] == [
        0, 0, 1, 0, ("exit", 2), 0, 0, 0, 2, ("exit", 2), 0]


def test_consecutive_loads_of_one_document_parse_it_once(
        a2_fixture, pair_fixture, deformed_fixture, s2_fixture,
        s2_split_fixture, closed_fixture, unclosed_fixture, empty_fixture,
        frac_fixture, nc_fixture, naf_fixture, capsys, monkeypatch):
    """The golden calls print and exit exactly as they do with a fresh
    parse per load, and parse each run of loads of one text once."""
    import antiflex.document as document
    with open(GOLDEN, encoding="utf-8") as handle:
        argvs = [entry["argv"] for entry in json.load(handle)]
    paths = {"a2": a2_fixture, "pair": pair_fixture,
             "deformed": deformed_fixture, "s2": s2_fixture,
             "s2split": s2_split_fixture, "closed": closed_fixture,
             "unclosed": unclosed_fixture, "empty": empty_fixture,
             "frac": frac_fixture, "nc": nc_fixture, "naf": naf_fixture}
    parsed = []

    def counting(text, parse=document.parse_document):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(document, "parse_document", counting)
    document._parsed.cache_clear()
    shared = cli_outcomes(argvs, paths, capsys, monkeypatch)
    once, parsed[:] = parsed[:], []
    monkeypatch.setattr(document, "_parsed", document._parsed.__wrapped__)
    assert cli_outcomes(argvs, paths, capsys, monkeypatch) == shared
    assert once == [text for text, _ in itertools.groupby(parsed)]
    assert len(once) < len(parsed)


def test_an_edited_document_is_read_again(a2_fixture):
    """Rewriting the file between two calls gives the new verdict: T made
    the identity, which fails the Rota-Baxter law on A2."""
    argv = ["--fixture", a2_fixture, "check", "rb", "--op", "T"]
    assert main(argv) == 0
    with open(a2_fixture, encoding="utf-8") as handle:
        raw = json.load(handle)
    raw["operators"]["T"] = [[1, 0], [0, 1]]
    with open(a2_fixture, "w", encoding="utf-8") as handle:
        json.dump(raw, handle)
    assert main(argv) == 1


def test_a_malformed_document_is_refused_on_every_read(a2_fixture, tmp_path,
                                                       capsys):
    path = tmp_path / "doc.json"
    path.write_text('{"field": "Q"', encoding="utf-8")
    argv = ["--fixture", str(path), "check", "algebra"]
    errors = []
    for _ in range(2):
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and errors[0].startswith("error: $: ")
    with open(a2_fixture, encoding="utf-8") as handle:
        path.write_text(handle.read(), encoding="utf-8")
    assert main(argv) == 0


def test_loads_of_an_unchanged_file_share_one_document(a2_fixture,
                                                       pair_fixture):
    """`load_document` keeps the last text's document, and only that one;
    `parse_document` builds a new document on every call."""
    from antiflex.document import load_document
    first = load_document(a2_fixture)
    assert load_document(a2_fixture) is first
    assert load_document(pair_fixture) is not first
    assert load_document(a2_fixture) is not first
    with open(a2_fixture, encoding="utf-8") as handle:
        text = handle.read()
    assert parse_document(text) is not parse_document(text)
    assert render_document(parse_document(text)) == render_document(first)


def test_a_loaded_document_cannot_be_changed(a2_fixture, t_inv):
    from antiflex.document import load_document
    doc = load_document(a2_fixture)
    with pytest.raises(dataclasses.FrozenInstanceError):
        doc.bimodule = None
    with pytest.raises(TypeError):
        doc.operators["T"] = t_inv
    with pytest.raises(TypeError):
        del doc.operators["T"]
    assert sorted(doc.operators) == ["BadN", "N", "S", "T", "T1"]


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")


def cli_outcomes(argvs, paths, capsys, monkeypatch):
    """[status, stdout, stderr] of `main` on each argv, with the clock fixed
    so that `elapsed_ms` reads 0.0.  A "{name}" argument stands for the path
    of document `name`, and those paths read back as "{name}" in the
    output.  An argparse refusal reads as status ["exit", code]."""
    import antiflex.cli as cli

    monkeypatch.setattr(cli, "time", type("Clock", (), {
        "perf_counter": staticmethod(lambda: 0.0)}))
    got = []
    for argv in argvs:
        try:
            status = main([paths.get(arg[1:-1], arg) if arg.startswith("{")
                           else arg for arg in argv])
        except SystemExit as exc:
            status = ["exit", exc.code]
        captured = capsys.readouterr()
        out, err = captured.out, captured.err
        for name, path in paths.items():
            out = out.replace(path, "{%s}" % name)
            err = err.replace(path, "{%s}" % name)
        got.append([status, out, err])
    return got


@pytest.fixture()
def deformed_fixture(tmp_path, a2, m_a2, e21):
    """The A2 document carrying the trivial deformation of (N, S)."""
    from antiflex.deformation import trivial_deformation_from
    n = Matrix.from_rows([[0, 0], ["1/2", 0]])
    doc = WorkspaceDocument(a2, None, m_a2, None, {"N": n, "S": e21},
                            trivial_deformation_from(a2, m_a2, n, e21))
    path = tmp_path / "deformed.json"
    path.write_text(render_document(doc), encoding="utf-8")
    return str(path)


def _generator_fixture(path, alg, mod, omega, phi, psi):
    from antiflex.deformation import InfinitesimalDeformation
    doc = WorkspaceDocument(alg, None, mod, None, {},
                            InfinitesimalDeformation(omega, phi, psi))
    path.write_text(render_document(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def closed_fixture(tmp_path, a2, m_a2):
    """The A2 document carrying [pi, N + S] for N = S = e12, which is no
    Nijenhuis structure: a closed generator that is not valid."""
    from antiflex.algebra import Algebra
    omega = Algebra.from_products(2, {(0, 0): {0: -1}, (0, 1): {1: 1},
                                      (1, 0): {1: 1}}).mul
    acts = (Matrix.from_rows([[-1, 0], [0, 1]]),
            Matrix.from_rows([[0, 0], [1, 0]]))
    return _generator_fixture(tmp_path / "closed.json", a2, m_a2, omega,
                              acts, acts)


@pytest.fixture()
def unclosed_fixture(tmp_path, a2, m_a2):
    """The A2 document carrying omega(e1, e1) = e1 with zero actions,
    which is not closed."""
    from antiflex.linalg import MultiMap
    zeros = (Matrix.zeros(2, 2),) * 2
    return _generator_fixture(tmp_path / "unclosed.json", a2, m_a2,
                              MultiMap(2, 2, [1] + [0] * 7), zeros, zeros)


@pytest.fixture()
def empty_fixture(tmp_path):
    """A 0-dimensional algebra with a 3-dimensional zero bimodule and the
    zero generator, which has no matrix to read the module size from."""
    from antiflex.algebra import Algebra
    from antiflex.bimodule import zero_bimodule
    empty = Algebra.zero(0)
    return _generator_fixture(tmp_path / "empty.json", empty,
                              zero_bimodule(empty, 3), empty.mul, (), ())


def test_cli_output_matches_the_golden_record(a2_fixture, pair_fixture,
                                              deformed_fixture, s2_fixture,
                                              s2_split_fixture,
                                              closed_fixture,
                                              unclosed_fixture, empty_fixture,
                                              frac_fixture, nc_fixture,
                                              naf_fixture, capsys,
                                              monkeypatch):
    """Every command and target on the A2, morphism-pair and deformed
    documents, `check nij-structure` and `deform generate` on the two S^2
    documents, `deform verify` on a closed invalid, an unclosed and a
    0-dimensional generator (and `mc-check` on the last), `check morphism`,
    `check nij-structure`, `check on` and `deform generate` on a document
    over mixed denominators, `cohomology` on a complex that fails, on a
    non-Rota-Baxter and a wrong-shape operator and on induced actions that
    are no bimodule, `check rb` on operators that fail the law with an
    integer and a fractional witness, operator searches
    over each predicate kind and shape with their refusals, in text and
    JSON, and the argument errors of this module, print and exit byte for
    byte as
    recorded in data/cli_golden.json; each entry of the command table passes
    or fails there at least once."""
    import antiflex.cli as cli
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    argvs = [entry["argv"] for entry in golden]
    paths = {"a2": a2_fixture, "pair": pair_fixture,
             "deformed": deformed_fixture, "s2": s2_fixture,
             "s2split": s2_split_fixture, "closed": closed_fixture,
             "unclosed": unclosed_fixture, "empty": empty_fixture,
             "frac": frac_fixture, "nc": nc_fixture, "naf": naf_fixture}
    got = cli_outcomes(argvs, paths, capsys, monkeypatch)
    ran = set()
    for entry in golden:
        words = [a for a in entry["argv"] if a != "--json"]
        if words[0] == "--fixture":
            words = words[2:]
        if entry["status"] in (0, 1):
            ran.add((words[0], words[1] if words[1:2]
                     and not words[1].startswith("-") else None))
    assert set(cli.COMMANDS) <= ran
    for entry, (status, out, err) in zip(golden, got):
        assert (status, out, err) == (entry["status"], entry["stdout"],
                                      entry["stderr"]), entry["argv"]


def test_the_perfbench_cli_corpus_prints_its_recorded_hash():
    """`tests/cli_corpus_hash.py` prints the count and SHA-256 of all 1,056
    outputs of the perfbench `cli` corpus (seed 1, cycles 0-7), so every
    byte of every command that corpus runs is pinned, and not only those of
    the golden calls.  It runs in a child interpreter so that this
    session's heap does not grow by the corpus; perfbench's gc-timing test
    times whole collections of the session against a fixed budget.  A
    benchmark change that changes the `cli` inputs re-records the hash, on
    its parent tree, before any change to the package."""
    import subprocess
    import sys

    tests = os.path.dirname(os.path.abspath(__file__))
    result = subprocess.run(
        [sys.executable, os.path.join(tests, "cli_corpus_hash.py")],
        cwd=os.path.dirname(tests), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == ("1056 88ac890f7cb49f89f35975b53d548bbcc8b09a2b"
                             "0c6be82e4bfa826d43755587\n")


# -- the direct argv reader -----------------------------------------------------

def argparse_namespace(argv):
    """The namespace `parse_args` returns for argv, or None where argparse
    exits; whatever it prints is dropped."""
    import contextlib
    import io

    from antiflex.cli import _build_parser
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return _build_parser().parse_args(argv)
        except SystemExit:
            return None


def assert_read_as_argparse_reads(argv, want):
    """`_read_argv(argv)` is None or, value for value and type for type,
    `want`, the namespace `parse_args` returns; it is None wherever
    argparse exits (`want` is None).  Returns what the reader read."""
    from antiflex.cli import _read_argv

    def typed(namespace):
        return {key: (type(value), value)
                for key, value in vars(namespace).items()}

    got = _read_argv(argv)
    assert got is None or (want is not None
                           and typed(got) == typed(want)), argv
    return got


def test_the_reader_reads_the_golden_and_benchmark_argvs_as_argparse_does():
    """Every golden argv and every argv of perfbench's `cli` commands, with
    and without the fixture and --json it runs them with, reads as argparse
    reads it or is left to argparse; the benchmark's are all read
    directly, and so are most golden ones, but no argparse refusal."""
    from tests.test_sparse_bracket import perfbench_module
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = [entry["argv"] for entry in json.load(handle)]
    commands = [argv for _, argv in perfbench_module("inputs").COMMANDS]
    bench = commands + [["--fixture", "doc.json", "--json", *argv]
                        for argv in commands]
    read = {tuple(argv): assert_read_as_argparse_reads(
                argv, argparse_namespace(argv)) for argv in golden + bench}
    assert all(read[tuple(argv)] is not None for argv in bench)
    direct = [argv for argv in golden if read[tuple(argv)] is not None]
    assert len(direct) > len(golden) / 2
    # what argparse alone reads: an `=` value, a negative int, a bad choice
    assert read[("--fixture", "{a2}", "search", "--kind", "operator",
                 "--coeffs=-1/2,0,1", "--predicates", "rota-baxter")] is None
    assert read[("--fixture", "{a2}", "check", "on", "--ops", "T,N,S",
                 "--power-cap", "-2")] is None
    assert read[("--fixture", "{a2}", "check", "bogus")] is None


@pytest.mark.parametrize("argv", [
    ["-h"], ["check", "-h"], ["--fixture", "d", "check", "rb", "--op"],
    ["--fix", "d", "check", "rb"], ["--fixture=d", "check", "rb"],
    ["--json", "--json", "check", "rb"], ["check", "rb", "--op", "T",
                                          "--op", "S"],
    ["check", "rb", "--op", "-T"], ["check", "rb", "--op", ""],
    ["check", "rb", "--power-cap", "٣"], ["check", "rb", "--power-cap", "+3"],
    ["check", "rb", "--power-cap", "9" * 5000], ["check", "--op", "T", "rb"],
    ["search"], ["search", "--kind", "tensor"], ["check", "rb", "--json"],
    ["check", "rb", "extra"], ["check"], [], ["--json"],
])
def test_the_reader_leaves_every_other_argv_to_argparse(argv):
    """Help, abbreviations, `=` values, repeated options, values that start
    with '-' or are empty, non-ASCII or signed digits, an int over the digit
    limit, a target after an option, a missing required option, a bad
    choice, an option of the wrong level and a missing command."""
    from antiflex.cli import _read_argv
    assert _read_argv(argv) is None
    assert_read_as_argparse_reads(argv, argparse_namespace(argv))


def test_the_argv_table_uses_only_what_the_reader_reads():
    """`_read_argv` knows the keywords help, action (store_true), type
    (int), default, choices and required, and nothing else."""
    from antiflex.cli import _OPTIONS, _SUBCOMMANDS
    specs = list(_OPTIONS.values()) + [
        spec for _, options in _SUBCOMMANDS.values()
        for spec in options.values()]
    for spec in specs:
        assert set(spec) <= {"help", "action", "type", "default", "choices",
                             "required"}, spec
        assert spec.get("action", "store_true") == "store_true"
        assert spec.get("type", int) is int
    flags = list(_OPTIONS) + [flag for _, options in _SUBCOMMANDS.values()
                              for flag in options]
    assert all(flag.startswith("--") for flag in flags)


def test_no_benchmark_cli_command_reaches_parse_args(tmp_path):
    """Every op of a perfbench `cli` cycle reads its argv directly; one
    argparse refusal after them reaches `ArgumentParser.parse_args`, so
    the count sees it.  The cycle runs in a child interpreter, so that this
    session's heap does not grow by perfbench's modules."""
    import subprocess
    import sys

    import antiflex

    child = (
        "import argparse, contextlib, io, sys\n"
        "src, perfbench, workdir = sys.argv[1:]\n"
        "sys.path[:0] = [perfbench, src]\n"
        "import workloads\n"
        "from antiflex.cli import main\n"
        "calls = []\n"
        "real = argparse.ArgumentParser.parse_args\n"
        "def counting(self, *args, **kwargs):\n"
        "    calls.append(args)\n"
        "    return real(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.parse_args = counting\n"
        "ops = workloads.cli(1, 0, workdir)\n"
        "codes = [op.call()[0] for op in ops]\n"
        "direct = len(calls)\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        "        main(['check', 'bogus'])\n"
        "    except SystemExit:\n"
        "        pass\n"
        "print(len(ops), sorted(set(codes)), direct, len(calls))\n")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    result = subprocess.run(
        [sys.executable, "-c", child,
         os.path.dirname(os.path.dirname(antiflex.__file__)),
         os.path.join(root, "perfbench"), str(tmp_path)],
        capture_output=True, text=True, timeout=300, cwd=root)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "132 [0, 1, 2] 0 1\n"


def test_property_the_reader_returns_none_or_what_argparse_returns():
    """The `hypothesis` property of `argv_property.py`, run in a child
    interpreter (see `test_scaled_laws.run_in_child`)."""
    from tests.test_scaled_laws import run_in_child
    run_in_child("argv_property.py")


# -- the JSON writer ------------------------------------------------------------

def test_render_json_writes_what_indented_json_dumps_writes(
        a2_fixture, pair_fixture, deformed_fixture, s2_fixture,
        s2_split_fixture, closed_fixture, unclosed_fixture, empty_fixture,
        frac_fixture, nc_fixture, naf_fixture, capsys, monkeypatch):
    """On every object the golden calls write, --json reports and text
    payloads alike, and on the object `render_document` writes for each
    fixture document."""
    import antiflex.cli as cli
    from antiflex.document import _document_object, render_json
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    paths = {"a2": a2_fixture, "pair": pair_fixture,
             "deformed": deformed_fixture, "s2": s2_fixture,
             "s2split": s2_split_fixture, "closed": closed_fixture,
             "unclosed": unclosed_fixture, "empty": empty_fixture,
             "frac": frac_fixture, "nc": nc_fixture, "naf": naf_fixture}
    written = []

    def recording(value):
        written.append(value)
        return render_json(value)

    monkeypatch.setattr(cli, "render_json", recording)
    cli_outcomes([entry["argv"] for entry in golden], paths, capsys,
                 monkeypatch)
    # a --json report, or the payload of a text report that has one
    assert len(written) == sum(
        entry["status"] in (0, 1) and ("--json" in entry["argv"]
                                       or "\n  payload:\n" in entry["stdout"])
        for entry in golden)
    assert any("document" in value.get("payload", value) for value in written)
    for path in paths.values():
        with open(path, encoding="utf-8") as handle:
            written.append(_document_object(parse_document(handle.read())))
    for value in written:
        assert render_json(value) == json.dumps(value, indent=2)
