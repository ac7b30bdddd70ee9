"""CLI contract: commands, exit statuses, machine/human parity."""

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
                         ["antiflex.operators", *PACKAGE])
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
    are no bimodule, operator searches
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
