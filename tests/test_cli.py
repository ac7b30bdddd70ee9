"""CLI contract: commands, exit statuses, machine/human parity."""

import json

import pytest

from antiflex.cli import main
from antiflex.document import (AlgebraSection, BimoduleSection,
                               WorkspaceDocument, parse_document,
                               render_document)
from antiflex.linalg import Matrix


@pytest.fixture()
def a2_fixture(tmp_path, a2, m_a2, t_inv, t_nil, e21):
    doc = WorkspaceDocument(
        "Q", AlgebraSection(2, a2.labels, a2), None,
        BimoduleSection(2, m_a2.left, m_a2.right), None,
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
def na2_fixture(tmp_path, na2):
    doc = WorkspaceDocument(
        "Q", AlgebraSection(2, na2.labels, na2), None, None, None, {}, None)
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
    doc = WorkspaceDocument(
        "Q", AlgebraSection(2, alg.labels, alg), None,
        BimoduleSection(2, mod.left, mod.right), None, {"T": op}, None)
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
        "Q", AlgebraSection(2, alg.labels, alg), None,
        BimoduleSection(1, [zero, zero], [zero, zero]), None,
        {"T": Matrix.from_rows([[1], [0]])}, None)
    path = tmp_path / "not_anti_flexible.json"
    path.write_text(render_document(doc), encoding="utf-8")
    assert main(["--fixture", str(path), "cohomology", "--op", "T",
                 "--max-degree", "1"]) == 2
    assert "error: not a bimodule: " in capsys.readouterr().err


def test_deform_verify_rejects_invalid_generator(tmp_path, a2, m_a2):
    from antiflex.document import DeformationSection
    from antiflex.linalg import MultiMap
    bad_omega = MultiMap(2, 2, [1] + [0] * 7)
    doc = WorkspaceDocument(
        "Q", AlgebraSection(2, a2.labels, a2), None,
        BimoduleSection(2, m_a2.left, m_a2.right), None, {},
        DeformationSection(bad_omega, (Matrix.zeros(2, 2),) * 2,
                           (Matrix.zeros(2, 2),) * 2))
    path = tmp_path / "bad_deform.json"
    path.write_text(render_document(doc), encoding="utf-8")
    assert main(["--fixture", str(path), "deform", "verify"]) == 1


def test_check_morphism_command(tmp_path, a2, m_a2, t_inv):
    doc = WorkspaceDocument(
        "Q", AlgebraSection(2, a2.labels, a2),
        AlgebraSection(2, ("f1", "f2"), a2),
        BimoduleSection(2, m_a2.left, m_a2.right),
        BimoduleSection(2, m_a2.left, m_a2.right),
        {"T": t_inv, "phi": Matrix.identity(2), "psi": Matrix.identity(2)},
        None)
    path = tmp_path / "pair.json"
    path.write_text(render_document(doc), encoding="utf-8")
    assert main(["--fixture", str(path), "check", "morphism",
                 "--ops", "phi,psi,T,T"]) == 0


def test_fixture_roundtrip_byte_identical(a2_fixture):
    text = open(a2_fixture, encoding="utf-8").read()
    assert render_document(parse_document(text)) == text


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


def test_nij_structure_power_cap_is_bounded(a2_fixture, capsys):
    argv = ["--fixture", a2_fixture, "check", "nij-structure", "--ops", "N,S"]
    assert main(argv + ["--power-cap", "4"]) == 2
    assert "power" in capsys.readouterr().err
    assert main(argv + ["--power-cap", "-1"]) == 2
    assert "--power-cap" in capsys.readouterr().err


def test_on_negative_power_cap_is_exit_2(a2_fixture, capsys):
    assert main(["--fixture", a2_fixture, "check", "on", "--ops", "T,N,S",
                 "--power-cap", "-2"]) == 2
    assert "--power-cap" in capsys.readouterr().err
