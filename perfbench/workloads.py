"""The three benchmark workloads: seeded inputs, ops and their oracles.

Each workload turns a seed and a cycle index into one cycle: a list of
`Op`s with the same composition in every cycle but inputs of its own, so a
run of whole cycles does comparable work whatever the seed, and no input
repeats within a run, however many cycles it reaches (see
`inputs.cycle_basis` and `inputs.search_scale`).
"""

from __future__ import annotations

import functools
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE = os.path.join(HERE, "data", "oracle.json")


class Op:
    """One call into the package: `call()` returns its output, `check`
    judges `(returned, value_or_exception)`, and `units` is how many ops
    of the workload's throughput the call completes."""

    __slots__ = ("label", "call", "units", "check")

    def __init__(self, label, call, units, check):
        self.label = label
        self.call = call
        self.units = units
        self.check = check


def load_oracle():
    with open(ORACLE, encoding="utf-8") as handle:
        return json.load(handle)


def _triple_objects(alg, mod, op):
    from antiflex.algebra import Algebra
    from antiflex.bimodule import Bimodule
    from antiflex.linalg import Matrix, MultiMap
    dim, c = alg
    _, left, right = mod
    algebra = Algebra(MultiMap(2, dim, c))
    bimodule = Bimodule(algebra, [Matrix.from_rows(m) for m in left],
                        [Matrix.from_rows(m) for m in right], check=False)
    return algebra, bimodule, Matrix.from_rows(op)


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------
# Why: RBComplex.dims is the paper's computational core and the slowest
# path in the package; bracket assembly dominates it (graded_bracket took
# 0.76 of 0.80 s of A2 T_inv dims(3)).  Sparse (given or signed-permutation)
# and dense (unimodular) bases cover both kinds of structure constants, the
# noncommutative triples cover the ComplexError path, and since no input
# repeats, a cross-call cache must show no gain here.

# Per cycle: defect_rb, pool triples expected to raise ComplexError, and
# pool triples with dimensions.  The ComplexError triples are many and
# alike, and two cycles cover the whole pool of 95 (later cycles take them
# again in other bases), so the median op of a run falls in the middle of
# the same triples whatever the seed; the anchors dominate throughput and
# the tail.
COHOMOLOGY_TRIPLES = (1, 64, 1)


def _dims_check(expected, degree):
    def check(returned, value):
        from antiflex.cohomology import ComplexError
        if expected == "ComplexError":
            return not returned and isinstance(value, ComplexError)
        rows = [list(map(int, row)) for row in expected[:degree + 1]]
        return returned and [list(row) for row in value.degrees] == rows
    return check


def _dims(alg, mod, op, degree):
    from antiflex.cohomology import RBComplex
    return RBComplex(alg, mod, op).dims(degree)


def cohomology(seed, index, workdir):
    triples = load_oracle()["triples"]
    cycle = []
    for label, alg, mod, op, degree, expected in inputs.cohomology_cycle(
            seed, index, triples, COHOMOLOGY_TRIPLES):
        objects = _triple_objects(alg, mod, op)
        cycle.append(Op(label, functools.partial(_dims, *objects, degree),
                        1, _dims_check(expected, degree)))
    return cycle


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------
# Why: thousands of tiny objects go through `classify` and
# `is_rota_baxter`, and neither glie nor cohomology is used; this is the
# workload for a single tensor type and for pruned search.  An op is one
# grid candidate covered (grid size, not candidates examined, so pruning
# counts as a gain); latency samples are whole sweep calls.

def _scaled(values, k):
    return [k * v for v in values]


def _hits_check(expected, predicates, kind, alg=None, mod=None):
    def check(returned, value):
        from antiflex.search import algebra_predicate, operator_predicate
        if not returned:
            return False
        if kind == "algebra":
            got = [list(a.mul.data) for a in value]
            checks = [algebra_predicate(p) for p in predicates]
        else:
            got = [list(op.data) for op in value]
            checks = [operator_predicate(p, alg, mod) for p in predicates]
        return got == expected and all(c(hit) for hit in value for c in checks)
    return check


def _search_algebras(*args):
    from antiflex import search
    return search.search_algebras(*args)


def _search_operators(*args):
    from antiflex import search
    return search.search_operators(*args)


def search(seed, index, workdir):
    rec = load_oracle()["search"]
    alg_preds = tuple(rec["algebra_predicates"])
    op_preds = tuple(rec["operator_predicates"])
    k = inputs.search_scale(seed, index)
    grid = tuple(_scaled(rec["coeffs"], k))
    cycle = [Op(f"algebras k={k}",
                functools.partial(_search_algebras, 2, grid, alg_preds),
                len(grid) ** 8,
                _hits_check([_scaled(a, k) for a in rec["algebras"]],
                            alg_preds, "algebra"))]
    for number, (products, ops) in enumerate(zip(rec["algebras"],
                                                 rec["operators"])):
        if ops is None:
            continue
        plain = (2, tuple(Fraction(x) for x in _scaled(products, k)))
        alg, mod, _ = _triple_objects(plain, inputs.regular_bimodule(plain),
                                      inputs.zeros(2, 2))
        cycle.append(Op(f"operators k={k} algebra {number}",
                        functools.partial(_search_operators, alg, mod,
                                          grid, op_preds),
                        len(grid) ** 4,
                        _hits_check([_scaled(o, k) for o in ops], op_preds,
                                    "operator", alg, mod)))
    return cycle


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------
# Why: many short in-process calls (2 to 86 ms) whose time spreads over
# document, bimodule, operators, deformation and onstruct plus report
# rendering; linalg works on many tiny matrices here, unlike the large
# tensors of `cohomology`, and the commands on one document repeat its
# parse and validation work.

def _run_cli(argv):
    from antiflex import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_check(expected):
    def check(returned, value):
        if not returned:
            return False
        code, out, err = value
        if code != expected:
            return False
        if code == 2:
            return out == "" and err.startswith("error:")
        report = json.loads(out)
        agree = [v["ok"] for name, v in report["verdicts"].items()
                 if name.endswith("_agrees") or name == "agreement"]
        return report["ok"] == (code == 0) and all(agree)
    return check


def cli(seed, index, workdir):
    cycle = []
    for number, (label, text, expected) in enumerate(
            inputs.cli_cycle(seed, index)):
        path = os.path.join(workdir, f"cycle{index}-doc{number}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for command, argv in inputs.COMMANDS:
            cycle.append(Op(f"{label} {command}",
                            functools.partial(_run_cli, ["--fixture", path,
                                                         "--json", *argv]),
                            1, _cli_check(expected[command])))
    return cycle


# name -> (build one cycle from (seed, index, workdir), minimum cycles per
# run, tail percentile).  Set-up builds the minimum number of cycles; a run
# builds any further cycle just before it, outside the timed section.  The
# minimum leaves at least ten latency samples beyond the tail percentile.
WORKLOADS = {
    "cohomology": (cohomology, 3, 90),
    "search": (search, 3, 95),
    "cli": (cli, 2, 95),
}
