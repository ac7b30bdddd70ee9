"""Tests of the benchmark itself: self-time arithmetic, seed determinism,
inputs that never repeat, the reference clock, and that a change of basis
keeps the frozen anchors.

    python3 -m pytest perfbench -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import functools  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import time  # noqa: E402

import inputs  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(name, layer, start, end, parent):
    return [name, layer, start, end, parent, 0]


def test_self_time_subtracts_direct_children_only():
    recorded = [
        _span("cli.main", "cli", 0.0, 10.0, -1),
        _span("operators.is_rota_baxter", "operators", 1.0, 4.0, 0),
        _span("linalg.Matrix.rank", "linalg", 2.0, 3.0, 1),
        _span("glie.graded_bracket", "glie", 5.0, 9.0, 0),
    ]
    assert spans.self_times(recorded) == [3.0, 2.0, 1.0, 4.0]
    # tensor construction time recorded under a span leaves its self time
    assert spans.self_times(recorded, {3: 1.5}) == [3.0, 2.0, 1.0, 2.5]


def test_layer_self_times_and_remainder_add_up_to_wall():
    recorded = [
        _span("cli.main", "cli", 0.0, 10.0, -1),
        _span("operators.is_rota_baxter", "operators", 1.0, 4.0, 0),
        _span("linalg.Matrix.rank", "linalg", 2.0, 3.0, 1),
        _span("cli.main", "cli", 11.0, 12.0, -1),
    ]
    inner = {1: 0.5, -1: 0.25}
    metrics = spans.layer_metrics(recorded, inner, {}, 13.0, 10.0, {0})
    layers = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + metrics["trace.unattributed_s"] == 13.0
    assert metrics["cli.self_s"] == 8.0
    assert metrics["operators.self_s"] == 1.5
    assert metrics["linalg.self_s"] == 1.75
    assert metrics["linalg.tensor_build_s"] == 0.75
    assert abs(metrics["trace.overhead_frac"] - 0.3) < 1e-12


def test_assemble_share_counts_only_ops_that_returned():
    def op_spans(op, start, dims_s, assemble_s):
        return [["cohomology.RBComplex.dims", "cohomology", start,
                 start + dims_s, -1, op],
                ["cohomology.RBComplex.differential_matrix", "cohomology",
                 start, start + assemble_s, len(recorded), op]]

    recorded = []
    recorded += op_spans(0, 0.0, 10.0, 9.6)
    recorded += op_spans(1, 10.0, 5.0, 1.0)
    metrics = spans.layer_metrics(recorded, {}, {}, 15.0, 15.0, {0})
    assert abs(metrics["cohomology.assemble_share"] - 0.96) < 1e-12


def test_instrument_restores_every_entry_point():
    from antiflex import cli, cohomology, linalg, search
    before = (cli.main, search.is_rota_baxter, cohomology.is_rota_baxter,
              linalg.Matrix.__init__, cohomology.RBComplex.dims)
    rec = spans.Recorder()
    restore = rec.instrument()
    try:
        assert search.is_rota_baxter is cohomology.is_rota_baxter
        assert search.is_rota_baxter is not before[1]
        linalg.Matrix.identity(2).rank()
    finally:
        restore()
    after = (cli.main, search.is_rota_baxter, cohomology.is_rota_baxter,
             linalg.Matrix.__init__, cohomology.RBComplex.dims)
    assert after == before
    assert rec.counters["linalg.echelon_calls"] == 1
    assert rec.counters["linalg.tensor_entries"] == 4
    assert [s[spans.NAME] for s in rec.spans] == ["linalg.Matrix.rank"]


def test_same_seed_gives_byte_identical_inputs():
    triples = workloads.load_oracle()["triples"]
    assert inputs.cli_cycle(7, 1) == inputs.cli_cycle(7, 1)
    assert inputs.cli_cycle(7, 1) != inputs.cli_cycle(8, 1)
    assert (inputs.cohomology_cycle(7, 1, triples, (1, 1, 1))
            == inputs.cohomology_cycle(7, 1, triples, (1, 1, 1)))
    assert inputs.search_scale(7, 4) == inputs.search_scale(7, 4)


def test_documents_are_written_byte_identically(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    workloads.cli(3, 1, str(first))
    workloads.cli(3, 1, str(second))
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second)) and names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_cycles_have_one_composition():
    triples = workloads.load_oracle()["triples"]
    kinds = [sorted(label.split("@")[0] if "triple" not in label else "triple"
                    for label, *_ in inputs.cohomology_cycle(5, index, triples,
                                                             (1, 1, 1)))
             for index in range(3)]
    assert kinds[0] == kinds[1] == kinds[2]
    codes = [sorted(sorted(exp.values())
                    for _l, _t, exp in inputs.cli_cycle(5, index))
             for index in range(3)]
    assert codes[0] == codes[1] == codes[2]


def test_no_input_repeats_across_cycles():
    triples = workloads.load_oracle()["triples"]
    seen = set()
    for index in range(12):
        for _label, alg, mod, op, _d, _e in inputs.cohomology_cycle(
                4, index, triples, workloads.COHOMOLOGY_TRIPLES):
            assert (alg, mod, op) not in seen
            seen.add((alg, mod, op))
    # a malformed document is a corrupted copy of another one
    docs = [json.loads(text) for index in range(12)
            for label, text, _e in inputs.cli_cycle(4, index)
            if not label.endswith(inputs.CORRUPTIONS)]
    keys = [json.dumps([doc["algebra"], doc["bimodule"],
                        doc["operators"]["T"]]) for doc in docs]
    assert len(set(keys)) == len(keys)
    scales = [inputs.search_scale(4, index) for index in range(100)]
    assert len(set(scales)) == len(scales)


def test_run_builds_cycles_past_set_up_and_never_repeats_an_input():
    calls = []

    def build(_seed, index, _workdir):
        return [workloads.Op(f"{index}/{n}",
                             functools.partial(calls.append, (index, n)), 1,
                             lambda returned, value: returned)
                for n in range(3)]

    built = [build(0, index, None) for index in range(2)]
    later = (build(0, index, None) for index in itertools.count(2))
    ran = [(duration, wall, run.judged(outputs))
           for duration, wall, outputs in run.timed_cycles(
               itertools.chain(built, later), 2, 0.05, time.perf_counter)]
    assert len(ran) > 2
    assert len(set(calls)) == len(calls) == 3 * len(ran)
    assert run.judge(ran) == (len(calls), 0, [])


def test_reference_clock_scales_wall_time_and_skips_its_kernel(monkeypatch):
    class FakeTime:
        wall = [11.0, 11.5]

        @classmethod
        def perf_counter(cls):
            return cls.wall.pop(0)

    clock = refclock.ReferenceClock()
    clock.samples.extend([refclock.REFERENCE_S / 4] * refclock.WINDOW)
    clock.state = (1.0, 10.0, 2.0)
    monkeypatch.setattr(refclock, "time", FakeTime)
    clock._tick(None, None)  # kernel from 11.0 to 11.5
    assert clock.state[:2] == (3.0, 11.5)
    FakeTime.wall = [12.5]
    assert clock.now() == 3.0 + 1.0 * 4


def test_reference_clock_ticks_and_advances():
    with refclock.ReferenceClock() as clock:
        readings = [clock.now()]
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            readings.append(clock.now())
    assert clock.kernels
    assert readings == sorted(readings) and readings[-1] > readings[0]


def test_unimodular_changes_are_invertible_over_the_integers():
    rng = random.Random(1)
    for n in (1, 2, 3):
        for _ in range(20):
            p = inputs.unimodular(rng, n)
            p_inv = inputs.inverse(p)
            assert all(x.denominator == 1 for row in p_inv for x in row)
            assert inputs.matmul(p, p_inv) == inputs.identity(n)


def test_change_of_basis_preserves_anchors_up_to_degree_2():
    from antiflex.cohomology import RBComplex
    rng = random.Random(2)
    for name, alg, mod, op, anchors, _degree in inputs.corpus():
        for index, dense in ((0, True), (3, False), (5, True)):
            changed = inputs.change_triple(
                alg, mod, op, inputs.cycle_basis(rng, alg[0], index, dense),
                inputs.module_basis(rng, mod[0], index, dense))
            objects = workloads._triple_objects(*changed)
            dims = RBComplex(*objects).dims(2)
            assert [tuple(row) for row in dims.degrees] == anchors[:3], name
