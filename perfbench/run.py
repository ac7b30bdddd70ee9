"""Benchmark of the antiflex package: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Runs from the root of a source checkout and imports the package from
./src.  Workloads are `cohomology`, `search` and `cli` (see workloads.py for
why each was chosen); `all` runs each in its own process.  The load is a
closed loop with one caller: the next op starts when the previous one
returns.

With `--trace 0` the run measures whole cycles of ops until `--seconds`
have passed (and at least the workload's minimum number of cycles), checks
every output against its oracle, and reports the end-to-end metrics.  Set-up
and ops are timed with refclock.ReferenceClock, which cancels the swings in
speed of a shared host; the wall time is printed beside it.  With
`--trace 1` it runs the same cycle untraced and traced, reports the
per-layer metrics in wall seconds and writes the spans to .perfbench/.

Every metric is printed as one line with its workload and unit; the last
line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  The exit status is 1 when any output failed its oracle and 2
when the package cannot be imported from ./src.
"""

from __future__ import annotations

import argparse
import collections
import gc
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

# Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 5

IMPORT_PROBE = (
    "import sys\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "from refclock import ReferenceClock\n"
    "with ReferenceClock() as clock:\n"
    "    start = clock.now()\n"
    "    import antiflex.cli\n"
    "    print(clock.now() - start)\n"
)


def declared_units():
    """{metric: unit} of the end-to-end and of the per-layer metrics, as
    BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def import_package():
    """Import antiflex from ./src, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "antiflex", "__init__.py")):
        raise ImportError(f"no package source under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import antiflex.cli  # noqa: F401  (imports every module)
    found = os.path.dirname(os.path.abspath(sys.modules["antiflex"].__file__))
    if found != os.path.join(SRC, "antiflex"):
        raise ImportError(f"antiflex imported from {found}, not {SRC}")


def child_import_seconds():
    """Import time of the whole package in a fresh interpreter, in
    reference seconds."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, HERE, SRC],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip())


def set_up(build, seed, count, workdir, now):
    """Run set-up SETUP_REPEATS times: a fresh-process import, then the
    first `count` cycles built.  Returns (median seconds, the cycles of
    the last repetition)."""
    times = []
    for _ in range(SETUP_REPEATS):
        imported = child_import_seconds()
        start = now()
        built = [build(seed, index, workdir) for index in range(count)]
        times.append(imported + now() - start)
    return statistics.median(times), built


def timed_cycles(cycles, count, seconds, now, on_op=None):
    """Closed loop over whole cycles taken from the iterator `cycles`: at
    least `count` cycles and at least `seconds` of wall time.  Each cycle
    is taken (built, if need be) before its timed section.  `now` is the
    clock ops are timed with; `on_op(index)` runs before each op.  Yields
    one (duration, wall seconds, outputs) triple per cycle, with one
    (op, latency, returned, value) output per op; the caller judges them
    while the loop waits, and can drop them."""
    index = 0
    done = 0
    start = time.perf_counter()
    while done < count or time.perf_counter() - start < seconds:
        cycle = next(cycles)
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        outputs = []
        wall_start = time.perf_counter()
        cycle_start = now()
        for op in cycle:
            if on_op is not None:
                on_op(index)
                index += 1
            t0 = now()
            try:
                value, returned = op.call(), True
            except Exception as exc:  # judged by the op's oracle
                value, returned = exc, False
            outputs.append((op, now() - t0, returned, value))
        duration = now() - cycle_start
        wall = time.perf_counter() - wall_start
        done += 1
        yield duration, wall, outputs


def judged(outputs):
    """One (latency, units, failure) result per output; `failure` is None
    when the output passes its op's oracle."""
    return [(latency, op.units, verdict(op, returned, value))
            for op, latency, returned, value in outputs]


def verdict(op, returned, value):
    """None when the op's output passes its oracle, else what failed."""
    try:
        ok = op.check(returned, value)
    except Exception as exc:  # a malformed output fails its oracle
        ok, value = False, exc
    return None if ok else f"{op.label}: {value!r}"[:300]


def judge(ran):
    """(attempted, failed, failure lines) over (duration, wall, results)
    triples, one per cycle run."""
    attempted = failed = 0
    bad = []
    for _duration, _wall, results in ran:
        for _latency, units, failure in results:
            attempted += units
            if failure is not None:
                failed += units
                bad.append(failure)
    return attempted, failed, bad


def tail(latencies, percentile):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def header():
    return (f"# perfbench nproc={os.cpu_count()} "
            f"python={platform.python_version()} "
            f"platform={platform.platform()}")


# What a run reports: metrics with units and notes for the printed lines,
# the oracle verdicts, and a line on the clock the times were taken with.
Result = collections.namedtuple(
    "Result", "metrics units notes attempted failed failures clock")


def measure(args, build, min_cycles, percentile):
    from refclock import ReferenceClock
    units, _ = declared_units()
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR)
    try:
        with ReferenceClock() as clock:
            setup_s, built = set_up(build, args.seed, min_cycles, workdir,
                                    clock.now)
            later = (build(args.seed, index, workdir)
                     for index in itertools.count(min_cycles))
            # outputs are judged between cycles and then dropped, so
            # memory does not grow with the number of cycles run
            ran = [(duration, wall, judged(outputs))
                   for duration, wall, outputs in timed_cycles(
                       itertools.chain(built, later), min_cycles,
                       args.seconds, clock.now)]
            rss = peak_rss_mib()
    finally:
        shutil.rmtree(workdir)
    attempted, failed, bad = judge(ran)
    latencies = [latency for _duration, _wall, results in ran
                 for latency, _units, _failure in results]
    tail_value, beyond = tail(latencies, percentile)
    busy = sum(duration for duration, _wall, _cycle in ran)
    wall = sum(cycle_wall for _duration, cycle_wall, _cycle in ran)
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": attempted / busy,
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_tail_ms": tail_value * 1000,
        "peak_rss_mb": rss,
    }
    notes = {
        "throughput_per_s": f"{attempted} ops in {len(ran)} cycles, "
                            f"{busy:.3f} reference s, {wall:.3f} wall s",
        "latency_tail_ms": f"p{percentile} of {len(latencies)} samples, "
                           f"{beyond} beyond",
    }
    return Result(metrics, units, notes, attempted, failed, bad,
                  f"reference clock: {clock.summary()}")


def measure_traced(args, build):
    """Cycle 1 twice, each copy built afresh: once untraced, once traced."""
    from spans import LAYERS, Recorder, layer_metrics
    _, units = declared_units()
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR)
    rec = Recorder()
    try:
        [(_, untraced, plain)] = timed_cycles(
            iter([build(args.seed, 1, workdir)]), 1, 0, time.perf_counter)
        traced_cycle = build(args.seed, 1, workdir)
        restore = rec.instrument()
        try:
            [(_, traced, outputs)] = timed_cycles(
                iter([traced_cycle]), 1, 0, time.perf_counter,
                on_op=lambda index: setattr(rec, "op", index))
        finally:
            restore()
    finally:
        shutil.rmtree(workdir)
    attempted, failed, bad = judge([(untraced, untraced, judged(plain)),
                                    (traced, traced, judged(outputs))])
    returned = {index for index, (_op, _latency, returned, _value)
                in enumerate(outputs) if returned}
    metrics = layer_metrics(rec.spans, rec.inner, rec.counters, traced,
                            untraced, returned)
    path = os.path.join(OUT_DIR,
                        f"trace-{args.workload}-seed{args.seed}.json")
    rec.dump(path, {"workload": args.workload, "seed": args.seed,
                    "traced_wall_s": traced, "untraced_wall_s": untraced})
    shares = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    notes = {"trace.unattributed_s":
             f"layers {shares:.4f} s + unattributed = wall "
             f"{metrics['trace.wall_s']:.4f} s; spans in "
             f"{os.path.relpath(path, ROOT)}"}
    share = metrics["cohomology.assemble_share"]
    if metrics["cohomology.columns"]:
        notes["cohomology.assemble_share"] = (
            "bracket assembly is "
            f"{'more' if share > 0.95 else 'not more'} than 95% of the "
            "cohomology time of the complexes that return")
    return Result(metrics, units, notes, attempted, failed, bad,
                  "per-layer times are wall seconds")


def run_one(args):
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    build, min_cycles, percentile = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    print(header())
    if args.trace:
        result = measure_traced(args, build)
    else:
        result = measure(args, build, min_cycles, percentile)
    if set(result.metrics) != set(result.units):
        raise SystemExit("perfbench: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(result.metrics) ^ set(result.units))}")
    print(f"# {result.clock}")
    for line in result.failures[:20]:
        print(f"# FAILED {line}")
    # failed_frac is 0 on a correct tree, so it is printed but carried by
    # `failed`/`attempted` rather than by a bounded metric
    lines = dict(result.metrics,
                 failed_frac=result.failed / result.attempted)
    units = dict(result.units, failed_frac="ratio")
    notes = dict(result.notes, failed_frac=f"{result.failed} of "
                                           f"{result.attempted} ops")
    for name, value in lines.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload:10s} {name:32s} {value:>16.6f} "
              f"{units[name]}{note}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()},
    }))
    return 0 if result.failed == 0 else 1


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    from_here = os.path.abspath(__file__)
    status = 0
    for workload in ("cohomology", "search", "cli"):
        done = subprocess.run(
            [sys.executable, from_here, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, check=False)
        status = max(status, done.returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cohomology", "search", "cli", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
