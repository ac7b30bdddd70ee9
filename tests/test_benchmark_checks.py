"""The benchmark's own output checks on the package: seed 1, cycle 0 of the
`cohomology`, `search` and `cli` workloads of perfbench/workloads.py, each
op run once and judged by its oracle as perfbench/run.py judges it.  Then
the traced pass of each workload at seed 1 (`run.measure_traced`, as
`perfbench/run.py --trace 1` runs it), whose tracer patches the package's
entry points and the constructors of `Matrix`, `MultiMap` and `Cochain`,
and reads `data` of their results.

The ops run in a child interpreter, so that neither the size of this
pytest session nor its patches reach them (perfbench's own GC-timed test is
sensitive to the first).  perfbench/ is only read; the cli documents and
the trace files are written under tmp_path.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

CHILD = """
import argparse, json, sys
perfbench, workdir, tracedir = sys.argv[1:]
sys.path.insert(0, perfbench)
import run, workloads
run.import_package()
out = {}
for name in ("cohomology", "search", "cli"):
    ops, failures = 0, []
    for op in workloads.WORKLOADS[name][0](1, 0, workdir):
        try:
            value, returned = op.call(), True
        except Exception as exc:
            value, returned = exc, False
        ops += 1
        failure = run.verdict(op, returned, value)
        if failure is not None:
            failures.append(failure)
    out[name] = {"ops": ops, "failures": failures}
run.OUT_DIR = tracedir
traced = {}
for name in ("cohomology", "search", "cli"):
    result = run.measure_traced(argparse.Namespace(workload=name, seed=1),
                                workloads.WORKLOADS[name][0])
    traced[name] = {"attempted": result.attempted, "failed": result.failed,
                    "failures": result.failures[:5]}
print(json.dumps({"checks": out, "traced": traced}))
"""


def test_every_benchmark_op_passes_its_check(tmp_path):
    workdir, tracedir = tmp_path / "ops", tmp_path / "traced"
    workdir.mkdir()
    tracedir.mkdir()
    done = subprocess.run([sys.executable, "-c", CHILD, PERFBENCH,
                           str(workdir), str(tracedir)], capture_output=True,
                          text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    names = ["cli", "cohomology", "search"]
    assert sorted(result["checks"]) == sorted(result["traced"]) == names
    for name, outcome in result["checks"].items():
        assert outcome["ops"] > 0, name
        assert outcome["failures"] == [], name
    assert sorted(os.listdir(workdir))[0].startswith("cycle0-doc")
    # the untraced and the traced copy of cycle 1, every op judged
    for name, outcome in result["traced"].items():
        assert outcome["attempted"] > 0, name
        assert (outcome["failed"], outcome["failures"]) == (0, []), name
    assert sorted(os.listdir(tracedir)) == [
        f"trace-{name}-seed1.json" for name in names]
