"""The benchmark's own output checks on the package: seed 1, cycle 0 of the
`cohomology`, `search` and `cli` workloads of perfbench/workloads.py, each
op run once and judged by its oracle as perfbench/run.py judges it.

The ops run in a child interpreter, so that neither the size of this
pytest session nor its patches reach them (perfbench's own GC-timed test is
sensitive to the first).  perfbench/ is only read; the cli documents are
written under tmp_path.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

CHILD = """
import json, sys
perfbench, workdir = sys.argv[1:]
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
print(json.dumps(out))
"""


def test_every_benchmark_op_passes_its_check(tmp_path):
    done = subprocess.run([sys.executable, "-c", CHILD, PERFBENCH,
                           str(tmp_path)], capture_output=True, text=True,
                          timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["cli", "cohomology", "search"]
    for name, outcome in result.items():
        assert outcome["ops"] > 0, name
        assert outcome["failures"] == [], name
    assert sorted(os.listdir(tmp_path))[0].startswith("cycle0-doc")
