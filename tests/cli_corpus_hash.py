"""Count and SHA-256 of the outputs of the perfbench `cli` corpus.

Run from the root of a checkout:

    python3 tests/cli_corpus_hash.py           # seed 1, cycles 0-7
    python3 tests/cli_corpus_hash.py 2 0 3     # seed 2, cycles 0-3

The arguments are the seed, then the first and the last cycle (both
included).  Each cycle's documents are written to one temporary directory
and every op of the cycle runs `antiflex.cli.main` in this process, as
`perfbench/workloads.py::cli` builds it.  Each output is the list
`[code, stdout, stderr]`, with every `"elapsed_ms": <n>` rewritten to
`"elapsed_ms": 0` and the temporary directory replaced by `{dir}`.  The
script prints the number of outputs and the SHA-256 of `json.dumps` of the
list of all of them, so two trees can be compared by one line.  It reads
`perfbench/` and changes nothing there.  Its name does not start with
`test_`, so pytest does not collect it.
"""

import hashlib
import json
import os
import re
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import workloads  # noqa: E402

ELAPSED = re.compile(r'"elapsed_ms": [-+.0-9eE]+')


def outputs(seed, first, last):
    """[code, stdout, stderr] of every op of cycles first..last, masked."""
    got = []
    for index in range(first, last + 1):
        workdir = tempfile.mkdtemp(prefix="cli-corpus-")
        try:
            for op in workloads.cli(seed, index, workdir):
                code, out, err = op.call()
                got.append([code] + [
                    ELAPSED.sub('"elapsed_ms": 0', text).replace(workdir,
                                                                 "{dir}")
                    for text in (out, err)])
        finally:
            shutil.rmtree(workdir)
    return got


def main(argv):
    seed, first, last = ([int(a) for a in argv] + [1, 0, 7][len(argv):])[:3]
    got = outputs(seed, first, last)
    digest = hashlib.sha256(json.dumps(got).encode("utf-8")).hexdigest()
    print(len(got), digest)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
