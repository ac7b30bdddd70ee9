"""`classify` and `anti_flexible_report` on large algebras: seconds and
traced memory.

Run from the root of a checkout:

    python3 tests/classify_dims.py           # dims 16, 32 and 64
    python3 tests/classify_dims.py 8 24      # chosen dims

For each dim it runs both checks on two algebras: the zero algebra, and a
direct sum of dim // 2 dim-2 anti-flexible algebras over {-1, 0, 1} (the
algebras of the dim-2 census), drawn with `random.Random(SEED)` and padded
with a one-dimensional zero algebra when dim is odd.  The sum is
anti-flexible, so neither check stops early on it.  A row gives the
seconds to build the sum (`-` for the zero algebra), then, for each check,
the best of 3 timed calls and the `tracemalloc` peak of one more call.
Every call after the first reads the integer view the first one built, so
the peaks are those of the checks alone.  Its name does not start with
`test_`, so pytest does not collect it: dim 64 takes seconds.
"""

import functools
import os
import random
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from antiflex.algebra import (Algebra, anti_flexible_report,  # noqa: E402
                              classify, direct_sum)
from antiflex.search import search_algebras  # noqa: E402

DIMS = (16, 32, 64)
SEED = 2901
CHECKS = (("classify", classify), ("report", anti_flexible_report))


def best_of_3(fn):
    """(seconds of the fastest of 3 calls, the last call's value)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def traced_peak_kib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def census_sum(dim, census):
    """The seeded direct sum of dim // 2 census algebras (and a zero
    algebra of dim 1 when dim is odd)."""
    rng = random.Random(SEED + dim)
    parts = [rng.choice(census) for _ in range(dim // 2)]
    parts += [Algebra.zero(1)] * (dim % 2)
    return functools.reduce(direct_sum, parts)


def main(argv):
    dims = [int(d) for d in argv] or list(DIMS)
    census = search_algebras(2, (-1, 0, 1), ["anti-flexible"])
    print("dim  algebra  build_s  "
          + "  ".join(f"{name}_s  {name}_peak_KiB" for name, _ in CHECKS))
    for dim in dims:
        build, total = best_of_3(functools.partial(census_sum, dim, census))
        for label, alg, built in (("zero", Algebra.zero(dim), "-"),
                                  ("sum", total, f"{build:.4f}")):
            cells = []
            for name, check in CHECKS:
                seconds, _ = best_of_3(functools.partial(check, alg))
                peak = traced_peak_kib(functools.partial(check, alg))
                cells.append(f"{seconds:{len(name) + 2}.4f}  "
                             f"{peak:{len(name) + 9}.1f}")
            print(f"{dim:3}  {label:7}  {built:>7}  " + "  ".join(cells),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
