"""`RBComplex.dims(6)` on A2+A1 with its regular bimodule and T_blk, in the
seeded dense unimodular bases of `tests.test_cohomology._dense_basis_copy`.

Run from the root of a checkout:

    python3 tests/dims6_seeds.py             # seeds 8000-8011
    python3 tests/dims6_seeds.py 8005 8007   # chosen seeds

It first prints the seconds of the given basis's `dims(6)`, the first one
in the process, so the one-time build of the assembly layouts is in it.
For each seed it then prints the seconds `dims(6)` takes on a fresh
complex, the nonzeros of d_6 with every row (`_int_columns(6)`, counted
after the timed call), and whether every row of the report equals the
given basis's.  Last comes the peak RSS of the process.  It exits 1 when a
row differs.  Its name does not start with `test_`, so pytest does not
collect it: the heavy seeds take seconds each.
"""

import os
import random
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from antiflex.algebra import Algebra, direct_sum  # noqa: E402
from antiflex.bimodule import regular_bimodule  # noqa: E402
from antiflex.cohomology import RBComplex  # noqa: E402
from tests.test_cohomology import T_BLK, _dense_basis_copy  # noqa: E402

SEEDS = range(8000, 8012)


def main(argv):
    seeds = [int(s) for s in argv] or list(SEEDS)
    alg = direct_sum(Algebra.from_products(2, {(0, 0): {1: 1}}),
                     Algebra.from_products(1, {(0, 0): {0: 1}}))
    mod = regular_bimodule(alg)
    start = time.perf_counter()
    given = RBComplex(alg, mod, T_BLK).dims(6).degrees
    print(f"given basis, first dims(6): {time.perf_counter() - start:.3f} s")
    print("seed  seconds  d_6 nonzeros  rows")
    same = True
    for seed in seeds:
        cx = RBComplex(*_dense_basis_copy(random.Random(seed), alg, mod,
                                          T_BLK))
        start = time.perf_counter()
        rows = cx.dims(6).degrees
        seconds = time.perf_counter() - start
        nonzeros = sum(map(len, cx._int_columns(6)))
        same &= rows == given
        print(f"{seed}  {seconds:7.2f}  {nonzeros:12,}  "
              f"{'equal' if rows == given else 'DIFFER'}", flush=True)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS: {peak:.1f} MiB")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
