"""A clock that runs at a fixed reference speed of the host.

The benchmark runs on shared hosts whose speed moves by up to 2x from one
second to the next (other tenants, frequency scaling).  Process CPU time
moves with it, so it does not help.  This clock cancels such swings: every
TICK_S seconds a SIGALRM handler times a fixed stdlib-only kernel of exact
arithmetic, and the wall time since the previous tick is scaled by
REFERENCE_S / (median of the last WINDOW kernel times).  The kernel's own
time is left out.  A clock second is thus the time the same work takes on
a host that runs the kernel in REFERENCE_S seconds; the package's own code
never runs in the kernel, so a faster package still shows in full.

    with ReferenceClock() as clock:
        start = clock.now()
        ...
        elapsed = clock.now() - start

Only one clock may run in a process, in its main thread.
"""

from __future__ import annotations

import collections
import signal
import statistics
import time
from fractions import Fraction

TICK_S = 0.025
WINDOW = 5
# Median kernel time on an idle 2-core Intel Xeon virtual machine
# (Python 3.11), so a clock second is close to a wall second there.
REFERENCE_S = 0.0006

_BASE = tuple(tuple(Fraction(3 * i + j + 1, j + 2) for j in range(3))
              for i in range(3))


def kernel():
    """Exact 3x3 matrix products over Fraction: the same kind of work as
    the package's (tuple indexing, Fraction arithmetic, generator sums)."""
    for _ in range(2):
        m = _BASE
        for _ in range(3):
            m = tuple(tuple(sum((m[i][k] * _BASE[k][j] for k in range(3)),
                                Fraction(0)) for j in range(3))
                      for i in range(3))
    return m


def kernel_seconds():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class ReferenceClock:
    """`now()` in reference seconds, while the clock runs."""

    def __init__(self):
        self.samples = collections.deque(maxlen=WINDOW)
        self.kernels = []
        self.busy = False
        # (reference seconds at mark, wall time of mark, scale); replaced
        # as one object, so `now` never sees half an update
        self.state = (0.0, 0.0, 1.0)
        self.previous = None

    def __enter__(self):
        for _ in range(WINDOW):
            self.samples.append(kernel_seconds())
        self.state = (0.0, time.perf_counter(), self._scale())
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def _scale(self):
        return REFERENCE_S / statistics.median(self.samples)

    def now(self):
        while True:
            state = self.state
            wall = time.perf_counter()
            if state is self.state:  # no tick in between
                total, mark, scale = state
                return total + (wall - mark) * scale

    def _tick(self, _signum, _frame):
        if self.busy:
            return
        self.busy = True
        total, mark, scale = self.state
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.kernels.append(end - start)
        self.state = (total + (start - mark) * scale, end, self._scale())
        self.busy = False

    def summary(self):
        """One line on the host speed the clock saw."""
        if not self.kernels:
            return "no ticks"
        q = statistics.quantiles(self.kernels, n=10) \
            if len(self.kernels) > 1 else self.kernels * 9
        return (f"{len(self.kernels)} ticks, kernel p10/p50/p90 "
                f"{q[0] * 1e3:.3f}/{statistics.median(self.kernels) * 1e3:.3f}"
                f"/{q[8] * 1e3:.3f} ms, reference {REFERENCE_S * 1e3:.3f} ms")
