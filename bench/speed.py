"""Host-speed probe: a fixed kernel timed every few milliseconds.

The benchmark runs on a shared host whose speed swings by up to 2x, in
phases from a few seconds to minutes long, as its other tenants come and
go.  Process CPU time equals wall time there, so CPU time does not
remove the swings.  A ``Speedometer`` times a small fixed kernel on a
timer signal while the workload runs.  The kernel's time goes up and
down with the host's speed, sampled where the workload's own time was
spent.  Scaling a timed interval by the speed its samples show (see
``Speedometer.scale``) gives the time the interval would have taken at
the reference speed.

The kernel is GF(2) elimination of fixed random 600-bit rows with
Python ints.  This is interpreted loop work with short big-int XORs.
Scaled by it, the throughput of ten-run sets of ``tree-contract`` and
``mesh-sweep`` spreads several times less than their wall-time
throughput.  A kernel that also ran pure-Python max-flow tracked them
less well.

The kernel's own time is left out of every timed interval: callers
subtract the growth of ``spent`` across the interval.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

INTERVAL_S = 0.025  # time between samples
_RNG = random.Random(3)
ROWS = tuple(_RNG.getrandbits(600) for _ in range(60))
# Kernel time on the development host (see README.md, "Noise") in its
# fast phases.  It fixes the unit of the reported times, nothing else.
REFERENCE_KERNEL_S = 0.0002


def kernel() -> int:
    """GF(2) rank of ``ROWS``; the fixed work whose time is sampled."""
    pivots = {}
    for row in ROWS:
        while row:
            top = row.bit_length() - 1
            if top in pivots:
                row ^= pivots[top]
            else:
                pivots[top] = row
                break
    return len(pivots)


class Speedometer:
    """Samples the kernel's time on SIGALRM while in a ``with`` block.

    ``samples`` holds each kernel time; ``spent`` is the total time spent
    in the signal handler, kernel and bookkeeping included.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        begin = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - begin)
        self.spent += time.perf_counter() - begin

    def __enter__(self) -> Speedometer:
        self._sample(None, None)  # so that every interval has a sample to use
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, since: int, until: int | None = None) -> float:
        """Factor that turns a time taken while samples ``since``..``until``
        were taken into time at the reference speed.

        Each sample stands for an equal slice of that time, run at
        ``REFERENCE_KERNEL_S / sample`` times the reference speed, so the
        factor is the mean of that ratio.  A sample stretched by an
        interruption then weighs little, where it would dominate a mean
        of the kernel times.  Without samples in that range, the latest
        sample stands in."""
        window = self.samples[since:until] or self.samples[-1:]
        return statistics.fmean(REFERENCE_KERNEL_S / sample for sample in window)
