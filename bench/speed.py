"""Machine-speed reference for the end-to-end timings.

The benchmark was written on a shared 2-vCPU virtual machine whose vCPUs
switch, every 10-150 ms and independently of each other, between two speeds
about 1.7x apart, and at times stay in the slower one for 30 s or more.  CPU
time slows down with wall time, so neither clock alone says whether a run was
slow because of the program or because of the machine.

While a timed window runs, ``Sampler`` takes a SIGALRM every ``INTERVAL_S``
and runs ``reference_work`` in the handler: fixed pure-Python arithmetic on
``fractions.Fraction`` (standard-library code, none of ``swnkms``, so no change
to the program can change it).  It records when each sample started and how
long it took.  The runner pins itself, and so its children, to one vCPU, so
the samples see the speed the op saw.  An op's latency at reference speed is

    (wall - handler time within the op) * REFERENCE_S / mean(nearby samples)

that is, its latency on a machine where ``reference_work`` takes
``REFERENCE_S``.  The samples "nearby" are those taken during the op plus the
last one before it and the first one after it.
"""

from __future__ import annotations

import bisect
import gc
import os
import signal
import time
from fractions import Fraction

#: Time between samples, in seconds.
INTERVAL_S = 0.005
#: Nominal duration of ``reference_work``.  Times at reference speed are
#: reported as if the reference took exactly this long.
REFERENCE_S = 1e-4


def reference_work() -> float:
    """About 0.1 ms of interpreted arithmetic on a fast vCPU of that machine."""
    total = 0.0
    for i in range(1, 18):
        total += float(Fraction(i, i + 3) * Fraction(7, 2 * i + 1) + Fraction(1, i))
    return total


def pin_to_one_cpu() -> None:
    """Pin this process (and every child it starts later) to one vCPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Sampler:
    """SIGALRM-driven samples of ``reference_work``: start times and durations."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()  # the reference allocates; never collect the program's garbage here
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def at_reference(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] would have taken at reference speed.

        The handler's own time inside the interval is taken out first: for
        in-process work it is exactly the time the op was interrupted, and for
        a child pinned to the same vCPU it is the time the child could not run.
        """
        lo, hi = self._span(t0, t1)
        near = self.durations[max(lo - 1, 0):hi + 1]
        if not near:
            raise RuntimeError("no speed samples: the sampler was not running")
        return (t1 - t0 - sum(self.durations[lo:hi])) * REFERENCE_S * len(near) / sum(near)

    def inside(self, t0: float, t1: float) -> float:
        """Seconds the handler ran within [t0, t1]."""
        lo, hi = self._span(t0, t1)
        return sum(self.durations[lo:hi])

    def _span(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)

    def slow_share(self) -> float:
        """Share of samples that took more than 1.3x the fastest: how much of the
        window the vCPU spent in its slower phase (a diagnostic, not a metric)."""
        if not self.durations:
            return 0.0
        fastest = min(self.durations)
        return sum(d > 1.3 * fastest for d in self.durations) / len(self.durations)
