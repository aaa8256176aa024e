"""Host-speed reference: pass times scaled to a fixed kernel's speed.

The benchmark runs on a few cores of a shared host whose speed drifts
with its neighbours' load, with no CPU steal time to show for it: the
same cold pass, on the same inputs, in the same process, took from 3.4
to 6.9 s within two minutes, and a fixed pure-Python loop slowed by the
same factor at the same moments.  Fast and slow stretches alternate
within a fraction of a second, in a mix that changes over tens of
seconds, so the raw wall times of one run spread past any useful bound
from the next run's.

:class:`HostClock` times a stretch of work twice: in wall seconds, and
in *reference seconds*.  While a stretch runs, an interval timer
interrupts it every :data:`INTERVAL_S` and times a small fixed kernel
(interpreter arithmetic: the same work in every run, and in no layer of
the program).  Each piece of wall time between two samples is scaled
by ``REFERENCE_S / kernel time`` of the sample that ends it, so a piece
run while the host was slow counts for less.  A change to the program
moves the pass times and not the kernel; a change in the host moves
both.  The kernel's own time is left out of both figures.
"""

from __future__ import annotations

import signal
from time import perf_counter

#: The kernel time the figures are scaled to: they read as if one kernel
#: run took exactly this long.  On the 2-vCPU guest of README.md it
#: takes about 0.09 ms on a quiet host and 0.13 ms on a busy one.
REFERENCE_S = 1.0e-4
#: Wall time between two samples of the kernel.
INTERVAL_S = 0.005
#: Interpreter loop steps in one kernel run.
KERNEL_STEPS = 1_500


def kernel() -> int:
    """The reference work: integer arithmetic in the interpreter loop."""
    acc = 0
    for step in range(KERNEL_STEPS):
        acc += step * step
    return acc


class HostClock:
    """Times stretches of work in wall and in reference seconds.

    For the main thread only, one stretch at a time: the samples come
    from ``SIGALRM``, whose handler is installed for the length of a
    stretch and restored after it.
    """

    def __init__(self) -> None:
        #: Every kernel time sampled, for the record.
        self.samples: list[float] = []
        self._active = False
        self._previous = signal.SIG_DFL
        self._start = self._last = 0.0
        self._scaled = 0.0
        self._spent = 0.0

    def start(self, since: float | None = None) -> None:
        """Open a stretch, at ``since`` (a ``perf_counter`` time) or now."""
        self._scaled = self._spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        self._start = self._last = perf_counter() if since is None else since
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        """Close the stretch; return its (wall, reference) seconds."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._active = False
        end = perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        wall = end - self._start - self._spent
        # The last piece is scaled by a sample taken straight after it.
        self._sample(end)
        return wall, self._scaled

    def time(self, work):
        """Run ``work()``; return ``(wall_s, reference_s, its result)``."""
        self.start()
        try:
            result = work()
        finally:
            wall, scaled = self.stop()
        return wall, scaled, result

    def _tick(self, signum, frame) -> None:
        if self._active:
            self._spent += self._sample(perf_counter())

    def _sample(self, now: float) -> float:
        """Scale the piece ending at ``now``; returns the time it took."""
        t0 = perf_counter()
        kernel()
        took = perf_counter() - t0
        self.samples.append(took)
        self._scaled += (now - self._last) * REFERENCE_S / took
        self._last = perf_counter()
        return self._last - now
