"""Machine-speed sampling, so that a child's times are given at a fixed speed.

The shared 2-vCPU host this benchmark was tuned on (Intel Xeon, KVM guest)
switches several times a second between a fast state and one in which the
same pure-Python code runs about twice as slow; over a run of tens of
seconds the share of slow time varies enough that one workload's wall time
spread by 30% between runs of the same code.  CPU time spreads as much, so the
slowness is the core's, not the scheduler's.

A ``Sampler`` measures that speed from inside the child.  A SIGALRM interval
timer interrupts the child and times ``snippet()``, a fixed bit of Fraction
arithmetic, the kind the package spends its time on; the first DENSE_SAMPLES
come every DENSE_INTERVAL_S so that short phases get samples too, the rest
every INTERVAL_S.  A phase that took ``raw`` seconds, ``spent`` of them in
snippets, is reported at reference speed as

    (raw - spent) * mean(REFERENCE_S / t_i)

over the snippet times t_i taken inside it: the time the phase would have
taken had the core run throughout at the speed at which the snippet takes
REFERENCE_S (its time in the fast state of that host).  The timer counts wall
time, so the samples are spread evenly over the phase and the mean is the
phase's average speed.  A change to the package cannot change the snippet's
time, so a slower package still reads slower.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REFERENCE_S = 0.45e-3
DENSE_INTERVAL_S = 0.002
DENSE_SAMPLES = 32
INTERVAL_S = 0.02

_OPERANDS = [Fraction(i + 1, 7 - i % 5) for i in range(12)]


def snippet() -> float:
    """Seconds one fixed round of Fraction products and sums takes now."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for x in _OPERANDS:
        for y in _OPERANDS:
            acc += x * y
    return time.perf_counter() - t0


class Sampler:
    """Times snippet() on a wall-clock timer while the process runs."""

    def __init__(self):
        self.samples: list = []  # (time.monotonic() at its end, seconds)

    def _tick(self, signum, frame):
        took = snippet()
        self.samples.append((time.monotonic(), took))
        if len(self.samples) == DENSE_SAMPLES:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, DENSE_INTERVAL_S, DENSE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def phase(self, start: float, end: float) -> dict:
        """The monotonic interval (start, end] at reference speed.

        ``ref_s`` is the phase at reference speed, ``speed`` the factor
        applied to its time net of snippets, ``raw_s`` its plain duration and
        ``n`` the number of snippets inside it.  A phase too short to hold a
        snippet takes the speed of the whole sampled run."""
        inside = [took for at, took in self.samples if start < at <= end]
        times = inside or [took for _, took in self.samples]
        if not times:
            raise RuntimeError("no speed samples were taken")
        speed = sum(REFERENCE_S / t for t in times) / len(times)
        net = end - start - sum(inside)
        return {"ref_s": net * speed, "speed": speed, "raw_s": end - start,
                "n": len(inside)}
