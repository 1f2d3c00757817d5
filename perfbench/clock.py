"""Job timing corrected for the CPU speed this process is given.

On a shared machine the same computation can take 1.7 times longer from one
second to the next, while neighbours load the same physical core; CPU time
varies as much as wall time.  The clock samples that speed while a job
runs: before and after the job, and every PERIOD_S seconds during it from a
SIGALRM handler, it times a fixed reference computation (exact rational
arithmetic, like the program's own).  A job's normalized time is its wall
time, minus the time spent in the samples, scaled by
REFERENCE_S / (mean sample time): seconds on a CPU that runs the reference
computation in REFERENCE_S.  Both the raw and the normalized time are kept.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.02
REFERENCE_S = 0.0004  # about the reference computation's time on a 2-core x86 VM


def reference_work() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
    return acc


class SpeedClock:
    """Times calls; one instance per process, since it owns SIGALRM."""

    def __init__(self):
        self._samples = []
        self._spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _sample(self) -> float:
        t0 = time.perf_counter()
        reference_work()
        dt = time.perf_counter() - t0
        self._samples.append(dt)
        return dt

    def _tick(self, signum, frame) -> None:
        self._spent += self._sample()

    def measure(self, call):
        """Run call(); returns (result, exception or None, wall s, normalized s)."""
        self._samples, self._spent = [], 0.0
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            out, error = call(), None
        except Exception as exc:  # reported by the caller as a failed job
            out, error = None, exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        wall = time.perf_counter() - t0 - self._spent
        self._sample()
        scale = REFERENCE_S * len(self._samples) / sum(self._samples)
        return out, error, wall, wall * scale
