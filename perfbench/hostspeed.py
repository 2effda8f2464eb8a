"""Host speed, measured with a fixed calibration loop, and timings scaled by it.

A shared virtual machine changes speed while a benchmark runs.  On the
machine the reference figures come from, the same round of a workload took
17 to 29 s within minutes, in one process, as the host's load changed; a
round averages too few of these changes for ten runs to agree within a fifth.

So every timing the benchmark reports is scaled to a reference speed: it is
multiplied by ``REFERENCE_S / k``, where ``k`` is the mean CPU time of a fixed
pure-Python loop run next to the timed work and ``REFERENCE_S`` is that loop's
time on the reference machine.  The loop does not call ``subtrees``, and it
times itself in CPU time of its own thread, so time it waits for the CPU,
as when the program's worker processes compete with it, does not move ``k``.
A change to the program therefore moves a scaled time by the same share as
the raw one; the raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

# CPU time of ``loop`` on the reference machine (see README.md).
REFERENCE_S = 0.002
# Seconds between two calibrations while a round runs.
PERIOD_S = 0.25


def loop() -> float:
    """Run the fixed calibration loop once; return its thread CPU time."""
    started = time.thread_time()
    total, table = 0, {}
    for i in range(15000):
        total += i * i % 7
        table[i & 255] = total
    return time.thread_time() - started


def scale(raw: float, ks: list[float]) -> float:
    """``raw`` seconds at the reference speed, given loop times ``ks``."""
    return raw * REFERENCE_S / statistics.fmean(ks)


class Sampler:
    """Runs the loop every ``PERIOD_S`` seconds while a round is timed.

    A ``SIGALRM`` handler runs it between two bytecodes of the measured code.
    Forked scan workers do not inherit the interval timer, so only this
    process calibrates.  ``raw`` is the round's wall time without the
    calibrations.
    """

    def __enter__(self) -> "Sampler":
        self.ks: list[float] = []
        self.paused = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.started = time.perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        self.ks.append(loop())
        self.paused += time.perf_counter() - started

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.raw = time.perf_counter() - self.started - self.paused
        signal.signal(signal.SIGALRM, self._previous)
        if not self.ks:  # a round shorter than one period
            self.ks.append(loop())

    @property
    def scaled(self) -> float:
        return scale(self.raw, self.ks)
