"""Reference clock: wall time corrected for the host's drifting speed.

The host this benchmark was tuned on gives it two cores of a shared machine
whose speed drifts: the same pass took 0.59 s and 1.0 s a few seconds apart,
with CPU time tracking wall time and no steal time, and a reference loop run
between passes did not follow the changes closely enough.  So the reference
is sampled *during* the timed work instead: while a ``RefClock`` is open, a
timer signal every ``PERIOD_S`` runs a fixed pure-Python chunk (a scalar
complex recurrence, the kind of work the DP5 stepper's inner loop does) and
times it.  The work's own time is its wall time minus the chunks'; divided
by the mean chunk time and multiplied by ``NOMINAL_CHUNK_S`` it becomes
the work's time on a host where one chunk takes ``NOMINAL_CHUNK_S``.

The chunk is the benchmark's own code, so a change to the program cannot
move it.  Signal handlers run between bytecodes, so a chunk that falls due
during a long numpy call waits for the call to return.
"""

from __future__ import annotations

import cmath
import math
import signal
import statistics
import time

PERIOD_S = 0.02
CHUNK_STEPS = 1500
# One chunk took 0.8-1.2 ms on the 2-core Xeon (2.1 GHz) host it was tuned on.
NOMINAL_CHUNK_S = 1.0e-3
# A chunk this many times slower than the median was descheduled while it ran.
OUTLIER_FACTOR = 2.0


def chunk(steps: int = CHUNK_STEPS) -> complex:
    """Fixed reference work: a driven two-level recurrence in scalar complex math."""
    a, b = 1.0 + 0.0j, 0.0j
    h = 1e-3
    for i in range(steps):
        t = i * h
        c = 0.5 * math.exp(-t * t * 1e-6) * cmath.exp(-0.3j * t)
        a, b = a - 1j * h * c * b, b - 1j * h * c.conjugate() * a
    return a


def _timed_chunk() -> float:
    started = time.perf_counter()
    chunk()
    return time.perf_counter() - started


class RefClock:
    """Context manager timing a block against chunks sampled while it runs.

    After the block: ``started`` is its ``perf_counter`` start, ``wall_s``
    its wall time, ``own_s`` the wall time minus the chunks run inside it,
    ``chunk_s`` the mean chunk time (one chunk just before and one just
    after the block are included, so there are always samples; chunks
    slower than ``OUTLIER_FACTOR`` times the median are left out) and
    ``nominal_s`` the block's own time scaled to ``NOMINAL_CHUNK_S``.
    """

    def __init__(self):
        self.inside: list[float] = []
        self.wall_s = self.own_s = self.chunk_s = self.nominal_s = 0.0
        self._edges: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.inside.append(_timed_chunk())

    def __enter__(self) -> "RefClock":
        self._edges = [_timed_chunk()]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall_s = time.perf_counter() - self.started
        signal.signal(signal.SIGALRM, self._previous)
        self._edges.append(_timed_chunk())
        self.own_s = self.wall_s - sum(self.inside)
        samples = self.inside + self._edges
        typical = statistics.median(samples)
        self.chunk_s = statistics.fmean(s for s in samples if s <= OUTLIER_FACTOR * typical)
        self.nominal_s = self.own_s / self.chunk_s * NOMINAL_CHUNK_S
