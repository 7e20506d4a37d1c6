"""Host-speed correction: a fixed numpy kernel sampled on a timer during a pass.

The shared host this benchmark was sized on changes speed by up to 2x, in
phases that last from a fraction of a second to minutes.  CPU time tracks
wall time through these phases, so the cores themselves run slower; no
statistic taken inside a 35-second run removes a phase that covers the whole
run, and a sample taken only between operations misses the phases inside a
1.5-second ``cli region`` call.

``Clock`` therefore runs ``kernel`` -- a loop of small numpy operations on a
600-element array, like the library's own per-step work, and independent of
``d1q3rv`` -- from a ``SIGALRM`` handler every ``EVERY_S`` seconds of wall
time while a pass runs, and takes the kernel's time out of every interval it
measures.  ``REF_S / kernel time`` is the host's speed at that sample
relative to a reference.  An interval's corrected time is its measured time
times the mean speed of the samples inside it (widened by ``WINDOW_S`` on
each side, so that a short operation has samples too): the time it would
have taken at the reference speed.  A change in the program moves the
corrected time as much as the measured one; a change in the host's speed
mostly cancels.

``REF_S`` only sets the scale: it is the kernel's time on the machine in
MACHINE.json in a fast phase.  The traced run does not sample; it reports the
host's speed of the untraced passes as ``bench.host_speed``.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

REF_S = 0.55e-3
ROUNDS = 100
EVERY_S = 0.05
WINDOW_S = 0.25

_A = np.linspace(0.0, 1.0, 600)


def kernel() -> float:
    """Seconds taken by the fixed calibration loop."""
    a = _A
    t0 = perf_counter()
    for _ in range(ROUNDS):
        b = a * 1.5 + a
        b[1:] -= b[:-1]
    return perf_counter() - t0


class Clock:
    """Times the operations of one pass; with ``calibrate``, samples the host's speed.

    ``start()`` begins the pass, ``time(kind, fn, *args)`` runs and times
    ``fn(*args)``, and ``finish()`` ends the pass.  ``kind`` is ``"op"`` for
    the workload's repeated operation and ``"other"`` for the rest of it.
    """

    def __init__(self, calibrate: bool):
        self.calibrate = calibrate
        self.sample_t: list[float] = []
        self.sample_s: list[float] = []
        self.ops: list[tuple[str, float, float, float]] = []  # kind, start, end, seconds
        self.paused_s = 0.0
        self.wall = (0.0, 0.0, 0.0)
        self._busy = False
        if calibrate:
            kernel()  # warm-up, not recorded

    def _sample(self, *_) -> None:
        if self._busy:  # a signal that arrived during a sample
            return
        self._busy = True
        t0 = perf_counter()
        self.sample_s.append(kernel())
        self.sample_t.append(t0)
        self.paused_s += perf_counter() - t0
        self._busy = False

    def start(self) -> None:
        if self.calibrate:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
            self._sample()
        self._start = (perf_counter(), self.paused_s)

    def time(self, kind: str, fn, *args):
        paused, t0 = self.paused_s, perf_counter()
        out = fn(*args)
        t1 = perf_counter()
        self.ops.append((kind, t0, t1, t1 - t0 - (self.paused_s - paused)))
        return out

    def finish(self) -> None:
        t1 = perf_counter()
        t0, paused = self._start
        self.wall = (t0, t1, t1 - t0 - (self.paused_s - paused))
        if self.calibrate:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._sample()

    def _speed(self, t0: float, t1: float) -> float:
        """Mean host speed (REF_S / kernel time) of the samples near [t0, t1]."""
        if not self.calibrate:
            return 1.0
        t = np.array(self.sample_t)
        inside = (t >= t0 - WINDOW_S) & (t <= t1 + WINDOW_S)
        return float(np.mean(REF_S / np.array(self.sample_s)[inside]))

    def summary(self) -> dict:
        """Measured and corrected times of the pass and its operations."""
        t0, t1, wall_s = self.wall
        ops = [(s, s * self._speed(a, b)) for kind, a, b, s in self.ops if kind == "op"]
        return {
            "raw_wall_s": wall_s,
            "wall_s": wall_s * self._speed(t0, t1),
            "raw_op_s": [raw for raw, _ in ops],
            "op_s": [corrected for _, corrected in ops],
            "kernel_s": statistics.median(self.sample_s) if self.sample_s else REF_S,
        }
