"""The reference computation that the benchmark's run times are expressed in.

A shared cloud host changes speed under a benchmark: on a 2-vCPU Xeon VM
the same repetition read 1.4 s and 2.7 s a minute apart, and a fixed
pure-Python loop slowed by the same factor at the same moments (another
tenant on the physical core), switching every few seconds.  So a
:class:`RefClock` times this computation, which does not touch the
program, between a workload's operations, and divides the wall of each
stretch of operations by the mean of the reference timings at its two
ends.  The sum (``wall_ref``) is how many reference computations the
workload costs: it moves when the program does, and much less when the
host does.  Each stretch's share is kept too (``laps``), so that a
stretch the host switched speed in can be outvoted by the same stretch
of other repetitions.
"""

from __future__ import annotations

import time

_clock = time.perf_counter

#: Timings of the reference per sample; the shortest is kept.
SAMPLES = 3


def _reference() -> int:
    """Dict updates, tuple appends and a sort: the interpreter work of a sweep.

    Its few megabytes of objects make it feel a busy neighbour's cache
    pressure about as much as the workloads do.
    """
    counts: dict[int, int] = {}
    keys = []
    for i in range(20_000):
        key = (i * 7919) % 65521
        counts[key] = counts.get(key, 0) + 1
        keys.append((key, i))
    keys.sort()
    return len(counts)


def reference_s() -> float:
    """The shortest of :data:`SAMPLES` timings of the reference, in seconds."""
    best = float("inf")
    for _ in range(SAMPLES):
        started = _clock()
        _reference()
        best = min(best, _clock() - started)
    return best


class RefClock:
    """The wall of a workload's operations, in seconds and in reference units.

    A workload calls :meth:`start` before its first operation, :meth:`lap`
    between operations and :meth:`stop` after the last.  Reference timings
    are not part of ``wall_s``.  With ``between=False`` (traced runs, where
    time outside the program's spans must stay small) the reference is
    timed only at the start and the stop.
    """

    def __init__(self, between: bool = True) -> None:
        self.between = between
        self.wall_s = 0.0
        self.laps: list[float] = []
        self._stretch = 0.0
        self._ref = 0.0
        self._started = 0.0

    def start(self) -> None:
        self._ref = reference_s()
        self._started = _clock()

    def lap(self, final: bool = False) -> None:
        self._stretch += _clock() - self._started
        if self.between or final:
            ref = reference_s()
            self.laps.append(self._stretch / ((self._ref + ref) / 2))
            self.wall_s += self._stretch
            self._stretch = 0.0
            self._ref = ref
        self._started = _clock()

    def stop(self) -> None:
        self.lap(final=True)

    @property
    def wall_ref(self) -> float:
        return sum(self.laps)
