"""Dense timeline arrays: the NumPy substrate of the cube engine.

The compiled engine (:mod:`repro.sim.compiled`) already reduced a sweep to
``O(L * n)`` trajectory compilations plus one Python-level timeline scan
per configuration.  At dense-curve scales -- every algorithm x label space
x delay grid behind the paper's tradeoff plots -- that per-configuration
scan is itself the hot path.  This module removes it: the per-``(label,
start)`` position timelines are stacked into dense arrays (one ``(n, T+1)``
matrix per label), and all ``(start_pair, delay)`` configurations of a
label pair are answered in one vectorized pass -- first colocation via
array comparison over delay-shifted timelines, costs via fancy-indexed
cumulative-traversal rows.

:class:`BatchTimelineTable` is the unpruned table under
:class:`repro.sim.cube.CubeTimelineTable`: its cached per-group
all-start-pairs matrices are what the cube engine's whole-cube slices
read when the orbit shortcut does not apply.  The measured ``(time,
cost)`` per configuration is exact integer array arithmetic mirroring
:meth:`~repro.sim.compiled.TrajectoryTable.evaluate`, and full results
are reconstructed through the compiled engine's
:func:`~repro.sim.compiled.reconstruct_result`.  The cross-engine suite
in ``tests/sim/test_compiled.py`` asserts the identity exhaustively.

NumPy is an *optional* dependency (the ``repro-rendezvous[batch]`` extra).
Importing this module never requires it; constructing a
:class:`BatchTimelineTable` (or resolving ``engine="cube"`` through
:func:`repro.sim.adversary.resolve_substrate`) without NumPy raises
:class:`BatchUnavailableError` with the install hint, and
``engine="auto"`` falls back to the compiled engine silently.
"""

from __future__ import annotations

# repro: allow-file(REP001) -- perf_counter here meters table builds for
# telemetry gauges (build_seconds); results flow only through Telemetry,
# never into RendezvousResult bytes, as the inertness matrix in tests/obs
# proves dynamically.

import time
from dataclasses import dataclass
from typing import Any, Sequence

from repro.graphs.port_graph import PortLabeledGraph
from repro.sim.adversary import Configuration
from repro.sim.compiled import TrajectoryTable
from repro.sim.metrics import RendezvousResult
from repro.sim.program import ProgramFactory
from repro.sim.simulator import PresenceModel

try:  # pragma: no cover - exercised via both CI legs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Element budget of one ``(n, n, block)`` comparison tensor; the scanned
#: column block adapts to the graph size so temporaries stay a few MB.
_BLOCK_ELEMENTS = 1 << 21

#: Narrowest scanned column block.  Meetings are typically early, so
#: moderate blocks give the vector path the same early-exit the compiled
#: engine's phase scans enjoy.
_MIN_TIME_BLOCK = 16

#: Total element budget of cached per-group meeting/cost matrices; the
#: oldest groups are evicted beyond it.
_MATRIX_CACHE_ELEMENTS = 1 << 24


class BatchUnavailableError(ValueError):
    """The NumPy engine was requested but NumPy is not importable.

    A :class:`ValueError` (like :class:`repro.registry.SpecError`) naming
    the requesting engine, the missing dependency, the extra that
    provides it and the engines that work without it.
    """


def numpy_available() -> bool:
    """Whether the NumPy engine (cube) can run in this environment."""
    return _np is not None


def require_numpy() -> Any:
    """The ``numpy`` module, or a loud :class:`BatchUnavailableError`."""
    if _np is None:
        raise BatchUnavailableError(
            "engine 'cube' needs NumPy, which is not importable in "
            "this environment; install the optional extra (pip install "
            "'repro-rendezvous[batch]') or choose engine 'auto' or "
            "'compiled' -- 'auto' falls back to the compiled engine "
            "without NumPy and the reports are identical"
        )
    return _np


def store_bounded(cache: dict, key: Any, value: Any, size: int) -> None:
    """Insert into a FIFO cache of equal-size entries, evicting the oldest.

    ``size`` is one entry's element count; entries are dropped oldest
    first until the new one fits :data:`_MATRIX_CACHE_ELEMENTS`.
    """
    while cache and (len(cache) + 1) * size > _MATRIX_CACHE_ELEMENTS:
        cache.pop(next(iter(cache)))
    cache[key] = value


@dataclass(frozen=True)
class LabelTimelines:
    """One label's solo timelines over *all* starting nodes, as arrays.

    Row ``s`` of ``positions`` is the padded position timeline of the
    agent with this label started at node ``s`` (``positions[s, t]`` for
    time points ``t = 0..T``); ``costs[s, t]`` is its cumulative number
    of edge traversals through round ``t``.  ``length`` is the schedule
    length ``T`` (identical across starts: it is a function of the label
    alone, which is what makes the rows rectangular).
    """

    positions: Any  # (n, T+1) int16 (int32 on huge graphs) ndarray
    costs: Any  # (n, T+1) int32 ndarray
    length: int


def _meeting_tensor(
    np: Any,
    first: LabelTimelines,
    second: LabelTimelines,
    delay_horizons: Sequence[tuple[int, int]],
    parachute: bool,
) -> Any:
    """First colocation times for every ``(delay slice, start pair)``.

    Slice ``d`` of the returned ``(D, n, n)`` tensor answers
    ``delay_horizons[d] = (delay, horizon)`` for every ordered start
    pair: the first time point in ``[earliest, horizon]`` at which the
    delay-shifted timelines colocate, ``-1`` when they never do.  The
    second agent's timeline is read through clipped time indices
    (``clip(t - delay, 0, T2)``), which realises both the pre-wake wait
    at its start and the parked tail past its schedule -- the same delay
    shift :func:`repro.sim.compiled.first_meeting_time` scans in phases;
    under the parachute presence model its pre-wake positions are blanked
    to a sentinel no node matches, so no meeting can precede its wake.

    All slices share one column-block scan (early meetings stop it
    early).  No slice looks past ``max(T1, delay + T2)``: beyond that
    point both timelines are constant, so a colocation there implies an
    earlier one at the parking point, which the scan covers.  A first
    colocation past a slice's own window is masked back to ``-1``.
    """
    n = first.positions.shape[0]
    count = len(delay_horizons)
    delays = np.array([delay for delay, _ in delay_horizons], dtype=np.intp)
    horizons = np.array([horizon for _, horizon in delay_horizons], dtype=np.int64)
    met = np.full((count, n, n), -1, dtype=np.int64)
    length1, length2 = first.length, second.length
    limit = np.minimum(horizons, np.maximum(length1, delays + length2))
    max_scan = int(limit.max())
    start_t = int(delays.min()) if parachute else 0
    positions1, positions2 = first.positions, second.positions
    block = max(_MIN_TIME_BLOCK, _BLOCK_ELEMENTS // (count * n * n))
    t0 = start_t
    while t0 <= max_scan:
        t1 = min(t0 + block - 1, max_scan)
        times = np.arange(t0, t1 + 1, dtype=np.intp)
        a = positions1[:, np.minimum(times, length1)]  # (n, b)
        cols2 = np.clip(times[None, :] - delays[:, None], 0, length2)  # (D, b)
        b2 = np.moveaxis(positions2[:, cols2], 0, 1)  # (D, n, b)
        if parachute:
            asleep = times[None, :] < delays[:, None]
            b2 = np.where(asleep[:, None, :], -1, b2)
        colocated = a[None, :, None, :] == b2[:, None, :, :]  # (D, n, n, b)
        fresh = colocated.any(axis=3) & (met < 0)
        if fresh.any():
            met[fresh] = t0 + colocated[fresh].argmax(axis=1)
            if (met >= 0).all():
                break
        t0 = t1 + 1
    # A colocation past a slice's window (its horizon, or -- parachute
    # only -- at a time its own delay has not reached) is no meeting.
    return np.where((met >= 0) & (met <= limit[:, None, None]), met, -1)


def _cost_tensor(
    np: Any,
    first: LabelTimelines,
    second: LabelTimelines,
    delay_horizons: Sequence[tuple[int, int]],
    met: Any,
) -> Any:
    """Total traversal cost for every ``(delay slice, start pair)``.

    Counted through the meeting round (``met[d, s1, s2]``), or through
    the slice's horizon where the pair never meets -- exactly the clamped
    cumulative-cost reads of :meth:`TrajectoryTable.evaluate`.
    """
    n = met.shape[1]
    delays = np.array([delay for delay, _ in delay_horizons], dtype=np.int64)
    horizons = np.array([horizon for _, horizon in delay_horizons], dtype=np.int64)
    last = np.where(met >= 0, met, horizons[:, None, None])
    rows = np.arange(n, dtype=np.intp)
    return (
        first.costs[rows[None, :, None], np.minimum(last, first.length)]
        + second.costs[
            rows[None, None, :],
            np.clip(last - delays[:, None, None], 0, second.length),
        ]
    )


class BatchTimelineTable:
    """Dense per-label timeline arrays plus the compiled-trajectory cache.

    The cube engine's unpruned substrate: at most ``L`` label matrices
    are built (each stacking the ``n`` compiled trajectories of one
    label), however many configurations are evaluated.
    :meth:`group_matrices` answers every start pair of one ``(label
    pair, delay, horizon)`` group in one vectorized pass;
    :meth:`result` reconstructs the full reactive-equivalent record for
    the few configurations that end up as extremes, through the wrapped
    :class:`~repro.sim.compiled.TrajectoryTable`.
    """

    def __init__(
        self,
        graph: PortLabeledGraph,
        factory: ProgramFactory,
        provide_map: bool = True,
        provide_position: bool = True,
    ):
        self._np = require_numpy()
        self.graph = graph
        self.factory = factory
        self.trajectories = TrajectoryTable(
            graph, factory, provide_map, provide_position
        )
        self._labels: dict[int, LabelTimelines] = {}
        #: Cumulative wall-clock seconds spent building label matrices
        #: (including the nested trajectory compiles they trigger) -- the
        #: "table build" half of this engine's profile.  Observability
        #: data only: nothing reads it back into the computation.
        self.build_seconds = 0.0
        # (labels, delay, horizon, presence) -> (met, cost) matrices.
        # Bounded FIFO: shards of one sweep revisit the same groups, so
        # each matrix is computed once per process.
        self._matrices: dict[
            tuple[tuple[int, int], int, int, PresenceModel], tuple[Any, Any]
        ] = {}

    def timelines(self, label: int) -> LabelTimelines:
        """The stacked (all-starts) timeline arrays of one label."""
        stacked = self._labels.get(label)
        if stacked is None:
            started = time.perf_counter()
            np = self._np
            rows = [
                self.trajectories.trajectory(label, start)
                for start in range(self.graph.num_nodes)
            ]
            # int16 positions halve the traffic of the comparison pass;
            # node ids exceed it only on graphs far past this engine's
            # O(n^2) start-pair matrices anyway.
            position_dtype = np.int16 if self.graph.num_nodes <= 2**15 else np.int32
            stacked = LabelTimelines(
                positions=np.array([t.positions for t in rows], dtype=position_dtype),
                costs=np.array([t.cumulative_cost for t in rows], dtype=np.int32),
                length=rows[0].length,
            )
            self._labels[label] = stacked
            self.build_seconds += time.perf_counter() - started
        return stacked

    def __len__(self) -> int:
        """Number of label matrices built so far."""
        return len(self._labels)

    def _ensure_matrices(
        self,
        labels: tuple[int, int],
        delay_horizons: Sequence[tuple[int, int]],
        presence: PresenceModel,
    ) -> None:
        """Compute and cache the matrices of one label pair's groups.

        All missing ``(delay, horizon)`` slices of the pair are answered
        by a single tensor pass -- the per-call NumPy overhead is paid
        once per label pair, not once per delay.
        """
        missing = [
            (delay, horizon)
            for delay, horizon in delay_horizons
            if (labels, delay, horizon, presence) not in self._matrices
        ]
        if not missing:
            return
        np = self._np
        first = self.timelines(labels[0])
        second = self.timelines(labels[1])
        parachute = presence is PresenceModel.PARACHUTE
        met = _meeting_tensor(np, first, second, missing, parachute)
        cost = _cost_tensor(np, first, second, missing, met)
        # Each entry holds TWO n*n matrices (met and cost).
        size = 2 * self.graph.num_nodes**2
        for index, (delay, horizon) in enumerate(missing):
            store_bounded(
                self._matrices,
                (labels, delay, horizon, presence),
                (met[index], cost[index]),
                size,
            )

    def group_matrices(
        self,
        labels: tuple[int, int],
        delay: int,
        horizon: int,
        presence: PresenceModel = PresenceModel.FROM_START,
    ) -> tuple[Any, Any]:
        """The ``(met, cost)`` all-start-pairs matrices of one group.

        One vectorized pass answers every ordered start pair of a
        ``(label pair, delay, horizon)`` group at once; the matrices are
        cached (bounded FIFO) so shards that split a group across calls
        still compute it once.
        """
        key = (labels, delay, horizon, presence)
        matrices = self._matrices.get(key)
        if matrices is None:
            self._ensure_matrices(labels, [(delay, horizon)], presence)
            matrices = self._matrices[key]
        return matrices

    def result(
        self,
        config: Configuration,
        max_rounds: int,
        presence: PresenceModel = PresenceModel.FROM_START,
    ) -> RendezvousResult:
        """The full reactive-equivalent result of one configuration."""
        return self.trajectories.result(config, max_rounds, presence)
