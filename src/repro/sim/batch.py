"""The vectorized batch engine: whole configuration blocks per NumPy pass.

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

Equivalence contract: identical to the compiled engine's, inherited
verbatim -- :func:`batch_worst_case_search` returns a
:class:`~repro.sim.adversary.WorstCaseReport` equal *field for field*
(traces, crossings, tie-broken argmax configurations, failure tuples) to
the reactive :func:`~repro.sim.adversary.worst_case_search`.  The measured
``(time, cost)`` per configuration is computed by exact integer array
arithmetic mirroring :meth:`~repro.sim.compiled.TrajectoryTable.evaluate`,
and the extremes' full results are reconstructed through the compiled
engine's :func:`~repro.sim.compiled.reconstruct_result`.  The cross-engine
suite in ``tests/sim/test_compiled.py`` asserts the identity exhaustively.

NumPy is an *optional* dependency (the ``repro-rendezvous[batch]`` extra).
Importing this module never requires it; constructing a
:class:`BatchTimelineTable` (or resolving ``engine="batch"`` anywhere in
the stack) without NumPy raises :class:`BatchUnavailableError` with the
install hint, and ``engine="auto"`` falls back to the compiled engine
silently.

The engine consumes configuration streams in bounded chunks
(:func:`evaluate_stream`), so arbitrarily large sweeps hold one chunk of
configurations -- never the full adversarial space -- in memory.
"""

from __future__ import annotations

# repro: allow-file(REP001) -- perf_counter here meters table builds and
# chunk scans for telemetry gauges (build_seconds, on_chunk); results
# flow only through Telemetry, never into RendezvousResult bytes, as the
# inertness matrix in tests/obs proves dynamically.

import itertools
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.graphs.port_graph import PortLabeledGraph
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim.adversary import (
    Configuration,
    ExtremeRecord,
    WorstCaseReport,
)
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

#: A group answers through the all-pairs matrices when its requested
#: configurations cover at least ``1/_DENSE_FRACTION`` of the ``n**2``
#: start pairs; sparser groups (e.g. pinned-first-start sweeps, which
#: request ``n - 1`` of them) scan just their own rows.
_DENSE_FRACTION = 8

#: Configurations pulled from a stream per :func:`evaluate_stream` chunk
#: when neither the caller nor the environment picks a size and no graph
#: is available to size one from.
DEFAULT_STREAM_CHUNK = 16384

#: Environment override for the stream chunk size, consulted by
#: :func:`resolve_stream_chunk` (kwarg > env > graph-derived default).
STREAM_CHUNK_ENV = "REPRO_BATCH_CHUNK"

#: Hard ceiling on a graph-derived chunk size: past this, chunk-list
#: bookkeeping dominates and memory grows for no vectorization gain.
_MAX_DERIVED_CHUNK = 1 << 18


class BatchUnavailableError(ValueError):
    """A NumPy engine was requested but NumPy is not importable.

    A :class:`ValueError` (like :class:`repro.registry.SpecError`) naming
    the requesting engine, the missing dependency, the extra that
    provides it and the engines that work without it.
    """


def numpy_available() -> bool:
    """Whether the NumPy engines (batch, cube) can run in this environment."""
    return _np is not None


def require_numpy(engine: str = "batch") -> Any:
    """The ``numpy`` module, or a loud :class:`BatchUnavailableError`.

    ``engine`` names the requesting rung (``"batch"`` or ``"cube"``) so
    the hint identifies what was asked for; the remedy is identical.
    """
    if _np is None:
        raise BatchUnavailableError(
            f"engine {engine!r} needs NumPy, which is not importable in "
            "this environment; install the optional extra (pip install "
            "'repro-rendezvous[batch]') or choose engine 'auto' or "
            "'compiled' -- 'auto' falls back to the compiled engine "
            "without NumPy and the reports are identical"
        )
    return _np


def resolve_stream_chunk(
    chunk_size: int | None = None, graph: PortLabeledGraph | None = None
) -> int:
    """The single resolution funnel for the stream chunk size.

    Explicit argument > ``REPRO_BATCH_CHUNK`` environment variable > a
    graph-derived default.  The derived default covers ``8 * n**2``
    configurations -- enough start-pair coverage that every group in the
    chunk clears :data:`_DENSE_FRACTION` and answers through the cached
    all-pairs matrices -- floored at :data:`DEFAULT_STREAM_CHUNK` and
    capped at :data:`_MAX_DERIVED_CHUNK` so small sweeps stop paying
    per-chunk overhead without huge graphs ballooning memory.
    """
    if chunk_size is not None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        return chunk_size
    raw = os.environ.get(STREAM_CHUNK_ENV)
    if raw is not None:
        try:
            parsed = int(raw)
        except ValueError:
            parsed = 0
        if parsed < 1:
            raise ValueError(
                f"{STREAM_CHUNK_ENV}={raw!r} is not a positive integer"
            )
        return parsed
    if graph is not None:
        derived = 8 * graph.num_nodes**2
        return min(max(DEFAULT_STREAM_CHUNK, derived), _MAX_DERIVED_CHUNK)
    return DEFAULT_STREAM_CHUNK


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


def _first_meetings(
    np: Any,
    first: LabelTimelines,
    second: LabelTimelines,
    s1: Any,
    s2: Any,
    delay: int,
    horizon: int,
    earliest: int,
) -> Any:
    """First colocation time per row-aligned start pair (-1 = none).

    The sparse-group counterpart of :func:`_meeting_tensor`: the same
    delay-shifted column scan, restricted to the requested ``(s1, s2)``
    rows, with met rows dropping out between blocks.
    """
    count = s1.shape[0]
    met = np.full(count, -1, dtype=np.int64)
    if earliest > horizon:
        return met
    length1, length2 = first.length, second.length
    scan_hi = min(horizon, max(length1, delay + length2))
    positions1, positions2 = first.positions, second.positions
    block = max(_MIN_TIME_BLOCK, _BLOCK_ELEMENTS // max(count, 1))
    active = np.arange(count, dtype=np.intp)
    t0 = earliest
    while active.size and t0 <= scan_hi:
        t1 = min(t0 + block - 1, scan_hi)
        times = np.arange(t0, t1 + 1, dtype=np.intp)
        colocated = (
            positions1[s1[active][:, None], np.minimum(times, length1)[None, :]]
            == positions2[s2[active][:, None], np.clip(times - delay, 0, length2)[None, :]]
        )
        hit = colocated.any(axis=1)
        if hit.any():
            met[active[hit]] = t0 + colocated[hit].argmax(axis=1)
            active = active[~hit]
        t0 = t1 + 1
    return met


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

    The batch engine's substrate: at most ``L`` label matrices are built
    (each stacking the ``n`` compiled trajectories of one label), however
    many configurations are evaluated.  :meth:`evaluate_many` answers a
    block of configurations in grouped vectorized passes;
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
        # Bounded FIFO: shards and stream chunks of one sweep revisit the
        # same groups, so each matrix is computed once per process.
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
        cached (bounded FIFO) so stream chunks and shards that split a
        group across calls still compute it once.
        """
        key = (labels, delay, horizon, presence)
        matrices = self._matrices.get(key)
        if matrices is None:
            self._ensure_matrices(labels, [(delay, horizon)], presence)
            matrices = self._matrices[key]
        return matrices

    def evaluate_arrays(
        self,
        configs: Sequence[Configuration],
        horizons: Sequence[int],
        presence: PresenceModel = PresenceModel.FROM_START,
    ) -> tuple[Any, Any]:
        """``(met, cost)`` int64 arrays aligned to the input order.

        ``met[i]`` is configuration ``i``'s meeting time (``-1`` when the
        agents do not meet within its horizon) and ``cost[i]`` the total
        edge traversals through the meeting round (through the horizon
        for a failure).  Configurations are grouped by ``(labels, delay,
        horizon)`` -- the axes the vector pass shares; dense groups are
        read out of their (cached) all-start-pairs matrices, sparse ones
        scan just their own rows.  The numbers are exactly what
        :meth:`TrajectoryTable.evaluate` (and hence the reactive
        simulator) would measure.
        """
        np = self._np
        met_all = np.empty(len(configs), dtype=np.int64)
        cost_all = np.empty(len(configs), dtype=np.int64)
        pair_count = self.graph.num_nodes**2
        groups: dict[tuple[tuple[int, int], int, int], list[int]] = {}
        for position, config in enumerate(configs):
            key = (config.labels, config.delay, horizons[position])
            groups.setdefault(key, []).append(position)
        # Pre-build every dense group's matrices, one tensor pass per
        # label pair across all its delays.
        dense: dict[tuple[tuple[int, int], PresenceModel], list[tuple[int, int]]] = {}
        for (labels, delay, horizon), members in groups.items():
            if len(members) * _DENSE_FRACTION >= pair_count:
                dense.setdefault((labels, presence), []).append((delay, horizon))
        for (labels, _), delay_horizons in dense.items():
            self._ensure_matrices(labels, delay_horizons, presence)
        for (labels, delay, horizon), members in groups.items():
            rows = np.array(members, dtype=np.intp)
            starts = np.array([configs[i].starts for i in members], dtype=np.intp)
            s1, s2 = starts[:, 0], starts[:, 1]
            if (
                len(members) * _DENSE_FRACTION >= pair_count
                or (labels, delay, horizon, presence) in self._matrices
            ):
                met_matrix, cost_matrix = self.group_matrices(
                    labels, delay, horizon, presence
                )
                met, cost = met_matrix[s1, s2], cost_matrix[s1, s2]
            else:
                first = self.timelines(labels[0])
                second = self.timelines(labels[1])
                earliest = delay if presence is PresenceModel.PARACHUTE else 0
                met = _first_meetings(
                    np, first, second, s1, s2, delay, horizon, earliest
                )
                last = np.where(met >= 0, met, horizon)
                cost = (
                    first.costs[s1, np.minimum(last, first.length)]
                    + second.costs[s2, np.clip(last - delay, 0, second.length)]
                )
            met_all[rows] = met
            cost_all[rows] = cost
        return met_all, cost_all

    def evaluate_many(
        self,
        configs: Sequence[Configuration],
        horizons: Sequence[int],
        presence: PresenceModel = PresenceModel.FROM_START,
    ) -> list[tuple[int | None, int]]:
        """``(meeting time, cost)`` per configuration, as Python values.

        The scalar view of :meth:`evaluate_arrays` (``None`` replacing
        ``-1``), matching :meth:`TrajectoryTable.evaluate` per entry.
        """
        met, cost = self.evaluate_arrays(configs, horizons, presence)
        return [
            (time if time >= 0 else None, total)
            for time, total in zip(met.tolist(), cost.tolist())
        ]

    def result(
        self,
        config: Configuration,
        max_rounds: int,
        presence: PresenceModel = PresenceModel.FROM_START,
    ) -> RendezvousResult:
        """The full reactive-equivalent result of one configuration."""
        return self.trajectories.result(config, max_rounds, presence)


def evaluate_stream(
    table: BatchTimelineTable,
    items: Iterable[tuple[Any, Configuration, int]],
    presence: PresenceModel = PresenceModel.FROM_START,
    chunk_size: int | None = None,
    on_chunk: Callable[[int, float], None] | None = None,
) -> Iterator[tuple[Any, Configuration, int, int | None, int]]:
    """Measure a lazy ``(key, config, horizon)`` stream, preserving order.

    Pulls at most ``chunk_size`` configurations at a time (the whole
    memory footprint of an arbitrarily large sweep), vectorizes each
    chunk through :meth:`BatchTimelineTable.evaluate_many`, and yields
    ``(key, config, horizon, time, cost)`` in the input order -- the shape
    both :func:`batch_worst_case_search` and the runtime worker's shard
    loop consume.  ``chunk_size=None`` resolves through
    :func:`resolve_stream_chunk` (``REPRO_BATCH_CHUNK``, then a default
    sized to the table's graph).  ``on_chunk(size, seconds)`` is called
    once per vectorized pass (telemetry's chunk-timing hook); it observes
    and must never influence the measurements.
    """
    chunk_size = resolve_stream_chunk(chunk_size, table.graph)
    iterator = iter(items)
    while True:
        chunk = list(itertools.islice(iterator, chunk_size))
        if not chunk:
            return
        configs = [config for _, config, _ in chunk]
        horizons = [horizon for _, _, horizon in chunk]
        started = time.perf_counter() if on_chunk is not None else 0.0
        measured = table.evaluate_many(configs, horizons, presence)
        if on_chunk is not None:
            on_chunk(len(chunk), time.perf_counter() - started)
        for (key, config, horizon), (time_, cost) in zip(chunk, measured):
            yield key, config, horizon, time_, cost


def batch_worst_case_search(
    graph: PortLabeledGraph,
    factory: ProgramFactory,
    configs: Iterable[Configuration],
    max_rounds: int | Callable[[Configuration], int],
    presence: PresenceModel = PresenceModel.FROM_START,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> WorstCaseReport:
    """The batch engine behind ``worst_case_search(engine="batch")``.

    Identical update discipline to the reactive loop (strict ``>`` in
    enumeration order, so ties keep the earliest configuration); the
    configuration stream is consumed lazily in bounded chunks, and the
    full results of the two argmax records are reconstructed once at the
    end, never per configuration.  Telemetry splits the sweep's wall
    clock into table build (timeline stacking) versus vectorized scan,
    and counts the chunks.
    """
    np = require_numpy()
    table = BatchTimelineTable(graph, factory)
    horizon_of = max_rounds if callable(max_rounds) else None
    worst_time: tuple[int, Configuration, int] | None = None
    worst_cost: tuple[int, Configuration, int] | None = None
    failures: list[Configuration] = []
    executions = 0
    chunks = 0

    chunk_size = resolve_stream_chunk(None, graph)
    with telemetry.span("batch.search"):
        started = time.perf_counter()
        iterator = iter(configs)
        while True:
            chunk = list(itertools.islice(iterator, chunk_size))
            if not chunk:
                break
            chunks += 1
            if horizon_of is not None:
                horizons = [horizon_of(config) for config in chunk]
            else:
                horizons = [max_rounds] * len(chunk)
            met, cost = table.evaluate_arrays(chunk, horizons, presence)
            executions += len(chunk)
            missed = np.nonzero(met < 0)[0]
            for position in missed.tolist():
                failures.append(chunk[position])
            if missed.size == len(chunk):
                continue
            # argmax returns the FIRST maximiser, and failures sit at -1 <
            # any meeting time (costs are masked to -1), so each chunk's
            # candidate carries the lowest in-chunk position -- combined with
            # the strict-> update across chunks this is exactly the serial
            # first-wins tie-break.
            position = int(met.argmax())
            if worst_time is None or met[position] > worst_time[0]:
                worst_time = (int(met[position]), chunk[position], horizons[position])
            masked_cost = np.where(met >= 0, cost, -1)
            position = int(masked_cost.argmax())
            if worst_cost is None or masked_cost[position] > worst_cost[0]:
                worst_cost = (
                    int(masked_cost[position]),
                    chunk[position],
                    horizons[position],
                )
        if telemetry.enabled:
            elapsed = time.perf_counter() - started
            telemetry.gauge(
                "batch.table_build_seconds", round(table.build_seconds, 6)
            )
            telemetry.gauge(
                "batch.scan_seconds",
                round(max(elapsed - table.build_seconds, 0.0), 6),
            )
            telemetry.count("batch.chunks", chunks)
            telemetry.count("configs.evaluated", executions)

    def record(extreme: tuple[int, Configuration, int] | None) -> ExtremeRecord | None:
        if extreme is None:
            return None
        _, config, horizon = extreme
        return ExtremeRecord(
            config=config, result=table.result(config, horizon, presence)
        )

    return WorstCaseReport(
        worst_time=record(worst_time),
        worst_cost=record(worst_cost),
        executions=executions,
        failures=tuple(failures),
    )
