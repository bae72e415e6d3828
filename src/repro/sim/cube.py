"""The cube engine: whole-sweep tensor passes with adversary-space pruning.

The batch engine (:mod:`repro.sim.batch`) answers all ``(start, delay)``
configurations of one label pair per NumPy pass but still loops over the
``L(L-1)`` label pairs in Python, materializes a :class:`Configuration`
object per cell, and scans every start pair even when symmetry makes most
of them redundant.  This module removes all three costs:

* **Cross-label tensorization** -- given a :class:`ConfigCube` (the
  product-structured configuration space), the whole
  ``L(L-1) x n(n-1) x D`` cube -- or any contiguous index slice of it,
  such as a runtime shard -- is answered by per-axis array passes:
  configurations exist only as ``(pair, start, delay)`` indices until the
  two argmax extremes (and any failures) are decoded at the very end.
* **Rotation-orbit reduction** (:mod:`repro.sim.prune`) -- on a graph
  certified cyclic, with a start-oblivious factory, every label's ``n``
  timelines are rotated copies of one compiled trajectory, and a start
  pair's verdict depends only on ``delta = (s2 - s1) mod n``; one
  ``(D, n)`` delta table replaces each ``(D, n, n)`` start-pair tensor.
* **Delay dominance and early exit** -- delay slices past the first
  agent's schedule that share a post-wake window are exact translates of
  a pivot slice and are derived, not scanned; the meeting scan stops as
  soon as every tracked cell has met.

Equivalence contract: identical to the batch engine's, inherited verbatim
-- every pruned verdict is reconstructed by an exact rule before any
comparison, the argmax tie-break is the same strict-``>`` in global
enumeration order, and the cross-engine suite (``tests/sim``) asserts
byte-identity against the reactive engine with pruning on and off.

NumPy availability is checked at call time through
:mod:`repro.sim.batch`, so ``engine="cube"`` degrades with the same loud
:class:`~repro.sim.batch.BatchUnavailableError` hint (naming ``'cube'``)
and ``engine="auto"`` falls back to the compiled engine silently.
"""

from __future__ import annotations

# repro: allow-file(REP001) -- perf_counter meters table builds and scans
# for telemetry gauges, exactly as in repro.sim.batch; results flow only
# through Telemetry, never into report bytes.

import itertools
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.graphs.port_graph import PortLabeledGraph
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim import batch as batch_module
from repro.sim.adversary import (
    ConfigCube,
    Configuration,
    ExtremeRecord,
    WorstCaseReport,
)
from repro.sim.batch import (
    _BLOCK_ELEMENTS,
    _MIN_TIME_BLOCK,
    BatchTimelineTable,
    LabelTimelines,
    resolve_stream_chunk,
    store_bounded,
)
from repro.sim.program import ProgramFactory
from repro.sim.prune import (
    PruneStats,
    SymmetryCertificate,
    certify_symmetry,
    derive_met,
    dominance_plan,
    resolve_prune,
)
from repro.sim.simulator import PresenceModel


class CubeTimelineTable(BatchTimelineTable):
    """A :class:`BatchTimelineTable` with certified pruning on top.

    With pruning resolved on (:func:`repro.sim.prune.resolve_prune`) and
    the sweep certified (cyclic graph declaration re-verified exactly,
    start-oblivious factory, derived-trajectory probe), label timelines
    are rotation-derived from two compilations instead of ``n``, and
    group matrices are answered through ``(D, n)`` delta tables.  Delay
    dominance applies on every path.  Any gate failing falls back to the
    parent's full passes -- the reports are byte-identical either way,
    only the work differs (``stats`` meters what was avoided).
    """

    def __init__(
        self,
        graph: PortLabeledGraph,
        factory: ProgramFactory,
        provide_map: bool = True,
        provide_position: bool = True,
        prune: bool | None = None,
    ):
        super().__init__(graph, factory, provide_map, provide_position)
        self.prune = resolve_prune(prune)
        self.stats = PruneStats()
        self.certificate = (
            certify_symmetry(graph, factory)
            if self.prune
            else SymmetryCertificate(False, "pruning disabled")
        )
        # (labels, delay, horizon, presence) -> a (2, n) array over delta:
        # the met row stacked on the cost row.  Shards of one sweep that
        # split a label pair read it back instead of rescanning; a bounded
        # FIFO like ``_matrices``, since a long-lived worker table serves
        # sweep after sweep over ever new delays.
        self._delta_rows: dict[
            tuple[tuple[int, int], int, int, PresenceModel], Any
        ] = {}
        self._probed = False

    @property
    def orbit_active(self) -> bool:
        """Whether rotation-orbit reduction is currently in force."""
        return self.certificate.orbit

    def timelines(self, label: int) -> LabelTimelines:
        """Rotation-derived stacked timelines (one compile per label).

        Row ``s`` is the start-0 trajectory shifted by ``s`` -- exact on a
        certified-cyclic graph with a start-oblivious factory.  Defense
        in depth beyond the declarations: the first label built also
        compiles its start-1 trajectory and probes it against the derived
        row (one extra compile per table, the property is a factory-wide
        one); any mismatch voids the certificate for the whole table,
        discards derived state and falls back to the parent's full
        per-start builds.
        """
        if not self.certificate.orbit or self.graph.num_nodes < 2:
            return super().timelines(label)
        stacked = self._labels.get(label)
        if stacked is not None:
            return stacked
        started = time.perf_counter()
        np = self._np
        n = self.graph.num_nodes
        base = self.trajectories.trajectory(label, 0)
        if not self._probed:
            probe = self.trajectories.trajectory(label, 1)
            derived_positions = tuple((p + 1) % n for p in base.positions)
            if (
                probe.positions != derived_positions
                or probe.actions != base.actions
                or probe.cumulative_cost != base.cumulative_cost
            ):
                self.certificate = SymmetryCertificate(
                    False,
                    f"derived-trajectory probe mismatch for label {label}: "
                    "the factory declared start_oblivious but its start-1 "
                    "trajectory is not the rotated start-0 trajectory",
                )
                self._labels.clear()  # derived rows of other labels are void
                self._delta_rows.clear()
                self.build_seconds += time.perf_counter() - started
                return super().timelines(label)
            self._probed = True
        position_dtype = np.int16 if n <= 2**15 else np.int32
        row0 = np.array(base.positions, dtype=position_dtype)
        shifts = np.arange(n, dtype=position_dtype)[:, None]
        stacked = LabelTimelines(
            positions=(row0[None, :] + shifts) % n,
            costs=np.tile(
                np.array(base.cumulative_cost, dtype=np.int32), (n, 1)
            ),
            length=base.length,
        )
        self._labels[label] = stacked
        self.build_seconds += time.perf_counter() - started
        return stacked

    def delta_tables(
        self,
        labels: tuple[int, int],
        delay_horizons: Sequence[tuple[int, int]],
        presence: PresenceModel,
    ) -> tuple[Any, Any] | None:
        """``(met, cost)`` stacked ``(D, n)`` delta tables of one label pair.

        The one-pair view of :meth:`cube_delta_tables`: ``None`` when the
        orbit certificate does not hold, the caller then falls back to
        full matrices.
        """
        tables = self.cube_delta_tables([labels], [delay_horizons], presence)
        if tables is None:
            return None
        met, cost = tables
        return met[0], cost[0]

    def cube_delta_tables(
        self,
        label_pairs: Sequence[tuple[int, int]],
        delay_horizons: Sequence[Sequence[tuple[int, int]]],
        presence: PresenceModel,
    ) -> tuple[Any, Any] | None:
        """``(met, cost)`` as ``(P, D, n)`` tensors over the given label pairs.

        ``delay_horizons[p]`` lists pair ``p``'s ``(delay, horizon)``
        slices (one per delay-axis entry, so ``D`` is uniform).  Pairs
        whose every slice is in the row cache are read back; the rest go
        through one stacked pass (:meth:`_scan_delta_cube`) and are
        cached.  Returns ``None`` when the orbit certificate does not
        hold (or the trajectory probe voids it mid-build).
        """
        if not self.certificate.orbit:
            return None
        np = self._np
        n = self.graph.num_nodes
        delay_count = len(delay_horizons[0]) if delay_horizons else 0
        met = np.empty((len(label_pairs), delay_count, n), dtype=np.int64)
        cost = np.empty((len(label_pairs), delay_count, n), dtype=np.int64)
        todo: list[int] = []
        for p, labels in enumerate(label_pairs):
            rows = [
                self._delta_rows.get((labels, delay, horizon, presence))
                for delay, horizon in delay_horizons[p]
            ]
            if any(row is None for row in rows):
                todo.append(p)
                continue
            for index, row in enumerate(rows):
                met[p, index] = row[0]
                cost[p, index] = row[1]
        if todo:
            scanned = self._scan_delta_cube(
                [label_pairs[p] for p in todo],
                [delay_horizons[p] for p in todo],
                presence,
            )
            if scanned is None:
                return None
            met[todo], cost[todo] = scanned
            # One (T, D, 2, n) copy; each cached row is a view into it, so
            # a block lives until the FIFO has evicted all of its rows.
            packed = np.stack(scanned, axis=2)
            for slot, p in enumerate(todo):
                for index, (delay, horizon) in enumerate(delay_horizons[p]):
                    store_bounded(
                        self._delta_rows,
                        (label_pairs[p], delay, horizon, presence),
                        packed[slot, index],
                        2 * n,
                    )
        return met, cost

    def _scan_delta_cube(
        self,
        label_pairs: Sequence[tuple[int, int]],
        delay_horizons: Sequence[Sequence[tuple[int, int]]],
        presence: PresenceModel,
    ) -> tuple[Any, Any] | None:
        """The cross-label pass behind :meth:`cube_delta_tables`.

        Every label's start-0 timeline is stacked (parked-tail padded)
        into one ``(L, Tmax+1)`` tensor, and all ``P x D`` dominance-pivot
        groups are scanned in a single column-blocked sweep -- no Python
        loop over label pairs touches the time axis.  With
        rotation-derived timelines, starts ``(s1, s2)`` colocate at ``t``
        iff ``pos1(t) - pos2(t') == s2 - s1 (mod n)`` of the start-0 rows,
        so one ``(D, n)`` table over ``delta`` answers all ``n**2`` start
        pairs of a label pair.  Row semantics (windows, delay clipping,
        parachute blanking, ``-1`` for never) match the batch engine's
        tensors exactly; the scan stops early once every delta has met
        (``stats.early_exit_rounds`` counts the skipped time points).
        """
        np = self._np
        n = self.graph.num_nodes
        pair_count = len(label_pairs)
        delay_count = len(delay_horizons[0]) if delay_horizons else 0
        labels_needed = sorted({label for pair in label_pairs for label in pair})
        stacked = {label: self.timelines(label) for label in labels_needed}
        if not self.certificate.orbit:  # probe mismatch mid-build
            return None
        parachute = presence is PresenceModel.PARACHUTE
        index_of = {label: slot for slot, label in enumerate(labels_needed)}
        lengths = [stacked[label].length for label in labels_needed]
        tmax = max(lengths) if lengths else 0
        # Parked-tail padding makes the rows rectangular across labels:
        # past its own schedule a timeline repeats its final position and
        # cost, so clamped reads below need only the shared tmax.  int32
        # holds any node id or cumulative cost in half the bytes of int64,
        # and schedules run to ~1e5 rounds.
        pos0 = np.empty((len(labels_needed), tmax + 1), dtype=np.int32)
        cost0 = np.empty((len(labels_needed), tmax + 1), dtype=np.int32)
        for slot, label in enumerate(labels_needed):
            rows = stacked[label]
            pos0[slot, : rows.length + 1] = rows.positions[0]
            pos0[slot, rows.length + 1 :] = int(rows.positions[0][-1])
            cost0[slot, : rows.length + 1] = rows.costs[0]
            cost0[slot, rows.length + 1 :] = int(rows.costs[0][-1])
        # One scan group per dominance pivot; dominated slices derive.
        plans = [
            dominance_plan(
                delay_horizons[p], stacked[label_pairs[p][0]].length
            )
            for p in range(pair_count)
        ]
        group_i1: list[int] = []
        group_i2: list[int] = []
        group_delay: list[int] = []
        group_horizon: list[int] = []
        group_t1: list[int] = []
        group_t2: list[int] = []
        for p, labels in enumerate(label_pairs):
            for index in plans[p].scan:
                delay, horizon = delay_horizons[p][index]
                group_i1.append(index_of[labels[0]])
                group_i2.append(index_of[labels[1]])
                group_delay.append(delay)
                group_horizon.append(horizon)
                group_t1.append(stacked[labels[0]].length)
                group_t2.append(stacked[labels[1]].length)
        group_count = len(group_i1)
        i1 = np.array(group_i1, dtype=np.intp)
        i2 = np.array(group_i2, dtype=np.intp)
        delays = np.array(group_delay, dtype=np.int64)
        horizons = np.array(group_horizon, dtype=np.int64)
        t1s = np.array(group_t1, dtype=np.int64)
        t2s = np.array(group_t2, dtype=np.int64)
        limit = np.minimum(horizons, np.maximum(t1s, delays + t2s))
        met = np.full((group_count, n), -1, dtype=np.int64)
        deltas = np.arange(n, dtype=np.int64)
        if group_count:
            max_scan = int(limit.max())
            t0 = int(delays.min()) if parachute else 0
            # Blocks grow geometrically up to the element budget: meetings
            # are typically early, so the first narrow blocks usually
            # settle every delta and the scan exits long before the
            # horizon, while late meetings cost only O(log) extra passes.
            widest = max(
                _MIN_TIME_BLOCK, _BLOCK_ELEMENTS // max(group_count * n, 1)
            )
            block = _MIN_TIME_BLOCK
            while t0 <= max_scan:
                t1 = min(t0 + block - 1, max_scan)
                block = min(2 * block, widest)
                times = np.arange(t0, t1 + 1, dtype=np.intp)
                a = pos0[i1[:, None], np.minimum(times, tmax)[None, :]]
                cols2 = np.minimum(
                    np.maximum(times[None, :] - delays[:, None], 0), tmax
                )
                diffs = (a - pos0[i2[:, None], cols2]) % n  # (G, b)
                # Out-of-window time points match no delta: past the
                # group's limit, or (parachute only) before its wake.
                invalid = times[None, :] > limit[:, None]
                if parachute:
                    invalid |= times[None, :] < delays[:, None]
                diffs = np.where(invalid, -1, diffs)
                hits = diffs[:, :, None] == deltas[None, None, :]  # (G, b, n)
                fresh = hits.any(axis=1) & (met < 0)
                if fresh.any():
                    met = np.where(fresh, t0 + hits.argmax(axis=1), met)
                    if (met >= 0).all():
                        self.stats.early_exit_rounds += max_scan - t1
                        break
                t0 = t1 + 1
        last = np.where(met >= 0, met, horizons[:, None])
        # Start-oblivious costs are start-independent, so the start-0 rows
        # price every delta: through the meeting round, or through the
        # group's horizon where the delta never meets.
        cost = cost0[i1[:, None], np.minimum(last, tmax)].astype(np.int64) + (
            cost0[i2[:, None], np.minimum(np.maximum(last - delays[:, None], 0), tmax)]
        )
        # Scatter pivots into the (P, D, n) cube, then fill dominated
        # slices by exact translation from their pivot rows.
        met_full = np.empty((pair_count, delay_count, n), dtype=np.int64)
        cost_full = np.empty((pair_count, delay_count, n), dtype=np.int64)
        group = 0
        for p in range(pair_count):
            plan = plans[p]
            for index in plan.scan:
                met_full[p, index] = met[group]
                cost_full[p, index] = cost[group]
                group += 1
            for index, (pivot, shift) in plan.derived.items():
                met_full[p, index] = derive_met(
                    np,
                    met_full[p, pivot],
                    delay_horizons[p][pivot][0],
                    shift,
                    parachute,
                )
                cost_full[p, index] = cost_full[p, pivot]
                self.stats.dominated_slices += 1
        self.stats.orbit_cells += pair_count * delay_count * (n * n - n)
        return met_full, cost_full

    def _store_matrices(
        self,
        key: tuple[tuple[int, int], int, int, PresenceModel],
        met: Any,
        cost: Any,
    ) -> None:
        """Insert one group's matrices under the parent's FIFO budget."""
        store_bounded(self._matrices, key, (met, cost), 2 * self.graph.num_nodes**2)

    def _ensure_matrices(
        self,
        labels: tuple[int, int],
        delay_horizons: Sequence[tuple[int, int]],
        presence: PresenceModel,
    ) -> None:
        """The parent hook, pruned: delta expansion and delay dominance.

        Keeps :meth:`evaluate_arrays` (the stream path) inherited
        unchanged -- it reads the same ``(n, n)`` matrices, they are just
        produced more cheaply: expanded from delta tables on a certified
        sweep, and dominated slices derived instead of scanned either
        way.  With pruning off this is exactly the parent's pass.
        """
        if not self.prune:
            return super()._ensure_matrices(labels, delay_horizons, presence)
        missing = [
            (delay, horizon)
            for delay, horizon in delay_horizons
            if (labels, delay, horizon, presence) not in self._matrices
        ]
        if not missing:
            return
        np = self._np
        tables = self.delta_tables(labels, missing, presence)
        if tables is not None:
            met_rows, cost_rows = tables
            n = self.graph.num_nodes
            # delta of the ordered pair (s1, s2) -- row s1, column s2.
            spread = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
            for index, (delay, horizon) in enumerate(missing):
                self._store_matrices(
                    (labels, delay, horizon, presence),
                    met_rows[index][spread],
                    cost_rows[index][spread],
                )
            return
        # No orbit: full tensors for the pivots, translation for the rest.
        first = self.timelines(labels[0])
        plan = dominance_plan(missing, first.length)
        scanned = [missing[index] for index in plan.scan]
        super()._ensure_matrices(labels, scanned, presence)
        parachute = presence is PresenceModel.PARACHUTE
        for index, (pivot, shift) in plan.derived.items():
            pivot_delay, pivot_horizon = missing[pivot]
            met_pivot, cost_pivot = self._matrices[
                (labels, pivot_delay, pivot_horizon, presence)
            ]
            delay, horizon = missing[index]
            self._store_matrices(
                (labels, delay, horizon, presence),
                derive_met(np, met_pivot, pivot_delay, shift, parachute),
                cost_pivot,
            )
            self.stats.dominated_slices += 1

    def pair_cube(
        self,
        labels: tuple[int, int],
        delay_horizons: Sequence[tuple[int, int]],
        presence: PresenceModel,
        s1: Any,
        s2: Any,
    ) -> tuple[Any, Any]:
        """``(met, cost)`` as ``(S, D)`` arrays for one label pair.

        Rows follow the given start-pair order, columns the given delay
        order -- the flattened result is the global enumeration order
        within the pair, which is what makes one ``argmax`` reproduce the
        serial first-wins tie-break.
        """
        np = self._np
        self._ensure_matrices(labels, delay_horizons, presence)
        met_slices = []
        cost_slices = []
        for delay, horizon in delay_horizons:
            met_matrix, cost_matrix = self.group_matrices(
                labels, delay, horizon, presence
            )
            met_slices.append(met_matrix[s1, s2])
            cost_slices.append(cost_matrix[s1, s2])
        return np.stack(met_slices, axis=1), np.stack(cost_slices, axis=1)


def _pair_horizons(
    cube: ConfigCube,
    labels: tuple[int, int],
    max_rounds: int | Callable[[Configuration], int],
) -> list[tuple[int, int]]:
    """One ``(delay, horizon)`` per delay axis entry, probed start-free.

    The whole-cube pass needs the horizon to be a function of ``(labels,
    delay)`` alone -- true of every built-in policy
    (:func:`repro.sim.adversary.default_horizon` depends on schedule
    lengths and the delay).  A custom callable is probed at the first and
    last start pair of each slice; a disagreement raises loudly rather
    than silently mis-windowing the tensor pass.
    """
    if not callable(max_rounds):
        return [(delay, max_rounds) for delay in cube.delays]
    pairs: list[tuple[int, int]] = []
    first_start = cube.start_pairs[0]
    last_start = cube.start_pairs[-1]
    for delay in cube.delays:
        horizon = max_rounds(
            Configuration(labels=labels, starts=first_start, delay=delay)
        )
        if last_start != first_start:
            check = max_rounds(
                Configuration(labels=labels, starts=last_start, delay=delay)
            )
            if check != horizon:
                raise ValueError(
                    "engine 'cube' needs a start-independent horizon, but "
                    f"max_rounds() returned {horizon} and {check} for "
                    f"start pairs {first_start} and {last_start} "
                    f"(labels={labels}, delay={delay}); use a constant or "
                    "a (labels, delay)-determined policy, or choose "
                    "engine 'batch'"
                )
        pairs.append((delay, horizon))
    return pairs


@dataclass(frozen=True)
class CubeExtreme:
    """One argmax winner: its enumeration index, configuration and verdict."""

    index: int
    config: Configuration
    time: int
    cost: int
    horizon: int


@dataclass(frozen=True)
class CubeSearch:
    """The extremes and failures of one pass, in enumeration order.

    ``failures`` pairs each failing configuration with its index.
    """

    worst_time: CubeExtreme | None = None
    worst_cost: CubeExtreme | None = None
    failures: tuple[tuple[int, Configuration], ...] = ()
    executions: int = 0


def _reduce_block(
    np: Any,
    met: Any,
    cost: Any,
    offset: int,
    decode: Callable[[int], tuple[Configuration, int]],
) -> CubeSearch:
    """The lowest-index argmax and the failures of one flat verdict block.

    ``met``/``cost`` hold the verdicts of enumeration indices ``offset,
    offset + 1, ...``; ``decode(position)`` names the configuration and
    horizon at a block position, and runs only for winners and failures.
    ``argmax`` returns the first maximiser and failures sit at ``-1``
    (their costs masked to ``-1``), so each winner is the lowest-index
    maximiser -- the serial strict-``>`` tie-break.
    """
    missed = np.nonzero(met < 0)[0].tolist()
    failures = tuple((offset + position, decode(position)[0]) for position in missed)
    if len(missed) == met.size:
        return CubeSearch(failures=failures, executions=int(met.size))

    def extreme(position: int) -> CubeExtreme:
        config, horizon = decode(position)
        return CubeExtreme(
            index=offset + position,
            config=config,
            time=int(met[position]),
            cost=int(cost[position]),
            horizon=horizon,
        )

    masked_cost = np.where(met >= 0, cost, -1)
    return CubeSearch(
        worst_time=extreme(int(met.argmax())),
        worst_cost=extreme(int(masked_cost.argmax())),
        failures=failures,
        executions=int(met.size),
    )


def _merge(first: CubeSearch, second: CubeSearch) -> CubeSearch:
    """Fold a later block into an earlier one; ties keep the earlier."""

    def keep(
        incumbent: CubeExtreme | None, challenger: CubeExtreme | None, metric: str
    ) -> CubeExtreme | None:
        if challenger is None:
            return incumbent
        if incumbent is None or getattr(challenger, metric) > getattr(
            incumbent, metric
        ):
            return challenger
        return incumbent

    return CubeSearch(
        worst_time=keep(first.worst_time, second.worst_time, "time"),
        worst_cost=keep(first.worst_cost, second.worst_cost, "cost"),
        failures=first.failures + second.failures,
        executions=first.executions + second.executions,
    )


def _whole_cube_search(
    table: CubeTimelineTable,
    cube: ConfigCube,
    max_rounds: int | Callable[[Configuration], int],
    presence: PresenceModel,
    lo: int = 0,
    hi: int | None = None,
) -> CubeSearch:
    """Answer the indices ``[lo, hi)`` of a :class:`ConfigCube` (default: all).

    The one evaluator behind ``worst_case_search(engine="cube")`` and the
    runtime's cube shards.  Only the label pairs the range touches are
    evaluated, with horizons per ``(label pair, delay)``
    (:func:`_pair_horizons`).  On a certified-cyclic sweep they are one
    stacked pass (:meth:`CubeTimelineTable.cube_delta_tables`) gathered
    by start-pair delta; otherwise each pair's touched start rows are
    read from its all-start-pairs matrices (:meth:`~CubeTimelineTable.pair_cube`).
    Either way the verdicts form one flat block in enumeration order
    (pair, start pair, delay), cut to ``[lo, hi)`` and reduced once by
    :func:`_reduce_block` -- no :class:`Configuration` exists until a
    winner or a failure is decoded.
    """
    np = table._np
    start_pairs = cube.start_pairs
    delays = cube.delays
    delay_count = len(delays)
    per_pair = len(start_pairs) * delay_count
    hi = len(cube) if hi is None else min(hi, len(cube))
    if lo >= hi:
        return CubeSearch()
    first_pair = lo // per_pair
    label_pairs = cube.label_pairs[first_pair : (hi - 1) // per_pair + 1]
    pair_horizons = [
        _pair_horizons(cube, labels, max_rounds) for labels in label_pairs
    ]
    # Block positions count from the first touched pair's first index.
    begin, end = lo - first_pair * per_pair, hi - first_pair * per_pair

    tables = table.cube_delta_tables(label_pairs, pair_horizons, presence)
    if tables is not None:
        n = table.graph.num_nodes
        delta = np.array([(v - u) % n for u, v in start_pairs], dtype=np.intp)
        # (P, D, S) -> (P, S, D) -> flat row-major = enumeration order.
        met_rows, cost_rows = tables
        met = met_rows[:, :, delta].transpose(0, 2, 1).reshape(-1)[begin:end]
        cost = cost_rows[:, :, delta].transpose(0, 2, 1).reshape(-1)[begin:end]
    else:
        s1 = np.array([u for u, _ in start_pairs], dtype=np.intp)
        s2 = np.array([v for _, v in start_pairs], dtype=np.intp)
        met_parts = []
        cost_parts = []
        for p, labels in enumerate(label_pairs):
            # This pair's share of the range, as pair-local positions,
            # widened to whole start rows for the gather.
            first = max(begin - p * per_pair, 0)
            last = min(end - p * per_pair, per_pair)
            rows = slice(first // delay_count, (last - 1) // delay_count + 1)
            pair_met, pair_cost = table.pair_cube(
                labels, pair_horizons[p], presence, s1[rows], s2[rows]
            )
            skip = rows.start * delay_count
            cut = slice(first - skip, last - skip)
            met_parts.append(pair_met.reshape(-1)[cut])
            cost_parts.append(pair_cost.reshape(-1)[cut])
        met = np.concatenate(met_parts)
        cost = np.concatenate(cost_parts)

    def decode(position: int) -> tuple[Configuration, int]:
        pair_index, rest = divmod(begin + position, per_pair)
        start_index, delay_index = divmod(rest, delay_count)
        config = Configuration(
            labels=label_pairs[pair_index],
            starts=start_pairs[start_index],
            delay=delays[delay_index],
        )
        return config, pair_horizons[pair_index][delay_index][1]

    return _reduce_block(np, met, cost, lo, decode)


def _stream_search(
    table: CubeTimelineTable,
    configs: Iterable[Configuration],
    max_rounds: int | Callable[[Configuration], int],
    presence: PresenceModel,
) -> tuple[CubeSearch, int]:
    """Chunked fallback for arbitrary configuration streams; ``(found, chunks)``.

    The batch engine's loop over the pruned table: each chunk of
    :func:`repro.sim.batch.resolve_stream_chunk` configurations is
    reduced by :func:`_reduce_block` and folded in by :func:`_merge`,
    with stream positions as the enumeration indices.
    """
    np = table._np
    horizon_of = max_rounds if callable(max_rounds) else None
    chunk_size = resolve_stream_chunk(None, table.graph)
    found = CubeSearch()
    chunks = 0
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
        found = _merge(
            found,
            _reduce_block(
                np,
                met,
                cost,
                found.executions,
                lambda position: (chunk[position], horizons[position]),
            ),
        )
    return found, chunks


def cube_worst_case_search(
    graph: PortLabeledGraph,
    factory: ProgramFactory,
    configs: Iterable[Configuration],
    max_rounds: int | Callable[[Configuration], int],
    presence: PresenceModel = PresenceModel.FROM_START,
    telemetry: Telemetry = NULL_TELEMETRY,
    prune: bool | None = None,
) -> WorstCaseReport:
    """The cube engine behind ``worst_case_search(engine="cube")``.

    A :class:`ConfigCube` input takes the whole-cube tensor path
    (configurations never materialize); any other iterable streams in
    bounded chunks over the same pruned table.  ``prune=None`` resolves
    through :func:`repro.sim.prune.resolve_prune`; pruned and unpruned
    reports are byte-identical.  Telemetry splits build versus scan
    seconds and meters every prune avenue.
    """
    batch_module.require_numpy("cube")
    table = CubeTimelineTable(graph, factory, prune=prune)
    chunks = 0
    with telemetry.span("cube.search"):
        started = time.perf_counter()
        if isinstance(configs, ConfigCube) and configs.graph == graph:
            found = _whole_cube_search(table, configs, max_rounds, presence)
        else:
            found, chunks = _stream_search(table, configs, max_rounds, presence)
        if telemetry.enabled:
            elapsed = time.perf_counter() - started
            telemetry.gauge(
                "cube.table_build_seconds", round(table.build_seconds, 6)
            )
            telemetry.gauge(
                "cube.scan_seconds",
                round(max(elapsed - table.build_seconds, 0.0), 6),
            )
            telemetry.count("cube.chunks", chunks)
            telemetry.count("configs.evaluated", found.executions)
            stats = table.stats
            telemetry.count("cube.prune.orbit_cells", stats.orbit_cells)
            telemetry.count(
                "cube.prune.dominated_slices", stats.dominated_slices
            )
            telemetry.count(
                "cube.prune.early_exit_rounds", stats.early_exit_rounds
            )

    def record(extreme: CubeExtreme | None) -> ExtremeRecord | None:
        if extreme is None:
            return None
        return ExtremeRecord(
            config=extreme.config,
            result=table.result(extreme.config, extreme.horizon, presence),
        )

    return WorstCaseReport(
        worst_time=record(found.worst_time),
        worst_cost=record(found.worst_cost),
        executions=found.executions,
        failures=tuple(config for _, config in found.failures),
    )
