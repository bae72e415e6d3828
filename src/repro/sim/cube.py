"""The cube engine: whole-sweep tensor passes with adversary-space pruning.

The compiled engine (:mod:`repro.sim.compiled`) reduces a sweep to
``O(L * n)`` trajectory compilations plus one Python-level timeline scan
per configuration.  This module removes the per-configuration scan, the
per-configuration objects and most of the scanned space:

* **Dense timelines** -- the per-``(label, start)`` position timelines
  are stacked into one ``(n, T+1)`` array per label, and every ``(start
  pair, delay)`` configuration of a label pair is answered by array
  comparison over delay-shifted timelines, costs by fancy-indexed
  cumulative-traversal rows -- exact integer arithmetic mirroring
  :meth:`~repro.sim.compiled.TrajectoryTable.evaluate`.
* **Cross-label tensorization** -- given a :class:`ConfigCube` (the
  product-structured configuration space), the whole
  ``L(L-1) x n(n-1) x D`` cube -- or any contiguous index slice of it,
  such as a runtime shard -- is answered by per-axis array passes:
  configurations exist only as ``(pair, start, delay)`` indices, handed
  to the reducer as one :class:`~repro.sim.adversary.VerdictBlock` that
  locates only the two argmax extremes (and any failures).
* **Rotation-orbit reduction** (:mod:`repro.sim.prune`) -- on a graph
  certified cyclic, with a start-oblivious factory, every label's ``n``
  timelines are rotated copies of one compiled trajectory, and a start
  pair's verdict depends only on ``delta = (s2 - s1) mod n``; one
  ``(D, n)`` delta table replaces each ``(D, n, n)`` start-pair tensor.
* **Delay dominance and early exit** -- delay slices past the first
  agent's schedule that share a post-wake window are exact translates of
  a pivot slice and are derived, not scanned; the meeting scan stops as
  soon as every tracked cell has met.

Equivalence contract: identical to the compiled engine's -- every pruned
verdict is reconstructed by an exact rule before any comparison, the
blocks go through the same :class:`~repro.sim.adversary.Reduction` as
every other engine's verdicts, so the extremes are the same verdicts,
and the cross-engine suites (``tests/sim``) assert identity against the
reactive engine.

NumPy is an *optional* dependency (the ``repro-rendezvous[batch]``
extra).  Importing this module never requires it; constructing a
:class:`CubeTimelineTable` (or resolving ``engine="cube"`` through
:func:`repro.sim.adversary.resolve_substrate`) without NumPy raises
:class:`BatchUnavailableError` with the install hint, and
``engine="auto"`` falls back to the compiled engine silently.
"""

from __future__ import annotations

# repro: allow-file(REP001) -- perf_counter here meters table builds for
# telemetry gauges (build_seconds); results flow only through Telemetry,
# never into report bytes, as the inertness matrix in tests/obs proves
# dynamically.

import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.graphs.port_graph import PortLabeledGraph
from repro.sim.adversary import ConfigCube, Configuration, VerdictBlock
from repro.sim.compiled import TrajectoryTable
from repro.sim.program import ProgramFactory
from repro.sim.prune import (
    PruneStats,
    SymmetryCertificate,
    certify_symmetry,
    derive_met,
    dominance_plan,
)
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

#: Total element budget of each cache of per-group meeting/cost
#: matrices or delta rows; the oldest entries are evicted beyond it.
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


class CubeTimelineTable:
    """Dense per-label timelines, pruned whenever pruning is certified.

    At most ``L`` label timeline arrays are built, however many
    configurations are evaluated.  When the sweep is certified (cyclic
    graph declaration re-verified exactly, start-oblivious factory,
    derived-trajectory probe), each label's arrays are rotation-derived
    from one compilation instead of ``n``, and whole label-pair blocks
    are answered through ``(D, n)`` delta tables
    (:meth:`orbit_cube`); otherwise they come from per-start
    compilations and ``(n, n)`` start-pair matrices (:meth:`pair_cube`).
    Delay dominance applies on both paths.  Every reduction is exact, so
    the path changes only the work done (``stats`` meters what was
    avoided), never a report.
    """

    def __init__(self, graph: PortLabeledGraph, factory: ProgramFactory):
        self._np = require_numpy()
        self.graph = graph
        self.factory = factory
        self.trajectories = TrajectoryTable(graph, factory)
        self._labels: dict[int, LabelTimelines] = {}
        #: Cumulative wall-clock seconds spent building label timelines
        #: (including the nested trajectory compiles they trigger) -- the
        #: "table build" half of this engine's profile.  Observability
        #: data only: nothing reads it back into the computation.
        self.build_seconds = 0.0
        self.stats = PruneStats()
        self.certificate = certify_symmetry(graph, factory)
        # Both caches are bounded FIFOs keyed by (labels, delay, horizon,
        # presence): shards of one sweep that split a label pair read
        # them back instead of rescanning, and a long-lived worker table
        # serves sweep after sweep over ever new delays.  Certified
        # sweeps cache a (2, n) array over delta -- the met row stacked
        # on the cost row; the others a (met, cost) pair of (n, n)
        # start-pair matrices.
        self._delta_rows: dict[
            tuple[tuple[int, int], int, int, PresenceModel], Any
        ] = {}
        self._matrices: dict[
            tuple[tuple[int, int], int, int, PresenceModel], tuple[Any, Any]
        ] = {}
        self._probed = False
        # int16 positions halve the traffic of the comparison pass; node
        # ids exceed it only on graphs far past this engine's O(n^2)
        # start-pair matrices anyway.
        self._position_dtype = (
            self._np.int16 if graph.num_nodes <= 2**15 else self._np.int32
        )

    def timelines(self, label: int) -> LabelTimelines:
        """The stacked (all-starts) timeline arrays of one label, built once.

        On a certified sweep row ``s`` is the start-0 trajectory shifted
        by ``s`` -- exact on a certified-cyclic graph with a
        start-oblivious factory -- so one compile serves all ``n`` rows.
        Defense in depth beyond the declarations: the first label built
        also compiles its start-1 trajectory and probes it against the
        derived row (one extra compile per table, the property is a
        factory-wide one); any mismatch voids the certificate for the
        whole table, discards derived state and falls back to per-start
        compilations.
        """
        stacked = self._labels.get(label)
        if stacked is not None:
            return stacked
        started = time.perf_counter()
        if self.certificate.orbit and self.graph.num_nodes >= 2:
            stacked = self._rotated_timelines(label)
        if stacked is None:
            stacked = self._per_start_timelines(label)
        self._labels[label] = stacked
        self.build_seconds += time.perf_counter() - started
        return stacked

    def _per_start_timelines(self, label: int) -> LabelTimelines:
        """One compiled trajectory per start, stacked row by row."""
        np = self._np
        rows = [
            self.trajectories.trajectory(label, start)
            for start in range(self.graph.num_nodes)
        ]
        return LabelTimelines(
            positions=np.array(
                [t.positions for t in rows], dtype=self._position_dtype
            ),
            costs=np.array([t.cumulative_cost for t in rows], dtype=np.int32),
            length=rows[0].length,
        )

    def _rotated_timelines(self, label: int) -> LabelTimelines | None:
        """The start-0 trajectory rotated to every start, or ``None``
        when the probe voids the certificate."""
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
                return None
            self._probed = True
        row0 = np.array(base.positions, dtype=self._position_dtype)
        shifts = np.arange(n, dtype=self._position_dtype)[:, None]
        # Costs are start-independent here: every row is one read-only
        # view of the start-0 row rather than n copies of it.
        return LabelTimelines(
            positions=(row0[None, :] + shifts) % n,
            costs=np.broadcast_to(
                np.array(base.cumulative_cost, dtype=np.int32), (n, row0.size)
            ),
            length=base.length,
        )

    def orbit_cube(
        self,
        label_pairs: Sequence[tuple[int, int]],
        delay_horizons: Sequence[Sequence[tuple[int, int]]],
        presence: PresenceModel,
    ) -> tuple[Any, Any] | None:
        """``(met, cost)`` as ``(P, D, n)`` tensors: label pair, delay, delta.

        ``delay_horizons[p]`` lists pair ``p``'s ``(delay, horizon)``
        slices (one per delay-axis entry, so ``D`` is uniform).  Pairs
        whose every slice is in the row cache are read back; the rest go
        through one stacked pass (:meth:`_scan_orbit_cube`) and are
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
            scanned = self._scan_orbit_cube(
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

    def _scan_orbit_cube(
        self,
        label_pairs: Sequence[tuple[int, int]],
        delay_horizons: Sequence[Sequence[tuple[int, int]]],
        presence: PresenceModel,
    ) -> tuple[Any, Any] | None:
        """The cross-label pass behind :meth:`orbit_cube`.

        Every label's start-0 timeline is stacked (parked-tail padded)
        into one ``(L, Tmax+1)`` tensor, and all ``P x D`` dominance-pivot
        groups are scanned in a single column-blocked sweep -- no Python
        loop over label pairs touches the time axis.  With
        rotation-derived timelines, starts ``(s1, s2)`` colocate at ``t``
        iff ``pos1(t) - pos2(t') == s2 - s1 (mod n)`` of the start-0 rows,
        so one ``(D, n)`` table over ``delta`` answers all ``n**2`` start
        pairs of a label pair.  Row semantics (windows, delay clipping,
        parachute blanking, ``-1`` for never) match
        :func:`_meeting_tensor`'s exactly; the scan stops early once every delta has met
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
        serial first-wins tie-break.  Each ``(delay, horizon)`` slice is
        an ``(n, n)`` all-start-pairs matrix pair, cached (bounded FIFO)
        so shards that split a label pair still compute it once.  The
        missing slices are answered together: dominance pivots
        (:func:`~repro.sim.prune.dominance_plan`) by one tensor pass, the
        slices they dominate by exact translation
        (:func:`~repro.sim.prune.derive_met`).
        """
        np = self._np
        slices = {
            (delay, horizon): self._matrices.get((labels, delay, horizon, presence))
            for delay, horizon in delay_horizons
        }
        missing = [key for key, matrices in slices.items() if matrices is None]
        if missing:
            first = self.timelines(labels[0])
            second = self.timelines(labels[1])
            parachute = presence is PresenceModel.PARACHUTE
            plan = dominance_plan(missing, first.length)
            pivots = [missing[index] for index in plan.scan]
            met = _meeting_tensor(np, first, second, pivots, parachute)
            cost = _cost_tensor(np, first, second, pivots, met)
            for slot, pivot in enumerate(pivots):
                slices[pivot] = (met[slot], cost[slot])
            for index, (pivot, shift) in plan.derived.items():
                pivot_met, pivot_cost = slices[missing[pivot]]
                slices[missing[index]] = (
                    derive_met(np, pivot_met, missing[pivot][0], shift, parachute),
                    pivot_cost,
                )
                self.stats.dominated_slices += 1
            # Each entry holds TWO n*n matrices (met and cost).
            size = 2 * self.graph.num_nodes**2
            for delay, horizon in missing:
                store_bounded(
                    self._matrices,
                    (labels, delay, horizon, presence),
                    slices[delay, horizon],
                    size,
                )
        met_slices = []
        cost_slices = []
        for key in delay_horizons:
            met_matrix, cost_matrix = slices[key]
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
                    "engine 'compiled'"
                )
        pairs.append((delay, horizon))
    return pairs


def _whole_cube_search(
    table: CubeTimelineTable,
    cube: ConfigCube,
    indices: range,
    max_rounds: int | Callable[[Configuration], int],
    presence: PresenceModel,
) -> VerdictBlock:
    """Answer the index range ``[lo, hi)`` of a :class:`ConfigCube` as one block.

    The cube engine's one evaluator, behind
    ``worst_case_search(engine="cube")`` and the runtime's cube shards;
    ``indices`` is a contiguous ascending ``range`` (a shard, a whole cube).
    Only the label pairs the range touches are evaluated, with horizons
    per ``(label pair, delay)`` (:func:`_pair_horizons`).  On a certified-cyclic sweep they are one
    stacked pass (:meth:`CubeTimelineTable.orbit_cube`) gathered
    by start-pair delta; otherwise each pair's touched start rows are
    read from its all-start-pairs matrices (:meth:`~CubeTimelineTable.pair_cube`).
    Either way the verdicts form one flat block in enumeration order
    (pair, start pair, delay), cut to ``[lo, hi)`` -- no
    :class:`Configuration` exists until the reducer locates a winner or
    a failure.
    """
    np = table._np
    start_pairs = cube.start_pairs
    delays = cube.delays
    delay_count = len(delays)
    per_pair = len(start_pairs) * delay_count
    if not len(indices):
        empty = np.empty(0, dtype=np.int64)
        return VerdictBlock(empty, empty, [].__getitem__)  # nothing to locate
    lo, hi = indices.start, indices.stop
    first_pair = lo // per_pair
    label_pairs = cube.label_pairs[first_pair : (hi - 1) // per_pair + 1]
    pair_horizons = [
        _pair_horizons(cube, labels, max_rounds) for labels in label_pairs
    ]
    # Block positions count from the first touched pair's first index.
    begin, end = lo - first_pair * per_pair, hi - first_pair * per_pair

    tables = table.orbit_cube(label_pairs, pair_horizons, presence)
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

    def locate(position: int) -> tuple[int, Configuration]:
        pair_index, rest = divmod(begin + position, per_pair)
        start_index, delay_index = divmod(rest, delay_count)
        config = Configuration(
            labels=label_pairs[pair_index],
            starts=start_pairs[start_index],
            delay=delays[delay_index],
        )
        return lo + position, config

    return VerdictBlock(met, cost, locate)
