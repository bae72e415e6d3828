"""The cube engine: whole-sweep tensor passes with adversary-space pruning.

The compiled engine (:mod:`repro.sim.compiled`) reduces a sweep to
``O(L * n)`` trajectory compilations plus one Python-level timeline scan
per configuration.  This module removes the per-configuration scan, the
per-configuration objects and most of the scanned space:

* **Dense timelines** -- the per-``(label, start)`` position timelines
  are stacked into one ``(n, T+1)`` array per label; meetings are found
  by array comparison over delay-shifted timelines, costs by
  fancy-indexed cumulative-traversal rows -- exact integer arithmetic
  mirroring :meth:`~repro.sim.compiled.TrajectoryTable.evaluate`.
* **One stacked scan over cells** -- a cell is (dominance-pivot group,
  first-start row, second start).  Given a :class:`ConfigCube` (the
  product-structured configuration space), the whole
  ``L(L-1) x n(n-1) x D`` cube -- or any contiguous index slice of it,
  such as a runtime shard -- is answered by one scan over the cells of
  every label pair it touches, a bounded chunk of cells at a time:
  configurations exist only as ``(pair, start, delay)`` indices, handed
  to the reducer as one :class:`~repro.sim.adversary.VerdictBlock` that
  locates only the two argmax extremes (and any failures).
* **Rotation-orbit reduction** (:mod:`repro.sim.prune`) -- on a graph
  whose rotation preserves every port, with a start-oblivious factory,
  every label's ``n`` timelines are rotated copies of one compiled
  trajectory, and a start pair's verdict depends only on ``delta = (s2
  - s1) mod n``; the scan then keeps one first-start row per slice and
  reads its second axis as the delta (``r = 1`` rows instead of
  ``r = n``).  That operand is the scan's only branch.
* **Delay dominance and early exit** -- delay slices past the first
  agent's schedule that share a post-wake window are exact translates of
  a pivot slice and are derived, not scanned; the meeting scan stops as
  soon as every cell of a chunk has met.

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

#: Element budget of one block's ``(cells, columns)`` comparison tensor;
#: the scanned column block adapts to the chunk so temporaries stay
#: about a megabyte.
_BLOCK_ELEMENTS = 1 << 19

#: Narrowest scanned column block.  Blocks grow geometrically from it:
#: meetings are typically early, so the first narrow blocks usually settle
#: every cell, while late meetings cost only O(log) extra passes.
_MIN_TIME_BLOCK = 16

#: Most cells -- (pivot group, first-start row, second start) -- one chunk
#: of the scan tracks, so its per-cell state stays small however many
#: label pairs and delays a sweep stacks.
_CHUNK_CELLS = 1 << 10

#: Total element budget of the slice cache; the oldest entries are
#: evicted beyond it.
_CACHE_ELEMENTS = 1 << 24


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
    first until the new one fits :data:`_CACHE_ELEMENTS`.
    """
    while cache and (len(cache) + 1) * size > _CACHE_ELEMENTS:
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


class CubeTimelineTable:
    """Dense per-label timelines and the one first-meeting scan over them.

    At most ``L`` label timeline arrays are built, however many
    configurations are evaluated.  When the sweep is certified (exact
    rotation check, start-oblivious factory, derived-trajectory probe),
    each label's ``n`` rows are rotated copies of one compilation and the
    scan (:meth:`slices`) keeps a single first-start row, reading the
    second axis as the delta ``(s2 - s1) mod n``; otherwise the rows come
    from per-start compilations and the scan keeps all ``n``.  Delay
    dominance and early exit apply either way.  Every reduction is exact,
    so the certificate changes only the work done (``stats`` meters what
    was avoided), never a report.
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
        # A bounded FIFO keyed by (labels, delay, horizon, presence):
        # shards of one sweep that split a label pair read it back instead
        # of rescanning, and a long-lived worker table serves sweep after
        # sweep over ever new delays.  Each entry is one (2, r, n) view --
        # the met rows stacked on the cost rows -- into its scan's block.
        self._slices: dict[
            tuple[tuple[int, int], int, int, PresenceModel], Any
        ] = {}
        self._probed = False
        # int16 positions halve the traffic of the comparison pass; node
        # ids exceed it only on graphs far past this engine's O(n^2)
        # start-pair cells anyway.
        self._position_dtype = (
            self._np.int16 if graph.num_nodes <= 2**15 else self._np.int32
        )

    def timelines(self, label: int) -> LabelTimelines:
        """The stacked (all-starts) timeline arrays of one label, built once.

        On a certified sweep row ``s`` is the start-0 trajectory shifted
        by ``s`` -- exact when rotation preserves every port and the
        factory is start-oblivious -- so one compile serves all ``n`` rows.
        Defense in depth beyond the factory's declaration: the first
        label built also compiles its start-1 trajectory and probes it
        against the derived row (one extra compile per table, the
        property is a factory-wide one); any mismatch voids the
        certificate for the whole table, discards derived state and falls
        back to per-start compilations.
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
                self._slices.clear()
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

    def slices(
        self,
        label_pairs: Sequence[tuple[int, int]],
        delay_horizons: Sequence[Sequence[tuple[int, int]]],
        presence: PresenceModel,
    ) -> tuple[Any, Any]:
        """``(met, cost)`` as ``(P, D, r, n)`` tensors: pair, delay, start cells.

        ``delay_horizons[p]`` lists pair ``p``'s ``(delay, horizon)``
        slices (one per delay-axis entry, so ``D`` is uniform).  Axis 2 is
        the first agent's start and axis 3 the second's; on a certified
        sweep ``r = 1`` and axis 3 is the delta ``(s2 - s1) mod n``, which
        alone decides a start pair's verdict there.  ``met`` is the first
        meeting time point, ``-1`` for none in the slice's window; ``cost``
        the total traversals through it (through the horizon on a miss).
        Pairs whose every slice is cached are read back; the rest go
        through one scan (:meth:`_scan`) and are cached.
        """
        np = self._np
        n = self.graph.num_nodes
        keys = [
            [(labels, delay, horizon, presence) for delay, horizon in horizons]
            for labels, horizons in zip(label_pairs, delay_horizons)
        ]
        cached = [[self._slices.get(key) for key in row] for row in keys]
        todo = [p for p, row in enumerate(cached) if any(v is None for v in row)]
        for label in sorted({label for p in todo for label in label_pairs[p]}):
            self.timelines(label)  # the probe may void the certificate here
        rows = 1 if self.certificate.orbit else n
        if todo:
            scanned = self._scan(
                [label_pairs[p] for p in todo],
                [delay_horizons[p] for p in todo],
                presence,
                rows,
            )
            for slot, p in enumerate(todo):
                for index, key in enumerate(keys[p]):
                    store_bounded(
                        self._slices, key, scanned[slot, index], 2 * rows * n
                    )
        if len(todo) == len(label_pairs):
            packed = scanned
        else:
            packed = np.empty(
                (len(label_pairs), len(keys[0]), 2, rows, n), dtype=np.int64
            )
            for p, row in enumerate(cached):
                if all(v is not None for v in row):
                    packed[p] = row
            if todo:
                packed[todo] = scanned
        return packed[:, :, 0], packed[:, :, 1]

    def _scan(
        self,
        label_pairs: Sequence[tuple[int, int]],
        delay_horizons: Sequence[Sequence[tuple[int, int]]],
        presence: PresenceModel,
        rows: int,
    ) -> Any:
        """The stacked first-meeting pass behind :meth:`slices`.

        Returns one packed ``(P, D, 2, rows, n)`` block (met, then cost).
        The first ``rows`` timeline rows of every label are stacked
        (parked-tail padded) into one ``(L, rows, Tmax+1)`` tensor, and
        the dominance pivots of all pairs are scanned together, a bounded
        number of cells at a time (:meth:`_first_meetings`) -- no Python
        loop over label pairs touches the time axis.  Costs are priced
        from the stacked cost rows; slices a pivot dominates derive by
        exact translation (:func:`~repro.sim.prune.derive_met`).
        """
        np = self._np
        n = self.graph.num_nodes
        parachute = presence is PresenceModel.PARACHUTE
        labels = sorted({label for pair in label_pairs for label in pair})
        slot = {label: index for index, label in enumerate(labels)}
        stacked = [self._labels[label] for label in labels]
        lengths = [timelines.length for timelines in stacked]
        tmax = max(lengths)
        # Parked-tail padding makes the rows rectangular across labels:
        # past its own schedule a timeline repeats its final position and
        # cost, so clamped reads below need only the shared tmax.
        positions = np.empty((len(labels), rows, tmax + 1), self._position_dtype)
        costs = np.empty((len(labels), rows, tmax + 1), dtype=np.int32)
        for index, timelines in enumerate(stacked):
            end = timelines.length + 1
            positions[index, :, :end] = timelines.positions[:rows]
            positions[index, :, end:] = timelines.positions[:rows, -1:]
            costs[index, :, :end] = timelines.costs[:rows]
            costs[index, :, end:] = timelines.costs[:rows, -1:]
        # Per pair: both labels' slots and schedule lengths.
        agents = [
            (slot[a], slot[b], lengths[slot[a]], lengths[slot[b]])
            for a, b in label_pairs
        ]
        # One scan group per dominance pivot; dominated slices derive.
        plans = [
            dominance_plan(horizons, first_length)
            for (_, _, first_length, _), horizons in zip(agents, delay_horizons)
        ]
        groups = np.array(
            [
                (p, index, *agents[p], *delay_horizons[p][index])
                for p, plan in enumerate(plans)
                for index in plan.scan
            ],
            dtype=np.int64,
        ).reshape(-1, 8)
        pair, index, i1, i2, t1, t2, delays, horizons = groups.T
        # No group looks past max(T1, delay + T2): beyond it both
        # timelines are parked, so a colocation there implies an earlier
        # one at the parking point, which the scan covers.
        limits = np.minimum(horizons, np.maximum(t1, delays + t2))
        first_rows = np.arange(rows)[None, :, None]
        second_rows = (np.arange(n) % rows)[None, None, :]
        packed = np.empty(
            (len(label_pairs), len(delay_horizons[0]), 2, rows, n), dtype=np.int64
        )
        per_chunk = max(1, _CHUNK_CELLS // (rows * n))
        for lo in range(0, len(groups), per_chunk):
            chunk = slice(lo, lo + per_chunk)
            met = self._first_meetings(
                positions,
                i1[chunk],
                i2[chunk],
                delays[chunk],
                limits[chunk],
                parachute,
            )
            last = np.where(met >= 0, met, horizons[chunk, None, None])
            wake = np.maximum(last - delays[chunk, None, None], 0)
            packed[pair[chunk], index[chunk], 0] = met
            packed[pair[chunk], index[chunk], 1] = costs[
                i1[chunk, None, None], first_rows, np.minimum(last, tmax)
            ].astype(np.int64) + costs[
                i2[chunk, None, None], second_rows, np.minimum(wake, tmax)
            ]
        for p, plan in enumerate(plans):
            for derived, (pivot, shift) in plan.derived.items():
                pivot_delay = delay_horizons[p][pivot][0]
                packed[p, derived, 0] = derive_met(
                    np, packed[p, pivot, 0], pivot_delay, shift, parachute
                )
                packed[p, derived, 1] = packed[p, pivot, 1]
                self.stats.dominated_slices += 1
        if rows == 1:
            pair_count, delay_count = packed.shape[:2]
            self.stats.orbit_cells += pair_count * delay_count * (n * n - n)
        return packed

    def _first_meetings(
        self,
        positions: Any,
        i1: Any,
        i2: Any,
        delays: Any,
        limits: Any,
        parachute: bool,
    ) -> Any:
        """First colocation time of every cell of ``G`` groups, as ``(G, r, n)``.

        Group ``g`` pairs stacked label ``i1[g]`` with ``i2[g]`` at
        ``delays[g]``; ``-1`` marks a cell with no colocation in its
        window.  The second agent is read through clamped time indices
        (``clip(t - delay, 0, Tmax)``), which realises both its pre-wake
        wait at its start and its parked tail -- the delay shift
        :func:`repro.sim.compiled.first_meeting_time` scans in phases.
        Out-of-window time points -- past the group's limit or, under the
        parachute presence model, before its wake -- are blanked to ``-1``,
        which no operand matches.  With one row (a certified sweep) starts
        ``(s1, s2)`` colocate at ``t`` iff the start-0 rows differ by
        ``s2 - s1 (mod n)``, so the row difference is compared against
        every delta; otherwise row meets row.  Column blocks grow
        geometrically, and the scan stops once every cell has met
        (``stats.early_exit_rounds`` counts the time points skipped).
        """
        np = self._np
        n = self.graph.num_nodes
        rows, tmax = positions.shape[1], positions.shape[2] - 1
        met = np.full((len(i1), rows, n), -1, dtype=np.int64)
        max_scan = int(limits.max())
        t0 = int(delays.min()) if parachute else 0
        widest = max(_MIN_TIME_BLOCK, _BLOCK_ELEMENTS // met.size)
        block = _MIN_TIME_BLOCK
        first = (i1[:, None, None], np.arange(rows)[None, :, None])
        if rows == 1:
            second = (i2[:, None, None], 0)
            other = np.arange(n, dtype=positions.dtype)[None, None, :, None]
        else:
            second = (i2[:, None, None, None], np.arange(n)[None, None, :, None])
        delays, limits = delays[:, None], limits[:, None]
        while t0 <= max_scan:
            t1 = min(t0 + block - 1, max_scan)
            block = min(2 * block, widest)
            times = np.arange(t0, t1 + 1, dtype=np.intp)
            cols2 = np.minimum(np.maximum(times - delays, 0), tmax)
            a = positions[(*first, np.minimum(times, tmax))]
            if rows == 1:
                a = (a - positions[(*second, cols2[:, None, :])]) % n
            else:
                other = positions[(*second, cols2[:, None, None, :])]
            invalid = times > limits
            if parachute:
                invalid |= times < delays
            a = np.where(invalid[:, None, :], -1, a)
            hits = a[:, :, None, :] == other  # (G, r, n, b)
            fresh = hits.any(axis=3) & (met < 0)
            if fresh.any():
                met = np.where(fresh, t0 + hits.argmax(axis=3), met)
                if (met >= 0).all():
                    self.stats.early_exit_rounds += max_scan - t1
                    break
            del hits
            t0 = t1 + 1
        return met


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
    per ``(label pair, delay)`` (:func:`_pair_horizons`), through one
    stacked scan (:meth:`CubeTimelineTable.slices`) gathered at
    ``[s1, s2]`` -- or at ``[0, delta]`` on a certified sweep.  The
    verdicts form one flat block in enumeration order (pair, start pair,
    delay), cut to ``[lo, hi)`` -- no :class:`Configuration` exists until
    the reducer locates a winner or a failure.
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

    n = table.graph.num_nodes
    met_cells, cost_cells = table.slices(label_pairs, pair_horizons, presence)
    s1, s2 = np.array(start_pairs, dtype=np.intp).reshape(-1, 2).T
    # A certified sweep's one row is read by delta, any other by start.
    rows, cols = (0, (s2 - s1) % n) if met_cells.shape[2] == 1 else (s1, s2)
    # Gathered as (P, S, D): flat row-major is the enumeration order.
    met = met_cells.transpose(0, 2, 3, 1)[:, rows, cols].reshape(-1)[begin:end]
    cost = cost_cells.transpose(0, 2, 3, 1)[:, rows, cols].reshape(-1)[begin:end]

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
