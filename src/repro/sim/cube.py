"""The cube engine: whole-sweep tensor passes with adversary-space pruning.

The compiled engine (:mod:`repro.sim.compiled`) reduces a sweep to
``O(L * n)`` trajectory compilations plus one Python-level timeline scan
per configuration.  This module removes the per-configuration scan, the
per-configuration objects and most of the scanned space:

* **Dense timelines, built on demand** -- the per-``(label, start)``
  position timelines are stacked into one ``(r, T+1)`` array per label
  (one start-0 row on a certified sweep, ``n`` rows otherwise), filled
  only as far as the scan reads them; meetings are found by array
  comparison over delay-shifted timelines, costs by fancy-indexed
  cumulative-traversal rows -- exact integer arithmetic mirroring
  :meth:`~repro.sim.compiled.TrajectoryTable.evaluate`.
* **One stacked scan over cells** -- a cell is (dominance-pivot group,
  first-start row, second start).  Given a :class:`ConfigCube` (the
  product-structured configuration space), the whole
  ``L(L-1) x n(n-1) x D`` cube -- or any contiguous index slice of it,
  such as a runtime shard -- is answered by one scan over the cells of
  every label pair it touches, a bounded chunk of cells at a time:
  configurations exist only as ``(pair, start, delay)`` indices, handed
  to the reducer as one :class:`~repro.sim.adversary.VerdictBlock` that
  locates only the two argmax extremes (and any failures) through
  :meth:`~repro.sim.adversary.ConfigCube.config`.  A table keeps only
  what it builds -- label timelines and the trajectories behind them --
  never a scanned slice: every pass scans the pairs it touches.
* **Rotation-orbit reduction** (:mod:`repro.sim.prune`) -- on a graph
  whose rotation preserves every port, with a schedule-driven factory
  whose walks never read their position, every label's ``n`` timelines
  are rotated copies of one compiled trajectory, and a start pair's
  verdict depends only on ``delta = (s2 - s1) mod n``; the scan then
  keeps one first-start row per slice and reads its second axis as the
  delta (``r = 1`` rows instead of ``r = n``).  That operand is the
  scan's only branch.
* **Delay dominance and early exit** -- delay slices past the first
  agent's schedule that share a post-wake window are exact translates of
  a pivot slice and are derived, not scanned; the meeting scan drops a
  group once the cells its sweep needs have met, and before each column
  block builds the timelines of the groups left only that far, so no
  trajectory is built past the block in which its cells met.

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
from typing import Any, Callable, Iterable, Sequence

from repro.graphs.port_graph import PortLabeledGraph
from repro.sim.adversary import (
    ConfigCube,
    Configuration,
    Horizon,
    VerdictBlock,
    pair_horizons,
)
from repro.sim.compiled import MIN_TIME_BLOCK, TrajectoryTable
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

#: Most cells -- (pivot group, first-start row, second start) -- one chunk
#: of the scan tracks, so its per-cell state stays small however many
#: label pairs and delays a sweep stacks.
_CHUNK_CELLS = 1 << 10


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


class LabelTimelines:
    """One label's solo timelines over its starting nodes, as arrays.

    Built on demand, like the trajectories behind them: ``built`` is the
    last time point recorded, and ``positions``/``costs`` are the
    ``(rows, built + 1)`` views of it.  On a certified table ``rows`` is
    1, the start-0 timeline, from which start ``s`` derives as
    ``(positions + s) mod n`` with the same costs; otherwise row ``s`` is
    the timeline of the agent started at node ``s``.  ``costs[s, t]`` is
    its cumulative number of edge traversals through round ``t``.
    ``length`` is the schedule length ``T`` (a function of the label
    alone, which is what makes the rows rectangular).
    """

    __slots__ = ("length", "built", "_positions", "_costs")

    def __init__(self, rows: int, length: int, position_dtype: Any, np: Any):
        self.length = length
        self.built = -1
        # Allocated for the whole schedule, filled as it is built: the
        # pages of a large allocation past the built columns stay untouched.
        self._positions = np.empty((rows, length + 1), dtype=position_dtype)
        self._costs = np.empty((rows, length + 1), dtype=np.int32)

    @property
    def rows(self) -> int:
        return self._positions.shape[0]

    @property
    def positions(self) -> Any:  # (rows, built+1) int16 (int32 on huge graphs)
        return self._positions[:, : self.built + 1]

    @property
    def costs(self) -> Any:  # (rows, built+1) int32
        return self._costs[:, : self.built + 1]


#: ``met`` of a cell the scan stopped before answering (see
#: :meth:`CubeTimelineTable.slices`).
_UNKNOWN = -2

#: Stacked through every time point: a label built to its schedule's end.
_FOREVER = float("inf")


class _CertificateVoided(Exception):
    """A build voided the certificate under a one-row scan."""


class CubeTimelineTable:
    """Dense per-label timelines and the one first-meeting scan over them.

    At most ``L`` label timeline arrays are built, however many
    configurations are evaluated, and each only as far as the scan reads
    it (:meth:`timelines`).  While the sweep is certified (exact rotation
    check, schedule-driven factory, no spliced walk read its position),
    each label keeps one start-0 row and the scan (:meth:`slices`) reads
    the second axis as the delta ``(s2 - s1) mod n``; otherwise the rows
    come from per-start compilations and the scan keeps all ``n``.  Delay
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
        # int16 positions halve the traffic of the comparison pass; node
        # ids exceed it only on graphs far past this engine's O(n^2)
        # start-pair cells anyway.
        self._position_dtype = (
            self._np.int16 if graph.num_nodes <= 2**15 else self._np.int32
        )

    def timelines(self, label: int, upto: int | None = None) -> LabelTimelines:
        """One label's timeline arrays, built through time point ``upto``.

        ``None`` builds the whole schedule.  The one build step of this
        engine: each call extends the label's rows (through
        :meth:`TrajectoryTable.trajectory`) only past what an earlier
        call built.  On a certified sweep the one row is the start-0
        trajectory, valid for every start when rotation preserves every
        port and no walk spliced into it read its position; the build
        that splices the first walk that did voids the certificate
        (:meth:`_extend`).  A voided certificate holds for the whole
        table: derived state is discarded and every label falls back to
        per-start compilations.
        """
        stacked = self._labels.get(label)
        if stacked is not None and (
            stacked.built == stacked.length
            or (upto is not None and upto <= stacked.built)
        ):
            return stacked
        started = time.perf_counter()
        try:
            return self._extend(label, upto)
        except BaseException:
            self._labels.pop(label, None)
            raise
        finally:
            self.build_seconds += time.perf_counter() - started

    def _extend(self, label: int, upto: int | None) -> LabelTimelines:
        """Build ``label``'s rows through ``upto``; on a certified table,
        void the certificate once a walk spliced into a start-0 row has
        read its position.  The rows are returned either way: the one-row
        scan that asked for them sees the void and starts over
        (:meth:`slices`)."""
        n = self.graph.num_nodes
        orbit = self.certificate.orbit and n >= 2
        rows = 1 if orbit else n
        stacked = self._labels.get(label)
        if stacked is None or stacked.rows != rows:
            length = self.trajectories.trajectory(label, 0, 0).length
            stacked = self._labels[label] = LabelTimelines(
                rows, length, self._position_dtype, self._np
            )
            self.stats.rounds_declared += length
        target = stacked.length if upto is None else min(upto, stacked.length)
        lo = stacked.built + 1
        for row in range(rows):
            trajectory = self.trajectories.trajectory(label, row, target)
            positions, _, costs = trajectory.window(lo, target + 1)
            stacked._positions[row, lo : target + 1] = positions
            stacked._costs[row, lo : target + 1] = costs
        self.stats.rounds_built += target - stacked.built
        stacked.built = target
        if orbit and self.trajectories.routes.position_read:
            self._void(
                f"a walk spliced into label {label}'s start-0 row read its "
                "position, so other starts are not its rotations"
            )
        return stacked

    def _void(self, reason: str) -> None:
        """Void the certificate for the whole table: the derived rows of
        every label are discarded."""
        self.certificate = SymmetryCertificate(False, reason)
        self._labels.clear()

    def slices(
        self,
        label_pairs: Sequence[tuple[int, int]],
        delay_horizons: Sequence[Sequence[tuple[int, int]]],
        presence: PresenceModel,
        start_pairs: Sequence[tuple[int, int]] | None = None,
    ) -> tuple[Any, Any]:
        """``(met, cost)`` as ``(P, D, r, n)`` tensors: pair, delay, start cells.

        ``delay_horizons[p]`` lists pair ``p``'s ``(delay, horizon)``
        slices (one per delay-axis entry, so ``D`` is uniform).  Axis 2 is
        the first agent's start and axis 3 the second's; on a certified
        sweep ``r = 1`` and axis 3 is the delta ``(s2 - s1) mod n``, which
        alone decides a start pair's verdict there.  ``met`` is the first
        meeting time point, ``-1`` for none in the slice's window; ``cost``
        the total traversals through it (through the horizon on a miss).
        Only the cells of ``start_pairs`` (all cells for ``None``) must
        be answered: the scan may stop before other cells meet and marks
        them ``-2`` (unknown).  Every call scans (:meth:`_scan`); the
        table keeps only what it builds, the label timelines.  A one-row
        scan whose builds splice a walk that read its position voids the
        certificate part way (:meth:`_extend`) and is run again over every
        start row.
        """
        while True:
            rows = 1 if self.certificate.orbit else self.graph.num_nodes
            try:
                scanned = self._scan(
                    label_pairs,
                    delay_horizons,
                    presence,
                    rows,
                    self._needed(rows, start_pairs),
                )
            except _CertificateVoided:
                continue  # every label now builds every start row
            return scanned[:, :, 0], scanned[:, :, 1]

    def _needed(
        self, rows: int, start_pairs: Sequence[tuple[int, int]] | None
    ) -> Any:
        """The ``(rows, n)`` cells a sweep over ``start_pairs`` reads:
        ``(s1, s2)``, or ``(0, (s2 - s1) mod n)`` on one row (all for
        ``None``)."""
        np = self._np
        n = self.graph.num_nodes
        if start_pairs is None:
            return np.ones((rows, n), dtype=bool)
        needed = np.zeros((rows, n), dtype=bool)
        s1, s2 = np.array(start_pairs, dtype=np.intp).reshape(-1, 2).T
        if rows == 1:
            needed[0, (s2 - s1) % n] = True
        else:
            needed[s1, s2] = True
        return needed

    def _scan(
        self,
        label_pairs: Sequence[tuple[int, int]],
        delay_horizons: Sequence[Sequence[tuple[int, int]]],
        presence: PresenceModel,
        rows: int,
        needed: Any,
    ) -> Any:
        """The stacked first-meeting pass behind :meth:`slices`.

        Returns one packed ``(P, D, 2, rows, n)`` block (met, then cost).
        The first ``rows`` timeline rows of every label are stacked into
        one ``(L, rows, Tmax+1)`` tensor, filled label by label only as
        far as the scan reads (:meth:`timelines`), and the dominance
        pivots of all pairs are scanned together, a bounded number of
        cells at a time (:meth:`_first_meetings`) -- no Python loop over
        label pairs touches the time axis.  Every read clamps to its
        label's own schedule length, past which a timeline is parked.
        A chunk stops once its ``needed`` cells have met.  Costs are
        priced from the stacked cost rows; slices a pivot dominates derive
        by exact translation (:func:`~repro.sim.prune.derive_met`, which
        keeps unknown cells unknown).
        """
        np = self._np
        n = self.graph.num_nodes
        parachute = presence is PresenceModel.PARACHUTE
        labels = sorted({label for pair in label_pairs for label in pair})
        slot = {label: index for index, label in enumerate(labels)}
        lengths = [self.timelines(label, 0).length for label in labels]
        tmax = max(lengths)
        positions = np.empty((len(labels), rows, tmax + 1), self._position_dtype)
        costs = np.empty((len(labels), rows, tmax + 1), dtype=np.int32)
        filled = [-1] * len(labels)  # last stacked column, per label

        def reach(time_point: int, slots: Iterable[int]) -> None:
            """Stack the labels in ``slots`` through ``time_point``."""
            for index in slots:
                if filled[index] >= min(time_point, lengths[index]):
                    continue
                timelines = self.timelines(labels[index], time_point)
                if rows == 1 and not self.certificate.orbit:
                    raise _CertificateVoided
                lo, hi = filled[index] + 1, timelines.built + 1
                positions[index, :, lo:hi] = timelines.positions[:rows, lo:hi]
                costs[index, :, lo:hi] = timelines.costs[:rows, lo:hi]
                filled[index] = timelines.built

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
            chunk_i1, chunk_i2 = i1[chunk], i2[chunk]
            ready = [-1]  # the labels of the groups still scanned are stacked this far

            def reach_groups(time_point: int, active: Any) -> None:
                if time_point <= ready[0]:
                    return
                # A set, not np.unique: that would import numpy.ma.
                slots = {*chunk_i1[active].tolist(), *chunk_i2[active].tolist()}
                reach(time_point, slots)
                ready[0] = min(
                    filled[s] if filled[s] < lengths[s] else _FOREVER for s in slots
                )

            met = self._first_meetings(
                positions,
                chunk_i1,
                chunk_i2,
                t1[chunk],
                t2[chunk],
                delays[chunk],
                limits[chunk],
                parachute,
                needed,
                reach_groups,
            )
            # A miss is priced at its horizon, an unknown cell not at all.
            last = np.where(
                met >= 0, met, np.where(met == _UNKNOWN, 0, horizons[chunk, None, None])
            )
            wake = np.maximum(last - delays[chunk, None, None], 0)
            cols1 = np.minimum(last, t1[chunk, None, None])
            cols2 = np.minimum(wake, t2[chunk, None, None])
            if (met == -1).any():
                # A miss prices its horizon: built by the scan already, but
                # for a parachute window that closes before the wake.
                for group, (first, second) in enumerate(
                    zip(chunk_i1.tolist(), chunk_i2.tolist())
                ):
                    reach(int(cols1[group].max()), (first,))
                    reach(int(cols2[group].max()), (second,))
            packed[pair[chunk], index[chunk], 0] = met
            packed[pair[chunk], index[chunk], 1] = costs[
                chunk_i1[:, None, None], first_rows, cols1
            ].astype(np.int64) + costs[chunk_i2[:, None, None], second_rows, cols2]
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
        t1: Any,
        t2: Any,
        delays: Any,
        limits: Any,
        parachute: bool,
        needed: Any,
        reach: Callable[[int, Any], None],
    ) -> Any:
        """First colocation time of every cell of ``G`` groups, as ``(G, r, n)``.

        Group ``g`` pairs stacked label ``i1[g]`` (schedule length
        ``t1[g]``) with ``i2[g]`` (``t2[g]``) at ``delays[g]``; ``-1``
        marks a cell with no colocation in its window.  Each column block
        first calls ``reach`` with its last time point and the groups
        still scanned, which stacks their labels that far.  Reads clamp
        to each label's schedule length, which realises its parked tail;
        the second agent is read
        at ``clip(t - delay, 0, T2)``, which also realises its pre-wake
        wait at its start -- the delay shift
        :meth:`repro.sim.compiled.TrajectoryTable.first_meeting_time`
        scans in phases.  Out-of-window time points -- past the group's
        limit or, under the parachute presence model, before its wake --
        are blanked to ``-1``, which no operand matches.  With one row (a
        certified sweep) starts ``(s1, s2)`` colocate at ``t`` iff the
        start-0 rows differ by ``s2 - s1 (mod n)``, so the row difference
        is compared against every delta; otherwise row meets row.  Column
        blocks grow geometrically.  A group is done once every cell the
        ``(r, n)`` mask ``needed`` marks has met; done groups leave the
        scan once they are a quarter of it, and the scan stops once no
        group is left (``stats.early_exit_rounds`` counts
        the time points skipped), so no timeline is built past the block
        in which its cells met; cells still unmet in a group that left
        early are :data:`_UNKNOWN`.
        """
        np = self._np
        n = self.graph.num_nodes
        rows = positions.shape[1]
        met = np.full((len(i1), rows, n), -1, dtype=np.int64)
        max_scan = int(limits.max())
        t0 = int(delays.min()) if parachute else 0
        # Blocks grow geometrically from the compiled engine's first
        # block: meetings are typically early, so the first narrow blocks
        # usually settle every cell (and are all that gets built), while
        # late meetings cost only O(log) extra passes.
        widest = max(MIN_TIME_BLOCK, _BLOCK_ELEMENTS // met.size)
        block = MIN_TIME_BLOCK
        first_rows = np.arange(rows)[None, :, None]
        if rows == 1:
            other = np.arange(n, dtype=positions.dtype)[None, None, :, None]
        else:
            second_starts = np.arange(n)[None, None, :, None]
        unneeded = ~needed
        # The groups still scanned and their operands, compacted whenever
        # groups leave, so no block reads a finished group.
        active, current = np.arange(len(i1)), met
        label1, label2 = i1[:, None, None], i2[:, None, None]
        t1, t2, delays, limits = t1[:, None], t2[:, None], delays[:, None], limits[:, None]
        soonest = int(limits.min())  # the first time point a window closes
        while active.size and t0 <= max_scan:
            end = min(t0 + block - 1, max_scan)
            block = min(2 * block, widest)
            reach(end, active)
            times = np.arange(t0, end + 1, dtype=np.intp)
            cols1 = np.minimum(times, t1)
            cols2 = np.minimum(np.maximum(times - delays, 0), t2)
            a = positions[label1, first_rows, cols1[:, None, :]]
            if rows == 1:
                a = (a - positions[label2, 0, cols2[:, None, :]]) % n
            else:
                other = positions[label2[..., None], second_starts, cols2[:, None, None, :]]
            invalid = times > limits
            if parachute:
                invalid |= times < delays
            a = np.where(invalid[:, None, :], -1, a)
            hits = a[:, :, None, :] == other  # (A, r, n, b)
            fresh = hits.any(axis=3) & (current < 0)
            met_now = fresh.any()
            if met_now:
                current = np.where(fresh, t0 + hits.argmax(axis=3), current)
            del hits
            t0 = end + 1
            if met_now:
                if (current >= 0).all():
                    break
            elif end < soonest:
                continue  # no cell met and no window closed: no group is done
            # A group is done once its window is scanned (its unmet cells
            # are misses) or its needed cells have met (the rest unknown).
            scanned = limits[:, 0] <= end
            answered = ((current >= 0) | unneeded).all(axis=(1, 2))
            done = scanned | answered
            finished = int(done.sum())
            # Compacting costs a few copies: wait until a quarter is done.
            if finished and 4 * finished >= done.size:
                early = answered & ~scanned
                current[early] = np.where(current[early] < 0, _UNKNOWN, current[early])
                met[active[done]] = current[done]
                keep = ~done
                active, current = active[keep], current[keep]
                label1, label2 = label1[keep], label2[keep]
                t1, t2, delays, limits = t1[keep], t2[keep], delays[keep], limits[keep]
                soonest = int(limits.min()) if active.size else max_scan
        met[active] = current
        self.stats.early_exit_rounds += max(max_scan - t0 + 1, 0)
        return met


def _whole_cube_search(
    table: CubeTimelineTable,
    cube: ConfigCube,
    indices: range,
    max_rounds: Horizon,
    presence: PresenceModel,
) -> VerdictBlock:
    """Answer the index range ``[lo, hi)`` of a :class:`ConfigCube` as one block.

    The cube engine's one evaluator, behind
    ``worst_case_search(engine="cube")`` and the runtime's cube shards;
    ``indices`` is a contiguous ascending ``range`` (a shard, a whole cube).
    Only the label pairs the range touches are evaluated, with horizons
    per ``(label pair, delay)``
    (:func:`~repro.sim.adversary.pair_horizons`), through one
    stacked scan (:meth:`CubeTimelineTable.slices`) gathered at
    ``[s1, s2]`` -- or at ``[0, delta]`` on a certified sweep.  The
    verdicts form one flat block in enumeration order (pair, start pair,
    delay), cut to ``[lo, hi)`` -- no :class:`Configuration` exists until
    the reducer locates a winner or a failure
    (:meth:`~repro.sim.adversary.ConfigCube.config`).
    """
    np = table._np
    start_pairs = cube.start_pairs
    per_pair = len(start_pairs) * len(cube.delays)
    if not len(indices):
        empty = np.empty(0, dtype=np.int64)
        return VerdictBlock(empty, empty, [].__getitem__)  # nothing to locate
    lo, hi = indices.start, indices.stop
    first_pair = lo // per_pair
    label_pairs = cube.label_pairs[first_pair : (hi - 1) // per_pair + 1]
    horizons = [
        slices for _, slices in pair_horizons(table.factory, cube, indices, max_rounds)
    ]
    # Block positions count from the first touched pair's first index.
    begin, end = lo - first_pair * per_pair, hi - first_pair * per_pair

    n = table.graph.num_nodes
    met_cells, cost_cells = table.slices(
        label_pairs, horizons, presence, start_pairs
    )
    s1, s2 = np.array(start_pairs, dtype=np.intp).reshape(-1, 2).T
    # A certified sweep's one row is read by delta, any other by start.
    rows, cols = (0, (s2 - s1) % n) if met_cells.shape[2] == 1 else (s1, s2)
    # Gathered as (P, S, D): flat row-major is the enumeration order.
    met = met_cells.transpose(0, 2, 3, 1)[:, rows, cols].reshape(-1)[begin:end]
    cost = cost_cells.transpose(0, 2, 3, 1)[:, rows, cols].reshape(-1)[begin:end]

    def locate(position: int) -> tuple[int, Configuration]:
        return lo + position, cube.config(lo + position)

    return VerdictBlock(met, cost, locate)
