"""Worst-case search over adversarial choices.

The paper's complexity statements quantify over *all* label pairs, *all*
pairs of distinct starting nodes and *all* wake-up delays.  This module
realises that adversary over one space shape, the :class:`ConfigCube`:
it evaluates all of a cube (or a shard of its indices) and
reports the configurations maximising time and cost, so measured
numbers can be compared against the claimed bounds and each extreme can be
replayed.

Every engine is an *evaluator*: it reports one :class:`Verdict` ``(index,
config, time|None, cost)`` per requested cube index, in the order
requested, singly or as a NumPy :class:`VerdictBlock`.  One
:class:`Reduction` turns verdicts -- or the reports of consecutive index
ranges -- into the one record, a :class:`WorstCaseReport` of extremes
and failures, and :func:`first_max` is the only place the lowest-index
tie-break is written.  The extremes stay verdicts: a full execution of
one, with traces, comes from replaying its configuration through the
reactive simulator (:func:`repro.analysis.replay.replay`).
:func:`worst_case_search` and the runtime's
:func:`repro.runtime.worker.run_shards` are two thin drivers over
:func:`reduce_space`, which reduces a run of abutting index ranges in
one pass.
"""

from __future__ import annotations

# repro: allow-file(REP001) -- perf_counter meters a search's table build
# versus scan split for telemetry gauges; it flows only through
# Telemetry, never into report bytes, as tests/obs proves dynamically.

import itertools
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Sequence,
)

from repro.graphs.port_graph import PortLabeledGraph
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim.program import ProgramFactory
from repro.sim.simulator import (
    PresenceModel,
    default_max_rounds,
    simulate_rendezvous,
)


@dataclass(frozen=True)
class Configuration:
    """One adversarial choice: labels, starting nodes and the delay."""

    labels: tuple[int, int]
    starts: tuple[int, int]
    delay: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "labels": list(self.labels),
            "starts": list(self.starts),
            "delay": self.delay,
        }


def _indexed(payload: Mapping[str, Any]) -> tuple[int, Configuration]:
    """Decode an ``{index, labels, starts, delay}`` entry."""
    labels, starts = tuple(payload["labels"]), tuple(payload["starts"])
    return payload["index"], Configuration(labels, starts, payload["delay"])


def _verdict(payload: Mapping[str, Any] | None) -> Verdict | None:
    if payload is None:
        return None
    return Verdict(*_indexed(payload), payload["time"], payload["cost"])


def _verdict_dict(verdict: Verdict | None) -> dict[str, Any] | None:
    if verdict is None:
        return None
    return {
        "index": verdict.index,
        **verdict.config.to_dict(),
        "time": verdict.time,
        "cost": verdict.cost,
    }


@dataclass(frozen=True)
class WorstCaseReport:
    """The adversary's answer over a range of enumeration indices.

    ``worst_time`` and ``worst_cost`` are the lowest-index verdicts
    maximising each metric (``None`` when nothing met).  ``failures``
    lists the ``(index, configuration)`` pairs, in index order, in which
    the agents did not meet within the horizon -- for a correct
    algorithm with a sufficient horizon it must be empty, and tests
    assert exactly that.  The runtime's shard and merged reports are
    this record plus their shard bookkeeping.  In its one JSON form a
    verdict is ``{index, labels, starts, delay, time, cost}`` and a
    failure ``{index, labels, starts, delay}``.
    """

    worst_time: Verdict | None
    worst_cost: Verdict | None
    executions: int
    failures: tuple[tuple[int, Configuration], ...]

    @property
    def max_time(self) -> int:
        if self.worst_time is None:
            raise ValueError("no successful execution recorded")
        return self.worst_time.time

    @property
    def max_cost(self) -> int:
        if self.worst_cost is None:
            raise ValueError("no successful execution recorded")
        return self.worst_cost.cost

    def to_dict(self) -> dict[str, Any]:
        return {
            "executions": self.executions,
            "worst_time": _verdict_dict(self.worst_time),
            "worst_cost": _verdict_dict(self.worst_cost),
            "failures": [
                {"index": index, **config.to_dict()} for index, config in self.failures
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any], **extra: Any) -> "WorstCaseReport":
        """Decode :meth:`to_dict`'s form; ``extra`` fills a subclass's fields."""
        return cls(
            worst_time=_verdict(payload.get("worst_time")),
            worst_cost=_verdict(payload.get("worst_cost")),
            executions=payload["executions"],
            failures=tuple(_indexed(entry) for entry in payload.get("failures", ())),
            **extra,
        )


def all_label_pairs(label_space: int) -> Iterator[tuple[int, int]]:
    """All ordered pairs of distinct labels from ``{1..L}``.

    Ordered pairs matter because the delay is applied to the second agent.
    """
    return itertools.permutations(range(1, label_space + 1), 2)


def default_start_pairs(
    graph: PortLabeledGraph, fix_first_start: bool = False
) -> list[tuple[int, int]]:
    """The canonical ordered start-pair enumeration of a sweep.

    This single definition fixes the global configuration ordering that
    :class:`ConfigCube`, the runtime's shard indexing
    (:meth:`repro.runtime.spec.JobSpec.config_cube`) and the space-size
    law (:meth:`~repro.runtime.spec.JobSpec.config_space_size`) all
    share -- cached shard indices and merge tie-breaking silently corrupt
    if any of them drifts, so none of them re-implements it.
    """
    nodes = range(graph.num_nodes)
    first_nodes = [0] if fix_first_start else list(nodes)
    return [(u, v) for u in first_nodes for v in nodes if u != v]


@dataclass(frozen=True)
class ConfigCube:
    """The adversarial space as a product of axes: the one space shape.

    Its global order is label pairs outermost, then start pairs, then
    delays; every engine takes a cube plus a sequence of indices into
    that order.  The point of the class is what it *keeps*: the axes.
    The cube engine (:mod:`repro.sim.cube`) answers the whole
    ``L(L-1) x n(n-1) x D`` space, or any index range of it, by tensor
    passes over the axes -- no per-configuration Python objects are ever
    created on that path.
    """

    graph: PortLabeledGraph
    label_pairs: tuple[tuple[int, int], ...]
    start_pairs: tuple[tuple[int, int], ...]
    delays: tuple[int, ...]

    @classmethod
    def make(
        cls,
        graph: PortLabeledGraph,
        label_pairs: Iterable[tuple[int, int]],
        delays: Iterable[int] = (0,),
        start_pairs: Iterable[tuple[int, int]] | None = None,
        fix_first_start: bool = False,
    ) -> "ConfigCube":
        """Build a cube; ``start_pairs`` defaults to :func:`default_start_pairs`.

        ``fix_first_start`` pins the first agent to node 0, which is sound
        (loses no worst case) exactly on port-preservingly
        vertex-transitive graphs such as oriented rings, hypercubes and
        tori; the caller asserts that property.
        """
        if start_pairs is None:
            start_pairs = default_start_pairs(graph, fix_first_start)
        return cls(
            graph=graph,
            label_pairs=tuple((a, b) for a, b in label_pairs),
            start_pairs=tuple((u, v) for u, v in start_pairs),
            delays=tuple(delays),
        )

    def __iter__(self) -> Iterator[Configuration]:
        for labels in self.label_pairs:
            for starts in self.start_pairs:
                for delay in self.delays:
                    yield Configuration(labels=labels, starts=starts, delay=delay)

    def __len__(self) -> int:
        return len(self.label_pairs) * len(self.start_pairs) * len(self.delays)

    def indexed(
        self, indices: Iterable[int]
    ) -> Iterator[tuple[int, Configuration]]:
        """The ``(global index, configuration)`` pair of each index, in order.

        An index maps to its configuration by ``divmod`` over the axes, so
        a slice costs ``O(len(indices))`` wherever it lies --
        no other configuration is enumerated and discarded.
        """
        delays = self.delays
        per_pair = len(self.start_pairs) * len(delays)
        for index in indices:
            pair_index, rest = divmod(index, per_pair)
            start_index, delay_index = divmod(rest, len(delays))
            yield index, Configuration(
                labels=self.label_pairs[pair_index],
                starts=self.start_pairs[start_index],
                delay=delays[delay_index],
            )


def default_horizon(algorithm: Any, config: Configuration) -> int:
    """The standard round budget for one configuration.

    The later agent's schedule end plus the wake-up delay -- a correct
    algorithm must meet before both schedules run out.  A thin delegation
    to :func:`repro.sim.simulator.default_max_rounds`, the single
    statement of that formula shared with ``simulate_rendezvous``; the
    serial sweep and the runtime workers all route through here, so no
    path can disagree on ``max_rounds``.  ``algorithm`` is anything
    exposing ``schedule_length`` (every :mod:`repro.core` algorithm does).
    """
    return default_max_rounds(algorithm, config.labels, config.delay)


class Verdict(NamedTuple):
    """One configuration's outcome at its enumeration index.

    What every evaluator reports: ``time`` is the meeting time, ``None``
    for a failure (no meeting within the horizon), and ``cost`` the
    traversals through the meeting round, or through the horizon for a
    failure.
    """

    index: int
    config: Configuration
    time: int | None
    cost: int


class VerdictBlock(NamedTuple):
    """Verdicts of consecutive enumeration indices, as NumPy arrays.

    ``met[k]`` (``-1`` for a failure) and ``cost[k]`` belong to block
    position ``k``; ``locate(k)`` names its ``(index, config)`` and runs
    only for winners and failures, so a block's configurations
    never materialize.
    """

    met: Any
    cost: Any
    locate: Callable[[int], tuple[int, Configuration]]


def first_max(incumbent: Any, challenger: Any, metric: str) -> Any:
    """The one extreme update: strict ``>``, so a tie keeps the incumbent.

    Fed candidates in enumeration order, the survivor is the lowest-index
    maximiser -- the tie-break every engine, shard and merge shares.
    """
    if challenger is None:
        return incumbent
    if incumbent is None or getattr(challenger, metric) > getattr(incumbent, metric):
        return challenger
    return incumbent


class Reduction:
    """Extremes and failures of verdicts fed in enumeration order.

    The single reducer behind every engine, shard and merge: single
    verdicts, NumPy blocks and whole reports of the next index range
    alike reach :func:`first_max`, a block through one ``argmax`` per
    metric (which returns the block's first maximiser).  ``failures``
    holds ``(index, config)`` pairs in order.
    """

    def __init__(self) -> None:
        self.worst_time: Verdict | None = None
        self.worst_cost: Verdict | None = None
        self.failures: list[tuple[int, Configuration]] = []
        self.executions = 0

    def add(self, verdict: Verdict) -> None:
        self.executions += 1
        if verdict.time is None:
            self.failures.append((verdict.index, verdict.config))
            return
        self.worst_time = first_max(self.worst_time, verdict, "time")
        self.worst_cost = first_max(self.worst_cost, verdict, "cost")

    def add_block(self, block: VerdictBlock) -> None:
        met, cost, locate = block
        self.executions += met.size
        failed = met < 0
        missed = failed.nonzero()[0].tolist()
        self.failures.extend(locate(position) for position in missed)
        if len(missed) == met.size:
            return

        def verdict(position: int) -> Verdict:
            return Verdict(*locate(position), int(met[position]), int(cost[position]))

        # Failures sit at -1 in ``met``; masking their costs to -1 keeps
        # them out of the cost argmax too.
        masked_cost = cost
        if missed:
            masked_cost = cost.copy()
            masked_cost[failed] = -1
        self.worst_time = first_max(self.worst_time, verdict(int(met.argmax())), "time")
        self.worst_cost = first_max(
            self.worst_cost, verdict(int(masked_cost.argmax())), "cost"
        )

    def absorb(self, report: WorstCaseReport) -> None:
        """Fold in the report of the next index range, in order."""
        self.executions += report.executions
        self.failures.extend(report.failures)
        self.worst_time = first_max(self.worst_time, report.worst_time, "time")
        self.worst_cost = first_max(self.worst_cost, report.worst_cost, "cost")

    def report(self, kind: type = WorstCaseReport, **extra: Any) -> Any:
        """The record so far, as ``kind`` (a :class:`WorstCaseReport`
        subclass whose own fields ``extra`` fills)."""
        return kind(
            worst_time=self.worst_time,
            worst_cost=self.worst_cost,
            executions=self.executions,
            failures=tuple(self.failures),
            **extra,
        )


def reactive_verdicts(
    graph: PortLabeledGraph,
    factory: ProgramFactory,
    items: Iterable[tuple[int, Configuration, int]],
    presence: PresenceModel,
) -> Iterator[Verdict]:
    """The reactive evaluator: one round simulation per configuration."""
    for index, config, horizon in items:
        result = simulate_rendezvous(
            graph,
            factory,
            labels=config.labels,
            starts=config.starts,
            delay=config.delay,
            max_rounds=horizon,
            presence=presence,
        )
        yield Verdict(index, config, result.time if result.met else None, result.cost)


#: The ``engine=`` values of every entry point: ``auto`` or a substrate.
ENGINES = ("auto", "reactive", "compiled", "cube")


def resolve_substrate(engine: str, factory: Any) -> str:
    """The substrate an ``engine`` choice runs ``factory`` on.

    The one statement of the substrate policy, shared by every entry
    point.  ``"auto"`` picks the fastest sound substrate: ``"cube"`` for
    an ``is_oblivious`` factory (see
    :class:`repro.core.base.RendezvousAlgorithm`; a class or an
    instance) when NumPy is importable, ``"compiled"`` for one without
    NumPy, ``"reactive"`` for everything else.  An explicit
    ``"compiled"`` or ``"cube"`` raises unless the factory is
    ``is_oblivious``, and ``"cube"`` raises a loud
    :class:`~repro.sim.cube.BatchUnavailableError` without NumPy.  The
    engines produce byte-identical reports wherever they all apply.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {list(ENGINES)}")
    oblivious = getattr(factory, "is_oblivious", False)
    if engine == "auto":
        if not oblivious:
            return "reactive"
        return "cube" if _cube().numpy_available() else "compiled"
    if engine != "reactive" and not oblivious:
        name = getattr(factory, "name", factory)
        raise ValueError(
            f"{name!r} is not is_oblivious; "
            f"engine={engine!r} needs a schedule-driven algorithm"
        )
    if engine == "cube":
        _cube().require_numpy()
    return engine


_cube_module: Any = None


def _cube() -> Any:
    """The :mod:`repro.sim.cube` module, imported on first use.

    It imports this module's types, so it cannot be imported at the top;
    holding it here keeps the import statement off every call's path.
    """
    global _cube_module
    if _cube_module is None:
        from repro.sim import cube

        _cube_module = cube
    return _cube_module


def engine_table(
    engine: str, graph: PortLabeledGraph, factory: ProgramFactory
) -> Any:
    """The evaluation substrate of an engine (``None`` for reactive).

    A :class:`~repro.sim.compiled.TrajectoryTable` for ``"compiled"``, a
    :class:`~repro.sim.cube.CubeTimelineTable` for ``"cube"``.  Engine
    modules are imported lazily: they import this module's types, so the
    import-time arrow points one way.
    """
    if engine == "compiled":
        from repro.sim.compiled import TrajectoryTable

        return TrajectoryTable(graph, factory)
    if engine == "cube":
        from repro.sim.cube import CubeTimelineTable

        return CubeTimelineTable(graph, factory)
    return None


def reduce_space(
    engine: str,
    table: Any,
    graph: PortLabeledGraph,
    factory: ProgramFactory,
    cube: ConfigCube,
    bounds: Sequence[tuple[int, int]],
    max_rounds: int | Callable[[Configuration], int],
    presence: PresenceModel,
) -> list[Reduction]:
    """Reduce one engine's verdicts over abutting index ranges of a cube.

    The single point every engine passes through, in one pass over the
    hull ``[bounds[0][0], bounds[-1][1])``: a whole search passes
    ``[(0, len(cube))]``, the runtime a run of abutting shards.  Returns
    one :class:`Reduction` per bound, in order.  ``table`` is the
    engine's substrate (see :func:`engine_table`; the runtime passes
    per-process memoised ones).  The cube engine answers the hull with
    one whole-cube block (:func:`repro.sim.cube._whole_cube_search`),
    cut into one slice per bound; the reactive and compiled evaluators
    walk the hull lazily, one verdict at a time, each routed to its
    bound.  A cube over another graph than ``graph`` is refused: its
    start pairs would name the wrong nodes.
    """
    if cube.graph is not graph and cube.graph != graph:
        raise ValueError(
            f"the configuration cube is over {cube.graph!r}, "
            f"not the searched {graph!r}"
        )
    if (
        not bounds
        or any(lo > hi for lo, hi in bounds)
        or any(left[1] != right[0] for left, right in zip(bounds, bounds[1:]))
    ):
        raise ValueError(f"bounds must be abutting ascending ranges, got {bounds}")
    hull = range(bounds[0][0], bounds[-1][1])
    reductions = [Reduction() for _ in bounds]
    if engine == "cube":
        from repro.sim.cube import _whole_cube_search

        met, cost, locate = _whole_cube_search(
            table, cube, hull, max_rounds, presence
        )
        for reduction, (lo, hi) in zip(reductions, bounds):
            begin, end = lo - hull.start, hi - hull.start
            reduction.add_block(
                VerdictBlock(
                    met[begin:end],
                    cost[begin:end],
                    lambda position, begin=begin: locate(begin + position),
                )
            )
        return reductions
    indexed = cube.indexed(hull)
    if callable(max_rounds):
        items = ((index, config, max_rounds(config)) for index, config in indexed)
    else:
        items = ((index, config, max_rounds) for index, config in indexed)
    if engine == "compiled":
        verdicts = table.verdicts(items, presence)
    else:
        verdicts = reactive_verdicts(graph, factory, items, presence)
    for reduction, (lo, hi) in zip(reductions, bounds):
        for verdict in itertools.islice(verdicts, hi - lo):
            reduction.add(verdict)
    return reductions


def worst_case_search(
    graph: PortLabeledGraph,
    factory: ProgramFactory,
    cube: ConfigCube,
    max_rounds: int | Callable[[Configuration], int],
    presence: PresenceModel = PresenceModel.FROM_START,
    engine: str = "reactive",
    telemetry: Telemetry = NULL_TELEMETRY,
) -> WorstCaseReport:
    """Run every configuration of ``cube`` and keep the extremes.

    ``max_rounds`` may be a constant horizon or a function of the
    configuration (e.g., the algorithm's own schedule bound plus the delay).

    ``engine`` selects the substrate (resolved by
    :func:`resolve_substrate`) and never the semantics -- the reports are
    identical, field for field, because every engine's verdicts go
    through one :class:`Reduction`:

    * ``"reactive"`` runs each configuration through the round simulator;
    * ``"compiled"`` compiles each agent's trajectory once per
      ``(label, start)`` and scans timelines (:mod:`repro.sim.compiled`);
    * ``"cube"`` tensorizes *across* label pairs and prunes the adversary
      space by rotation orbits and delay dominance (:mod:`repro.sim.cube`);
      needs the optional NumPy dependency and a horizon determined by
      ``(labels, delay)``;
    * ``"auto"`` picks the fastest sound one of these for the factory.
    """
    engine = resolve_substrate(engine, factory)
    table = engine_table(engine, graph, factory)
    with telemetry.span(f"{engine}.search"):
        started = time.perf_counter()
        (found,) = reduce_space(
            engine, table, graph, factory, cube, [(0, len(cube))], max_rounds,
            presence,
        )
        if telemetry.enabled:
            elapsed = time.perf_counter() - started
            if table is not None:
                telemetry.gauge(
                    f"{engine}.table_build_seconds", round(table.build_seconds, 6)
                )
                telemetry.gauge(
                    f"{engine}.scan_seconds",
                    round(max(elapsed - table.build_seconds, 0.0), 6),
                )
            if engine == "compiled":
                telemetry.gauge("compiled.trajectories", len(table))
            if table is not None:
                routes = (table if engine == "compiled" else table.trajectories).routes
                telemetry.count("compiled.routes.recorded", len(routes))
                telemetry.count("compiled.routes.spliced_rounds", routes.spliced_rounds)
            telemetry.count("configs.evaluated", found.executions)
            if engine == "cube":
                stats = table.stats
                telemetry.count("cube.prune.orbit_cells", stats.orbit_cells)
                telemetry.count(
                    "cube.prune.dominated_slices", stats.dominated_slices
                )
                telemetry.count(
                    "cube.prune.early_exit_rounds", stats.early_exit_rounds
                )
                telemetry.count("cube.build.rounds_built", stats.rounds_built)
                telemetry.count(
                    "cube.build.rounds_declared", stats.rounds_declared
                )

    return found.report()
