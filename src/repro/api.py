"""The declarative Scenario API: one front door to the whole library.

Every claim the paper makes -- and every workload this repository runs --
is a point on the same axes: *graph family* x *algorithm* x *knowledge
model* x *presence model* x *delay grid*.  A :class:`Scenario` is that
point written down as plain data; a :class:`Sweep` is a grid of them.
Both resolve names through the registries in :mod:`repro.registry`, build
to :mod:`repro.runtime` job specs, serialize to dicts/JSON, and run
through a single :meth:`Scenario.run` entry point that routes small jobs
to the in-process serial executor and large ones to the sharded process
pool, and runs schedule-driven algorithms on the pruned cube engine
(:mod:`repro.sim.cube`, when NumPy is installed) or the compiled
trajectory engine (:mod:`repro.sim.compiled`) instead of the round
simulator -- with byte-identical reports whichever way a sweep is
executed.

Quickstart::

    from repro.api import Scenario

    scenario = Scenario(graph="ring", graph_params={"n": 12},
                        algorithm="fast", label_space=8)
    outcome = scenario.run()                   # engine="auto"
    print(outcome.row.max_time, "<=", outcome.row.time_bound)
    print(outcome.to_json())                   # canonical, machine-readable

The object world stays available underneath:
:func:`~repro.sim.adversary.worst_case_search` searches live
``(algorithm, graph)`` instances that have no registry name (ablation
variants, baselines) over a :class:`~repro.sim.adversary.ConfigCube`.
:meth:`Scenario.job_spec` is the one builder of the runtime's
:class:`~repro.runtime.spec.JobSpec` envelope.
"""

from __future__ import annotations

import inspect
import itertools
import json
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property
from typing import Any, Iterator, Mapping, Sequence

from repro.core.base import RendezvousAlgorithm
from repro.graphs.port_graph import PortLabeledGraph
from repro.obs.telemetry import resolve_telemetry
from repro.registry import (
    ALGORITHMS,
    GRAPH_FAMILIES,
    KNOWLEDGE_MODELS,
    PRESENCE_MODELS,
    SpecError,
)
from repro.runtime.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.runtime.report import MergedReport
from repro.runtime.runner import RunStats, execute_job
from repro.runtime.spec import (
    AlgorithmSpec,
    GraphSpec,
    JobSpec,
    canonical_json,
    freeze_value,
    resolve_exploration,
    thaw_value,
)
from repro.runtime.store import DEFAULT_CACHE_DIR, RunStore
from repro.runtime.worker import materialize
from repro.sim.adversary import Configuration, resolve_substrate
from repro.sim.metrics import RendezvousResult
from repro.sim.simulator import simulate_rendezvous

#: With ``engine="auto"`` and no explicit worker count, configuration
#: spaces at least this large route to the process pool.
AUTO_PARALLEL_THRESHOLD = 20_000

def _reject_nonzero_delays(
    algorithm_name: str, requires_simultaneous: bool, delays: Sequence[int]
) -> None:
    """The one statement of the simultaneous-start rule, shared by
    scenario validation and single simulations: such algorithms are only
    correct at delay 0."""
    if requires_simultaneous and any(d != 0 for d in delays):
        raise ValueError(
            f"{algorithm_name} requires simultaneous start; "
            f"delays {tuple(delays)} invalid"
        )


# ----------------------------------------------------------------------
# Sweep rows (the measured-vs-claimed record every table is built from)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """One sweep result: measured extremes vs. declared bounds."""

    algorithm: str
    graph: str
    num_nodes: int
    exploration_budget: int
    label_space: int
    max_time: int
    time_bound: int
    max_cost: int
    cost_bound: int
    executions: int
    worst_time_config: Configuration
    worst_cost_config: Configuration

    @property
    def time_within_bound(self) -> bool:
        return self.max_time <= self.time_bound

    @property
    def cost_within_bound(self) -> bool:
        return self.max_cost <= self.cost_bound

    def to_dict(self) -> dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "graph": self.graph,
            "num_nodes": self.num_nodes,
            "exploration_budget": self.exploration_budget,
            "label_space": self.label_space,
            "max_time": self.max_time,
            "time_bound": self.time_bound,
            "time_within_bound": self.time_within_bound,
            "max_cost": self.max_cost,
            "cost_bound": self.cost_bound,
            "cost_within_bound": self.cost_within_bound,
            "executions": self.executions,
            "worst_time_config": self.worst_time_config.to_dict(),
            "worst_cost_config": self.worst_cost_config.to_dict(),
        }


def _row_fields(
    algorithm: RendezvousAlgorithm, graph: PortLabeledGraph, graph_name: str
) -> dict[str, Any]:
    """The :class:`SweepRow` fields a sweep's report does not set."""
    return {
        "algorithm": algorithm.name,
        "graph": graph_name,
        "num_nodes": graph.num_nodes,
        "exploration_budget": algorithm.exploration_budget,
        "label_space": algorithm.label_space,
        "time_bound": algorithm.time_bound(),
        "cost_bound": algorithm.cost_bound(),
    }


def _row_from_report(fields: Mapping[str, Any], report: MergedReport) -> SweepRow:
    """Turn a runtime :class:`~repro.runtime.report.MergedReport` into a
    :class:`SweepRow` with the static ``fields`` (:func:`_row_fields`), or
    raise on any failure to meet."""
    if report.failures:
        _, first = report.failures[0]
        raise AssertionError(
            f"{fields['algorithm']} failed to meet in {len(report.failures)} "
            f"configurations, e.g. labels={first.labels} starts={first.starts} "
            f"delay={first.delay}"
        )
    if report.worst_time is None or report.worst_cost is None:
        raise ValueError("empty configuration space: nothing to sweep")
    return SweepRow(
        **fields,
        max_time=report.max_time,
        max_cost=report.max_cost,
        executions=report.executions,
        worst_time_config=report.worst_time.config,
        worst_cost_config=report.worst_cost.config,
    )


# ----------------------------------------------------------------------
# Engine and cache routing
# ----------------------------------------------------------------------


def resolve_engine(workers: int | None, config_space_size: int) -> Executor:
    """The executor a run takes; the substrate is not its concern.

    An explicit worker count decides (see
    :func:`~repro.runtime.executor.make_executor`, which rejects counts
    below one); without one, spaces of at least
    :data:`AUTO_PARALLEL_THRESHOLD` configurations route to the pool.
    """
    if workers is not None:
        return make_executor(workers)
    if config_space_size >= AUTO_PARALLEL_THRESHOLD:
        return ParallelExecutor()
    return SerialExecutor()


def resolve_store(
    cache: bool | str | RunStore | None,
    cache_dir: str | None = None,
) -> RunStore | None:
    """Map the ``cache`` argument of :meth:`Scenario.run` to a store.

    ``False`` disables caching, ``True`` opens the default store (or
    ``cache_dir``, the CLI's ``--cache-dir``), a path opens a store
    there, and a :class:`RunStore` is used as-is.  ``cache=None``
    follows ``cache_dir``: a bare ``cache_dir`` caches there rather than
    silently not caching.
    """
    if isinstance(cache, RunStore):
        if cache_dir is not None:
            raise ValueError("pass either a RunStore or cache_dir, not both")
        return cache
    if cache is None:
        return None if cache_dir is None else RunStore(cache_dir)
    if cache is False:
        if cache_dir is not None:
            raise ValueError("cache=False contradicts cache_dir")
        return None
    if cache is True:
        return RunStore(cache_dir if cache_dir is not None else DEFAULT_CACHE_DIR)
    if cache_dir is not None:
        raise ValueError("pass either a cache path or cache_dir, not both")
    return RunStore(cache)


# ----------------------------------------------------------------------
# Scenario: one point on the paper's axes, as plain data
# ----------------------------------------------------------------------


def _reject_unknown_keys(where: str, payload: Mapping[str, Any], known: set) -> None:
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown {where} fields: {sorted(unknown)}")


def _required_key(where: str, payload: Mapping[str, Any], key: str) -> Any:
    if key not in payload:
        raise ValueError(f"{where} dict is missing the required {key!r} field")
    return payload[key]


def _parse_graph_dict(where: str, payload: Mapping[str, Any]) -> dict[str, Any]:
    """Constructor kwargs from a ``{"family": ..., "params": {...}}`` dict."""
    kwargs = {
        "graph": _required_key(where, payload, "family"),
        "graph_params": payload.get("params", {}),
    }
    _reject_unknown_keys(where, payload, {"family", "params"})
    return kwargs


def _parse_algorithm_dict(where: str, payload: Mapping[str, Any]) -> dict[str, Any]:
    """Constructor kwargs from a ``{"name": ..., "label_space": ...}`` dict."""
    kwargs = {"algorithm": _required_key(where, payload, "name")}
    for key in ("label_space", "weight"):
        if key in payload:
            kwargs[key] = payload[key]
    _reject_unknown_keys(where, payload, {"name", "label_space", "weight"})
    return kwargs


@dataclass(frozen=True)
class Scenario:
    """A declarative rendezvous scenario: the paper's axes as plain data.

    Every name resolves through a registry and is validated at
    construction, so a typo fails immediately with a :class:`SpecError`
    listing the valid choices -- not deep inside a worker process.

    ``fix_first_start=None`` (the default) means *derive it*: pin the
    first agent's start exactly when the graph family's registry entry is
    marked vertex-transitive, where pinning provably loses no worst case.
    """

    graph: str
    algorithm: str
    graph_params: Any = ()
    label_space: int = 8
    weight: int = 2
    knowledge: str = "map-with-position"
    exploration: str | None = None
    presence: str = "from-start"
    delays: Sequence[int] = (0,)
    label_pairs: Sequence[tuple[int, int]] | None = None
    fix_first_start: bool | None = None
    horizon: int | None = None

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        set_(
            self,
            "graph_params",
            GraphSpec.make(self.graph, **dict(self.graph_params)).params,
        )
        set_(self, "delays", tuple(int(d) for d in self.delays))
        if self.label_pairs is not None:
            set_(
                self,
                "label_pairs",
                tuple((int(a), int(b)) for a, b in self.label_pairs),
            )
        family = GRAPH_FAMILIES.entry(self.graph)
        # Fail fast on a params/family mismatch: without this check the
        # TypeError would only surface at build time, possibly as an
        # opaque exception inside a worker process.
        try:
            inspect.signature(family.target).bind(
                **{key: thaw_value(value) for key, value in self.graph_params}
            )
        except TypeError as err:
            raise ValueError(
                f"invalid parameters for graph family {self.graph!r}: {err}"
            ) from None
        entry = ALGORITHMS.entry(self.algorithm)
        KNOWLEDGE_MODELS.entry(self.knowledge)
        if self.exploration is not None:
            resolve_exploration(self.exploration, self.knowledge)
        PRESENCE_MODELS.entry(self.presence)
        if self.horizon is not None and self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.label_space < 2:
            raise ValueError(
                f"rendezvous needs at least two labels, got L={self.label_space}"
            )
        if any(d < 0 for d in self.delays):
            raise ValueError(f"delays must be non-negative, got {self.delays}")
        if self.label_pairs is not None:
            for a, b in self.label_pairs:
                if not (1 <= a <= self.label_space and 1 <= b <= self.label_space):
                    raise ValueError(
                        f"label pair ({a}, {b}) outside the label space "
                        f"1..{self.label_space}"
                    )
                if a == b:
                    raise ValueError(f"label pair ({a}, {b}) must be distinct")
        if not self.delays:
            raise ValueError("at least one delay is required")
        # The class attribute is the single source of truth for the
        # simultaneous-start requirement (no duplicated registry metadata).
        _reject_nonzero_delays(
            self.algorithm,
            getattr(entry.target, "requires_simultaneous_start", False),
            self.delays,
        )
        if self.weight < 1:
            raise ValueError(f"weight must be a positive integer, got {self.weight}")
        # Unlike AlgorithmSpec, the weight is NOT pinned for unweighted
        # algorithms here: a sweep may override the algorithm axis to a
        # weighted one later and must keep the weight the user wrote.
        # job_spec() still canonicalises, so run-store keys are shared.

    # ------------------------------------------------------------------
    # Resolution into the spec and object worlds
    # ------------------------------------------------------------------

    @property
    def resolved_fix_first_start(self) -> bool:
        if self.fix_first_start is not None:
            return self.fix_first_start
        entry = GRAPH_FAMILIES.entry(self.graph)
        return bool(entry.metadata.get("vertex_transitive", False))

    def job_spec(self, engine: str = "reactive") -> JobSpec:
        """The runtime :class:`JobSpec` describing this scenario's sweep.

        The one place a :class:`JobSpec` is built: the CLI and campaigns
        describe a sweep as a scenario and resolve it here, so run-store
        keys have a single source.  ``engine`` is the resolved substrate
        the spec records (see :meth:`run`).
        """
        return JobSpec(
            algorithm=self._algorithm_spec(),
            graph=self._graph_spec(),
            delays=self.delays,
            label_pairs=self.label_pairs,
            fix_first_start=self.resolved_fix_first_start,
            presence=self.presence,
            horizon=self.horizon,
            engine=engine,
        )

    @cached_property
    def _resolved(
        self,
    ) -> dict[str, tuple[JobSpec, PortLabeledGraph, dict[str, Any]]]:
        # run()'s memo, per substrate: the spec (whose content key is
        # memoised in turn), the per-process graph and the row's static
        # fields (:func:`_row_fields`).  It lives in the instance dict,
        # outside the frozen fields.
        return {}

    def _graph_spec(self) -> GraphSpec:
        return GraphSpec(self.graph, self.graph_params)

    def _algorithm_spec(self) -> AlgorithmSpec:
        return AlgorithmSpec(
            name=self.algorithm,
            label_space=self.label_space,
            weight=self.weight,
            knowledge=self.knowledge,
            exploration=self.exploration,
        )

    def build_graph(self) -> PortLabeledGraph:
        return self._graph_spec().build()

    def build_algorithm(
        self, graph: PortLabeledGraph | None = None
    ) -> RendezvousAlgorithm:
        graph = graph if graph is not None else self.build_graph()
        return self._algorithm_spec().build(graph)

    def config_space_size(self, graph: PortLabeledGraph | None = None) -> int:
        return self.job_spec().config_space_size(graph)

    @property
    def label(self) -> str:
        """Short display name, e.g. ``fast on ring(n=12)``."""
        return f"{self.algorithm} on {self._graph_spec().label}"

    # ------------------------------------------------------------------
    # Serialization: dicts and JSON
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "graph": self._graph_spec().to_dict(),
            "algorithm": {
                "name": self.algorithm,
                "label_space": self.label_space,
                "weight": self.weight,
            },
            "knowledge": self.knowledge,
            "exploration": self.exploration,
            "presence": self.presence,
            "delays": list(self.delays),
            "label_pairs": (
                None
                if self.label_pairs is None
                else [list(pair) for pair in self.label_pairs]
            ),
            "fix_first_start": self.fix_first_start,
            "horizon": self.horizon,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output or a flat dict.

        Accepts the canonical nested form (``graph``/``algorithm`` as
        sub-dicts) and the flat constructor-keyword form interchangeably,
        so hand-written configuration files stay terse.
        """
        payload = dict(payload)
        for required in ("graph", "algorithm"):
            if required not in payload:
                raise ValueError(
                    f"scenario dict is missing the required {required!r} field"
                )
        kwargs: dict[str, Any] = {}
        graph = payload.pop("graph")
        if isinstance(graph, Mapping):
            kwargs.update(_parse_graph_dict("graph", graph))
        else:
            kwargs["graph"] = graph
            kwargs["graph_params"] = payload.pop("graph_params", {})
        algorithm = payload.pop("algorithm")
        if isinstance(algorithm, Mapping):
            kwargs.update(_parse_algorithm_dict("algorithm", algorithm))
        else:
            kwargs["algorithm"] = algorithm
        for field_ in (
            "label_space",
            "weight",
            "knowledge",
            "exploration",
            "presence",
            "delays",
            "label_pairs",
            "fix_first_start",
            "horizon",
        ):
            if field_ in payload:
                value = payload.pop(field_)
                if value is not None:
                    kwargs[field_] = value
        if payload:
            raise ValueError(f"unknown scenario fields: {sorted(payload)}")
        return cls(**kwargs)

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def with_overrides(self, **overrides: Any) -> "Scenario":
        """A copy with the given axes replaced (the :class:`Sweep` step).

        The ``graph`` override accepts a bare family name (keeping the
        current parameters -- construction fails fast if they do not fit
        the new family; use the dict form to cross family boundaries) or
        a ``{"family": ..., "params": {...}}`` dict (replacing them);
        ``algorithm`` accepts the analogous forms.
        """
        kwargs: dict[str, Any] = {}
        for key, value in overrides.items():
            if key == "graph" and isinstance(value, Mapping):
                kwargs.update(_parse_graph_dict("graph override", value))
            elif key == "algorithm" and isinstance(value, Mapping):
                kwargs.update(_parse_algorithm_dict("algorithm override", value))
            else:
                kwargs[key] = value
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def simulate(
        self,
        labels: tuple[int, int],
        starts: tuple[int, int],
        delay: int = 0,
        max_rounds: int | None = None,
        graph: PortLabeledGraph | None = None,
        algorithm: RendezvousAlgorithm | None = None,
    ) -> RendezvousResult:
        """Run one concrete execution of this scenario's algorithm.

        ``max_rounds`` defaults to the scenario's ``horizon`` (when set),
        so replaying a sweep's configuration agrees with the sweep about
        the round budget.  ``graph``/``algorithm`` may be passed when the
        caller has already built them from this scenario, to avoid
        rebuilding (they must match the scenario).
        """
        if max_rounds is None:
            max_rounds = self.horizon
        graph = graph if graph is not None else self.build_graph()
        algorithm = (
            algorithm if algorithm is not None else self.build_algorithm(graph)
        )
        _reject_nonzero_delays(
            algorithm.name, algorithm.requires_simultaneous_start, (delay,)
        )
        return simulate_rendezvous(
            graph,
            algorithm,
            labels=labels,
            starts=starts,
            delay=delay,
            max_rounds=max_rounds,
            presence=PRESENCE_MODELS.get(self.presence),
        )

    def run(
        self,
        engine: str = "auto",
        workers: int | None = None,
        cache: bool | str | RunStore | None = None,
        shard_count: int | None = None,
        graph_name: str | None = None,
        graph: PortLabeledGraph | None = None,
        executor: Executor | None = None,
        telemetry: Any = None,
    ) -> "ScenarioRun":
        """Execute the worst-case sweep this scenario describes.

        The single entry point: ``engine`` picks the per-configuration
        substrate only (``"auto"``, ``"reactive"``, ``"compiled"`` or
        ``"cube"``; see :func:`~repro.sim.adversary.resolve_substrate`)
        -- under the default ``"auto"``, schedule-driven algorithms run
        on the pruned cube engine (compiled trajectories when NumPy is
        absent), everything else on the reactive simulator.  The
        executor comes from ``workers`` (see :func:`resolve_engine`) or
        ``executor``.  ``cache`` picks the run store (see
        :func:`resolve_store`).  Reports are byte-identical across
        engines, worker counts and shard granularities.  ``graph`` may be
        passed when the caller already built it from this scenario.
        An explicit ``executor`` overrides ``workers`` and stays open (the
        caller owns it -- how :meth:`Sweep.run` shares one pool across
        grid points); executors resolved here are closed before
        returning.

        ``telemetry`` accepts ``None`` (off, the default), a
        :class:`~repro.obs.telemetry.Telemetry`, or a bare sink (see
        :func:`~repro.obs.telemetry.resolve_telemetry`).  It narrates the
        run -- a ``scenario.run`` root span, an ``engine.resolved`` event,
        the runtime's shard/store/merge instrumentation -- and never
        changes it: the returned run is byte-identical with telemetry on
        or off.
        """
        tele = resolve_telemetry(telemetry)
        sim_engine = resolve_substrate(
            engine, ALGORITHMS.entry(self.algorithm).target
        )
        if graph is None:
            resolved = self._resolved.get(sim_engine)
            if resolved is None:
                spec = self.job_spec(engine=sim_engine)
                built_graph, algorithm = materialize(spec.graph, spec.algorithm)
                resolved = self._resolved[sim_engine] = (
                    spec,
                    built_graph,
                    _row_fields(algorithm, built_graph, spec.graph.label),
                )
            spec, graph, fields = resolved
        else:
            spec = self.job_spec(engine=sim_engine)
            fields = _row_fields(
                spec.algorithm.build(graph), graph, spec.graph.label
            )
        if graph_name is not None:
            fields = {**fields, "graph": graph_name}
        owned = executor is None
        if executor is None:
            # resolve_engine reads the space size only without a worker count.
            size = spec.config_space_size(graph) if workers is None else 0
            executor = resolve_engine(workers, size)
        store = resolve_store(cache)
        try:
            with tele.span(
                "scenario.run", algorithm=self.algorithm, graph=self.graph
            ):
                tele.event(
                    "engine.resolved",
                    requested=engine,
                    sim_engine=sim_engine,
                    executor=type(executor).__name__,
                    workers=workers,
                    cached=store is not None,
                )
                outcome = execute_job(
                    spec,
                    executor=executor,
                    store=store,
                    shard_count=shard_count,
                    graph=graph,
                    telemetry=tele,
                )
        finally:
            if owned:
                executor.close()
        row = _row_from_report(fields, outcome.report)
        return ScenarioRun(scenario=self, row=row, stats=outcome.stats)


@dataclass(frozen=True)
class ScenarioRun:
    """The outcome of :meth:`Scenario.run`: the row, plus how it was made.

    :meth:`to_dict`/:meth:`to_json` cover only the deterministic report
    (scenario + measurements) -- byte-identical across engines and cache
    states; the run-provenance :class:`RunStats` stay a separate
    attribute (and :meth:`runtime_dict`) because cache hits legitimately
    differ between reruns of the same scenario.
    """

    scenario: Scenario
    row: SweepRow
    stats: RunStats

    def to_dict(self) -> dict[str, Any]:
        return {"scenario": self.scenario.to_dict(), "result": self.row.to_dict()}

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def runtime_dict(self) -> dict[str, Any]:
        return asdict(self.stats)


# ----------------------------------------------------------------------
# Sweep: a Scenario grid
# ----------------------------------------------------------------------


_SWEEPABLE = {field_.name for field_ in fields(Scenario)}


@dataclass(frozen=True)
class Sweep:
    """A grid of scenarios: a base point plus axes of alternatives.

    ``grid`` maps scenario field names to the values to sweep; the
    cartesian product is enumerated with the *last* axis varying fastest
    (``itertools.product`` order), deterministically.  The ``graph`` axis
    additionally accepts ``{"family": ..., "params": {...}}`` entries so
    one sweep can cross family boundaries.
    """

    base: Scenario
    grid: Any = ()

    def __post_init__(self) -> None:
        if isinstance(self.grid, Mapping):
            items = self.grid.items()
        else:
            items = ((axis, values) for axis, values in self.grid)
        pairs = []
        for axis, values in items:
            if isinstance(values, (str, bytes)):
                # Sweep.over(base, graph="ring") would otherwise expand
                # character by character into nonsense grid points.
                raise ValueError(
                    f"sweep axis {axis!r} needs a list of values, "
                    f"got the bare string {values!r}"
                )
            pairs.append((axis, tuple(freeze_value(value) for value in values)))
        normalized = tuple(pairs)
        seen: set[str] = set()
        for axis, values in normalized:
            if axis not in _SWEEPABLE:
                raise ValueError(
                    f"unknown sweep axis {axis!r}; choose from {sorted(_SWEEPABLE)}"
                )
            if axis in seen:
                raise ValueError(f"sweep axis {axis!r} listed twice")
            seen.add(axis)
            if not values:
                raise ValueError(f"sweep axis {axis!r} has no values")
        object.__setattr__(self, "grid", normalized)

    @classmethod
    def over(cls, base: Scenario, **axes: Sequence[Any]) -> "Sweep":
        """Keyword-argument construction: ``Sweep.over(base, label_space=[4, 8])``."""
        return cls(base, axes)

    def __len__(self) -> int:
        total = 1
        for _, values in self.grid:
            total *= len(values)
        return total

    def scenarios(self) -> Iterator[Scenario]:
        """All grid points, deterministically ordered."""
        axes = [axis for axis, _ in self.grid]
        for combo in itertools.product(*(values for _, values in self.grid)):
            yield self.base.with_overrides(**dict(zip(axes, combo)))

    def to_dict(self) -> dict[str, Any]:
        # The grid serialises as a list of [axis, values] pairs, not a
        # dict: axis order determines the expansion order, and canonical
        # JSON sorts dict keys (which would silently reorder the sweep).
        return {
            "base": self.base.to_dict(),
            "grid": [[axis, thaw_value(list(values))] for axis, values in self.grid],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Sweep":
        unknown = set(payload) - {"base", "grid"}
        if unknown:
            raise ValueError(f"unknown sweep fields: {sorted(unknown)}")
        return cls(
            Scenario.from_dict(_required_key("sweep", payload, "base")),
            payload.get("grid", {}),
        )

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Sweep":
        return cls.from_dict(json.loads(text))

    def run(
        self,
        engine: str = "auto",
        workers: int | None = None,
        cache: bool | str | RunStore | None = None,
        shard_count: int | None = None,
        telemetry: Any = None,
    ) -> "SweepRun":
        """Run every grid point and collect the outcomes, in grid order.

        ``engine`` picks the substrate of every grid point, as in
        :meth:`Scenario.run`.  Grid points that route to the process pool
        share ONE pool (created lazily at the first point that needs it,
        closed at the end), so a sweep pays process startup once --
        whether the pool was requested by a worker count or triggered by
        a point's configuration-space size.  ``telemetry`` (resolved as in
        :meth:`Scenario.run`) wraps the whole grid in a ``sweep.run`` span
        and streams per-point progress; one telemetry narrates all points.
        """
        tele = resolve_telemetry(telemetry)
        shared: ParallelExecutor | None = None
        try:
            runs = []
            with tele.span("sweep.run"):
                scenarios = list(self.scenarios())
                tele.gauge("sweep.grid_points", len(scenarios))
                for position, scenario in enumerate(scenarios):
                    graph = scenario.build_graph()
                    # Route through resolve_engine itself (single source of
                    # truth for executor selection); its ParallelExecutor is
                    # lazy, so probing costs nothing and the shared pool is
                    # substituted for every point it would route to a pool.
                    routed = resolve_engine(
                        workers, scenario.config_space_size(graph)
                    )
                    executor: Executor | None = None
                    if isinstance(routed, ParallelExecutor):
                        if shared is None:
                            shared = ParallelExecutor(workers)
                        executor = shared
                    runs.append(
                        scenario.run(
                            engine=engine,
                            workers=workers,
                            cache=cache,
                            shard_count=shard_count,
                            graph=graph,
                            executor=executor,
                            telemetry=tele,
                        )
                    )
                    tele.progress("grid", position + 1, len(scenarios))
        finally:
            if shared is not None:
                shared.close()
        return SweepRun(sweep=self, runs=tuple(runs))


@dataclass(frozen=True)
class SweepRun:
    """Outcomes of a :class:`Sweep`, one :class:`ScenarioRun` per grid point."""

    sweep: Sweep
    runs: tuple[ScenarioRun, ...]

    @property
    def rows(self) -> list[SweepRow]:
        return [run.row for run in self.runs]

    def to_dict(self) -> dict[str, Any]:
        return {
            "sweep": self.sweep.to_dict(),
            "runs": [run.to_dict() for run in self.runs],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


__all__ = [
    "AUTO_PARALLEL_THRESHOLD",
    "Scenario",
    "ScenarioRun",
    "SpecError",
    "Sweep",
    "SweepRow",
    "SweepRun",
    "canonical_json",
    "resolve_engine",
    "resolve_store",
]
