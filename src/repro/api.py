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

The object world stays available underneath: :func:`sweep_objects` sweeps
live ``(algorithm, graph)`` instances that have no registry name (ablation
variants, baselines), and :func:`run_job` drives a raw
:class:`~repro.runtime.spec.JobSpec` for callers that already hold one.
"""

from __future__ import annotations

import inspect
import itertools
import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.core.base import RendezvousAlgorithm
from repro.graphs.port_graph import PortLabeledGraph
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, resolve_telemetry
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
from repro.runtime.runner import RunStats, execute_job
from repro.runtime.spec import (
    AlgorithmSpec,
    GraphSpec,
    JobSpec,
    canonical_json,
    ensure_hashable_param,
    freeze_value,
    resolve_exploration,
    thaw_value,
)
from repro.runtime.store import DEFAULT_CACHE_DIR, RunStore
from repro.sim import batch as sim_batch
from repro.sim.adversary import (
    ConfigCube,
    Configuration,
    all_label_pairs,
    default_horizon,
    worst_case_search,
)
from repro.sim.metrics import RendezvousResult
from repro.sim.simulator import simulate_rendezvous

#: With ``engine="auto"`` and no explicit worker count, configuration
#: spaces at least this large route to the process pool.
AUTO_PARALLEL_THRESHOLD = 20_000

_ENGINES = ("auto", "compiled", "cube", "parallel", "serial")


def resolve_sim_engine(engine: str, algorithm_name: str) -> str:
    """The per-configuration substrate an ``engine`` choice implies.

    ``"serial"`` and ``"parallel"`` are explicit executor choices and keep
    the reactive simulator.  ``"compiled"`` demands the compiled
    trajectory engine and ``"cube"`` the cross-label tensor engine
    (:mod:`repro.sim.cube`); both raise unless the registered algorithm
    is ``is_oblivious`` (the :class:`~repro.core.base.RendezvousAlgorithm`
    flag marking a schedule-driven behaviour), and ``"cube"`` additionally
    raises a loud :class:`~repro.sim.batch.BatchUnavailableError` when
    NumPy is not importable.  ``"auto"`` selects the fastest sound
    substrate: ``"cube"`` when the flag is set and NumPy is importable,
    ``"compiled"`` when only the flag is, and the reactive simulator for
    everything else -- sound any way, since the engines produce
    byte-identical reports wherever they all apply.
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {list(_ENGINES)}")
    if engine in ("serial", "parallel"):
        return "reactive"
    oblivious = bool(
        getattr(ALGORITHMS.entry(algorithm_name).target, "is_oblivious", False)
    )
    if engine in ("compiled", "cube"):
        if not oblivious:
            raise ValueError(
                f"algorithm {algorithm_name!r} is not is_oblivious; "
                f"engine={engine!r} needs a schedule-driven algorithm"
            )
        if engine == "cube":
            sim_batch.require_numpy()
        return engine
    if not oblivious:
        return "reactive"
    return "cube" if sim_batch.numpy_available() else "compiled"


def _reject_nonzero_delays(
    algorithm_name: str, requires_simultaneous: bool, delays: Sequence[int]
) -> None:
    """The one statement of the simultaneous-start rule, shared by every
    entry point (object sweeps, job specs, scenario validation and single
    simulations): such algorithms are only correct at delay 0."""
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
            "worst_time_config": _config_dict(self.worst_time_config),
            "worst_cost_config": _config_dict(self.worst_cost_config),
        }


def _config_dict(config: Configuration) -> dict[str, Any]:
    return {
        "labels": list(config.labels),
        "starts": list(config.starts),
        "delay": config.delay,
    }


def _row_from_report(algorithm, graph, graph_name, report) -> SweepRow:
    """Turn a worst-case report into a :class:`SweepRow`, or raise.

    Accepts both :class:`~repro.sim.adversary.WorstCaseReport` and
    :class:`~repro.runtime.report.MergedReport` (the shared shape: argmax
    records exposing ``.config``, plus ``failures`` and ``executions``), so
    the serial and runtime paths cannot drift apart.
    """
    if report.failures:
        first = report.failures[0]
        raise AssertionError(
            f"{algorithm.name} failed to meet in {len(report.failures)} "
            f"configurations, e.g. labels={first.labels} starts={first.starts} "
            f"delay={first.delay}"
        )
    if report.worst_time is None or report.worst_cost is None:
        raise ValueError("empty configuration space: nothing to sweep")
    return SweepRow(
        algorithm=algorithm.name,
        graph=graph_name,
        num_nodes=graph.num_nodes,
        exploration_budget=algorithm.exploration_budget,
        label_space=algorithm.label_space,
        max_time=report.max_time,
        time_bound=algorithm.time_bound(),
        max_cost=report.max_cost,
        cost_bound=algorithm.cost_bound(),
        executions=report.executions,
        worst_time_config=report.worst_time.config,
        worst_cost_config=report.worst_cost.config,
    )


# ----------------------------------------------------------------------
# The two execution substrates: live objects, and job specs
# ----------------------------------------------------------------------


def sweep_objects(
    algorithm: RendezvousAlgorithm,
    graph: PortLabeledGraph,
    graph_name: str,
    delays: Sequence[int] = (0,),
    label_pairs: Iterable[tuple[int, int]] | None = None,
    fix_first_start: bool = False,
    sample: int | None = None,
    engine: str = "reactive",
    telemetry: Telemetry = NULL_TELEMETRY,
    prune: bool | None = None,
) -> SweepRow:
    """Adversarial worst-case search over live ``(algorithm, graph)`` objects.

    The object-world escape hatch: for instances with no registry name
    (ablations, baselines, hand-built graphs), where a :class:`Scenario`
    cannot describe the job by value.  ``fix_first_start=True`` is only
    sound on vertex-transitive graphs; callers assert that themselves.
    Simultaneous-start-only algorithms reject non-zero delays loudly
    rather than producing invalid rows.  ``engine`` is forwarded to
    :func:`~repro.sim.adversary.worst_case_search` (``"auto"`` runs
    ``is_oblivious`` objects on the cube engine when NumPy is
    importable, on compiled trajectories otherwise); the row is identical
    whichever engine runs.  The configuration space rides as a
    :class:`~repro.sim.adversary.ConfigCube` -- the axes product every
    engine iterates lazily and the cube engine answers by whole tensor
    passes.  ``prune`` is the cube engine's pruning knob (``None``
    resolves via ``REPRO_PRUNE``); pruned and unpruned rows are
    byte-identical.
    """
    _reject_nonzero_delays(
        algorithm.name, algorithm.requires_simultaneous_start, delays
    )
    if label_pairs is None:
        label_pairs = all_label_pairs(algorithm.label_space)

    def horizon(config: Configuration) -> int:
        return default_horizon(algorithm, config)

    report = worst_case_search(
        graph,
        algorithm,
        ConfigCube.make(
            graph,
            label_pairs,
            delays=delays,
            fix_first_start=fix_first_start,
        ),
        max_rounds=horizon,
        sample=sample,
        engine=engine,
        telemetry=telemetry,
        prune=prune,
    )
    return _row_from_report(algorithm, graph, graph_name, report)


def run_job(
    spec: JobSpec,
    graph_name: str | None = None,
    executor: Executor | None = None,
    store: RunStore | None = None,
    shard_count: int | None = None,
    graph: PortLabeledGraph | None = None,
    algorithm: RendezvousAlgorithm | None = None,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> tuple[SweepRow, RunStats]:
    """Runtime-backed worst-case sweep of a raw :class:`JobSpec`.

    Sharded, parallelisable, cached -- and byte-identical to the serial
    enumeration (the merge tie-breaking guarantees identical argmax
    configurations).  ``graph`` and ``algorithm`` may be passed when the
    caller has already built them from the spec, to avoid rebuilding
    (they must match the spec).
    """
    graph = graph if graph is not None else spec.graph.build()
    algorithm = algorithm if algorithm is not None else spec.algorithm.build(graph)
    _reject_nonzero_delays(
        algorithm.name, algorithm.requires_simultaneous_start, spec.delays
    )
    if spec.engine in ("compiled", "cube") and not getattr(
        algorithm, "is_oblivious", False
    ):
        raise ValueError(
            f"{algorithm.name} is not is_oblivious; "
            f"a {spec.engine}-engine job spec needs a schedule-driven algorithm"
        )
    if spec.engine == "cube":
        # Fail fast with the install hint here rather than deep inside a
        # worker process (every pool worker would raise the same error).
        sim_batch.require_numpy()
    outcome = execute_job(
        spec,
        executor=executor,
        store=store,
        shard_count=shard_count,
        graph=graph,
        telemetry=telemetry,
    )
    name = graph_name if graph_name is not None else spec.graph.label
    row = _row_from_report(algorithm, graph, name, outcome.report)
    return row, outcome.stats


# ----------------------------------------------------------------------
# Engine and cache routing
# ----------------------------------------------------------------------


def resolve_engine(
    engine: str, workers: int | None, config_space_size: int
) -> Executor:
    """Map an ``engine`` choice (and optional worker count) to an executor.

    ``"serial"`` and ``"parallel"`` are explicit; ``"auto"``,
    ``"compiled"`` and ``"cube"`` (which constrain the
    simulation substrate, not the executor -- see
    :func:`resolve_sim_engine`) follow the worker count when one is
    given, and otherwise route spaces of at least
    :data:`AUTO_PARALLEL_THRESHOLD` configurations to the pool.
    """
    if engine == "serial":
        if workers not in (None, 1):
            raise ValueError(
                f"engine='serial' runs in-process; workers={workers} is contradictory"
            )
        return SerialExecutor()
    if engine == "parallel":
        return ParallelExecutor(workers)
    if engine in ("auto", "compiled", "cube"):
        if workers is not None:
            return make_executor(workers)
        if config_space_size >= AUTO_PARALLEL_THRESHOLD:
            return ParallelExecutor()
        return SerialExecutor()
    raise ValueError(f"unknown engine {engine!r}; choose from {list(_ENGINES)}")


def resolve_store(
    cache: bool | str | RunStore | None,
    cache_dir: str | None = None,
) -> RunStore | None:
    """Map the ``cache`` argument of :meth:`Scenario.run` to a store.

    ``False`` disables caching, ``True`` opens the default store (or
    ``cache_dir``), a path opens a store there, and a :class:`RunStore`
    is used as-is.  ``cache=None`` follows ``cache_dir``: a bare
    ``run(cache_dir=...)`` caches there rather than silently not caching.
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


def _params_pairs(params: Any) -> tuple[tuple[str, Any], ...]:
    """Normalize graph parameters to the canonical sorted-pair form.

    Mapping-valued parameters (even nested inside sequences) are rejected
    via the same :func:`ensure_hashable_param` guard as
    :meth:`GraphSpec.make`: they would survive freezing as dicts and
    break the spec hashability the runtime workers memoise on.
    """
    if isinstance(params, Mapping):
        items = params.items()
    else:
        items = (tuple(pair) for pair in params)
    pairs = []
    for key, value in items:
        ensure_hashable_param(str(key), value)
        pairs.append((str(key), freeze_value(value)))
    return tuple(sorted(pairs))


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
        set_(self, "graph_params", _params_pairs(self.graph_params))
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
    def graph_spec(self) -> GraphSpec:
        return GraphSpec(self.graph, self.graph_params)

    @property
    def algorithm_spec(self) -> AlgorithmSpec:
        return AlgorithmSpec(
            name=self.algorithm,
            label_space=self.label_space,
            weight=self.weight,
            knowledge=self.knowledge,
            exploration=self.exploration,
        )

    @property
    def resolved_fix_first_start(self) -> bool:
        if self.fix_first_start is not None:
            return self.fix_first_start
        entry = GRAPH_FAMILIES.entry(self.graph)
        return bool(entry.metadata.get("vertex_transitive", False))

    def job_spec(self) -> JobSpec:
        """The runtime :class:`JobSpec` describing this scenario's sweep."""
        return JobSpec(
            algorithm=self.algorithm_spec,
            graph=self.graph_spec,
            delays=self.delays,
            label_pairs=self.label_pairs,
            fix_first_start=self.resolved_fix_first_start,
            presence=self.presence,
            horizon=self.horizon,
        )

    def build_graph(self) -> PortLabeledGraph:
        return self.graph_spec.build()

    def build_algorithm(
        self, graph: PortLabeledGraph | None = None
    ) -> RendezvousAlgorithm:
        graph = graph if graph is not None else self.build_graph()
        return self.algorithm_spec.build(graph)

    def config_space_size(self, graph: PortLabeledGraph | None = None) -> int:
        return self.job_spec().config_space_size(graph)

    @property
    def label(self) -> str:
        """Short display name, e.g. ``fast on ring(n=12)``."""
        return f"{self.algorithm} on {self.graph_spec.label}"

    # ------------------------------------------------------------------
    # Serialization: dicts and JSON
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "graph": self.graph_spec.to_dict(),
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
        cache_dir: str | None = None,
        shard_count: int | None = None,
        graph_name: str | None = None,
        graph: PortLabeledGraph | None = None,
        executor: Executor | None = None,
        cluster: Any = None,
        telemetry: Any = None,
    ) -> "ScenarioRun":
        """Execute the worst-case sweep this scenario describes.

        The single entry point: ``engine`` picks the executor (see
        :func:`resolve_engine`) *and* the per-configuration substrate (see
        :func:`resolve_sim_engine`) -- under the default ``"auto"``,
        schedule-driven algorithms run on the pruned cube engine
        (compiled trajectories when NumPy is absent), everything else on
        the reactive simulator.  ``cache`` picks the run store (see
        :func:`resolve_store`).  Reports are byte-identical across
        engines, worker counts and shard granularities.  ``graph`` may be
        passed when the caller already built it from this scenario.
        An explicit ``executor`` overrides ``engine``/``workers`` for the
        executor axis only and stays open (the caller owns it -- how
        :meth:`Sweep.run` shares one pool across grid points); executors
        resolved here are closed before returning.

        ``cluster`` routes execution through the fault-tolerant
        distributed queue instead (see
        :func:`repro.cluster.resolve_cluster` for the accepted shapes:
        a local worker count, a :class:`~repro.cluster.ClusterConfig`,
        or a live :class:`~repro.cluster.ClusterExecutor`).  It replaces
        the executor axis only -- engine/cache semantics are unchanged,
        and the run is byte-identical to every other execution route.
        ``cluster`` excludes ``executor`` and ``workers`` (the cluster
        config carries its own worker count); executors resolved from a
        config here are closed before returning, a passed-in
        ``ClusterExecutor`` stays open.

        ``telemetry`` accepts ``None`` (off, the default), a
        :class:`~repro.obs.telemetry.Telemetry`, or a bare sink (see
        :func:`~repro.obs.telemetry.resolve_telemetry`).  It narrates the
        run -- a ``scenario.run`` root span, an ``engine.resolved`` event,
        the runtime's shard/store/merge instrumentation -- and never
        changes it: the returned run is byte-identical with telemetry on
        or off.
        """
        tele = resolve_telemetry(telemetry)
        spec = self.job_spec()
        sim_engine = resolve_sim_engine(engine, self.algorithm)
        if sim_engine != spec.engine:
            spec = replace(spec, engine=sim_engine)
        graph = graph if graph is not None else spec.graph.build()
        if cluster is not None and cluster is not False:
            if executor is not None:
                raise ValueError("pass either cluster or executor, not both")
            if workers is not None:
                raise ValueError(
                    "cluster carries its own worker count; "
                    "workers configures the in-process pool"
                )
            if engine in ("serial", "parallel"):
                raise ValueError(
                    f"engine={engine!r} pins the in-process executor and "
                    f"contradicts cluster execution"
                )
            # Imported lazily: repro.cluster builds on the runtime and api
            # layers, so a top-level import would be circular.
            from repro.cluster import ClusterExecutor, resolve_cluster

            executor = resolve_cluster(cluster, telemetry=tele)
            owned = not isinstance(cluster, ClusterExecutor)
            if graph_name is not None:
                # Recorded in job.json so an adopting coordinator labels
                # its merged row exactly as this run would have.
                executor.publish_graph_name = graph_name
        else:
            owned = executor is None
            if executor is None:
                executor = resolve_engine(
                    engine, workers, spec.config_space_size(graph)
                )
        store = resolve_store(cache, cache_dir)
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
                row, stats = run_job(
                    spec,
                    graph_name=graph_name,
                    executor=executor,
                    store=store,
                    shard_count=shard_count,
                    graph=graph,
                    telemetry=tele,
                )
        finally:
            if owned:
                executor.close()
        return ScenarioRun(scenario=self, row=row, stats=stats)


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
        cache_dir: str | None = None,
        shard_count: int | None = None,
        cluster: Any = None,
        telemetry: Any = None,
    ) -> "SweepRun":
        """Run every grid point and collect the outcomes, in grid order.

        Grid points that route to the process pool share ONE pool (created
        lazily at the first point that needs it, closed at the end), so a
        sweep pays process startup once -- whether the pool was requested
        explicitly (``engine="parallel"``, or ``auto`` with a worker
        count) or triggered by a point's configuration-space size under
        the default ``auto``.  ``telemetry`` (resolved as in
        :meth:`Scenario.run`) wraps the whole grid in a ``sweep.run`` span
        and streams per-point progress; one telemetry narrates all points.

        ``cluster`` (see :meth:`Scenario.run`) routes every grid point
        through the distributed queue; a single
        :class:`~repro.cluster.ClusterExecutor` instance (or one resolved
        here from a config) serves all points -- each sweep gets its own
        run directory under the cluster root.
        """
        tele = resolve_telemetry(telemetry)
        shared: ParallelExecutor | None = None
        shared_cluster = None
        owns_cluster = False
        if cluster is not None and cluster is not False:
            from repro.cluster import ClusterExecutor, resolve_cluster

            shared_cluster = resolve_cluster(cluster, telemetry=tele)
            owns_cluster = not isinstance(cluster, ClusterExecutor)
        try:
            runs = []
            with tele.span("sweep.run"):
                scenarios = list(self.scenarios())
                tele.gauge("sweep.grid_points", len(scenarios))
                for position, scenario in enumerate(scenarios):
                    graph = scenario.build_graph()
                    if shared_cluster is not None:
                        runs.append(
                            scenario.run(
                                engine=engine,
                                cache=cache,
                                cache_dir=cache_dir,
                                shard_count=shard_count,
                                graph=graph,
                                cluster=shared_cluster,
                                telemetry=tele,
                            )
                        )
                        tele.progress("grid", position + 1, len(scenarios))
                        continue
                    # Route through resolve_engine itself (single source of
                    # truth for engine selection); its ParallelExecutor is
                    # lazy, so probing costs nothing and the shared pool is
                    # substituted for every point it would route to a pool.
                    routed = resolve_engine(
                        engine, workers, scenario.config_space_size(graph)
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
                            cache_dir=cache_dir,
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
            if shared_cluster is not None and owns_cluster:
                shared_cluster.close()
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
    "resolve_sim_engine",
    "resolve_store",
    "run_job",
    "sweep_objects",
]
