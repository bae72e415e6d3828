"""Serializable job specifications for the parallel experiment runtime.

A worst-case sweep is described *by value*: the algorithm as a name plus
parameters, the graph as a family descriptor, and the adversarial grid as
delays / label pairs / start policy.  Worker processes rebuild the actual
objects from the description, so a :class:`JobSpec` can be pickled to a
pool, serialized to JSON for the run store, and hashed into a stable
content address.

The configuration space of a job is totally ordered (the enumeration order
of :func:`repro.sim.adversary.configurations`); a *shard* is a contiguous
slice ``[lo, hi)`` of that order.  Each configuration therefore has a
global index, which downstream merge logic uses for tie-breaking so that
sharded results are bit-identical to a serial enumeration.

Every name in a spec (graph family, algorithm, knowledge model, presence
model) resolves through the named registries in :mod:`repro.registry`;
unknown names raise :class:`repro.registry.SpecError` listing the valid
choices.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Iterator, Mapping

from repro.core.base import RendezvousAlgorithm
from repro.exploration.registry import KnowledgeModel, best_exploration
from repro.graphs.port_graph import PortLabeledGraph
from repro.registry import (
    ALGORITHMS,
    EXPLORATIONS,
    GRAPH_FAMILIES,
    KNOWLEDGE_MODELS,
)
from repro.sim.adversary import (
    ConfigCube,
    Configuration,
    all_label_pairs,
)


def canonical_json(payload: Any) -> str:
    """The canonical JSON form used for hashing and byte-identity checks."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _content_key(payload: Mapping[str, Any]) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def resolve_exploration(name: str, knowledge: str):
    """The EXPLORATIONS entry for ``name``, checked against ``knowledge``.

    The single source of truth for exploration/knowledge compatibility:
    a procedure's ``knowledge`` metadata lists the models it serves, and
    naming it under any other model is a contradiction (e.g. a known-map
    DFS cannot run with only a size bound).
    """
    procedure = EXPLORATIONS.entry(name)  # SpecError if unknown
    served = procedure.metadata.get("knowledge", ())
    if served and knowledge not in served:
        raise ValueError(
            f"exploration {name!r} serves knowledge models "
            f"{list(served)}, not {knowledge!r}"
        )
    return procedure


def freeze_value(value: Any) -> Any:
    """Lists/tuples -> nested tuples, so parameter values compare and
    hash canonically; mappings keep their shape with frozen values."""
    if isinstance(value, Mapping):
        return {key: freeze_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return tuple(freeze_value(item) for item in value)
    return value


def thaw_value(value: Any) -> Any:
    """The inverse of :func:`freeze_value`: back to JSON-ready built-ins
    (nested tuples -> lists, mappings recursed)."""
    if isinstance(value, Mapping):
        return {key: thaw_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [thaw_value(item) for item in value]
    return value


def ensure_hashable_param(key: str, value: Any) -> None:
    """Reject mapping values anywhere inside a graph parameter.

    A mapping would survive :func:`freeze_value` as a dict (even nested
    inside a sequence) and break the spec hashability worker processes
    memoise on -- fail at the construction site instead of deep inside a
    pool worker's ``lru_cache``.
    """
    if isinstance(value, Mapping):
        raise ValueError(
            f"graph parameter {key!r} must be a scalar or (nested) sequence, "
            "not a mapping"
        )
    if isinstance(value, (list, tuple)):
        for item in value:
            ensure_hashable_param(key, item)


@dataclass(frozen=True)
class GraphSpec:
    """A graph family name plus the keyword parameters to rebuild it.

    ``params`` is a sorted tuple of ``(name, value)`` pairs so instances
    are hashable and have a unique canonical form.  Use :meth:`make` to
    construct one from keyword arguments.
    """

    family: str
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, family: str, **params: Any) -> "GraphSpec":
        for key, value in params.items():
            ensure_hashable_param(key, value)
        return cls(
            family, tuple(sorted((k, freeze_value(v)) for k, v in params.items()))
        )

    def build(self) -> PortLabeledGraph:
        entry = GRAPH_FAMILIES.entry(self.family)  # SpecError if unknown
        kwargs = {name: thaw_value(value) for name, value in self.params}
        return entry.build(**kwargs)

    @property
    def label(self) -> str:
        """Short display name, e.g. ``ring(n=16)``."""
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family}({inner})"

    def to_dict(self) -> dict[str, Any]:
        return {"family": self.family, "params": {k: thaw_value(v) for k, v in self.params}}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GraphSpec":
        return cls.make(payload["family"], **payload.get("params", {}))


@dataclass(frozen=True)
class AlgorithmSpec:
    """An algorithm name plus the parameters to rebuild it on a graph.

    By default the exploration procedure is *derived* (via
    :func:`repro.exploration.registry.best_exploration` under
    ``knowledge``), not serialized: it is a deterministic function of the
    graph, and rebuilding it in the worker keeps the spec small.  An
    explicit ``exploration`` names a registered procedure instead,
    overriding the knowledge-model hierarchy.
    """

    name: str
    label_space: int
    weight: int = 2
    knowledge: str = KnowledgeModel.MAP_WITH_POSITION.value
    exploration: str | None = None

    def __post_init__(self) -> None:
        # Only weighted algorithms (registry metadata) consume the weight;
        # pin it to the default elsewhere so e.g. Cheap(weight=3) and
        # Cheap(weight=2) are equal, hash alike, and share one run-store
        # entry.  Names not (yet) registered keep their weight untouched:
        # pinning an unknown name would silently corrupt the weight of a
        # weighted algorithm whose provider just isn't imported yet.
        entry = ALGORITHMS.lookup(self.name)
        if (
            entry is not None
            and not entry.metadata.get("weighted", False)
            and self.weight != 2
        ):
            object.__setattr__(self, "weight", 2)

    def build(self, graph: PortLabeledGraph) -> RendezvousAlgorithm:
        entry = ALGORITHMS.entry(self.name)  # SpecError if unknown
        if self.exploration is not None:
            exploration = resolve_exploration(self.exploration, self.knowledge).build(
                graph
            )
        else:
            knowledge = KNOWLEDGE_MODELS.get(self.knowledge)  # SpecError if unknown
            exploration = best_exploration(graph, knowledge)
        if entry.metadata.get("weighted", False):
            return entry.build(exploration, self.label_space, self.weight)
        return entry.build(exploration, self.label_space)

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "name": self.name,
            "label_space": self.label_space,
            "weight": self.weight,
            "knowledge": self.knowledge,
        }
        # Emitted only when set, so the content hashes (and run-store
        # entries) of knowledge-derived specs are unchanged.
        if self.exploration is not None:
            payload["exploration"] = self.exploration
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AlgorithmSpec":
        return cls(
            name=payload["name"],
            label_space=payload["label_space"],
            weight=payload.get("weight", 2),
            knowledge=payload.get("knowledge", KnowledgeModel.MAP_WITH_POSITION.value),
            exploration=payload.get("exploration"),
        )


#: The per-configuration execution substrates a worker can run.
SIM_ENGINES = ("reactive", "compiled", "batch", "cube")


@dataclass(frozen=True)
class JobSpec:
    """One unit of adversary-search work, serializable by value.

    ``shard=None`` describes the whole sweep; ``shard=(lo, hi)`` restricts
    it to the configurations with global indices in ``[lo, hi)``.
    ``horizon=None`` means each execution's round budget is derived from
    the algorithm's own schedule (``delay + max schedule length``), which
    is how :func:`repro.api.sweep_objects` runs.

    ``engine`` picks the per-configuration substrate a worker uses:
    ``"reactive"`` (the round simulator), ``"compiled"`` (the trajectory
    engine of :mod:`repro.sim.compiled`) or ``"batch"`` (the vectorized
    NumPy engine of :mod:`repro.sim.batch`); the latter two are valid
    only for schedule-driven algorithms, and ``"batch"`` additionally
    needs the optional NumPy dependency in every worker process.  Reports
    are byte-identical whichever substrate runs.  A non-default engine
    participates in the content key, so a run-store entry records exactly
    how it was produced -- while reactive specs serialize exactly as
    before this field existed, keeping their run-store entries reachable.
    """

    algorithm: AlgorithmSpec
    graph: GraphSpec
    delays: tuple[int, ...] = (0,)
    label_pairs: tuple[tuple[int, int], ...] | None = None
    fix_first_start: bool = False
    presence: str = "from-start"
    horizon: int | None = None
    shard: tuple[int, int] | None = None
    engine: str = "reactive"

    def __post_init__(self) -> None:
        if self.engine not in SIM_ENGINES:
            raise ValueError(
                f"unknown simulation engine {self.engine!r}; "
                f"choose from {list(SIM_ENGINES)}"
            )

    # ------------------------------------------------------------------
    # Shard algebra
    # ------------------------------------------------------------------

    def sweep_spec(self) -> "JobSpec":
        """The whole-sweep spec this shard belongs to."""
        return replace(self, shard=None) if self.shard is not None else self

    def shard_spec(self, lo: int, hi: int) -> "JobSpec":
        if not 0 <= lo <= hi:
            raise ValueError(f"invalid shard bounds [{lo}, {hi})")
        return replace(self, shard=(lo, hi))

    # ------------------------------------------------------------------
    # Configuration space
    # ------------------------------------------------------------------

    def resolved_label_pairs(self) -> tuple[tuple[int, int], ...]:
        if self.label_pairs is not None:
            return self.label_pairs
        return tuple(all_label_pairs(self.algorithm.label_space))

    def config_cube(self, graph: PortLabeledGraph) -> ConfigCube:
        """The sweep's configuration space as a :class:`ConfigCube`.

        Its axes fix the global (shard-index) order: label pairs
        outermost, then :func:`~repro.sim.adversary.default_start_pairs`,
        then delays.  :meth:`iter_shard`, :meth:`config_space_size` and
        the cube engine's shard slices all read these axes, so their
        orderings cannot drift.
        """
        return ConfigCube.make(
            graph,
            self.resolved_label_pairs(),
            delays=self.delays,
            fix_first_start=self.fix_first_start,
        )

    def config_space_size(self, graph: PortLabeledGraph | None = None) -> int:
        """Total number of configurations, without simulating any."""
        graph = graph if graph is not None else self.graph.build()
        return len(self.config_cube(graph))

    def iter_configs(self, graph: PortLabeledGraph) -> Iterator[Configuration]:
        """All configurations in the global (shard-index) order."""
        return iter(self.config_cube(graph))

    def iter_shard(
        self, graph: PortLabeledGraph
    ) -> Iterator[tuple[int, Configuration]]:
        """The shard's ``(global_index, configuration)`` pairs.

        The configuration space is a pure product (label pairs x start
        pairs x delays), so an index maps to its configuration by
        ``divmod`` over the :meth:`config_cube` axes -- a shard costs
        ``O(hi - lo)`` regardless of where in the global order it
        starts, instead of enumerating and discarding every preceding
        configuration.
        """
        cube = self.config_cube(graph)
        delays = cube.delays
        per_label = len(cube.start_pairs) * len(delays)
        total = len(cube)
        lo, hi = self.shard if self.shard is not None else (0, total)
        for index in range(lo, min(hi, total)):
            label_index, rest = divmod(index, per_label)
            start_index, delay_index = divmod(rest, len(delays))
            yield index, Configuration(
                labels=cube.label_pairs[label_index],
                starts=cube.start_pairs[start_index],
                delay=delays[delay_index],
            )

    # ------------------------------------------------------------------
    # Serialization and content addressing
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "algorithm": self.algorithm.to_dict(),
            "graph": self.graph.to_dict(),
            "delays": list(self.delays),
            "label_pairs": (
                None
                if self.label_pairs is None
                else [list(pair) for pair in self.label_pairs]
            ),
            "fix_first_start": self.fix_first_start,
            "presence": self.presence,
            "horizon": self.horizon,
            "shard": None if self.shard is None else list(self.shard),
        }
        if self.engine != "reactive":
            # Emitted only when not the default, so reactive sweeps keep
            # their pre-engine content hashes -- and hence their run-store
            # entries -- unchanged.
            payload["engine"] = self.engine
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobSpec":
        label_pairs = payload.get("label_pairs")
        shard = payload.get("shard")
        return cls(
            algorithm=AlgorithmSpec.from_dict(payload["algorithm"]),
            graph=GraphSpec.from_dict(payload["graph"]),
            delays=tuple(payload["delays"]),
            label_pairs=(
                None
                if label_pairs is None
                else tuple((a, b) for a, b in label_pairs)
            ),
            fix_first_start=payload["fix_first_start"],
            presence=payload.get("presence", "from-start"),
            horizon=payload.get("horizon"),
            shard=None if shard is None else (shard[0], shard[1]),
            engine=payload.get("engine", "reactive"),
        )

    def key(self) -> str:
        """Content hash of this spec (including the shard slice, if any)."""
        return _content_key(self.to_dict())

    def sweep_key(self) -> str:
        """Content hash of the whole sweep this spec belongs to."""
        return self.sweep_spec().key()
