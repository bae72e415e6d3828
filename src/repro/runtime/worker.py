"""The function a worker process executes: one shard of adversary search.

:func:`run_shard` is deliberately a module-level function of one picklable
argument so it can be submitted to a ``ProcessPoolExecutor`` unchanged.
Graphs and algorithms are rebuilt from the spec on first use and memoised
per process (pool workers are long-lived, so a worker pays the
construction cost once per distinct job, not once per shard).

The spec's ``engine`` picks the substrate: the reactive round
simulator, the compiled trajectory engine (:mod:`repro.sim.compiled`),
the vectorized batch engine (:mod:`repro.sim.batch`), or the pruned cube
engine (:mod:`repro.sim.cube`).  Tables are memoised per process, so
shards of one sweep share compilations.

A cube shard never exists as configurations: its ``[lo, hi)`` range is
handed to the cube engine as a slice of the sweep's
:class:`~repro.sim.adversary.ConfigCube` (:meth:`JobSpec.config_cube`),
answered by the same whole-cube evaluator ``worst_case_search`` uses,
with horizons per ``(label pair, delay)`` and pruning resolved through
``REPRO_PRUNE``; only the argmax winners and failures are decoded.  The
other substrates walk the shard's lazy ``(index, configuration)`` stream
(the batch engine in bounded vectorized chunks).  Whatever the path, the
shard report is identical, and its non-canonical
:class:`~repro.runtime.report.ShardTiming` records which path ran
(``"whole_cube"`` or ``"stream"``) and whether pruning was on.
"""

from __future__ import annotations

import time
from functools import lru_cache, partial
from typing import Callable, Iterator

from repro.core.base import RendezvousAlgorithm
from repro.graphs.port_graph import PortLabeledGraph
from repro.registry import PRESENCE_MODELS
from repro.runtime.report import ConfigRef, ExtremeSummary, ShardReport, ShardTiming
from repro.runtime.spec import AlgorithmSpec, GraphSpec, JobSpec
from repro.sim.adversary import Configuration, default_horizon
from repro.sim.batch import BatchTimelineTable, evaluate_stream
from repro.sim.compiled import TrajectoryTable
from repro.sim.simulator import simulate_rendezvous


@lru_cache(maxsize=16)
def _materialize(
    graph_spec: GraphSpec, algorithm_spec: AlgorithmSpec
) -> tuple[PortLabeledGraph, RendezvousAlgorithm]:
    graph = graph_spec.build()
    return graph, algorithm_spec.build(graph)


@lru_cache(maxsize=8)
def _trajectory_table(
    graph_spec: GraphSpec, algorithm_spec: AlgorithmSpec
) -> TrajectoryTable:
    graph, algorithm = _materialize(graph_spec, algorithm_spec)
    return TrajectoryTable(graph, algorithm)


@lru_cache(maxsize=8)
def _batch_table(
    graph_spec: GraphSpec, algorithm_spec: AlgorithmSpec
) -> BatchTimelineTable:
    graph, algorithm = _materialize(graph_spec, algorithm_spec)
    return BatchTimelineTable(graph, algorithm)


@lru_cache(maxsize=8)
def _cube_table(graph_spec: GraphSpec, algorithm_spec: AlgorithmSpec):
    # Imported lazily so NumPy-free workers can run the other engines.
    from repro.sim.cube import CubeTimelineTable

    graph, algorithm = _materialize(graph_spec, algorithm_spec)
    # prune=None resolves via REPRO_PRUNE, which pool/cluster workers
    # inherit from the submitting process -- pruned and unpruned shards
    # are byte-identical, so the knob never rides on the spec.
    return CubeTimelineTable(graph, algorithm)


class _ShardMeter:
    """Per-shard wall-clock bookkeeping, filled while the stream runs.

    Tables are memoised per process, so the per-shard table-build cost is
    the *delta* of the table's cumulative ``build_seconds`` across this
    shard (the first shard of a sweep pays the builds; later shards read
    the cache and report ~0).  Purely observational: the numbers ride
    back on the :class:`~repro.runtime.report.ShardTiming` and never
    influence the measurements.
    """

    def __init__(self) -> None:
        self.table_seconds = 0.0
        self.chunks = 0
        #: The cube table's resolved pruning flag; ``None`` off the cube.
        self.prune: bool | None = None
        self._table = None
        self._build_start = 0.0

    def watch_table(self, table) -> None:
        self._table = table
        self._build_start = table.build_seconds

    def finish(self) -> None:
        if self._table is not None:
            self.table_seconds = self._table.build_seconds - self._build_start

    def on_chunk(self, size: int, seconds: float) -> None:
        self.chunks += 1


def _horizon_policy(
    spec: JobSpec, algorithm: RendezvousAlgorithm
) -> int | Callable[[Configuration], int]:
    """The spec's fixed horizon, or the algorithm's own schedule bound."""
    if spec.horizon is not None:
        return spec.horizon
    return partial(default_horizon, algorithm)


def _cube_slice(
    spec: JobSpec,
    graph: PortLabeledGraph,
    algorithm: RendezvousAlgorithm,
    presence,
    lo: int,
    hi: int,
    meter: _ShardMeter,
):
    """The shard as a ``[lo, hi)`` slice of the sweep's cube, one tensor pass.

    Imported lazily so NumPy-free workers can run the other engines; the
    evaluator is the one ``worst_case_search(engine="cube")`` uses.
    """
    from repro.sim.cube import _whole_cube_search

    table = _cube_table(spec.graph, spec.algorithm)
    meter.watch_table(table)
    meter.prune = table.prune
    return _whole_cube_search(
        table,
        spec.config_cube(graph),
        _horizon_policy(spec, algorithm),
        presence,
        lo,
        hi,
    )


def _measured_stream(
    spec: JobSpec,
    graph: PortLabeledGraph,
    algorithm: RendezvousAlgorithm,
    presence,
    meter: _ShardMeter | None = None,
) -> Iterator[tuple[int, Configuration, int | None, int]]:
    """``(index, config, time, cost)`` for the shard, in enumeration order.

    The per-configuration path of the reactive, compiled and batch
    substrates, all field-identical: the shard loop in :func:`run_shard`
    cannot tell them apart.
    """
    horizon = _horizon_policy(spec, algorithm)

    def horizon_for(config: Configuration) -> int:
        return horizon(config) if callable(horizon) else horizon

    indexed = spec.iter_shard(graph)
    if spec.engine == "batch":
        table = _batch_table(spec.graph, spec.algorithm)
        if meter is not None:
            meter.watch_table(table)
        for index, config, _horizon, time_, cost in evaluate_stream(
            table,
            ((index, config, horizon_for(config)) for index, config in indexed),
            presence,
            on_chunk=meter.on_chunk if meter is not None else None,
        ):
            yield index, config, time_, cost
    elif spec.engine == "compiled":
        table = _trajectory_table(spec.graph, spec.algorithm)
        if meter is not None:
            meter.watch_table(table)
        for index, config in indexed:
            time_, cost = table.evaluate(config, horizon_for(config), presence)
            yield index, config, time_, cost
    else:
        for index, config in indexed:
            result = simulate_rendezvous(
                graph,
                algorithm,
                labels=config.labels,
                starts=config.starts,
                delay=config.delay,
                max_rounds=horizon_for(config),
                presence=presence,
            )
            yield index, config, (result.time if result.met else None), result.cost


def _summary(extreme) -> ExtremeSummary | None:
    if extreme is None:
        return None
    config = extreme.config
    return ExtremeSummary(
        index=extreme.index,
        labels=config.labels,
        starts=config.starts,
        delay=config.delay,
        time=extreme.time,
        cost=extreme.cost,
    )


def run_shard(spec: JobSpec) -> ShardReport:
    """Run every configuration in the spec's shard and keep the extremes.

    Semantically identical to
    :func:`repro.sim.adversary.worst_case_search` restricted to the slice:
    the record kept per metric is the one with the lowest global index
    among maximisers -- the invariant
    :func:`repro.runtime.report.merge_reports` relies on.  Cube shards
    get it from the whole-cube evaluator's single reduction over the
    slice; the other substrates from strict-``>`` updates walking the
    shard in enumeration order.
    """
    started = time.perf_counter()  # repro: allow(REP001): ShardTiming provenance
    graph, algorithm = _materialize(spec.graph, spec.algorithm)
    presence = PRESENCE_MODELS.get(spec.presence)  # SpecError if unknown
    lo, hi = spec.shard if spec.shard is not None else (0, spec.config_space_size(graph))

    worst_time: ExtremeSummary | None = None
    worst_cost: ExtremeSummary | None = None
    failures: list[ConfigRef] = []
    executions = 0
    meter = _ShardMeter()

    if spec.engine == "cube":
        found = _cube_slice(spec, graph, algorithm, presence, lo, hi, meter)
        worst_time = _summary(found.worst_time)
        worst_cost = _summary(found.worst_cost)
        failures = [
            ConfigRef(
                index=index,
                labels=config.labels,
                starts=config.starts,
                delay=config.delay,
            )
            for index, config in found.failures
        ]
        executions = found.executions
    else:
        for index, config, time_, cost in _measured_stream(
            spec, graph, algorithm, presence, meter
        ):
            executions += 1
            if time_ is None:
                failures.append(
                    ConfigRef(
                        index=index,
                        labels=config.labels,
                        starts=config.starts,
                        delay=config.delay,
                    )
                )
                continue
            summary = ExtremeSummary(
                index=index,
                labels=config.labels,
                starts=config.starts,
                delay=config.delay,
                time=time_,
                cost=cost,
            )
            if worst_time is None or summary.time > worst_time.time:
                worst_time = summary
            if worst_cost is None or summary.cost > worst_cost.cost:
                worst_cost = summary

    meter.finish()
    return ShardReport(
        shard=(lo, hi),
        executions=executions,
        worst_time=worst_time,
        worst_cost=worst_cost,
        failures=tuple(failures),
        timing=ShardTiming(
            # repro: allow(REP001): ShardTiming rides the non-canonical
            # timing channel (compare=False; stripped from reports).
            seconds=round(time.perf_counter() - started, 6),
            table_seconds=round(meter.table_seconds, 6),
            engine=spec.engine,
            chunks=meter.chunks,
            path="whole_cube" if spec.engine == "cube" else "stream",
            prune=meter.prune,
        ),
    )
