"""The function a worker process executes: one shard of adversary search.

:func:`run_shard` is deliberately a module-level function of one picklable
argument so it can be submitted to a ``ProcessPoolExecutor`` unchanged.
Graphs and algorithms are rebuilt from the spec on first use and memoised
per process (pool workers are long-lived, so a worker pays the
construction cost once per distinct job, not once per shard).

A shard is the ``range(lo, hi)`` of indices into the sweep's
:class:`~repro.sim.adversary.ConfigCube` (:meth:`JobSpec.config_cube`),
reduced by :func:`repro.sim.adversary.reduce_space` -- the evaluators and
the reducer ``worst_case_search`` uses.  The spec's ``engine`` picks the
evaluator: the reactive round simulator, the compiled trajectory engine
(:mod:`repro.sim.compiled`) or the pruned cube engine
(:mod:`repro.sim.cube`).  Tables are memoised per process, so shards of
one sweep share compilations.  A cube shard never exists as
configurations: it is one whole-cube tensor pass over the slice, with
horizons per ``(label pair, delay)``; the other evaluators walk the
slice configuration by configuration.  The reduction's record is the
shard report as it stands.  Whatever the path, the
shard report is identical, and its non-canonical
:class:`~repro.runtime.report.ShardTiming` records which path ran
(``"whole_cube"``, or ``"stream"`` for one configuration at a time).
"""

from __future__ import annotations

import time
from functools import lru_cache, partial
from typing import Any, Callable

from repro.core.base import RendezvousAlgorithm
from repro.graphs.port_graph import PortLabeledGraph
from repro.registry import PRESENCE_MODELS
from repro.runtime.report import ShardReport, ShardTiming
from repro.runtime.spec import AlgorithmSpec, GraphSpec, JobSpec
from repro.sim.adversary import (
    Configuration,
    default_horizon,
    engine_table,
    reduce_space,
)


@lru_cache(maxsize=16)
def _materialize(
    graph_spec: GraphSpec, algorithm_spec: AlgorithmSpec
) -> tuple[PortLabeledGraph, RendezvousAlgorithm]:
    graph = graph_spec.build()
    return graph, algorithm_spec.build(graph)


@lru_cache(maxsize=16)
def _table(engine: str, graph_spec: GraphSpec, algorithm_spec: AlgorithmSpec) -> Any:
    # Keyed without delays, so every sweep over one graph and algorithm
    # shares a table whatever its delays.
    graph, algorithm = _materialize(graph_spec, algorithm_spec)
    return engine_table(engine, graph, algorithm)


def _horizon_policy(
    spec: JobSpec, algorithm: RendezvousAlgorithm
) -> int | Callable[[Configuration], int]:
    """The spec's fixed horizon, or the algorithm's own schedule bound."""
    if spec.horizon is not None:
        return spec.horizon
    return partial(default_horizon, algorithm)


def run_shard(spec: JobSpec) -> ShardReport:
    """Run every configuration in the spec's shard and keep the extremes.

    Semantically identical to
    :func:`repro.sim.adversary.worst_case_search` restricted to the slice:
    the record kept per metric is the one with the lowest global index
    among maximisers -- the invariant
    :func:`repro.runtime.report.merge_reports` relies on, and the one
    :class:`~repro.sim.adversary.Reduction` keeps.
    """
    started = time.perf_counter()  # repro: allow(REP001): ShardTiming provenance
    graph, algorithm = _materialize(spec.graph, spec.algorithm)
    presence = PRESENCE_MODELS.get(spec.presence)  # SpecError if unknown
    cube = spec.config_cube(graph)
    lo, hi = spec.shard if spec.shard is not None else (0, len(cube))

    # Tables are memoised per process, so the shard's table-build cost is
    # the delta of the table's cumulative ``build_seconds`` (the first
    # shard of a sweep pays the builds; later shards read the cache).
    table = _table(spec.engine, spec.graph, spec.algorithm)
    build_before = table.build_seconds if table is not None else 0.0
    found = reduce_space(
        spec.engine,
        table,
        graph,
        algorithm,
        cube,
        range(lo, min(hi, len(cube))),
        _horizon_policy(spec, algorithm),
        presence,
    )
    table_seconds = table.build_seconds - build_before if table is not None else 0.0

    return found.report(
        ShardReport,
        shard=(lo, hi),
        timing=ShardTiming(
            # repro: allow(REP001): ShardTiming rides the non-canonical
            # timing channel (compare=False; stripped from reports).
            seconds=round(time.perf_counter() - started, 6),
            table_seconds=round(table_seconds, 6),
            engine=spec.engine,
            path="whole_cube" if spec.engine == "cube" else "stream",
        ),
    )
