"""The functions a worker executes: a run of shards in one engine pass.

:func:`run_shard` is deliberately a module-level function of one picklable
argument so it can be submitted to a ``ProcessPoolExecutor`` unchanged;
it is :func:`run_shards` of one shard.  Graphs and algorithms are rebuilt
from the spec on first use and memoised per process by
:func:`materialize` (pool workers are long-lived, so a worker pays the
construction cost once per distinct job, not once per shard).

A shard is the ``range(lo, hi)`` of indices into the sweep's
:class:`~repro.sim.adversary.ConfigCube` (:meth:`JobSpec.config_cube`).
:func:`run_shards` takes abutting shards of one sweep and reduces them
in one pass of :func:`repro.sim.adversary.reduce_space` -- one cube, one
horizon per ``(label pair, delay)``, one whole-cube call or one stream
walk over their hull -- into one report per shard.  The spec's
``engine`` picks the evaluator: the reactive round simulator, the
compiled trajectory engine (:mod:`repro.sim.compiled`) or the pruned
cube engine (:mod:`repro.sim.cube`).  Tables are memoised per process,
so shards of one sweep share compilations.  A cube pass never exists as
configurations: it is one whole-cube tensor pass over the hull, with
horizons per ``(label pair, delay)``; the other evaluators walk the
hull configuration by configuration.  Whatever the path and however the
shards are grouped into passes, each shard's report is identical, and
its non-canonical :class:`~repro.runtime.report.ShardTiming` records
which path ran (``"whole_cube"``, or ``"stream"`` for one configuration
at a time) and its share of the pass's time.
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import Any, Sequence

from repro.core.base import RendezvousAlgorithm
from repro.graphs.port_graph import PortLabeledGraph
from repro.registry import PRESENCE_MODELS
from repro.runtime.report import ShardReport, ShardTiming
from repro.runtime.spec import AlgorithmSpec, GraphSpec, JobSpec
from repro.sim.adversary import engine_table, reduce_space


@lru_cache(maxsize=16)
def materialize(
    graph_spec: GraphSpec, algorithm_spec: AlgorithmSpec
) -> tuple[PortLabeledGraph, RendezvousAlgorithm]:
    """The spec's graph and algorithm, built once per process and shared
    (read-only) by every shard and run of them."""
    graph = graph_spec.build()
    return graph, algorithm_spec.build(graph)


@lru_cache(maxsize=16)
def _table(engine: str, graph_spec: GraphSpec, algorithm_spec: AlgorithmSpec) -> Any:
    # Keyed without delays, so every sweep over one graph and algorithm
    # shares a table whatever its delays.
    graph, algorithm = materialize(graph_spec, algorithm_spec)
    return engine_table(engine, graph, algorithm)


def run_shards(specs: Sequence[JobSpec]) -> list[ShardReport]:
    """Run abutting shards of one sweep in one engine pass; one report each.

    ``specs`` are shard specs of a single sweep in ascending, abutting
    order (a whole-sweep spec counts as the shard ``[0, len(cube))``).
    Each report is semantically identical to
    :func:`repro.sim.adversary.worst_case_search` restricted to its
    slice: the record kept per metric is the one with the lowest global
    index among maximisers -- the invariant
    :func:`repro.runtime.report.merge_reports` relies on, and the one
    :class:`~repro.sim.adversary.Reduction` keeps.  The pass's seconds
    and table-build seconds are split among the shards in proportion to
    their configurations.
    """
    started = time.perf_counter()  # repro: allow(REP001): ShardTiming provenance
    spec = specs[0]
    if not all(spec.same_sweep(each) for each in specs[1:]):
        raise ValueError("run_shards takes shards of one sweep")
    graph, algorithm = materialize(spec.graph, spec.algorithm)
    presence = PRESENCE_MODELS.get(spec.presence)  # SpecError if unknown
    cube = spec.config_cube(graph)
    size = len(cube)
    shards = [each.shard if each.shard is not None else (0, size) for each in specs]

    # Tables are memoised per process, so the pass's table-build cost is
    # the delta of the table's cumulative ``build_seconds`` (the first
    # pass of a sweep pays the builds; later passes read the cache).
    table = _table(spec.engine, spec.graph, spec.algorithm)
    build_before = table.build_seconds if table is not None else 0.0
    found = reduce_space(
        spec.engine,
        table,
        graph,
        algorithm,
        cube,
        [(min(lo, size), min(hi, size)) for lo, hi in shards],
        spec.horizon,
        presence,
    )
    table_seconds = table.build_seconds - build_before if table is not None else 0.0
    # repro: allow(REP001): ShardTiming rides the non-canonical timing
    # channel (compare=False; stripped from reports).
    seconds = time.perf_counter() - started
    configs = sum(reduction.executions for reduction in found)
    path = "whole_cube" if spec.engine == "cube" else "stream"
    reports = []
    for shard, reduction in zip(shards, found):
        share = reduction.executions / configs if configs else 1 / len(found)
        timing = ShardTiming(
            seconds=round(seconds * share, 6),
            table_seconds=round(table_seconds * share, 6),
            engine=spec.engine,
            path=path,
        )
        reports.append(reduction.report(ShardReport, shard=shard, timing=timing))
    return reports


def run_shard(spec: JobSpec) -> ShardReport:
    """Run one shard: :func:`run_shards` of that shard alone."""
    return run_shards([spec])[0]
