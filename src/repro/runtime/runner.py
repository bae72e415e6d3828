"""The high-level entry point: plan, consult the store, execute, merge.

:func:`execute_job` is what the analysis layer and the CLI call.  It
plans shard bounds from the configuration-space size, looks completed
shards up in the run store (if one is given), hands only the missing
shards to the executor, persists each fresh report as it arrives, and
merges everything into one deterministic report with cache statistics.
The store is a :class:`repro.runtime.store.RunStore`, and the merged
report is byte-identical whether it or a fresh execution served each
shard.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.port_graph import PortLabeledGraph
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.runtime.executor import Executor, SerialExecutor, plan_shards
from repro.runtime.report import MergedReport, ShardReport, merge_reports
from repro.runtime.spec import JobSpec
from repro.runtime.store import RunStore


@dataclass(frozen=True)
class RunStats:
    """How a run's shards were obtained."""

    sweep_key: str
    shards_total: int
    shards_cached: int
    shards_executed: int
    executions: int

    @property
    def fully_cached(self) -> bool:
        return self.shards_total > 0 and self.shards_cached == self.shards_total

    def summary(self) -> str:
        return (
            f"{self.shards_total} shards: {self.shards_cached} cached, "
            f"{self.shards_executed} executed "
            f"({self.executions} simulations total; run {self.sweep_key[:12]})"
        )


@dataclass(frozen=True)
class RunOutcome:
    report: MergedReport
    stats: RunStats


def _emit_shard(telemetry: Telemetry, report: ShardReport, cached: bool) -> None:
    """Re-emit one shard's outcome (and its marshalled worker timing)."""
    attrs: dict = {
        "lo": report.shard[0],
        "hi": report.shard[1],
        "executions": report.executions,
    }
    if report.timing is not None:
        attrs.update(
            seconds=report.timing.seconds,
            table_seconds=report.timing.table_seconds,
            engine=report.timing.engine,
            chunks=report.timing.chunks,
            path=report.timing.path,
            prune=report.timing.prune,
        )
    telemetry.event("shard.cached" if cached else "shard.complete", **attrs)


def execute_job(
    spec: JobSpec,
    executor: Executor | None = None,
    store: RunStore | None = None,
    shard_count: int | None = None,
    shard_size: int | None = None,
    graph: PortLabeledGraph | None = None,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> RunOutcome:
    """Run a whole sweep, reusing any shards the store already holds.

    ``spec.shard`` is ignored (the runner owns sharding); pass the sweep
    spec.  Cached shards are reused only when their bounds match the
    current plan, so changing ``shard_count``/``shard_size`` safely
    re-executes rather than merging mismatched slices.  ``graph`` may be
    passed when the caller has already built ``spec.graph`` (it is only
    used to size the configuration space).

    Telemetry narrates the run -- shard plan gauges, store hit/miss
    counters, one event per shard (carrying the worker-measured timing
    back out of the :class:`ShardReport` channel), a ``shards`` progress
    stream and a ``merge`` span -- without ever influencing it: the
    merged report is byte-identical with telemetry on or off.
    """
    spec = spec.sweep_spec()
    executor = executor if executor is not None else SerialExecutor()
    graph = graph if graph is not None else spec.graph.build()
    total = spec.config_space_size(graph)
    bounds = plan_shards(total, shard_count=shard_count, shard_size=shard_size)
    telemetry.gauge("sweep.configurations", total)
    telemetry.gauge("sweep.shards", len(bounds))

    if store is not None:
        with telemetry.span("store.load"):
            known = store.load(spec, telemetry=telemetry)
    else:
        known = {}
    cached = [known[b] for b in bounds if b in known]
    missing = [spec.shard_spec(lo, hi) for (lo, hi) in bounds if (lo, hi) not in known]
    if telemetry.enabled and store is not None:
        telemetry.count("store.shards.hit", len(cached))
        telemetry.count("store.shards.missing", len(missing))

    done = 0
    if telemetry.enabled:
        for report in cached:
            _emit_shard(telemetry, report, cached=True)
            done += 1
            telemetry.progress("shards", done, len(bounds))

    fresh = []
    for report in executor.map_shards(missing):
        if store is not None:
            store.append(spec, report)
        fresh.append(report)
        if telemetry.enabled:
            _emit_shard(telemetry, report, cached=False)
            telemetry.count("shards.completed")
            telemetry.count("configs.evaluated", report.executions)
            done += 1
            telemetry.progress("shards", done, len(bounds))

    with telemetry.span("merge"):
        merged = merge_reports(cached + fresh)
    stats = RunStats(
        sweep_key=spec.key(),
        shards_total=len(bounds),
        shards_cached=len(cached),
        shards_executed=len(fresh),
        executions=merged.executions,
    )
    return RunOutcome(report=merged, stats=stats)
