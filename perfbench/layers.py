"""Which calls of the program make up each layer, and the per-layer metrics.

:meth:`LayerTrace.install` wraps the public entry points of every layer
named in ``BENCHMARK.json`` (plus two private cube-engine paths, which may
disappear), and :meth:`LayerTrace.per_layer_metrics` turns the spans and
counts of one traced repetition into the per-layer metrics.  The metric
names are the keys of ``telemetry_map.json``.
"""

from __future__ import annotations

import concurrent.futures
import importlib
import pickle
import sys
import weakref
from typing import Any

from tracer import Patcher, Tracer

#: Ids of the registered experiments, in campaign order.
EXPERIMENT_IDS = (
    "exp01", "exp02", "exp03", "exp04", "exp05", "exp06", "exp07", "exp08",
    "exp09", "exp10", "exp11", "exp12", "ablations", "memory", "gathering",
    "open-problem",
)

#: Span names whose self time is engine scan work.
_SCAN_SPANS = ("engine.scan", "engine.whole_cube", "engine.evaluate")

#: ``to_dict`` methods of the report objects, timed as serialisation.
_SERIALIZERS = (
    ("repro.api", "ScenarioRun"),
    ("repro.api", "SweepRow"),
    ("repro.experiments.base", "ExperimentReport"),
    ("repro.experiments.campaign", "CampaignResult"),
    ("repro.runtime.report", "MergedReport"),
    ("repro.runtime.report", "ShardReport"),
)


def _attr(module_name: str, name: str) -> Any:
    module = sys.modules.get(module_name)
    if module is None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return None
    return getattr(module, name, None)


class LayerTrace:
    """One traced repetition: the tracer, the patches and side records."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.patcher = Patcher()
        self.cube_tables: "weakref.WeakSet[Any]" = weakref.WeakSet()
        self.pool_reports: list[Any] = []
        self.submitted: list[Any] = []
        self.pools_started: set[int] = set()
        self.planned_configs = 0
        self.planned_shards = 0
        self.scenario_prune: list[tuple[Any, int, int, int, int]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        tracer, patch = self.tracer, self.patcher

        def span(name):
            return lambda fn: tracer.call(name, fn)

        def gen_span(name):
            return lambda fn: tracer.generator(name, fn)

        def count(name):
            return lambda fn: tracer.counter(name, fn)

        # runtime.spec, runtime.runner, sim.adversary
        patch.method(_attr("repro.runtime.spec", "JobSpec"), "iter_shard", gen_span("spec.enumerate"))
        patch.method(_attr("repro.runtime.spec", "GraphSpec"), "build", span("spec.build"))
        patch.method(_attr("repro.runtime.spec", "AlgorithmSpec"), "build", span("spec.build"))
        patch.function("repro.runtime.runner", "execute_job", span("runner.execute"))
        patch.function("repro.sim.adversary", "default_horizon", span("adversary.horizon"))

        # sim.compiled / sim.batch / sim.cube
        batch_table = _attr("repro.sim.batch", "BatchTimelineTable")
        cube_table = _attr("repro.sim.cube", "CubeTimelineTable")
        trajectory_table = _attr("repro.sim.compiled", "TrajectoryTable")
        patch.method(batch_table, "timelines", span("engine.table_build"))
        patch.method(cube_table, "timelines", span("engine.table_build"))
        patch.method(trajectory_table, "trajectory", span("engine.table_build"))
        patch.method(trajectory_table, "__init__", count("engine.table_builds"))
        patch.method(batch_table, "evaluate_arrays", span("engine.scan"))
        patch.method(trajectory_table, "evaluate", span("engine.evaluate"))
        patch.function("repro.sim.cube", "_whole_cube_search", span("engine.whole_cube"))
        patch.function("repro.sim.cube", "_stream_search", count("engine.stream_calls"))
        patch.function("repro.sim.batch", "evaluate_stream", count("engine.stream_calls"))

        # sim.prune: remember every cube table so its PruneStats can be read.
        tables = self.cube_tables

        def remember(fn):
            def init(table, *args, **kwargs):
                fn(table, *args, **kwargs)
                tables.add(table)

            return init

        patch.method(cube_table, "__init__", remember)

        # runtime.worker, runtime.executor, runtime.report
        patch.function("repro.runtime.worker", "run_shard", span("worker.shard"))
        patch.function("repro.runtime.executor", "plan_shards", self._plan_wrapper)
        patch.function("repro.runtime.executor", "wait", span("executor.wait"))
        parallel = _attr("repro.runtime.executor", "ParallelExecutor")
        patch.method(parallel, "map_shards", self._map_wrapper)
        patch.method(parallel, "close", span("executor.pool_stop"))
        pool_cls = concurrent.futures.ProcessPoolExecutor
        patch.method(pool_cls, "__init__", span("executor.pool_start"))
        patch.method(pool_cls, "submit", self._submit_wrapper)
        patch.function("repro.runtime.report", "merge_reports", span("report.merge"))

        # runtime.store: every backend class, wherever the method is defined.
        backends = _attr("repro.runtime.store", "BACKENDS") or {}
        owners = {
            owner
            for backend in backends.values()
            for owner in backend.__mro__
            if owner is not object
        }
        for owner in sorted(owners, key=lambda cls: cls.__qualname__):
            patch.method(owner, "append", span("store.append"))
            patch.method(owner, "load", span("store.load"))
            patch.method(owner, "iter_runs", gen_span("store.iter_runs"))
        patch.function("repro.runtime.store.query", "query_payload", span("store.query"))

        # api, experiments
        patch.method(_attr("repro.api", "Scenario"), "run", self._scenario_wrapper)
        patch.method(_attr("repro.experiments.campaign", "Campaign"), "run", span("experiments.campaign"))
        patch.function("repro.experiments.campaign", "run_experiment", span("experiments.run"))
        registry = _attr("repro.registry", "EXPERIMENTS")
        if registry is not None and "repro.experiments.catalog" in sys.modules:
            for entry in registry.entries():
                experiment = entry.target
                patch.frozen_field(experiment, "measure", span(f"experiments.measure.{experiment.id}"))
                patch.frozen_field(experiment, "assess", span("experiments.assess"))

        # sim.simulator, lower_bounds, serialisation
        patch.function("repro.sim.simulator", "simulate_rendezvous", span("simulator"))
        patch.function("repro.lower_bounds.certificates", "certify_theorem_31", span("lower_bounds.certify"))
        patch.function("repro.lower_bounds.certificates", "certify_theorem_32", span("lower_bounds.certify"))
        patch.function("repro.runtime.spec", "canonical_json", span("serialize"))
        for module_name, class_name in _SERIALIZERS:
            patch.method(_attr(module_name, class_name), "to_dict", span("serialize"))

    def restore(self) -> None:
        self.patcher.restore()

    # ------------------------------------------------------------------
    # Wrappers that also record side data
    # ------------------------------------------------------------------

    def _plan_wrapper(self, fn):
        traced = self.tracer.call("executor.plan", fn)

        def plan_shards(total, *args, **kwargs):
            bounds = traced(total, *args, **kwargs)
            self.planned_configs += total
            self.planned_shards += len(bounds)
            return bounds

        return plan_shards

    def _map_wrapper(self, fn):
        """Span the pool's dispatch loop and keep the reports it returns."""
        traced = self.tracer.generator("executor.dispatch", fn)

        def map_shards(executor, specs):
            specs = list(specs)
            pooled = getattr(executor, "workers", 1) > 1 and len(specs) > 1
            for report in traced(executor, specs):
                if pooled:
                    self.pool_reports.append(report)
                yield report

        return map_shards

    def _submit_wrapper(self, fn):
        first = self.tracer.call("executor.pool_start", fn)

        def submit(pool, call, *args, **kwargs):
            self.submitted.append(args)
            if id(pool) not in self.pools_started:
                self.pools_started.add(id(pool))
                return first(pool, call, *args, **kwargs)
            return fn(pool, call, *args, **kwargs)

        return submit

    def _prune_totals(self) -> tuple[int, int, int]:
        orbit = dominated = 0
        tables = list(self.cube_tables)
        for table in tables:
            stats = getattr(table, "stats", None)
            orbit += getattr(stats, "orbit_cells", 0)
            dominated += getattr(stats, "dominated_slices", 0)
        return orbit, dominated, len(tables)

    def _scenario_wrapper(self, fn):
        traced = self.tracer.call("api.scenario_run", fn)

        def run(scenario, *args, **kwargs):
            before = self._prune_totals()
            outcome = traced(scenario, *args, **kwargs)
            after = self._prune_totals()
            self.scenario_prune.append(
                (
                    scenario,
                    outcome.row.executions,
                    after[0] - before[0],
                    after[1] - before[1],
                    after[2] - before[2],
                )
            )
            return outcome

        return run

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def _scanned_ratio(self) -> float:
        """Configurations scanned over configurations in the space.

        Counted in start-pair matrix cells per ``(label pair, delay)``
        slice: a slice answered from a rotation-orbit delta table scans
        ``n`` of its ``n**2`` cells, a dominated slice scans none.  Only
        scenarios whose cube tables lived in this process are counted.
        """
        scanned = space = 0.0
        for scenario, executions, orbit, dominated, created in self.scenario_prune:
            if not (created or orbit or dominated):
                continue
            spec = scenario.job_spec()
            n = spec.graph.build().num_nodes
            slices = len(spec.resolved_label_pairs()) * len(spec.delays)
            cells = slices * n * n
            fraction = 1.0 - (orbit + dominated * n * n) / cells if cells else 1.0
            scanned += min(max(fraction, 0.0), 1.0) * executions
            space += executions
        return scanned / space if space else 1.0

    def per_layer_metrics(self, sink_events: list[dict], wall_s: float) -> dict[str, float]:
        tracer = self.tracer
        self_s, inclusive, calls, counts = (
            tracer.self_s, tracer.inclusive, tracer.calls, tracer.counts,
        )
        # Worker-side time of pooled shards, from the ShardTiming each
        # ShardReport carries back: (seconds, table_seconds, chunks).
        timings = [
            (
                getattr(timing, "seconds", 0.0),
                getattr(timing, "table_seconds", 0.0),
                getattr(timing, "chunks", 0),
            )
            for timing in (getattr(report, "timing", None) for report in self.pool_reports)
            if timing is not None
        ]
        hits = misses = 0.0
        for event in sink_events:
            if event.get("ev") == "counter" and event.get("name") == "store.shards.hit":
                hits += event["delta"]
            elif event.get("ev") == "counter" and event.get("name") == "store.shards.missing":
                misses += event["delta"]
        pickled = sum(len(pickle.dumps(args)) for args in self.submitted)
        pickled += sum(len(pickle.dumps(report)) for report in self.pool_reports)
        metrics = {
            "spec.enumerate_s": self_s["spec.enumerate"],
            "spec.configs": calls["spec.enumerate"],
            "spec.build_s": inclusive["spec.build"],
            "runner.execute_self_s": self_s["runner.execute"],
            "adversary.horizon_s": self_s["adversary.horizon"],
            "adversary.horizon_calls": calls["adversary.horizon"],
            "engine.table_build_s": self_s["engine.table_build"]
            + sum(table for _, table, _ in timings),
            "engine.table_builds": counts["engine.table_builds"]
            + sum(1 for _, table, _ in timings if table > 0),
            "engine.scan_s": sum(self_s[name] for name in _SCAN_SPANS),
            "engine.chunks": calls["engine.scan"] + sum(chunks for _, _, chunks in timings),
            "engine.whole_cube_calls": calls["engine.whole_cube"],
            "engine.stream_calls": counts["engine.stream_calls"],
            "prune.scanned_ratio": self._scanned_ratio(),
            "worker.shards": calls["worker.shard"] + len(timings),
            "worker.shard_s": inclusive["worker.shard"] + sum(seconds for seconds, _, _ in timings),
            "worker.reduce_s": self_s["worker.shard"],
            "executor.shards_planned": self.planned_shards,
            "executor.configs_per_shard": (
                self.planned_configs / self.planned_shards if self.planned_shards else 0.0
            ),
            "executor.pool_start_s": inclusive["executor.pool_start"],
            "executor.wait_s": inclusive["executor.wait"],
            "executor.dispatch_s": self_s["executor.dispatch"],
            "executor.pool_stop_s": inclusive["executor.pool_stop"],
            "executor.pickled_bytes": pickled,
            "report.merge_s": inclusive["report.merge"],
            "store.append_s": inclusive["store.append"],
            "store.appends": calls["store.append"],
            "store.load_s": inclusive["store.load"],
            "store.iter_runs_s": inclusive["store.iter_runs"],
            "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "api.scenario_runs": calls["api.scenario_run"],
            "api.scenario_run_s": inclusive["api.scenario_run"],
            "experiments.assess_s": inclusive["experiments.assess"],
            "simulator.calls": calls["simulator"],
            "simulator.s": inclusive["simulator"],
            "lower_bounds.certify_s": inclusive["lower_bounds.certify"],
            "serialize.s": inclusive["serialize"],
            # Wall outside every span, plus operation time no layer covers.
            "trace.unattributed_s": max(wall_s - tracer.top_s, 0.0) + tracer.top_self_s,
        }
        for experiment_id in EXPERIMENT_IDS:
            metrics[f"experiments.measure_s.{experiment_id}"] = inclusive[
                f"experiments.measure.{experiment_id}"
            ]
        return {name: float(value) for name, value in metrics.items()}
