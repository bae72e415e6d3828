"""Engine micro-benchmarks: simulator throughput and analysis kernels.

Not a paper experiment -- these keep the infrastructure honest: the round
simulator's cost per round, the vector ring executor's advantage over
it, the ``Trim`` procedure's engine pass over all label pairs, the
experiment runtime's parallel-vs-serial sweep throughput and its
store-backed tiny sweeps (cold, then cached), the compiled trajectory
engine's speedup over the reactive simulator, and the whole-cube tensor engine's
speedup over the compiled one on the dense (all start pairs, wide delay
grid) sweep handed over as a ``ConfigCube`` -- on the 16-ring, where the
cube reads one delta row per slice (orbit pruning), and ungated on the
4x4 torus, where it scans every start row -- and, ungated, EXP-12's
zigzag worst case on the cube against the reactive engine, with the
timeline rounds the on-demand builds left unbuilt.  The engine comparison
doubles as the perf baseline:
``python benchmarks/bench_engine.py`` (or the pytest bench, or the CI
smoke job) rewrites ``BENCH_engine.json`` at the repository root so the
numbers are tracked PR over PR.
"""

import json
import pathlib
import platform
import statistics
import tempfile
import time

from repro.api import Scenario
from repro.baselines.ring_zigzag import RingZigzag
from repro.core.cheap import CheapSimultaneous
from repro.core.fast import Fast, FastSimultaneous
from repro.experiments.catalog import (
    EXP12_LABEL_SPACE,
    EXP12_PAIRS,
    EXP12_RING_SIZE,
)
from repro.exploration.ring import RingExploration
from repro.graphs.families import oriented_ring, torus_grid
from repro.lower_bounds.behaviour import behaviour_from_schedule
from repro.lower_bounds.ring_exec import meeting_round
from repro.lower_bounds.trim import trimmed_from_algorithm
from repro.obs import MemorySink, Telemetry
from repro.runtime import (
    DEFAULT_SHARD_COUNT,
    AlgorithmSpec,
    GraphSpec,
    JobSpec,
    ParallelExecutor,
    RunStore,
    SerialExecutor,
    canonical_json,
    execute_job,
)
from repro.sim.adversary import (
    ConfigCube,
    all_label_pairs,
    default_horizon,
    worst_case_search,
)
from repro.sim.cube import numpy_available
from repro.sim.compiled import TrajectoryTable
from repro.sim.simulator import simulate_rendezvous

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _instrumented_search(engine, graph, algorithm, configs):
    """One engine pass under an in-memory telemetry collector.

    Returns ``(report, elapsed_seconds, sink)``; the sink's gauges and
    counters source the per-stage breakdown recorded in the baseline.
    """
    sink = MemorySink()
    telemetry = Telemetry(sink)
    started = time.perf_counter()
    report = worst_case_search(
        graph, algorithm, configs, engine=engine, telemetry=telemetry
    )
    elapsed = time.perf_counter() - started
    telemetry.close()
    return report, elapsed, sink


def _engine_stages(sink: MemorySink, engine: str) -> dict:
    """The per-stage split of one engine pass (from its telemetry)."""
    gauges = sink.gauge_values()
    if engine == "reactive":
        return {
            "search_seconds": round(
                sink.span_totals().get("reactive.search", 0.0), 4
            ),
        }
    stages = {
        "table_build_seconds": round(
            gauges.get(f"{engine}.table_build_seconds", 0.0), 4
        ),
        "scan_seconds": round(gauges.get(f"{engine}.scan_seconds", 0.0), 4),
    }
    counters = sink.counter_totals()
    # Exploration routes recorded once and spliced into the trajectories.
    stages["routes_recorded"] = int(counters.get("compiled.routes.recorded", 0))
    stages["spliced_rounds"] = int(
        counters.get("compiled.routes.spliced_rounds", 0)
    )
    if engine == "cube":
        stages["pruned_orbit_cells"] = int(
            counters.get("cube.prune.orbit_cells", 0)
        )
        stages["pruned_dominated_slices"] = int(
            counters.get("cube.prune.dominated_slices", 0)
        )
        stages["early_exit_rounds"] = int(
            counters.get("cube.prune.early_exit_rounds", 0)
        )
        stages["rounds_built"] = int(counters.get("cube.build.rounds_built", 0))
        stages["rounds_declared"] = int(
            counters.get("cube.build.rounds_declared", 0)
        )
    return stages


def test_engine_simulator_round_throughput(benchmark):
    """Cost of a full two-agent simulation (~400 rounds on this config)."""
    ring = oriented_ring(24)
    algorithm = Fast(RingExploration(24), 16)
    result = benchmark(
        lambda: simulate_rendezvous(ring, algorithm, labels=(9, 14), starts=(0, 12))
    )
    assert result.met


def test_engine_ring_executor(benchmark):
    """The same execution on the vector ring executor (orders faster)."""
    n = 24
    algorithm = FastSimultaneous(RingExploration(n), 16)
    vec_a = behaviour_from_schedule(algorithm.schedule(9), n - 1)
    vec_b = behaviour_from_schedule(algorithm.schedule(14), n - 1)
    time = benchmark(lambda: meeting_round(vec_a, 0, vec_b, 12, n))
    assert time is not None


def test_engine_trim_sweep(benchmark):
    """Trim = one engine pass over the L(L-1)(n-1) pairwise executions."""
    algorithm = CheapSimultaneous(RingExploration(12), 8)
    trimmed = benchmark(lambda: trimmed_from_algorithm(algorithm, 12))
    assert len(trimmed.labels) == 8


RUNTIME_JOB = JobSpec(
    algorithm=AlgorithmSpec("fast-sim", 8),
    graph=GraphSpec.make("ring", n=16),
    delays=(0,),
    fix_first_start=True,
)


def test_engine_runtime_serial_sweep(benchmark):
    """The sharded runtime on one in-process worker (840 simulations)."""
    outcome = benchmark(lambda: execute_job(RUNTIME_JOB, executor=SerialExecutor()))
    assert outcome.report.executions == RUNTIME_JOB.config_space_size()


def compiled_engine_baseline(path: pathlib.Path | None = BASELINE_PATH) -> dict:
    """Time the sweep engines against each other and record the baseline.

    The sweep is the hot path of every measured number in the paper:
    ordered label pairs x start pairs x delays on an oriented 16-ring with
    delay-tolerant Fast.  Two comparisons, each on the workload where the
    faster engine's advantage is the claim:

    * compiled vs reactive on the pinned-first-start sweep (2520
      configurations -- the reactive engine cannot afford more);
    * cube vs compiled on the dense sweep (all ordered start pairs, a
      wide delay grid -- the curve-assembly workload the cube engine
      tensorizes), skipped without NumPy; and the same sweep on the 4x4
      torus, where no rotation preserves the ports and the cube scans
      every start row (recorded, not gated).

    All engines must produce *equal* reports on their workloads; the
    returned (and, unless ``path`` is None, written) baseline records
    configurations/s per engine and the speedups.
    """
    graph = oriented_ring(16)
    algorithm = Fast(RingExploration(16), 8)
    torus = torus_grid(4, 4)
    configs = ConfigCube.make(
        graph, all_label_pairs(8), delays=(0, 3, 15), fix_first_start=True
    )

    best, samples = _alternating(
        {"reactive": configs, "compiled": configs},
        graph,
        algorithm,
        REACTIVE_REPETITIONS,
    )
    reactive, reactive_seconds, _ = best["reactive"]
    compiled = best["compiled"][0]

    assert compiled == reactive, "engines diverged; do not record a baseline"
    assert not reactive.failures

    # Rounds the reactive engine had to simulate: each execution runs to
    # its meeting time (cheap to recompute from the compiled timelines).
    table = TrajectoryTable(graph, algorithm)
    rounds = 0
    for config in configs:
        horizon = default_horizon(algorithm, config.labels, config.delay)
        met_at, _ = table.evaluate(config, horizon)
        rounds += met_at if met_at is not None else horizon

    baseline = {
        "benchmark": "worst-case sweep engine comparison",
        "compiled_vs_reactive": {
            "sweep": {
                "algorithm": "fast",
                "graph": "ring(n=16)",
                "label_space": 8,
                "delays": [0, 3, 15],
                "fix_first_start": True,
                "configurations": len(configs),
                "rounds_simulated": rounds,
            },
            "cpu": _cpu_model(),
            "reactive": {
                **_engine_entry("reactive", len(configs), best, samples),
                "rounds_per_s": round(rounds / reactive_seconds, 1),
            },
            "compiled": _engine_entry("compiled", len(configs), best, samples),
            **_speedups(samples, "reactive", "compiled", COMPILED_SPEEDUP_GATE),
        },
        "cube_vs_compiled": cube_engine_baseline(graph, algorithm, "ring(n=16)"),
        "cube_per_start": cube_engine_baseline(
            torus, AlgorithmSpec("fast", 8).build(torus), "torus(4x4)", gate=None
        ),
        "runtime": runtime_baseline(),
        "on_demand": on_demand_baseline(),
        "reports_identical": True,
    }
    if path is not None:
        path.write_text(json.dumps(baseline, indent=2) + "\n")
    return baseline


#: The dense cube-vs-compiled delay grid: wide enough that per-
#: configuration scanning, not trajectory compilation, dominates both.
DENSE_DELAYS = (0, 1, 2, 3, 5, 7, 11, 15)

#: Timed passes per engine in the cube-vs-compiled comparison.
DENSE_REPETITIONS = 5

#: The cube-vs-compiled gate on min-of-N seconds.  No looser than the
#: product of the batch-vs-compiled (3x) and cube-vs-batch (10x) gates it
#: replaced.
CUBE_SPEEDUP_GATE = 30

#: Timed passes per engine in the compiled-vs-reactive comparison; a
#: reactive pass takes seconds, so fewer than the dense sweep's.
REACTIVE_REPETITIONS = 3

#: The compiled-vs-reactive gate on min-of-N seconds.
COMPILED_SPEEDUP_GATE = 10


def _cpu_model() -> str:
    """The CPU the baseline was measured on, for the record."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _spread(samples: list[float]) -> dict:
    """Min, median and quartiles of one engine's timed passes."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "n": len(samples),
        "min_seconds": round(min(samples), 4),
        "median_seconds": round(median, 4),
        "q1_seconds": round(q1, 4),
        "q3_seconds": round(q3, 4),
    }


def _alternating(workloads: dict, graph, algorithm, repetitions: int):
    """Time engines in alternating passes, so drift hits each alike.

    ``workloads`` maps an engine to the configurations it searches.
    Returns ``(best, samples)``: the fastest ``(report, seconds, sink)``
    pass of each engine -- its stage breakdown is the one recorded, so
    the stages sum to (roughly) its seconds -- and every pass's seconds.
    """
    samples: dict[str, list[float]] = {engine: [] for engine in workloads}
    best: dict[str, tuple] = {}
    for _ in range(repetitions):
        for engine, workload in workloads.items():
            candidate = _instrumented_search(engine, graph, algorithm, workload)
            samples[engine].append(candidate[1])
            if engine not in best or candidate[1] < best[engine][1]:
                best[engine] = candidate
    return best, samples


def _engine_entry(engine: str, configurations: int, best: dict, samples: dict) -> dict:
    """One engine's recorded side: min-of-N seconds, spread and stages."""
    _, seconds, sink = best[engine]
    return {
        "seconds": round(seconds, 4),
        "configs_per_s": round(configurations / seconds, 1),
        "samples": _spread(samples[engine]),
        "stages": _engine_stages(sink, engine),
    }


def _speedups(samples: dict, slower: str, faster: str, gate: int | None) -> dict:
    """The min-of-N speedup (what is gated), the median one and the gate."""
    return {
        "speedup": round(min(samples[slower]) / min(samples[faster]), 2),
        "speedup_of_medians": round(
            statistics.median(samples[slower]) / statistics.median(samples[faster]),
            2,
        ),
        "gate": gate,
    }


def cube_engine_baseline(
    graph, algorithm, graph_name: str, gate: int | None = CUBE_SPEEDUP_GATE
) -> dict | None:
    """Cube vs compiled on the dense (all start pairs) whole-cube sweep.

    Both engines receive the same
    :class:`~repro.sim.adversary.ConfigCube`: the cube engine's
    cross-label tensor pass and orbit/dominance pruning engage on its
    axes, while the compiled engine scans its configurations one at a
    time.  The engines run in alternating
    repetitions, :data:`DENSE_REPETITIONS` each, so drift on a shared
    runner hits both alike; the speedup is the ratio of the min-of-N
    seconds, and the spread of each side is recorded beside it, with the
    ``gate`` it must meet (``None``: recorded only).  Returns
    ``None`` without NumPy -- the baseline then simply records no cube
    section, and the NumPy-free CI leg stays green.
    """
    if not numpy_available():
        return None
    cube = ConfigCube.make(graph, all_label_pairs(8), delays=DENSE_DELAYS)

    best, samples = _alternating(
        {"compiled": cube, "cube": cube}, graph, algorithm, DENSE_REPETITIONS
    )
    assert best["cube"][0] == best["compiled"][0], (
        "engines diverged; do not record a baseline"
    )
    assert not best["cube"][0].failures
    return {
        "sweep": {
            "algorithm": "fast",
            "graph": graph_name,
            "label_space": 8,
            "delays": list(DENSE_DELAYS),
            "fix_first_start": False,
            "configurations": len(cube),
        },
        "cpu": _cpu_model(),
        "compiled": _engine_entry("compiled", len(cube), best, samples),
        "cube": _engine_entry("cube", len(cube), best, samples),
        **_speedups(samples, "compiled", "cube", gate),
    }


#: EXP-12's nearest and farthest start distances.
ON_DEMAND_DISTANCES = (1, 24)


def on_demand_baseline() -> dict | None:
    """EXP-12's zigzag worst case, reactive against cube, at D=1 and D=24.

    The zigzag schedule is 4,440 rounds long on the 48-ring, and the cube
    builds each label's timeline only as far as the block in which its
    cells meet (19 rounds at D=1, 1,776 at D=24).  Per distance: min-of-N
    seconds of alternating passes, and the timeline rounds the cube built
    against the rounds its labels declare.  Recorded, not gated;
    ``None`` without NumPy.
    """
    if not numpy_available():
        return None
    ring = oriented_ring(EXP12_RING_SIZE)
    zigzag = RingZigzag(EXP12_RING_SIZE, EXP12_LABEL_SPACE)

    distances = {}
    for distance in ON_DEMAND_DISTANCES:
        cube = ConfigCube.make(
            ring,
            EXP12_PAIRS,
            delays=(0,),
            start_pairs=sorted({(0, distance), (0, EXP12_RING_SIZE - distance)}),
        )
        best, samples = _alternating(
            {"reactive": cube, "cube": cube}, ring, zigzag, REACTIVE_REPETITIONS
        )
        assert best["cube"][0] == best["reactive"][0], (
            "engines diverged; do not record a baseline"
        )
        stages = _engine_stages(best["cube"][2], "cube")
        distances[f"D{distance}"] = {
            "configurations": len(cube),
            "max_time": best["cube"][0].max_time,
            "reactive": _engine_entry("reactive", len(cube), best, samples),
            "cube": _engine_entry("cube", len(cube), best, samples),
            "rounds_built": stages["rounds_built"],
            "rounds_declared": stages["rounds_declared"],
            **_speedups(samples, "reactive", "cube", None),
        }
    return {
        "sweep": {
            "algorithm": "ring-zigzag",
            "graph": f"ring(n={EXP12_RING_SIZE})",
            "label_space": EXP12_LABEL_SPACE,
            "label_pairs": [list(pair) for pair in EXP12_PAIRS],
            "schedule_length": zigzag.schedule_length(1),
        },
        "cpu": _cpu_model(),
        "distances": distances,
    }


def runtime_baseline() -> dict:
    """The runtime sweep, with its shard/merge split measured.

    One serial pass of ``RUNTIME_JOB`` at the default plan (one shard,
    as there is no store) under an in-memory collector: the recorded
    stages are the span totals of the runner's own phases, so the
    baseline tracks where the sweep's wall-clock actually goes.
    """
    sink = MemorySink()
    telemetry = Telemetry(sink)
    started = time.perf_counter()
    outcome = execute_job(
        RUNTIME_JOB, executor=SerialExecutor(), telemetry=telemetry
    )
    elapsed = time.perf_counter() - started
    telemetry.close()
    spans = sink.span_totals()
    shard_events = sink.of_kind("event")
    shard_seconds = sum(
        event["attrs"].get("seconds", 0.0)
        for event in shard_events
        if event["name"] == "shard.complete"
    )
    return {
        "sweep": {
            "algorithm": "fast-sim",
            "graph": "ring(n=16)",
            "configurations": RUNTIME_JOB.config_space_size(),
            "shards": outcome.stats.shards_total,
        },
        "seconds": round(elapsed, 4),
        "stages": {
            "shard_seconds": round(shard_seconds, 4),
            "merge_seconds": round(spans.get("merge", 0.0), 4),
        },
        "store_sweep": store_sweep_baseline(),
    }


#: One-delay sweeps in the store-backed entry, as in the repository
#: benchmark's store round trip.
STORE_SWEEPS = 100


def store_sweep_baseline() -> dict:
    """Tiny store-backed serial sweeps, cold into a fresh store, then cached.

    ``STORE_SWEEPS`` one-delay sweeps of Fast on the 8-ring at L=4 (84
    configurations, 16 shards each) through ``Scenario.run``: the cold
    pass runs each sweep's shards in one engine pass and appends one
    record per shard; the cached pass answers every sweep from the store.
    Recorded, not gated.
    """
    scenarios = [
        Scenario(
            graph="ring",
            graph_params={"n": 8},
            algorithm="fast",
            label_space=4,
            delays=(delay,),
        )
        for delay in range(STORE_SWEEPS)
    ]
    with tempfile.TemporaryDirectory() as root:
        store = RunStore(root)
        started = time.perf_counter()
        cold = [scenario.run(workers=1, cache=store) for scenario in scenarios]
        cold_seconds = time.perf_counter() - started
        started = time.perf_counter()
        cached = [scenario.run(workers=1, cache=store) for scenario in scenarios]
        cached_seconds = time.perf_counter() - started
    assert all(run.stats.fully_cached for run in cached)
    assert [run.to_json() for run in cached] == [run.to_json() for run in cold]
    return {
        "sweeps": STORE_SWEEPS,
        "configurations_per_sweep": cold[0].row.executions,
        "shards_per_sweep": cold[0].stats.shards_total,
        "appends": sum(run.stats.shards_executed for run in cold),
        "cold_ms_per_sweep": round(cold_seconds / STORE_SWEEPS * 1000, 3),
        "cached_ms_per_sweep": round(cached_seconds / STORE_SWEEPS * 1000, 3),
    }


def test_engine_compiled_sweep_speedup(report):
    """Compiled trajectories must beat the reactive sweep by >= 10x, and
    the cube engine the compiled one by >= 30x (when NumPy is present),
    both on min-of-N seconds of alternating passes.

    Also refreshes the ``BENCH_engine.json`` baseline, so running the
    bench suite keeps the recorded perf trajectory current.
    """
    baseline = compiled_engine_baseline()
    versus = baseline["compiled_vs_reactive"]
    lines = [
        f"adversary sweep: {versus['sweep']['configurations']} configurations, "
        f"{versus['sweep']['rounds_simulated']} simulated rounds",
        f"min of {versus['compiled']['samples']['n']}: "
        f"reactive {versus['reactive']['seconds'] * 1000:.0f} ms "
        f"({versus['reactive']['configs_per_s']:.0f} configs/s), "
        f"compiled {versus['compiled']['seconds'] * 1000:.0f} ms "
        f"({versus['compiled']['configs_per_s']:.0f} configs/s) "
        f"-> speedup x{versus['speedup']:.1f}",
    ]
    for name in ("cube_vs_compiled", "cube_per_start"):
        entry = baseline[name]
        if entry is None:
            continue
        lines.append(
            f"whole-cube sweep on {entry['sweep']['graph']} "
            f"({entry['sweep']['configurations']} "
            f"configurations, min of {entry['cube']['samples']['n']}): "
            f"compiled {entry['compiled']['seconds'] * 1000:.0f} ms, "
            f"cube {entry['cube']['seconds'] * 1000:.0f} ms "
            f"({entry['cube']['configs_per_s']:.0f} configs/s) "
            f"-> speedup x{entry['speedup']:.1f}"
        )
    cube = baseline["cube_vs_compiled"]
    report(lines)
    assert versus["speedup"] >= COMPILED_SPEEDUP_GATE
    if cube is not None:
        assert cube["speedup"] >= CUBE_SPEEDUP_GATE


def test_engine_runtime_parallel_speedup(benchmark, report):
    """The same sweep on a 4-worker process pool, with a speedup readout.

    On a single-core box the pool can only break even at best, so the
    assertion is on determinism (bit-identical reports), not on speedup;
    the measured ratio is printed for humans and the bench log.
    """
    serial_started = time.perf_counter()
    # The pool's plan, so the reports are compared at one shard count.
    serial = execute_job(
        RUNTIME_JOB, executor=SerialExecutor(), shard_count=DEFAULT_SHARD_COUNT
    )
    serial_seconds = time.perf_counter() - serial_started

    with ParallelExecutor(4) as executor:
        parallel = benchmark(lambda: execute_job(RUNTIME_JOB, executor=executor))
    assert canonical_json(parallel.report.to_dict()) == canonical_json(
        serial.report.to_dict()
    )
    parallel_seconds = benchmark.stats.stats.mean
    report([
        f"runtime sweep: {RUNTIME_JOB.config_space_size()} simulations, "
        f"{parallel.stats.shards_total} shards",
        f"serial {serial_seconds * 1000:.0f} ms, "
        f"parallel(4) {parallel_seconds * 1000:.0f} ms "
        f"-> speedup x{serial_seconds / parallel_seconds:.2f}",
    ])


if __name__ == "__main__":
    # The CI smoke job runs this directly (no pytest needed): regenerate
    # the baseline, print it, and fail loudly if the engines diverge or a
    # min-of-N speedup regresses (compiled below 10x reactive; cube below
    # 30x compiled whenever NumPy is installed).
    summary = compiled_engine_baseline()
    print(json.dumps(summary, indent=2))
    if summary["compiled_vs_reactive"]["speedup"] < COMPILED_SPEEDUP_GATE:
        raise SystemExit(
            "compiled engine speedup regressed to "
            f"x{summary['compiled_vs_reactive']['speedup']}"
        )
    cube_summary = summary["cube_vs_compiled"]
    if cube_summary is None:
        print("numpy not installed: cube engine baseline skipped")
    elif cube_summary["speedup"] < CUBE_SPEEDUP_GATE:
        raise SystemExit(
            f"cube engine speedup regressed to x{cube_summary['speedup']}"
        )
