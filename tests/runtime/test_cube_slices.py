"""Cube shards are whole-cube slices: field-identical to the reactive engine.

``run_shard`` answers a ``engine="cube"`` shard ``[lo, hi)`` as a slice
of the sweep's :class:`~repro.sim.adversary.ConfigCube` in one tensor
pass.  These tests pin that slice path against the reactive round
simulator, shard report by shard report, with shard bounds that cut mid
label pair and mid start row, on a ring (rotation orbits) and a torus
(no orbits), with pruning on and off, under both start policies, both
presence models, explicit horizons and horizons too small to meet in.

The reference for a shard is the merge of the reactive engine's
one-configuration shards over ``[lo, hi)``: the lowest-index maximiser
per metric and every failure in index order -- exactly what a serial
walk of the slice keeps.
"""

from dataclasses import replace

import pytest

from repro.api import Scenario
from repro.runtime import AlgorithmSpec, GraphSpec, JobSpec, worker
from repro.runtime.executor import plan_shards
from repro.runtime.report import ShardReport, merge_reports
from repro.runtime.worker import run_shard
from repro.sim import batch
from repro.sim.batch import numpy_available
from repro.sim.prune import PRUNE_ENV

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the cube engine needs numpy"
)

LABEL_SPACE = 3

GRAPHS = {
    "ring": GraphSpec.make("ring", n=6),
    "torus": GraphSpec.make("torus", rows=3, cols=3),
}


def sweep(graph: str, **overrides) -> JobSpec:
    """A reactive sweep whose delays reach past every schedule.

    The two past-schedule delays share one post-wake window, so delay
    dominance derives one slice from the other on the cube path.
    """
    graph_spec = GRAPHS[graph]
    algorithm = AlgorithmSpec("fast", LABEL_SPACE)
    built = algorithm.build(graph_spec.build())
    longest = max(
        built.schedule_length(label) for label in range(1, LABEL_SPACE + 1)
    )
    base = dict(
        algorithm=algorithm,
        graph=graph_spec,
        delays=(0, 2, longest + 1, longest + 3),
    )
    base.update(overrides)
    return JobSpec(**base)


_SINGLES: dict[JobSpec, list[ShardReport]] = {}


def reactive_singles(spec: JobSpec) -> list[ShardReport]:
    """The reactive engine's one-configuration shards, memoised per sweep."""
    if spec not in _SINGLES:
        total = spec.config_space_size()
        _SINGLES[spec] = [
            run_shard(spec.shard_spec(index, index + 1)) for index in range(total)
        ]
    return _SINGLES[spec]


def expected_shard(spec: JobSpec, lo: int, hi: int) -> ShardReport:
    merged = merge_reports(reactive_singles(spec)[lo:hi])
    return ShardReport(
        shard=(lo, hi),
        executions=merged.executions,
        worst_time=merged.worst_time,
        worst_cost=merged.worst_cost,
        failures=merged.failures,
    )


def shard_plans(spec: JobSpec) -> dict[str, list[tuple[int, int]]]:
    """Bounds cutting mid label pair and mid start row, plus the whole."""
    graph = spec.graph.build()
    cube = spec.config_cube(graph)
    total = len(cube)
    per_pair = len(cube.start_pairs) * len(cube.delays)
    return {
        "size 1": plan_shards(total, shard_size=1),
        "size 7": plan_shards(total, shard_size=7),
        "pair - 1": plan_shards(total, shard_size=per_pair - 1),
        "pair + 1": plan_shards(total, shard_size=per_pair + 1),
        "whole": [(0, total)],
    }


@pytest.fixture(params=[True, False], ids=["pruned", "unpruned"])
def prune(request, monkeypatch):
    """Resolve pruning through the environment, with a fresh cube table."""
    monkeypatch.setenv(PRUNE_ENV, "1" if request.param else "0")
    worker._cube_table.cache_clear()
    yield request.param
    worker._cube_table.cache_clear()


def assert_slices_match(spec: JobSpec, prune: bool) -> None:
    cube_spec = replace(spec, engine="cube")
    for name, bounds in shard_plans(spec).items():
        for lo, hi in bounds:
            report = run_shard(cube_spec.shard_spec(lo, hi))
            assert report == expected_shard(spec, lo, hi), f"{name}: [{lo}, {hi})"
            assert report.executions == hi - lo
            assert report.timing.path == "whole_cube"
            assert report.timing.prune is prune


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("fix_first_start", [False, True])
@pytest.mark.parametrize("presence", ["from-start", "parachute"])
def test_slices_match_the_reactive_engine(graph, fix_first_start, presence, prune):
    spec = sweep(graph, fix_first_start=fix_first_start, presence=presence)
    assert_slices_match(spec, prune)


@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_whole_sweep_shard_equals_the_reactive_shard(graph, prune):
    spec = sweep(graph)
    assert run_shard(replace(spec, engine="cube")) == run_shard(spec)


@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_explicit_horizon(graph, prune):
    assert_slices_match(sweep(graph, horizon=400), prune)


@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_too_small_horizon_decodes_failures_in_index_order(graph, prune):
    spec = sweep(graph, horizon=3, delays=(0, 1))
    assert_slices_match(spec, prune)
    report = run_shard(replace(spec, engine="cube"))
    indices = [failure.index for failure in report.failures]
    assert indices and indices == sorted(indices)
    assert report.worst_time is not None, "some pairs still meet in 3 rounds"


def test_row_cache_stays_within_its_budget(monkeypatch, prune):
    """Evicting cached delta rows mid-sweep never changes a shard report."""
    rows = 4
    monkeypatch.setattr(batch, "_MATRIX_CACHE_ELEMENTS", rows * 2 * 6)
    spec = sweep("ring")
    assert_slices_match(spec, prune)
    table = worker._cube_table(spec.graph, spec.algorithm)
    assert len(table._delta_rows) <= rows


def test_stream_substrates_report_their_path():
    spec = sweep("ring", delays=(0,))
    for engine in ("reactive", "compiled", "batch"):
        timing = run_shard(replace(spec, engine=engine)).timing
        assert (timing.path, timing.prune) == ("stream", None)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "graph, params", [("ring", {"n": 6}), ("torus", {"rows": 3, "cols": 3})]
)
def test_scenario_runs_are_byte_identical_across_engines(graph, params, workers):
    scenario = Scenario(
        graph=graph,
        graph_params=params,
        algorithm="fast",
        label_space=LABEL_SPACE,
        delays=(0, 2, 9),
    )
    reactive = "serial" if workers == 1 else "parallel"
    runs = {
        engine: scenario.run(engine=engine, workers=workers, cache=False)
        for engine in (reactive, "compiled", "cube")
    }
    reference = runs[reactive].to_json()
    for engine, run in runs.items():
        assert run.to_json() == reference, engine
