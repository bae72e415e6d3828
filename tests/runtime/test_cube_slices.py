"""Cube shards are whole-cube slices: field-identical to the reactive engine.

``run_shard`` answers a ``engine="cube"`` shard ``[lo, hi)`` as a slice
of the sweep's :class:`~repro.sim.adversary.ConfigCube` in one tensor
pass.  These tests pin that slice path against the reactive round
simulator, shard report by shard report, with shard bounds that cut mid
label pair and mid start row, on a ring (rotation orbits) and a torus
(no orbits), pruned as shipped and with every reduction patched out,
under both start policies, both presence models, explicit horizons and
horizons too small to meet in.

The reference for a shard is the merge of the reactive engine's
one-configuration shards over ``[lo, hi)``: the lowest-index maximiser
per metric and every failure in index order -- exactly what a serial
walk of the slice keeps.
"""

from dataclasses import replace

import pytest

from repro.api import Scenario
from repro.runtime import AlgorithmSpec, GraphSpec, JobSpec, worker
from repro.runtime.report import ShardReport, merge_reports
from repro.runtime.worker import run_shard
from repro.sim import cube
from repro.sim.cube import numpy_available
from repro.sim.prune import DominancePlan, SymmetryCertificate

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


def chunks(total: int, size: int) -> list[tuple[int, int]]:
    """``[0, total)`` cut into ``[lo, hi)`` chunks of ``size``."""
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def shard_plans(spec: JobSpec) -> dict[str, list[tuple[int, int]]]:
    """Bounds cutting mid label pair and mid start row, plus the whole."""
    graph = spec.graph.build()
    cube = spec.config_cube(graph)
    total = len(cube)
    per_pair = len(cube.start_pairs) * len(cube.delays)
    return {
        "size 1": chunks(total, 1),
        "size 7": chunks(total, 7),
        "pair - 1": chunks(total, per_pair - 1),
        "pair + 1": chunks(total, per_pair + 1),
        "whole": [(0, total)],
    }


@pytest.fixture(params=[True, False], ids=["pruned", "unpruned"])
def prune(request, monkeypatch):
    """The cube engine as shipped, or with every reduction patched out.

    The unpruned variant is a test-only oracle: the orbit certificate is
    refused and every delay slice is scanned, so each shard runs the
    plain per-start tensor pass.  Both must match the reactive engine.
    Each variant starts from a fresh per-process cube table.
    """
    if not request.param:
        monkeypatch.setattr(
            cube,
            "certify_symmetry",
            lambda graph, factory: SymmetryCertificate(False, "patched out"),
        )
        monkeypatch.setattr(
            cube,
            "dominance_plan",
            lambda slices, first_length: DominancePlan(tuple(range(len(slices)))),
        )
    worker._table.cache_clear()
    yield request.param
    worker._table.cache_clear()


def assert_slices_match(spec: JobSpec, prune: bool) -> None:
    cube_spec = replace(spec, engine="cube")
    for name, bounds in shard_plans(spec).items():
        for lo, hi in bounds:
            report = run_shard(cube_spec.shard_spec(lo, hi))
            assert report == expected_shard(spec, lo, hi), f"{name}: [{lo}, {hi})"
            assert report.executions == hi - lo
            assert report.timing.path == "whole_cube"
    table = worker._table("cube", spec.graph, spec.algorithm)
    assert table.certificate.orbit is (prune and spec.graph == GRAPHS["ring"])


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
    indices = [index for index, _ in report.failures]
    assert indices and indices == sorted(indices)
    assert report.worst_time is not None, "some pairs still meet in 3 rounds"


def test_repeated_sweep_rescans_on_the_built_timelines(prune):
    """A table keeps no scanned slice: a repeated sweep rescans every
    shard to the same reports, and builds no timeline a first pass built."""
    spec = sweep("ring")
    assert_slices_match(spec, prune)
    table = worker._table("cube", spec.graph, spec.algorithm)
    built = dict(table._labels)
    seconds = table.build_seconds
    assert sorted(built) == list(range(1, LABEL_SPACE + 1))
    assert_slices_match(spec, prune)
    assert worker._table("cube", spec.graph, spec.algorithm) is table
    assert all(table._labels[label] is built[label] for label in built)
    assert table.build_seconds == seconds


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("presence", ["from-start", "parachute"])
def test_one_group_chunks_of_few_columns_match_the_reactive_engine(
    graph, presence, monkeypatch
):
    """Chunk and column-block boundaries never change a report.

    The scan is cut to one pivot group per chunk and three time columns
    per block, so every chunk, block and early-exit boundary the shipped
    constants would hide is crossed.
    """
    monkeypatch.setattr(cube, "_CHUNK_CELLS", 1)
    monkeypatch.setattr(cube, "MIN_TIME_BLOCK", 3)
    monkeypatch.setattr(cube, "_BLOCK_ELEMENTS", 1)
    chunk_groups: list[int] = []
    scan = cube.CubeTimelineTable._first_meetings

    def spy(table, positions, i1, *args):
        chunk_groups.append(len(i1))
        return scan(table, positions, i1, *args)

    monkeypatch.setattr(cube.CubeTimelineTable, "_first_meetings", spy)
    longest = max(sweep(graph).delays) - 3
    spec = sweep(graph, presence=presence, delays=(0, 1, longest + 1, longest + 3))
    worker._table.cache_clear()
    try:
        assert run_shard(replace(spec, engine="cube")) == run_shard(spec)
    finally:
        worker._table.cache_clear()
    assert len(chunk_groups) > 1 and set(chunk_groups) == {1}


def test_stream_substrates_report_their_path():
    spec = sweep("ring", delays=(0,))
    for engine in ("reactive", "compiled"):
        timing = run_shard(replace(spec, engine=engine)).timing
        assert timing.path == "stream"


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
    runs = {
        engine: scenario.run(engine=engine, workers=workers, cache=False)
        for engine in ("reactive", "compiled", "cube")
    }
    reference = runs["reactive"].to_json()
    for engine, run in runs.items():
        assert run.to_json() == reference, engine
