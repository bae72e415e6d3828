"""Telemetry is provably inert: canonical reports are byte-identical
with telemetry off, collecting in memory, or streaming JSONL -- across
every engine and worker count.

This extends the cross-engine identity suite (tests/sim/test_compiled.py)
along the observability axis: the matrix below runs the same scenario
under telemetry {off, memory, jsonl} x engine {reactive, compiled, cube}
x workers {default, 4} and asserts every cell produces the same bytes.
"""

import itertools

import pytest

from repro.api import Scenario
from repro.experiments.campaign import all_experiments, run_experiment
from repro.obs import (
    JsonlSink,
    MemorySink,
    Telemetry,
    read_events,
    validate_events,
)
from repro.sim.cube import numpy_available


def scenario():
    return Scenario(
        graph="ring",
        graph_params={"n": 6},
        algorithm="fast",
        label_space=4,
        delays=(0, 2),
    )


#: (engine, workers) cells of the identity matrix: every substrate runs
#: both in-process (the default for this small space) and on a 4-worker
#: pool.  The reactive cells are named by their executor.
ENGINE_CELLS = [
    pytest.param("reactive", None, id="serial-None"),
    pytest.param("reactive", 4, id="parallel-4"),
    ("compiled", None),
    ("compiled", 4),
    pytest.param("cube", None, marks=pytest.mark.skipif(
        not numpy_available(), reason="the cube engine needs numpy")),
    pytest.param("cube", 4, marks=pytest.mark.skipif(
        not numpy_available(), reason="the cube engine needs numpy")),
]

TELEMETRY_MODES = ["off", "memory", "jsonl"]


def make_telemetry(mode, tmp_path):
    if mode == "off":
        return None, None
    if mode == "memory":
        return Telemetry(MemorySink()), None
    path = tmp_path / "events.jsonl"
    return Telemetry(JsonlSink(str(path))), path


@pytest.fixture(scope="module")
def baseline():
    """The telemetry-off, serial, reactive reference bytes."""
    return scenario().run(engine="reactive", workers=1).to_json()


class TestScenarioRunInertness:
    @pytest.mark.parametrize(
        "engine,workers", ENGINE_CELLS,
        ids=lambda value: str(value),
    )
    @pytest.mark.parametrize("mode", TELEMETRY_MODES)
    def test_report_bytes_are_identical(
        self, engine, workers, mode, baseline, tmp_path
    ):
        telemetry, path = make_telemetry(mode, tmp_path)
        run = scenario().run(engine=engine, workers=workers, telemetry=telemetry)
        if telemetry is not None:
            telemetry.close()
        assert run.to_json() == baseline
        if path is not None:
            assert validate_events(read_events(str(path))) == []

    def test_memory_telemetry_observes_the_run(self):
        sink = MemorySink()
        scenario().run(engine="reactive", workers=1, telemetry=Telemetry(sink))
        assert sink.span_totals()["scenario.run"] > 0
        resolved = [event for event in sink.of_kind("event")
                    if event["name"] == "engine.resolved"]
        assert len(resolved) == 1
        assert resolved[0]["attrs"]["sim_engine"] == "reactive"
        assert sink.counter_totals()["configs.evaluated"] > 0

    def test_bare_sink_is_accepted_directly(self, baseline):
        sink = MemorySink()
        run = scenario().run(engine="reactive", workers=1, telemetry=sink)
        assert run.to_json() == baseline
        assert len(sink) > 0

    def test_shard_events_cover_the_configuration_space(self):
        sink = MemorySink()
        scenario().run(engine="reactive", workers=1, telemetry=Telemetry(sink))
        shard_events = [event for event in sink.of_kind("event")
                        if event["name"] == "shard.complete"]
        executions = sum(e["attrs"]["executions"] for e in shard_events)
        assert executions == sink.counter_totals()["configs.evaluated"]


class TestCachedRunInertness:
    def test_cached_replay_is_identical_and_narrated_as_cached(self, tmp_path):
        from repro.runtime.store import RunStore

        store = RunStore(tmp_path / "cache")
        first = scenario().run(engine="reactive", workers=1, cache=store)
        sink = MemorySink()
        second = scenario().run(
            engine="reactive", workers=1, cache=store, telemetry=Telemetry(sink)
        )
        assert second.to_json() == first.to_json()
        cached = [event for event in sink.of_kind("event")
                  if event["name"] == "shard.cached"]
        assert cached
        assert not [event for event in sink.of_kind("event")
                    if event["name"] == "shard.complete"]
        assert sink.counter_totals()["store.shards.hit"] == len(cached)


class TestExperimentInertness:
    def test_experiment_canonical_json_ignores_telemetry(self):
        experiment = all_experiments()[0]
        plain = run_experiment(experiment, quick=True)
        observed = run_experiment(
            experiment, quick=True, telemetry=Telemetry(MemorySink())
        )
        assert observed.canonical_json() == plain.canonical_json()
        # Both carry (non-canonical) timing; equality ignores it.
        assert observed == plain
        assert observed.timing is not None and plain.timing is not None


def test_the_matrix_is_exhaustive():
    """Every telemetry mode is paired with every engine cell."""
    cells = [cell for cell in itertools.product(TELEMETRY_MODES, ENGINE_CELLS)]
    assert len(cells) == len(TELEMETRY_MODES) * len(ENGINE_CELLS)
