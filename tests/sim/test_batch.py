"""Tests for the NumPy substrate of the cube engine (the ``[batch]`` extra).

The exhaustive cross-engine identity suite lives in
``tests/sim/test_compiled.py`` (the cube engine participates there
whenever NumPy is importable); this module covers the substrate's own
surface -- availability and fallback without NumPy, the dense timeline
table (:class:`repro.sim.cube.CubeTimelineTable`) on its per-start path,
the cube engine's searches over it, and runtime/worker integration.
"""

import pytest

import repro.sim.cube as cube_module
from repro.api import Scenario
from repro.runtime import (
    AlgorithmSpec,
    GraphSpec,
    JobSpec,
    ParallelExecutor,
    SerialExecutor,
    execute_job,
)
from repro.runtime.spec import canonical_json
from repro.runtime.worker import run_shard
from repro.sim.adversary import (
    ConfigCube,
    all_label_pairs,
    default_horizon,
    worst_case_search,
)
from repro.sim.cube import (
    BatchUnavailableError,
    CubeTimelineTable,
    numpy_available,
    require_numpy,
)
from repro.sim.simulator import PresenceModel

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the cube engine needs numpy"
)


def build_algorithm(name, graph, label_space=3):
    return AlgorithmSpec(name, label_space=label_space).build(graph)


class TestAvailability:
    def test_require_numpy_names_the_extra(self, monkeypatch):
        monkeypatch.setattr(cube_module, "_np", None)
        assert not numpy_available()
        with pytest.raises(BatchUnavailableError, match=r"repro-rendezvous\[batch\]"):
            require_numpy()

    def test_unavailable_error_is_a_value_error(self):
        assert issubclass(BatchUnavailableError, ValueError)

    def test_explicit_cube_engine_raises_without_numpy(self, ring12, monkeypatch):
        monkeypatch.setattr(cube_module, "_np", None)
        algorithm = build_algorithm("cheap", ring12)
        configs = ConfigCube.make(ring12, [(1, 2)], delays=(0,))
        with pytest.raises(BatchUnavailableError, match="NumPy"):
            worst_case_search(ring12, algorithm, configs, 50, engine="cube")

    def test_auto_without_numpy_matches_the_compiled_report(
        self, ring12, monkeypatch
    ):
        algorithm = build_algorithm("cheap", ring12)
        configs = ConfigCube.make(ring12, all_label_pairs(3), delays=(0, 2))

        compiled = worst_case_search(ring12, algorithm, configs, engine="compiled")
        monkeypatch.setattr(cube_module, "_np", None)
        auto = worst_case_search(ring12, algorithm, configs, engine="auto")
        assert auto == compiled

    def test_importing_the_module_needs_no_numpy(self, monkeypatch):
        # The guard is at use sites, not import time: numpy_available and
        # the error path must work with the module attribute cleared.
        monkeypatch.setattr(cube_module, "_np", None)
        assert cube_module.numpy_available() is False


@pytest.fixture
def torus():
    """A 3x3 torus: no cyclic certificate, so tables build every start."""
    return GraphSpec.make("torus", rows=3, cols=3).build()


@requires_numpy
class TestCubeTimelineTable:
    """The table's per-start path, on a graph the orbit certificate refuses."""

    def test_label_matrices_are_built_once(self, torus):
        algorithm = build_algorithm("cheap", torus)
        table = CubeTimelineTable(torus, algorithm)
        assert not table.certificate.orbit
        first = table.timelines(1)
        assert table.timelines(1) is first
        assert list(table._labels) == [1]
        assert first.positions.shape == (9, first.length + 1)
        assert first.costs.shape == first.positions.shape

    def test_repeated_slices_rebuild_nothing(self, torus):
        # The scan keeps nothing: asked twice, it rescans the same label
        # timelines into fresh, equal tensors and builds no new state.
        algorithm = build_algorithm("cheap", torus)
        table = CubeTimelineTable(torus, algorithm)
        horizon = default_horizon(algorithm, (1, 2), 0)
        delays = [[(delay, horizon + delay) for delay in range(10)]]
        once = table.slices([(1, 2)], delays, PresenceModel.FROM_START)
        built = dict(table._labels)
        seconds = table.build_seconds
        twice = table.slices([(1, 2)], delays, PresenceModel.FROM_START)
        assert once[0].shape == (1, 10, 9, 9)
        assert all((a == b).all() for a, b in zip(once, twice))
        assert all(a is not b for a, b in zip(once, twice))
        assert table._labels == built
        assert all(table._labels[label] is built[label] for label in built)
        assert table.build_seconds == seconds


@requires_numpy
class TestBatchWorstCaseSearch:
    """``worst_case_search(engine="cube")`` through this substrate."""

    def test_failures_keep_enumeration_order(self, ring12):
        algorithm = build_algorithm("fast", ring12)
        configs = ConfigCube.make(ring12, [(1, 2)], fix_first_start=True)
        cube = worst_case_search(ring12, algorithm, configs, 1, engine="cube")
        reactive = worst_case_search(
            ring12, algorithm, configs, 1, engine="reactive"
        )
        assert cube == reactive
        assert cube.worst_time is None
        assert len(cube.failures) == 11

    def test_empty_configuration_stream(self, ring12):
        algorithm = build_algorithm("cheap", ring12)
        empty = ConfigCube.make(ring12, [])
        report = worst_case_search(ring12, algorithm, empty, 1, engine="cube")
        assert report.worst_time is None and report.worst_cost is None
        assert report.executions == 0 and report.failures == ()

    def test_constant_horizon_matches_callable(self, ring12):
        algorithm = build_algorithm("cheap-sim", ring12)
        configs = ConfigCube.make(ring12, all_label_pairs(3), delays=(0,))
        horizon = default_horizon(algorithm, (1, 2), 0)
        constant = worst_case_search(ring12, algorithm, configs, horizon, engine="cube")
        called = worst_case_search(
            ring12, algorithm, configs, lambda labels, delay: horizon, engine="cube"
        )
        assert constant == called


@requires_numpy
class TestRuntimeIntegration:
    def job(self, **overrides):
        base = dict(
            algorithm=AlgorithmSpec("fast", 4),
            graph=GraphSpec.make("ring", n=8),
            delays=(0, 3),
            engine="cube",
        )
        base.update(overrides)
        return JobSpec(**base)

    def test_run_shard_matches_the_reactive_worker(self):
        from repro.obs import strip_timing

        cube = run_shard(self.job().shard_spec(10, 40))
        reactive = run_shard(self.job(engine="reactive").shard_spec(10, 40))
        # The reports are equal (timing is non-canonical and excluded from
        # comparison); their canonical payloads are byte-identical.
        assert cube == reactive
        assert canonical_json(strip_timing(cube.to_dict())) == canonical_json(
            strip_timing(reactive.to_dict())
        )

    def test_sharded_pool_report_is_byte_identical(self):
        serial = execute_job(self.job(), executor=SerialExecutor(), shard_count=7)
        with ParallelExecutor(2) as executor:
            pooled = execute_job(self.job(), executor=executor, shard_count=7)
        assert canonical_json(pooled.report.to_dict()) == canonical_json(
            serial.report.to_dict()
        )

    def test_scenario_auto_runs_cube_with_identical_report(self):
        scenario = Scenario(
            graph="ring",
            graph_params={"n": 8},
            algorithm="fast",
            label_space=4,
            delays=(0, 2),
        )
        auto = scenario.run(engine="auto")
        serial = scenario.run(engine="reactive", workers=1)
        assert auto.to_json() == serial.to_json()
