"""Engine routing: how ``engine=`` choices map to substrates.

``engine=`` names only the simulation substrate (reactive / compiled
trajectories / pruned cube); the executor comes from ``workers=`` or
``executor=``.  These tests pin down the mapping --
``auto`` runs schedule-driven algorithms on the fastest available
substrate (cube with NumPy, compiled without), ``compiled``/``cube``
demand the flag, executor names and the retired ``batch`` rung are
unknown everywhere -- and that every combination produces
byte-identical reports.
"""

import json

import pytest

from repro.api import Scenario
from repro.cli import main as cli_main
from repro.core.cheap import Cheap
from repro.core.fast import Fast
from repro.runtime import (
    AlgorithmSpec,
    GraphSpec,
    JobSpec,
    ParallelExecutor,
    SerialExecutor,
    execute_job,
)
from repro.runtime.spec import canonical_json
from repro.sim.adversary import ConfigCube, resolve_substrate, worst_case_search
from repro.sim.cube import numpy_available

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the cube engine needs numpy"
)


def tiny(**overrides) -> Scenario:
    base = dict(
        graph="ring",
        graph_params={"n": 6},
        algorithm="cheap",
        label_space=3,
        delays=(0, 2),
    )
    base.update(overrides)
    return Scenario(**base)


def ring_job(**overrides) -> JobSpec:
    base = dict(
        algorithm=AlgorithmSpec("fast", 4),
        graph=GraphSpec.make("ring", n=8),
        delays=(0, 3),
        fix_first_start=True,
    )
    base.update(overrides)
    return JobSpec(**base)


class TestResolveSimEngine:
    """The one substrate resolver, :func:`resolve_substrate`."""

    def test_auto_picks_the_fastest_sound_substrate(self):
        from repro.registry import ALGORITHMS

        expected = "cube" if numpy_available() else "compiled"
        for name in ("cheap", "cheap-sim", "fast", "fast-sim", "fwr", "fwr-sim"):
            assert resolve_substrate("auto", ALGORITHMS.entry(name).target) == expected

    def test_auto_falls_back_to_compiled_without_numpy(self, monkeypatch):
        import repro.sim.cube as cube_module

        monkeypatch.setattr(cube_module, "_np", None)
        assert resolve_substrate("auto", Fast) == "compiled"

    def test_reactive_is_explicit_for_every_algorithm(self, monkeypatch):
        assert resolve_substrate("reactive", Fast) == "reactive"
        monkeypatch.setattr(Cheap, "is_oblivious", False)
        assert resolve_substrate("reactive", Cheap) == "reactive"

    def test_compiled_is_explicit(self):
        assert resolve_substrate("compiled", Fast) == "compiled"

    @requires_numpy
    def test_cube_is_explicit(self):
        assert resolve_substrate("cube", Fast) == "cube"

    def test_batch_without_numpy_raises_the_install_hint(self, monkeypatch):
        # The NumPy engine's hint names the [batch] extra that provides it.
        import repro.sim.cube as cube_module

        monkeypatch.setattr(cube_module, "_np", None)
        with pytest.raises(ValueError, match=r"repro-rendezvous\[batch\]"):
            resolve_substrate("cube", Fast)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_substrate("warp", Cheap)

    def test_derived_engines_require_the_flag(self, monkeypatch):
        monkeypatch.setattr(Cheap, "is_oblivious", False)
        assert resolve_substrate("auto", Cheap) == "reactive"
        for engine in ("compiled", "cube"):
            with pytest.raises(ValueError, match="is_oblivious"):
                resolve_substrate(engine, Cheap)


def test_retired_batch_engine_is_unknown_everywhere(ring12):
    """``engine="batch"`` was retired: every entry point rejects it loudly."""
    algorithm = AlgorithmSpec("cheap", 3).build(ring12)
    empty = ConfigCube.make(ring12, [])
    with pytest.raises(ValueError, match="unknown engine"):
        worst_case_search(ring12, algorithm, empty, 1, engine="batch")
    with pytest.raises(ValueError, match="unknown engine"):
        ring_job(engine="batch")
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_substrate("batch", algorithm)


@pytest.mark.parametrize("engine", ["serial", "parallel"])
def test_executor_names_are_not_engines(ring12, engine):
    """The executor is chosen by workers/executor, never ``engine``."""
    algorithm = AlgorithmSpec("cheap", 3).build(ring12)
    with pytest.raises(ValueError, match="unknown engine"):
        tiny().run(engine=engine, workers=1)
    with pytest.raises(ValueError, match="unknown engine"):
        worst_case_search(
            ring12, algorithm, ConfigCube.make(ring12, []), 1, engine=engine
        )
    with pytest.raises(ValueError, match="unknown engine"):
        ring_job(engine=engine)
    with pytest.raises(SystemExit) as exited:
        cli_main(["sweep", "--engine", engine, "--no-cache"])
    assert exited.value.code == 2


class TestJobSpecEngine:
    def test_round_trips_and_distinguishes_keys(self):
        compiled = ring_job(engine="compiled")
        reactive = ring_job()
        assert compiled.key() != reactive.key()
        assert compiled.shard_spec(0, 5).sweep_spec() == compiled

    def test_reactive_specs_serialize_as_before_the_field_existed(self):
        # Pre-engine run-store entries must stay reachable: a reactive
        # spec's payload (and hence its content key) carries no "engine".
        payload = ring_job().to_dict()
        assert "engine" not in payload
        assert ring_job(engine="compiled").to_dict()["engine"] == "compiled"
        assert ring_job(engine="cube").to_dict()["engine"] == "cube"

    def test_cube_specs_round_trip_with_their_own_key(self):
        cube = ring_job(engine="cube")
        assert cube.shard_spec(0, 5).sweep_spec() == cube
        assert cube.key() not in (ring_job().key(), ring_job(engine="compiled").key())

    def test_invalid_engine_rejected_at_construction(self):
        with pytest.raises(ValueError, match="simulation engine"):
            ring_job(engine="warp")


class TestExecutionEquivalence:
    def test_execute_job_is_engine_invariant(self):
        reactive = execute_job(ring_job(), executor=SerialExecutor())
        compiled = execute_job(ring_job(engine="compiled"), executor=SerialExecutor())
        assert canonical_json(compiled.report.to_dict()) == canonical_json(
            reactive.report.to_dict()
        )
        if numpy_available():
            derived = execute_job(ring_job(engine="cube"), executor=SerialExecutor())
            assert canonical_json(derived.report.to_dict()) == canonical_json(
                reactive.report.to_dict()
            )

    @pytest.mark.parametrize(
        "engine",
        [
            "compiled",
            pytest.param("cube", marks=requires_numpy),
        ],
    )
    def test_engine_shards_survive_the_process_pool(self, engine):
        serial = execute_job(
            ring_job(engine=engine), executor=SerialExecutor(), shard_count=5
        )
        with ParallelExecutor(2) as executor:
            parallel = execute_job(
                ring_job(engine=engine), executor=executor, shard_count=5
            )
        assert canonical_json(parallel.report.to_dict()) == canonical_json(
            serial.report.to_dict()
        )

    def test_scenario_reports_are_engine_invariant(self):
        scenario = tiny()
        engines = ["reactive", "auto", "compiled"]
        if numpy_available():
            engines.append("cube")
        by_engine = {engine: scenario.run(engine=engine) for engine in engines}
        reference = by_engine["reactive"].to_json()
        assert all(run.to_json() == reference for run in by_engine.values())

    def test_auto_records_its_substrate_in_provenance(self):
        from dataclasses import replace

        scenario = tiny()
        auto = scenario.run(engine="auto")
        reactive = scenario.run(engine="reactive", workers=1)
        spec = scenario.job_spec()
        substrate = resolve_substrate("auto", Cheap)
        assert substrate == ("cube" if numpy_available() else "compiled")
        assert reactive.stats.sweep_key == spec.key()
        assert auto.stats.sweep_key == replace(spec, engine=substrate).key()

    @pytest.mark.parametrize("engine", ["compiled", "cube"])
    def test_run_job_rejects_engines_for_undeclared_algorithms(
        self, monkeypatch, engine
    ):
        scenario = tiny()
        monkeypatch.setattr(Cheap, "is_oblivious", False)
        with pytest.raises(ValueError, match="is_oblivious"):
            scenario.run(engine=engine)

    @pytest.mark.parametrize("engine", ["cube"])
    def test_scenario_run_numpy_engines_without_numpy_fail_fast(
        self, monkeypatch, engine
    ):
        import repro.sim.cube as cube_module

        monkeypatch.setattr(cube_module, "_np", None)
        with pytest.raises(ValueError, match=r"repro-rendezvous\[batch\]"):
            tiny().run(engine=engine)


class TestCliEngineFlag:
    def test_sweep_json_engine_invariance(self, capsys):
        argv = ["sweep", "--graph", "ring", "--size", "6", "--algorithm", "cheap",
                "--label-space", "3", "--delays", "0", "2", "--no-cache", "--json"]
        engines = ["reactive", "auto", "compiled"] + (
            ["cube"] if numpy_available() else []
        )
        payloads = {}
        for engine in engines:
            assert cli_main(argv + ["--engine", engine]) == 0
            payload = json.loads(capsys.readouterr().out)
            payloads[engine] = {k: payload[k] for k in ("scenario", "result")}
        assert all(value == payloads["reactive"] for value in payloads.values())

    def test_nonpositive_workers_are_refused(self):
        with pytest.raises(SystemExit, match="--workers"):
            cli_main(["sweep", "--engine", "reactive", "--workers", "0", "--no-cache"])
