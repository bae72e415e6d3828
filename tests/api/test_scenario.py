"""Scenario: construction, validation, serialization, and execution.

The load-bearing guarantees: every registered combination round-trips
through dicts/JSON, and serial and pooled runs (``workers=1`` and
``workers=2``) produce byte-identical canonical reports.
"""

import pytest

from repro.api import (
    AUTO_PARALLEL_THRESHOLD,
    Scenario,
    ScenarioRun,
    resolve_engine,
    resolve_store,
)
from repro.registry import ALGORITHMS, GRAPH_FAMILIES, PRESENCE_MODELS, SpecError
from repro.runtime.executor import ParallelExecutor, SerialExecutor
from repro.runtime.store import RunStore

#: Small valid parameters for every registered family.
FAMILY_PARAMS = {
    "ring": {"n": 5},
    "path": {"n": 4},
    "star": {"n": 4},
    "complete": {"n": 4},
    "tree": {"depth": 2},
    "hypercube": {"dimension": 2},
    "torus": {"rows": 3, "cols": 3},
    "lollipop": {"clique_size": 3, "tail_length": 1},
    "circulant": {"n": 5, "offsets": [1, 2]},
    "complete-bipartite": {"a": 2, "b": 2},
    "petersen": {},
}


def tiny(graph="ring", algorithm="fast-sim", **overrides):
    defaults = dict(
        graph=graph,
        graph_params=FAMILY_PARAMS[graph],
        algorithm=algorithm,
        label_space=3,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def test_every_family_is_covered_by_this_test_module():
    assert set(FAMILY_PARAMS) == set(GRAPH_FAMILIES.names())


class TestConstruction:
    def test_unknown_names_fail_fast_with_spec_error(self):
        with pytest.raises(SpecError, match="unknown graph family"):
            Scenario(graph="moebius", algorithm="fast")
        with pytest.raises(SpecError, match="unknown algorithm"):
            Scenario(graph="ring", graph_params={"n": 5}, algorithm="teleport")
        with pytest.raises(SpecError, match="unknown knowledge model"):
            tiny(knowledge="telepathy")
        with pytest.raises(SpecError, match="unknown presence model"):
            tiny(presence="quantum")

    def test_mapping_params_rejected(self):
        # Same guard as GraphSpec.make: mapping values would make the
        # frozen spec unhashable deep inside a worker process.
        with pytest.raises(ValueError, match="not a mapping"):
            Scenario(graph="circulant",
                     graph_params={"n": 7, "offsets": {1: "x"}},
                     algorithm="fast-sim", label_space=3)

    def test_params_validated_against_the_family_constructor(self):
        with pytest.raises(ValueError, match="invalid parameters for graph family"):
            Scenario(graph="ring", graph_params={"size": 8}, algorithm="fast")
        with pytest.raises(ValueError, match="invalid parameters for graph family"):
            tiny().with_overrides(graph="petersen")  # keeps n=5, petersen takes none

    def test_label_pairs_validated_against_the_label_space(self):
        with pytest.raises(ValueError, match="outside the label space"):
            tiny(label_pairs=[(1, 9)])
        with pytest.raises(ValueError, match="must be distinct"):
            tiny(label_pairs=[(2, 2)])
        assert tiny(label_pairs=[(1, 3), (3, 1)]).run(engine="reactive", workers=1).row.executions

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="at least two labels"):
            tiny(label_space=1)
        with pytest.raises(ValueError, match="non-negative"):
            tiny(delays=(-1,))
        with pytest.raises(ValueError, match="at least one delay"):
            tiny(delays=())
        with pytest.raises(ValueError, match="simultaneous"):
            tiny(algorithm="fast-sim", delays=(0, 3))
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            tiny(horizon=0)

    def test_weight_survives_for_later_weighted_overrides(self):
        # The scenario keeps the weight the user wrote (a sweep may swap
        # the algorithm axis to a weighted one), but the job spec pins it
        # for unweighted algorithms so run-store keys are shared.
        base = tiny(algorithm="cheap", weight=3)
        assert base.weight == 3
        assert base.job_spec().algorithm.weight == 2
        assert base.with_overrides(algorithm="fwr").job_spec().algorithm.weight == 3

    def test_weight_validated(self):
        with pytest.raises(ValueError, match="weight must be a positive integer"):
            tiny(algorithm="fwr", weight=0)
        with pytest.raises(ValueError, match="weight must be a positive integer"):
            tiny(algorithm="fast", weight=0)

    def test_graph_params_are_canonically_ordered(self):
        a = Scenario(graph="torus", graph_params={"rows": 3, "cols": 4},
                     algorithm="fast")
        b = Scenario(graph="torus", graph_params={"cols": 4, "rows": 3},
                     algorithm="fast")
        assert a == b

    def test_fix_first_start_derives_from_registry_metadata(self):
        assert tiny(graph="ring").resolved_fix_first_start is True
        assert tiny(graph="path").resolved_fix_first_start is False
        assert tiny(graph="path", fix_first_start=True).resolved_fix_first_start
        assert not tiny(graph="ring", fix_first_start=False).resolved_fix_first_start

    def test_job_spec_reflects_the_scenario(self):
        scenario = tiny(algorithm="cheap", delays=(0, 2), horizon=500)
        spec = scenario.job_spec()
        assert spec.graph.family == "ring"
        assert spec.algorithm.name == "cheap"
        assert spec.delays == (0, 2)
        assert spec.horizon == 500
        assert spec.fix_first_start is True


class TestRoundTrips:
    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_every_family_round_trips(self, family):
        scenario = tiny(graph=family)
        assert Scenario.from_dict(scenario.to_dict()) == scenario
        assert Scenario.from_json(scenario.to_json()) == scenario

    @pytest.mark.parametrize("algorithm", ALGORITHMS.names())
    def test_every_algorithm_round_trips(self, algorithm):
        scenario = tiny(algorithm=algorithm, weight=3)
        again = Scenario.from_dict(scenario.to_dict())
        assert again == scenario
        assert again.job_spec() == scenario.job_spec()

    @pytest.mark.parametrize("presence", PRESENCE_MODELS.names())
    def test_every_presence_model_round_trips(self, presence):
        scenario = tiny(presence=presence)
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_exploration_axis_overrides_the_knowledge_hierarchy(self):
        derived = tiny()          # ring-clockwise: E = n - 1 = 4
        forced = tiny(exploration="dfs-open")   # E = 2n - 3 = 7
        assert forced.build_algorithm().exploration_budget == 7
        assert derived.build_algorithm().exploration_budget == 4
        assert Scenario.from_json(forced.to_json()) == forced
        run = forced.run(engine="reactive", workers=1, shard_count=2)
        assert run.row.exploration_budget == 7

    def test_unknown_exploration_rejected(self):
        with pytest.raises(SpecError, match="unknown exploration procedure"):
            tiny(exploration="teleport-scan")

    def test_contradictory_exploration_and_knowledge_rejected(self):
        # An agent with only a size bound cannot run a known-map DFS.
        with pytest.raises(ValueError, match="serves knowledge models"):
            tiny(exploration="dfs-open", knowledge="size-bound-only")

    def test_default_specs_keep_their_content_hash(self):
        # The exploration field is emitted only when set, so pre-existing
        # run-store entries (keyed by the spec hash) stay valid.
        spec = tiny().job_spec()
        assert "exploration" not in spec.algorithm.to_dict()
        assert "exploration" in tiny(exploration="dfs-open").job_spec().algorithm.to_dict()

    def test_optional_fields_round_trip(self):
        scenario = tiny(
            algorithm="cheap",
            delays=(0, 1, 4),
            label_pairs=[(1, 2), (2, 1)],
            fix_first_start=False,
            horizon=99,
        )
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_flat_dict_form(self):
        flat = Scenario.from_dict(
            {"graph": "ring", "graph_params": {"n": 5},
             "algorithm": "fast-sim", "label_space": 3}
        )
        assert flat == tiny()

    def test_missing_required_fields_rejected(self):
        with pytest.raises(ValueError, match="missing the required 'graph'"):
            Scenario.from_dict({"algorithm": "fast"})
        with pytest.raises(ValueError, match="missing the required 'algorithm'"):
            Scenario.from_dict({"graph": "ring"})
        with pytest.raises(ValueError, match="missing the required 'family'"):
            Scenario.from_dict({"graph": {"params": {"n": 6}}, "algorithm": "fast"})
        with pytest.raises(ValueError, match="missing the required 'name'"):
            Scenario.from_dict(
                {"graph": {"family": "ring", "params": {"n": 6}},
                 "algorithm": {"label_space": 4}}
            )

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            Scenario.from_dict(
                {"graph": "ring", "graph_params": {"n": 5},
                 "algorithm": "fast", "frobnicate": 1}
            )
        # Unknown keys nested in the sub-dicts must fail too, not be
        # silently dropped (e.g. knowledge misplaced under algorithm).
        with pytest.raises(ValueError, match="unknown algorithm fields"):
            Scenario.from_dict(
                {"graph": {"family": "ring", "params": {"n": 5}},
                 "algorithm": {"name": "fast", "knowledge": "size-bound-only"}}
            )
        with pytest.raises(ValueError, match="unknown graph fields"):
            Scenario.from_dict(
                {"graph": {"family": "ring", "n": 5}, "algorithm": "fast"}
            )

    def test_with_overrides(self):
        base = tiny()
        assert base.with_overrides(label_space=4).label_space == 4
        crossed = base.with_overrides(
            graph={"family": "star", "params": {"n": 4}}
        )
        assert crossed.graph == "star"
        assert dict(crossed.graph_params) == {"n": 4}
        renamed = base.with_overrides(graph="complete")
        assert renamed.graph == "complete"  # params kept from base
        assert dict(renamed.graph_params) == {"n": 5}


class TestEngineRouting:
    """``resolve_engine`` routes the executor; ``engine=`` is the substrate."""

    def test_explicit_engines(self):
        assert isinstance(resolve_engine(1, 10), SerialExecutor)
        parallel = resolve_engine(3, 10)
        assert isinstance(parallel, ParallelExecutor)
        assert parallel.workers == 3

    def test_auto_follows_workers_then_size(self):
        assert isinstance(resolve_engine(1, 10**9), SerialExecutor)
        assert isinstance(resolve_engine(4, 10), ParallelExecutor)
        assert isinstance(
            resolve_engine(None, AUTO_PARALLEL_THRESHOLD), ParallelExecutor
        )
        assert isinstance(
            resolve_engine(None, AUTO_PARALLEL_THRESHOLD - 1), SerialExecutor
        )

    def test_bad_engine_and_contradictory_workers(self):
        with pytest.raises(ValueError, match="unknown engine"):
            tiny().run(engine="quantum")
        for workers in (0, -2):
            with pytest.raises(ValueError, match="workers must be >= 1"):
                resolve_engine(workers, 10)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_nonpositive_workers_are_refused_by_every_entry_point(self, workers):
        from repro.api import Sweep
        from repro.experiments import Campaign

        with pytest.raises(ValueError, match="workers must be >= 1"):
            tiny().run(workers=workers, cache=False)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            Sweep(tiny()).run(workers=workers, cache=False)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            Campaign(experiments=["exp01"], quick=True, workers=workers).run()

    def test_store_resolution(self, tmp_path):
        assert resolve_store(None) is None
        assert resolve_store(False) is None
        assert resolve_store(True).root.name == ".repro_cache"
        assert resolve_store(True, str(tmp_path)).root == tmp_path
        assert resolve_store(str(tmp_path)).root == tmp_path
        # A bare cache_dir enables caching there (not silently nothing).
        assert resolve_store(None, str(tmp_path)).root == tmp_path
        store = RunStore(tmp_path)
        assert resolve_store(store) is store
        with pytest.raises(ValueError, match="not both"):
            resolve_store(store, str(tmp_path))
        with pytest.raises(ValueError, match="contradicts"):
            resolve_store(False, str(tmp_path))
        with pytest.raises(ValueError, match="not both"):
            resolve_store(str(tmp_path), str(tmp_path))
        # A path that contains a colon is just a path.
        odd = resolve_store(str(tmp_path / "a:b"))
        assert isinstance(odd, RunStore)
        assert odd.root.name == "a:b"


class TestByteIdentity:
    """Serial and pooled reactive runs agree byte-for-byte."""

    @staticmethod
    def both_engines(scenario):
        serial = scenario.run(engine="reactive", workers=1, shard_count=4)
        parallel = scenario.run(engine="reactive", workers=2, shard_count=4)
        assert serial.to_json() == parallel.to_json()
        return serial

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_every_family(self, family):
        run = self.both_engines(tiny(graph=family))
        assert run.row.time_within_bound and run.row.cost_within_bound

    @pytest.mark.parametrize("algorithm", ALGORITHMS.names())
    def test_every_algorithm(self, algorithm):
        simultaneous = ALGORITHMS.entry(algorithm).target.requires_simultaneous_start
        delays = (0,) if simultaneous else (0, 1)
        self.both_engines(tiny(algorithm=algorithm, delays=delays))

    @pytest.mark.parametrize("presence", PRESENCE_MODELS.names())
    def test_every_presence_model(self, presence):
        self.both_engines(tiny(presence=presence))

    def test_store_replay_matches_the_storeless_run(self, tmp_path):
        # The store joins the engine axis: a run replayed from it
        # matches the storeless run byte-for-byte.
        scenario = tiny()
        cold = scenario.run(engine="reactive", workers=1, shard_count=4)
        warm = scenario.run(engine="reactive", workers=1, shard_count=4, cache=str(tmp_path))
        replay = scenario.run(
            engine="reactive", workers=2, shard_count=4, cache=str(tmp_path)
        )
        assert replay.stats.fully_cached
        assert cold.to_json() == warm.to_json() == replay.to_json()


class TestRunBehaviour:
    def test_run_returns_scenario_run_with_stats(self):
        run = tiny().run(engine="reactive", workers=1, shard_count=2)
        assert isinstance(run, ScenarioRun)
        assert run.scenario == tiny()
        assert run.stats.shards_total == 2
        assert run.runtime_dict()["shards_executed"] == 2
        payload = run.to_dict()
        assert payload["scenario"] == tiny().to_dict()
        assert payload["result"]["executions"] == run.row.executions

    def test_cache_round_trip(self, tmp_path):
        scenario = tiny()
        first = scenario.run(engine="reactive", workers=1, cache=str(tmp_path), shard_count=3)
        assert first.stats.shards_executed == 3
        second = scenario.run(engine="reactive", workers=1, cache=str(tmp_path), shard_count=3)
        assert second.stats.fully_cached
        assert first.to_json() == second.to_json()

    def test_simulate_one_execution(self):
        result = tiny().simulate(labels=(1, 2), starts=(0, 2))
        assert result.met
        assert result.time is not None

    def test_simulate_honours_the_scenario_horizon(self):
        # run() and simulate() must agree about the round budget.
        capped = tiny(algorithm="cheap", horizon=2)
        assert not capped.simulate(labels=(1, 2), starts=(0, 2)).met
        assert tiny(algorithm="cheap").simulate(labels=(1, 2), starts=(0, 2)).met

    def test_simulate_rejects_delay_for_simultaneous_algorithms(self):
        with pytest.raises(ValueError, match="simultaneous"):
            tiny(algorithm="fast-sim").simulate(labels=(1, 2), starts=(0, 2), delay=4)
        # ... while delay-tolerant algorithms accept it.
        assert tiny(algorithm="fast").simulate(
            labels=(1, 2), starts=(0, 2), delay=4
        ).met

    def test_run_matches_object_sweep(self):
        # The spec world (Scenario.run) and the object world
        # (worst_case_search) must report identical extremes and argmaxes.
        from repro.sim.adversary import ConfigCube, all_label_pairs, worst_case_search

        scenario = tiny(algorithm="cheap", delays=(0, 1))
        run = scenario.run(engine="reactive", workers=1)
        graph = scenario.build_graph()
        algorithm = scenario.build_algorithm(graph)
        direct = worst_case_search(
            graph,
            algorithm,
            ConfigCube.make(
                graph,
                all_label_pairs(scenario.label_space),
                delays=(0, 1),
                fix_first_start=True,
            ),
        )
        assert (direct.max_time, direct.max_cost) == (run.row.max_time, run.row.max_cost)
        assert direct.worst_time.config == run.row.worst_time_config
        assert direct.worst_cost.config == run.row.worst_cost_config

    def test_deprecated_sweep_shims_are_gone(self):
        # PR history: analysis.sweep forwarded here with DeprecationWarnings;
        # the shims are deleted, not silently kept.
        with pytest.raises(ModuleNotFoundError):
            import repro.analysis.sweep  # noqa: F401
