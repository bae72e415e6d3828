"""Shard planning, executors, and serial/parallel determinism.

The crown-jewel property: however the configuration space is sharded and
however many workers execute the shards, the merged report is
byte-identical (canonical JSON) to the serial in-process enumeration.
"""

from dataclasses import replace
from functools import partial

import pytest

from repro.api import Scenario
from repro.runtime import (
    DEFAULT_SHARD_COUNT,
    AlgorithmSpec,
    GraphSpec,
    JobSpec,
    MergedReport,
    ParallelExecutor,
    RunStore,
    SerialExecutor,
    ShardReport,
    canonical_json,
    execute_job,
    merge_reports,
    plan_shards,
    run_shard,
)
from repro.sim.adversary import (
    ConfigCube,
    Configuration,
    Verdict,
    WorstCaseReport,
    all_label_pairs,
    worst_case_search,
)

RING_JOB = JobSpec(
    algorithm=AlgorithmSpec("fast", 3),
    graph=GraphSpec.make("ring", n=8),
    delays=(0, 1),
    fix_first_start=True,
)
TREE_JOB = JobSpec(
    algorithm=AlgorithmSpec("fast-sim", 3),
    graph=GraphSpec.make("tree", depth=2),
    delays=(0,),
    fix_first_start=False,
)
#: Too short a horizon for every configuration to meet: failures to compare.
SHORT_HORIZON_JOB = replace(RING_JOB, horizon=4)


class TestPlanShards:
    def test_covers_the_space_contiguously(self):
        bounds = plan_shards(103, shard_count=16)
        assert bounds[0][0] == 0 and bounds[-1][1] == 103
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 1

    def test_never_plans_more_shards_than_configs(self):
        assert len(plan_shards(3, shard_count=16)) == 3
        assert plan_shards(0) == []

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            plan_shards(-1)


class TestMerge:
    def verdict(self, index, value):
        return Verdict(index, Configuration((1, 2), (0, 1), 0), value, value)

    def shard(self, lo, hi, worst_time, worst_cost):
        return ShardReport(worst_time, worst_cost, hi - lo, (), shard=(lo, hi))

    def test_ties_break_toward_the_lowest_global_index(self):
        early = self.shard(0, 10, self.verdict(3, 7), self.verdict(3, 7))
        late = self.shard(10, 20, self.verdict(15, 7), self.verdict(15, 7))
        for order in ([early, late], [late, early]):
            merged = merge_reports(order)
            assert merged.worst_time.index == 3
            assert merged.worst_cost.index == 3

    def test_higher_value_beats_lower_index(self):
        low = self.shard(0, 10, self.verdict(0, 5), self.verdict(0, 5))
        high = self.shard(10, 20, self.verdict(19, 6), self.verdict(19, 6))
        merged = merge_reports([low, high])
        assert merged.worst_time.index == 19 and merged.max_time == 6

    def test_merge_is_arrival_order_insensitive(self):
        graph = RING_JOB.graph.build()
        total = RING_JOB.config_space_size(graph)
        shards = [RING_JOB.shard_spec(lo, hi) for lo, hi in plan_shards(total, 5)]
        reports = [run_shard(s) for s in shards]
        forward = merge_reports(reports)
        backward = merge_reports(reversed(reports))
        assert canonical_json(forward.to_dict()) == canonical_json(backward.to_dict())

    def test_round_trip(self):
        merged = merge_reports(
            [self.shard(0, 5, self.verdict(2, 9), self.verdict(4, 3))]
        )
        assert MergedReport.from_dict(merged.to_dict()) == merged


class TestDeterminism:
    @pytest.mark.parametrize("job", [RING_JOB, TREE_JOB], ids=["ring", "tree"])
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_parallel_is_byte_identical_to_serial(self, job, workers):
        # One plan for both, so the worker count is the only axis; the
        # default plans differ (see TestDefaultPlan).
        serial = execute_job(
            job, executor=SerialExecutor(), shard_count=DEFAULT_SHARD_COUNT
        )
        parallel = execute_job(
            job, executor=ParallelExecutor(workers),
            shard_count=DEFAULT_SHARD_COUNT,
        )
        assert canonical_json(serial.report.to_dict()) == canonical_json(
            parallel.report.to_dict()
        )
        assert serial.report.executions == job.config_space_size()

    @pytest.mark.parametrize(
        "job",
        [RING_JOB, TREE_JOB, SHORT_HORIZON_JOB],
        ids=["ring", "tree", "short-horizon"],
    )
    def test_runtime_matches_the_in_process_adversary(self, job):
        graph = job.graph.build()
        algorithm = job.algorithm.build(graph)
        cube = ConfigCube.make(
            graph,
            all_label_pairs(algorithm.label_space),
            delays=job.delays,
            fix_first_start=job.fix_first_start,
        )
        reference = worst_case_search(graph, algorithm, cube, job.horizon)
        merged = execute_job(job, executor=ParallelExecutor(2)).report
        assert WorstCaseReport.to_dict(merged) == reference.to_dict()
        if job is SHORT_HORIZON_JOB:
            assert reference.failures and reference.worst_time is not None

    def test_pool_is_reused_across_map_shards_calls(self):
        with ParallelExecutor(2) as executor:
            list(executor.map_shards([RING_JOB.shard_spec(0, 5),
                                      RING_JOB.shard_spec(5, 10)]))
            first_pool = executor._pool
            assert first_pool is not None
            list(executor.map_shards([RING_JOB.shard_spec(10, 15),
                                      RING_JOB.shard_spec(15, 20)]))
            assert executor._pool is first_pool
        assert executor._pool is None  # context exit closed it

    def test_sharding_granularity_does_not_change_the_result(self):
        coarse = execute_job(RING_JOB, shard_count=2).report
        fine = execute_job(RING_JOB, shard_count=13).report
        assert coarse.shards != fine.shards
        payload = coarse.to_dict()
        payload["shards"] = fine.shards
        assert canonical_json(payload) == canonical_json(fine.to_dict())


class TestDefaultPlan:
    """A serial run without a store is one shard; stores and pools keep 16."""

    @pytest.mark.parametrize(
        "new_executor, with_store, expected",
        [
            (SerialExecutor, False, 1),
            (SerialExecutor, True, DEFAULT_SHARD_COUNT),
            (partial(ParallelExecutor, 2), False, DEFAULT_SHARD_COUNT),
            (partial(ParallelExecutor, 1), False, 1),
        ],
        ids=["serial", "serial-store", "pool", "pool-of-one"],
    )
    def test_shards_planned(self, tmp_path, new_executor, with_store, expected):
        def shards_total(executor, shard_count=None):
            store = RunStore(tmp_path / str(shard_count)) if with_store else None
            outcome = execute_job(
                RING_JOB, executor=executor, store=store,
                shard_count=shard_count,
            )
            return outcome.stats.shards_total

        with new_executor() as executor:
            assert shards_total(executor) == expected
            # An explicit count always wins.
            assert shards_total(executor, shard_count=3) == 3
            assert shards_total(executor, shard_count=1) == 1

    @pytest.mark.parametrize("job", [RING_JOB, TREE_JOB], ids=["ring", "tree"])
    def test_one_shard_report_equals_the_sharded_one(self, job):
        whole = execute_job(job).report
        sharded = execute_job(job, shard_count=DEFAULT_SHARD_COUNT).report
        assert (whole.shards, sharded.shards) == (1, DEFAULT_SHARD_COUNT)
        payload = whole.to_dict()
        payload["shards"] = sharded.shards
        assert canonical_json(payload) == canonical_json(sharded.to_dict())

    def test_scenario_run_is_identical_across_plans(self):
        scenario = Scenario(
            graph="ring", graph_params={"n": 8}, algorithm="fast",
            label_space=3, delays=(0, 1),
        )
        default = scenario.run(cache=False)
        sharded = scenario.run(cache=False, shard_count=DEFAULT_SHARD_COUNT)
        assert default.stats.shards_total == 1
        assert sharded.stats.shards_total == DEFAULT_SHARD_COUNT
        assert default.to_json() == sharded.to_json()


class TestExecutors:
    def test_single_worker_degrades_to_serial(self):
        assert ParallelExecutor(1).workers == 1
        reports = list(
            ParallelExecutor(1).map_shards([RING_JOB.shard_spec(0, 4)])
        )
        assert reports[0].executions == 4

    def test_worker_count_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelExecutor(0)

    def test_whole_sweep_spec_runs_unsharded(self):
        report = run_shard(RING_JOB)
        assert report.shard == (0, RING_JOB.config_space_size())
        assert report.executions == report.shard[1]


def _die_executing(spec):
    """Picklable stand-in for run_shard that dies like a killed worker."""
    import os
    import signal

    os.kill(os.getpid(), signal.SIGKILL)


class TestPlanShardsGuards:
    def test_oversized_shard_count_never_plans_empty_shards(self):
        for total in (1, 2, 5):
            bounds = plan_shards(total, shard_count=16)
            assert len(bounds) == total
            assert all(hi > lo for lo, hi in bounds)

    def test_shard_count_is_validated_even_for_an_empty_space(self):
        # The guard must fire before the total == 0 early return.
        with pytest.raises(ValueError, match="shard_count"):
            plan_shards(0, shard_count=0)
        with pytest.raises(ValueError, match="shard_count"):
            plan_shards(10, shard_count=-3)


class TestShardExecutionError:
    def test_worker_death_names_the_failed_shard(self, monkeypatch):
        from repro.runtime import ShardExecutionError
        from repro.runtime import executor as executor_module

        monkeypatch.setattr(executor_module, "run_shard", _die_executing)
        executor = ParallelExecutor(2)
        specs = [RING_JOB.shard_spec(lo, hi) for lo, hi in plan_shards(8, 4)]
        with pytest.raises(ShardExecutionError) as excinfo:
            list(executor.map_shards(specs))
        err = excinfo.value
        assert err.shard in [spec.shard for spec in specs]
        assert f"[{err.shard[0]}, {err.shard[1]})" in str(err)
        assert "--cache" in str(err)
        assert "kept only when a run store is in use" in str(err)
        # The broken pool was dropped so a retry gets a fresh one.
        assert executor._pool is None
        executor.close()
