"""Cluster execution end to end: byte-identity, wiring, and guards.

The crown-jewel invariant, extended to the cluster: for any worker
count, the merged report is byte-identical to the serial in-process
enumeration.  (The kill/restart schedules live in test_kill_matrix.py.)
"""

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterError,
    ClusterExecutor,
    resolve_cluster,
)
from repro.experiments import Campaign
from repro.obs import MemorySink, Telemetry, summarize
from repro.runtime import AlgorithmSpec, GraphSpec, JobSpec

from tests.cluster.conftest import canonical


def config(tmp_path, **overrides):
    defaults = dict(
        workers=1, root=str(tmp_path), ttl=5.0, poll=0.05, stall_timeout=120.0
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


class TestByteIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_cluster_matches_serial_for_any_worker_count(
        self, scenario, serial_baseline, tmp_path, workers
    ):
        run = scenario.run(
            cluster=config(tmp_path, workers=workers),
            cache=False,
            shard_count=4,
        )
        assert canonical(run) == serial_baseline

    def test_store_resume_skips_completed_shards(
        self, scenario, serial_baseline, tmp_path
    ):
        # First run populates the content-addressed store (workers never
        # touch it -- the coordinator-side execute_job is its only
        # writer); the second resolves entirely from it (no shards reach
        # the queue, so no run directory is created) and stays
        # byte-identical.
        cache_dir = str(tmp_path / "store")
        first = scenario.run(
            cluster=config(tmp_path / "c1"),
            cache_dir=cache_dir,
            shard_count=4,
        )
        executor = ClusterExecutor(config(tmp_path / "c2"))
        second = scenario.run(
            cluster=executor, cache_dir=cache_dir, shard_count=4
        )
        assert canonical(first) == serial_baseline
        assert canonical(second) == serial_baseline
        assert executor.run_dir is None  # map_shards never saw a shard
        executor.close()


class TestWiring:
    def test_published_run_is_observable_through_telemetry(
        self, scenario, tmp_path
    ):
        sink = MemorySink()
        scenario.run(
            cluster=config(tmp_path),
            cache=False,
            shard_count=4,
            telemetry=Telemetry(sink),
        )
        published = [
            event
            for event in sink.events
            if event.get("name") == "cluster.published"
        ]
        assert len(published) == 1
        assert published[0]["attrs"]["shards"] == 4
        summary = summarize(sink.events)
        assert summary["cluster"][0]["event"] == "cluster.published"

    def test_campaign_cluster_and_workers_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="cluster"):
            Campaign(
                experiments=[], cluster=config(tmp_path), workers=2
            ).run()

    def test_campaign_resolves_and_closes_its_cluster(self, tmp_path):
        # An empty campaign still exercises the resolve/close lifecycle.
        result = Campaign(experiments=[], cluster=config(tmp_path)).run()
        assert result.reports == ()

    def test_executor_reports_its_worker_count(self, tmp_path):
        assert ClusterExecutor(config(tmp_path, workers=3)).workers == 3


class TestResolveCluster:
    def test_disabled_forms(self):
        assert resolve_cluster(None) is None
        assert resolve_cluster(False) is None

    def test_int_is_a_worker_count(self):
        executor = resolve_cluster(3)
        assert isinstance(executor, ClusterExecutor)
        assert executor.config.workers == 3

    def test_mapping_holds_config_fields(self, tmp_path):
        executor = resolve_cluster({"workers": 1, "root": str(tmp_path)})
        assert executor.config.root == str(tmp_path)

    def test_config_and_executor_pass_through(self, tmp_path):
        cfg = config(tmp_path)
        executor = resolve_cluster(cfg)
        assert executor.config is cfg
        assert resolve_cluster(executor) is executor

    def test_passed_executor_adopts_live_telemetry(self, tmp_path):
        executor = ClusterExecutor(config(tmp_path))
        telemetry = Telemetry(MemorySink())
        assert resolve_cluster(executor, telemetry).telemetry is telemetry

    def test_unrecognized_type_raises(self):
        with pytest.raises(TypeError, match="cluster must be"):
            resolve_cluster(object())


class TestGuards:
    def test_cluster_excludes_executor_workers_and_serial_engines(
        self, scenario, tmp_path
    ):
        from repro.runtime import SerialExecutor

        cfg = config(tmp_path)
        with pytest.raises(ValueError, match="not both"):
            scenario.run(cluster=cfg, executor=SerialExecutor())
        with pytest.raises(ValueError, match="worker count"):
            scenario.run(cluster=cfg, workers=2)
        # Executor names are no engines at all: the cluster is the executor.
        with pytest.raises(ValueError, match="unknown engine"):
            scenario.run(cluster=cfg, engine="serial")

    def test_config_validation(self):
        with pytest.raises(ValueError, match="workers"):
            ClusterConfig(workers=-1)
        with pytest.raises(ValueError, match="ttl"):
            ClusterConfig(ttl=0)
        with pytest.raises(ValueError, match="poll"):
            ClusterConfig(poll=0)

    def test_map_shards_rejects_sweep_specs_and_mixed_sweeps(self, tmp_path):
        sweep = JobSpec(
            algorithm=AlgorithmSpec("fast-sim", 4),
            graph=GraphSpec.make("ring", n=6),
            delays=(0, 1),
            fix_first_start=True,
        )
        other = JobSpec(
            algorithm=AlgorithmSpec("cheap-sim", 4),
            graph=GraphSpec.make("ring", n=6),
            delays=(0, 1),
            fix_first_start=True,
        )
        executor = ClusterExecutor(config(tmp_path))
        with pytest.raises(ClusterError, match="sharded specs"):
            list(executor.map_shards([sweep]))
        with pytest.raises(ClusterError, match="one sweep"):
            list(
                executor.map_shards(
                    [sweep.shard_spec(0, 15), other.shard_spec(0, 15)]
                )
            )

    def test_live_foreign_coordinator_blocks_a_second_one(
        self, scenario, tmp_path
    ):
        from repro.cluster import ShardQueue, acquire_lease

        run_id = "pinned"
        queue = ShardQueue(tmp_path / run_id)
        queue.run_dir.mkdir(parents=True)
        acquire_lease(queue.coordinator_lease_path, "other-host", ttl=300.0)
        with pytest.raises(ClusterError, match="live coordinator"):
            scenario.run(
                cluster=config(tmp_path, run_id=run_id),
                cache=False,
                shard_count=4,
            )
