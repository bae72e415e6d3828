"""The run store: caching, resumability after interruption, eviction."""

import json

import pytest

from repro.obs import MemorySink, Telemetry
from repro.runtime import (
    AlgorithmSpec,
    GraphSpec,
    JobSpec,
    RunStore,
    SerialExecutor,
    canonical_json,
    execute_job,
    run_shard,
)


def small_job(**overrides):
    defaults = dict(
        algorithm=AlgorithmSpec("fast", 3),
        graph=GraphSpec.make("ring", n=6),
        delays=(0, 1),
        fix_first_start=True,
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


class CountingExecutor(SerialExecutor):
    """A serial executor that records how many shards it actually ran."""

    def __init__(self):
        self.shards_run = 0

    def map_shards(self, specs):
        for spec in specs:
            self.shards_run += 1
            yield run_shard(spec)


class TestCaching:
    def test_second_run_hits_the_store_with_zero_fresh_executions(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        job = small_job()
        first = execute_job(job, executor=CountingExecutor(), store=store)
        assert first.stats.shards_cached == 0
        assert first.stats.shards_executed == first.stats.shards_total > 0

        counting = CountingExecutor()
        second = execute_job(job, executor=counting, store=store)
        assert counting.shards_run == 0
        assert second.stats.fully_cached
        assert second.stats.shards_executed == 0
        assert canonical_json(second.report.to_dict()) == canonical_json(
            first.report.to_dict()
        )

    def test_different_specs_do_not_share_cache_entries(self, tmp_path):
        store = RunStore(tmp_path)
        execute_job(small_job(), store=store)
        counting = CountingExecutor()
        outcome = execute_job(small_job(delays=(0,)), executor=counting, store=store)
        assert counting.shards_run == outcome.stats.shards_total > 0

    def test_changed_shard_plan_reexecutes_instead_of_mismerging(self, tmp_path):
        store = RunStore(tmp_path)
        job = small_job()
        baseline = execute_job(job, store=store, shard_count=4)
        counting = CountingExecutor()
        replanned = execute_job(job, executor=counting, store=store, shard_count=7)
        assert counting.shards_run == 7
        assert replanned.report.max_time == baseline.report.max_time
        assert replanned.report.worst_time == baseline.report.worst_time


class TestResumability:
    def test_interrupted_run_resumes_from_completed_shards(self, tmp_path):
        store = RunStore(tmp_path)
        job = small_job()
        complete = execute_job(job, store=store, shard_count=6)

        # Simulate an interruption: drop the last two shard records, leaving
        # the second-to-last as a half-written (truncated) line.
        path = store.path_for(job)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n" + lines[-2][: len(lines[-2]) // 2])

        with pytest.warns(RuntimeWarning, match="undecodable"):
            loaded = store.load(job)
        assert len(loaded) == 4

        counting = CountingExecutor()
        with pytest.warns(RuntimeWarning, match="undecodable"):
            resumed = execute_job(job, executor=counting, store=store, shard_count=6)
        assert counting.shards_run == 2
        assert canonical_json(resumed.report.to_dict()) == canonical_json(
            complete.report.to_dict()
        )

    def test_store_file_is_append_only_jsonl_with_header(self, tmp_path):
        store = RunStore(tmp_path)
        job = small_job()
        execute_job(job, store=store, shard_count=3)
        lines = [json.loads(l) for l in store.path_for(job).read_text().splitlines()]
        assert lines[0]["kind"] == "job"
        assert lines[0]["spec"] == job.to_dict()
        assert [l["kind"] for l in lines[1:]] == ["shard"] * 3

    def test_corrupt_line_mid_file_does_not_hide_later_shards(self, tmp_path):
        store = RunStore(tmp_path)
        job = small_job()
        execute_job(job, store=store, shard_count=5)
        path = store.path_for(job)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # tear one shard record
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning, match="undecodable"):
            assert len(store.load(job)) == 4

    def test_torn_lines_are_counted_and_named_in_telemetry(self, tmp_path):
        store = RunStore(tmp_path)
        job = small_job()
        execute_job(job, store=store, shard_count=5)
        path = store.path_for(job)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]
        lines[3] = "{not json"
        path.write_text("\n".join(lines) + "\n")

        telemetry = Telemetry(MemorySink())
        with pytest.warns(RuntimeWarning, match=str(path)):
            store.load(job, telemetry=telemetry)
        warning_events = telemetry.sink.of_kind("warning")
        assert len(warning_events) == 1
        assert warning_events[0]["attrs"]["file"] == str(path)
        assert warning_events[0]["attrs"]["lines"] == 2
        assert telemetry.counters["store.torn_lines"] == 2

    def test_load_of_unknown_spec_is_empty(self, tmp_path):
        assert RunStore(tmp_path).load(small_job()) == {}


class TestEviction:
    def test_clear_removes_all_runs(self, tmp_path):
        store = RunStore(tmp_path)
        execute_job(small_job(), store=store)
        execute_job(small_job(delays=(0,)), store=store)
        assert store.clear() == 2
        assert store.load(small_job()) == {}
        assert store.clear() == 0


def test_version_skew_is_isolated_by_filename(tmp_path):
    """Results computed by different code must never be served or evicted.

    Both the library version and the record-format version are part of
    the filename, so a checkout running different code simply reads and
    writes a different file -- concurrent checkouts coexist instead of
    destroying each other's caches.
    """
    import repro
    from repro.runtime import AlgorithmSpec, GraphSpec, JobSpec, RunStore
    from repro.runtime.store import _FORMAT_VERSION
    from repro.runtime.worker import run_shard

    spec = JobSpec(AlgorithmSpec("fast-sim", 3), GraphSpec.make("ring", n=4))
    store = RunStore(tmp_path)
    store.append(spec, run_shard(spec.shard_spec(0, 5)))
    assert store.load(spec)

    path = store.path_for(spec)
    assert f"-v{repro.__version__}-f{_FORMAT_VERSION}.jsonl" in path.name
    # A file written by other code has another name and is never read.
    other = path.with_name(path.name.replace(repro.__version__, "0.0.0"))
    path.rename(other)
    assert store.load(spec) == {}
    assert other.exists()  # ... and never destroyed
