"""The run store's contract: caching, races, eviction, compaction, queries.

The byte-identity test pins the crown jewel on the store: whether the
shards come from a fresh serial run, a parallel run or a replay out of
the store, the merged canonical report does not change by a byte.
"""

import json
import threading
import warnings

import pytest

from repro.runtime import (
    AlgorithmSpec,
    GraphSpec,
    JobSpec,
    ParallelExecutor,
    RunStore,
    SerialExecutor,
    canonical_json,
    execute_job,
    plan_shards,
    query_payload,
    query_runs,
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


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "store")


class TestStoreContract:
    def test_second_run_is_fully_cached(self, store):
        job = small_job()
        first = execute_job(job, store=store)
        assert first.stats.shards_executed == first.stats.shards_total > 0

        counting = CountingExecutor()
        second = execute_job(job, executor=counting, store=store)
        assert counting.shards_run == 0
        assert second.stats.fully_cached
        assert canonical_json(second.report.to_dict()) == canonical_json(
            first.report.to_dict()
        )

    def test_load_of_an_empty_store_creates_nothing(self, store):
        assert store.load(small_job()) == {}
        assert not (store.root / "runs").exists()

    def test_different_specs_do_not_share_entries(self, store):
        execute_job(small_job(), store=store)
        counting = CountingExecutor()
        outcome = execute_job(
            small_job(delays=(0,)), executor=counting, store=store
        )
        assert counting.shards_run == outcome.stats.shards_total > 0

    def test_iter_runs_reports_what_was_stored(self, store):
        job = small_job()
        execute_job(job, store=store, shard_count=4)
        (run,) = list(store.iter_runs())
        assert run.sweep_key == job.sweep_key()
        assert run.algorithm == "fast"
        assert run.graph_family == "ring"
        assert run.engine == "reactive"
        assert run.label_space == 3
        assert len(run.shards) == 4
        assert run.spec == job.sweep_spec().to_dict()


class TestReplayByteIdentity:
    """The crown jewel on the store: replay never changes a byte."""

    def test_cached_and_parallel_replays_match_the_storeless_run(self, tmp_path):
        job = small_job()
        baseline = canonical_json(execute_job(job, shard_count=5).report.to_dict())

        store = RunStore(tmp_path / "serial")
        execute_job(job, store=store, shard_count=5)
        counting = CountingExecutor()
        replay = execute_job(job, executor=counting, store=store, shard_count=5)
        assert counting.shards_run == 0  # pure replay, no re-execution

        parallel = execute_job(
            job,
            executor=ParallelExecutor(2),
            store=RunStore(tmp_path / "parallel"),
            shard_count=5,
        )
        replayed = {
            canonical_json(outcome.report.to_dict()) for outcome in (replay, parallel)
        }
        assert replayed == {baseline}


class TestConcurrentFirstAppend:
    def test_racing_appenders_lose_no_shards(self, store):
        job = small_job()
        bounds = plan_shards(job.config_space_size(), shard_count=8)
        reports = [run_shard(job.shard_spec(lo, hi)) for lo, hi in bounds]
        barrier = threading.Barrier(len(reports))

        def publish(report):
            barrier.wait()
            store.append(job, report)

        threads = [
            threading.Thread(target=publish, args=(report,))
            for report in reports
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        loaded = store.load(job)
        assert sorted(loaded) == sorted(report.shard for report in reports)
        (run,) = list(store.iter_runs())
        assert len(run.shards) == len(reports)

    def test_jsonl_race_claims_exactly_one_header(self, tmp_path):
        store = RunStore(tmp_path)
        job = small_job()
        bounds = plan_shards(job.config_space_size(), shard_count=8)
        reports = [run_shard(job.shard_spec(lo, hi)) for lo, hi in bounds]
        barrier = threading.Barrier(len(reports))

        def publish(report):
            barrier.wait()
            store.append(job, report)

        threads = [
            threading.Thread(target=publish, args=(report,))
            for report in reports
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        lines = [
            json.loads(line)
            for line in store.path_for(job).read_text().splitlines()
        ]
        assert [l["kind"] for l in lines].count("job") == 1
        assert sum(l["kind"] == "shard" for l in lines) == len(reports)


class TestClearCounts:
    def test_clear_removes_every_file_under_runs(self, tmp_path):
        store = RunStore(tmp_path)
        execute_job(small_job(), store=store)
        execute_job(small_job(delays=(0,)), store=store)
        runs = tmp_path / "runs"
        # A warehouse left by an older version and a temp file stranded
        # by a crashed compaction must not outlive the eviction.
        (runs / "warehouse.sqlite").write_bytes(b"SQLite format 3\x00")
        (runs / f"{small_job().sweep_key()}.jsonl.compact").write_text("{torn")

        assert store.clear() == 4
        assert sorted(runs.iterdir()) == []
        assert store.load(small_job()) == {}
        assert store.clear() == 0


class TestJsonlCompaction:
    def test_compact_of_a_healthy_store_changes_no_bytes(self, tmp_path):
        store = RunStore(tmp_path)
        job = small_job()
        execute_job(job, store=store, shard_count=4)
        before = store.path_for(job).read_bytes()
        stats = store.compact()
        assert stats.files == 1
        assert stats.rewritten == 0
        assert store.path_for(job).read_bytes() == before

    def test_compact_folds_torn_lines_and_duplicates(self, tmp_path):
        store = RunStore(tmp_path)
        job = small_job()
        baseline = execute_job(job, store=store, shard_count=5)
        path = store.path_for(job)
        lines = path.read_text().splitlines()
        damaged = [lines[0], lines[0]] + lines[1:] + [lines[2], lines[3][:17]]
        path.write_text("\n".join(damaged) + "\n")

        with pytest.warns(RuntimeWarning, match="1 undecodable"):
            assert len(store.load(job)) == 5

        stats = store.compact()
        assert stats.files == 1
        assert stats.rewritten == 1
        assert stats.torn_lines == 1
        assert stats.duplicate_headers == 1
        assert stats.duplicate_shards == 1

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = store.load(job)
        assert len(loaded) == 5
        counting = CountingExecutor()
        replay = execute_job(job, executor=counting, store=store, shard_count=5)
        assert counting.shards_run == 0
        assert canonical_json(replay.report.to_dict()) == canonical_json(
            baseline.report.to_dict()
        )

    def test_multiple_torn_lines_warn_with_the_count(self, tmp_path):
        store = RunStore(tmp_path)
        job = small_job()
        execute_job(job, store=store, shard_count=6)
        path = store.path_for(job)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:11]
        lines[4] = "{torn"
        lines[6] = lines[6][: len(lines[6]) // 2]
        path.write_text("\n".join(lines) + "\n")

        with pytest.warns(RuntimeWarning, match="3 undecodable line"):
            assert len(store.load(job)) == 3

        stats = store.compact()
        assert stats.torn_lines == 3
        assert stats.rewritten == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(store.load(job)) == 3

    def test_compact_restores_a_missing_trailing_newline(self, tmp_path):
        store = RunStore(tmp_path)
        job = small_job()
        execute_job(job, store=store, shard_count=3)
        path = store.path_for(job)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        stats = store.compact()
        assert stats.rewritten == 1
        assert path.read_bytes().endswith(b"\n")
        assert len(store.load(job)) == 3


class TestQueryLayer:
    def test_filters_narrow_by_every_dimension(self, store):
        ring = small_job()
        path = small_job(graph=GraphSpec.make("path", n=5))
        wide = small_job(algorithm=AlgorithmSpec("fast", 4))
        compiled = small_job(engine="compiled")
        for job in (ring, path, wide, compiled):
            execute_job(job, store=store, shard_count=2)

        assert len(query_runs(store)) == 4
        assert len(query_runs(store, graph="path")) == 1
        assert len(query_runs(store, engine="compiled")) == 1
        assert len(query_runs(store, label_space=4)) == 1
        assert query_runs(store, algorithm="nope") == []
        families = {
            entry["graph"]["family"]
            for entry in query_runs(store, algorithm="fast")
        }
        assert families == {"ring", "path"}

    def test_worst_case_answer_matches_the_live_report(self, store):
        job = small_job()
        live = execute_job(job, store=store, shard_count=3)
        (entry,) = query_runs(store, algorithm="fast")
        assert entry["result"] == live.report.to_dict()
        assert entry["sweep_key"] == job.sweep_key()

    def test_runs_with_no_shards_are_skipped(self, store):
        # A registered sweep with no completed shards has no extremes to
        # report; the query layer skips it rather than inventing nulls.
        job = small_job()
        other = small_job(delays=(0,))
        execute_job(job, store=store, shard_count=2)
        execute_job(other, store=store, shard_count=2)
        path = store.path_for(other)
        header = path.read_text().splitlines()[0]
        path.write_text(header + "\n")

        entries = query_runs(store)
        assert [entry["sweep_key"] for entry in entries] == [job.sweep_key()]
        payload = query_payload(store, algorithm="fast")
        assert payload["result"]["count"] == 1
        assert payload["query"]["algorithm"] == "fast"
