"""Serial passes: abutting shards run in one engine pass, recorded per shard.

The shard plan sets what the run store records -- one report per shard
-- and the serial executor decides what one engine pass computes: each
maximal run of abutting shards of one sweep, up to
``executor._PASS_CONFIGS`` configurations.  These tests pin that a
grouped pass reports every shard exactly as the shard alone would, that
a partly cached store executes only its gaps, and that an interrupted
serial sweep keeps the passes it finished.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import Scenario
from repro.obs.events import strip_timing
from repro.runtime import (
    AlgorithmSpec,
    GraphSpec,
    JobSpec,
    RunStore,
    canonical_json,
    execute_job,
    plan_shards,
    run_shard,
    run_shards,
)
from repro.runtime import executor as executor_module
from repro.runtime import spec as spec_module
from repro.runtime import worker as worker_module
from repro.sim import cube as cube_module
from repro.sim.cube import numpy_available

#: 6 label pairs x 7 start pairs x 2 delays = 84 configurations.  The
#: horizon is too short for every configuration to meet: 16 shards hold
#: failures in some shards and none in others, so failures must land in
#: the right shard.
SHORT_JOB = JobSpec(
    algorithm=AlgorithmSpec("fast", 3),
    graph=GraphSpec.make("ring", n=8),
    delays=(0, 1),
    fix_first_start=True,
    horizon=40,
)

ENGINES = [
    "reactive",
    "compiled",
    pytest.param(
        "cube",
        marks=pytest.mark.skipif(
            not numpy_available(), reason="the cube engine needs numpy"
        ),
    ),
]


def stripped(report) -> str:
    return canonical_json(strip_timing(report.to_dict()))


def shard_specs(job: JobSpec, count: int | None = None) -> list[JobSpec]:
    total = job.config_space_size()
    return [job.shard_spec(lo, hi) for lo, hi in plan_shards(total, count)]


def count_passes(monkeypatch) -> list[list[tuple[int, int]]]:
    """Record the shard bounds of every serial pass."""
    passes: list[list[tuple[int, int]]] = []
    original = executor_module.run_shards

    def spy(specs):
        passes.append([spec.shard for spec in specs])
        return original(specs)

    monkeypatch.setattr(executor_module, "run_shards", spy)
    return passes


def store_lines(store: RunStore, job: JobSpec) -> list[str]:
    """The sweep file's records, timing dropped, in bounds order."""
    lines = store.path_for(job).read_text().splitlines()
    return sorted(canonical_json(strip_timing(json.loads(line))) for line in lines)


@pytest.mark.parametrize("count", [1, 5, 16])
@pytest.mark.parametrize("engine", ENGINES)
def test_a_pass_reports_every_shard_as_the_shard_alone(engine, count):
    specs = shard_specs(replace(SHORT_JOB, engine=engine), count)
    grouped = run_shards(specs)
    alone = [run_shard(spec) for spec in specs]
    assert [stripped(report) for report in grouped] == [
        stripped(report) for report in alone
    ]
    assert [report.shard for report in grouped] == [spec.shard for spec in specs]
    failing = [report for report in grouped if report.failures]
    assert failing, "the short horizon must leave failures to route"
    if count == 16:
        assert 1 < len(failing) < len(grouped)


def test_a_pass_splits_its_time_by_configurations(monkeypatch):
    # The pass starts at 0.0 and every later reading is 11.0.
    ticks = iter([0.0])
    monkeypatch.setattr(
        worker_module.time, "perf_counter", lambda: next(ticks, 11.0)
    )
    specs = shard_specs(replace(SHORT_JOB, engine="compiled"), 16)[:2]
    sizes = [hi - lo for lo, hi in (spec.shard for spec in specs)]
    reports = run_shards(specs)
    seconds = [report.timing.seconds for report in reports]
    assert seconds == [round(11.0 * size / sum(sizes), 6) for size in sizes]
    assert {report.timing.path for report in reports} == {"stream"}


def test_bounds_that_do_not_abut_are_refused():
    specs = shard_specs(SHORT_JOB, 4)
    with pytest.raises(ValueError, match="abutting"):
        run_shards([specs[0], specs[2]])


def test_shards_of_another_sweep_are_refused():
    first, second = shard_specs(SHORT_JOB, 2)
    other = replace(SHORT_JOB, delays=(0, 2)).shard_spec(*second.shard)
    with pytest.raises(ValueError, match="one sweep"):
        run_shards([first, other])


class TestPassPlan:
    def test_abutting_shards_of_one_sweep_share_a_pass(self):
        specs = shard_specs(SHORT_JOB, 16)
        assert [len(run) for run in executor_module._passes(specs)] == [16]

    def test_a_gap_another_sweep_or_a_whole_sweep_starts_a_new_pass(self):
        specs = shard_specs(SHORT_JOB, 8)
        other = replace(SHORT_JOB, delays=(0, 2)).shard_spec(*specs[4].shard)
        runs = list(
            executor_module._passes(
                specs[:2] + specs[3:4] + [other] + specs[5:] + [SHORT_JOB]
            )
        )
        assert [[spec.shard for spec in run] for run in runs] == [
            [specs[0].shard, specs[1].shard],
            [specs[3].shard],
            [other.shard],
            [spec.shard for spec in specs[5:]],
            [None],
        ]

    def test_a_pass_stays_within_the_configuration_cap(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_PASS_CONFIGS", 12)
        specs = shard_specs(SHORT_JOB, 16)  # 4 shards of 6, 12 of 5
        sizes = [
            sum(spec.shard[1] - spec.shard[0] for spec in run)
            for run in executor_module._passes(specs)
        ]
        assert sizes == [12, 12] + [10] * 6


def test_a_partly_cached_store_runs_one_pass_per_gap(tmp_path, monkeypatch):
    job = replace(SHORT_JOB, engine="compiled", horizon=None)
    bounds = plan_shards(job.config_space_size())
    cold = RunStore(tmp_path / "cold")
    expected = execute_job(job, store=cold)

    store = RunStore(tmp_path / "partial")
    for index in (0, 1, 5):
        store.append(job, run_shard(job.shard_spec(*bounds[index])))
    passes = count_passes(monkeypatch)
    outcome = execute_job(job, store=store)

    assert passes == [bounds[2:5], bounds[6:]]
    assert (outcome.stats.shards_cached, outcome.stats.shards_executed) == (3, 13)
    assert outcome.report == expected.report
    assert store_lines(store, job) == store_lines(cold, job)


def test_an_interrupted_serial_sweep_keeps_its_finished_passes(
    tmp_path, monkeypatch
):
    job = replace(SHORT_JOB, engine="compiled", horizon=None)
    bounds = plan_shards(job.config_space_size())
    store = RunStore(tmp_path / "store")
    monkeypatch.setattr(executor_module, "_PASS_CONFIGS", 12)  # two shards
    original = executor_module.run_shards
    calls = []

    def interrupted(specs):
        calls.append(specs)
        if len(calls) == 3:
            raise RuntimeError("interrupted in the third pass")
        return original(specs)

    monkeypatch.setattr(executor_module, "run_shards", interrupted)
    with pytest.raises(RuntimeError, match="third pass"):
        execute_job(job, store=store)
    assert sorted(store.load(job)) == bounds[:4]

    monkeypatch.setattr(executor_module, "run_shards", original)
    passes = count_passes(monkeypatch)
    resumed = execute_job(job, store=store)
    assert [shard for run in passes for shard in run] == bounds[4:]
    assert (resumed.stats.shards_cached, resumed.stats.shards_executed) == (4, 12)
    assert resumed.report == execute_job(job, shard_count=16).report


@pytest.mark.skipif(not numpy_available(), reason="the cube engine needs numpy")
def test_a_store_backed_sweep_makes_one_engine_call(tmp_path, monkeypatch):
    scenario = Scenario(
        graph="ring",
        graph_params={"n": 8},
        algorithm="fast",
        label_space=4,
        delays=(1234,),
    )
    calls = []
    original_search = cube_module._whole_cube_search
    original_append = RunStore.append

    def search(*args, **kwargs):
        calls.append("search")
        return original_search(*args, **kwargs)

    def append(self, spec, report):
        calls.append("append")
        original_append(self, spec, report)

    monkeypatch.setattr(cube_module, "_whole_cube_search", search)
    monkeypatch.setattr(RunStore, "append", append)
    run = scenario.run(workers=1, cache=str(tmp_path / "store"))

    assert run.row.executions == 84
    assert run.stats.shards_total == run.stats.shards_executed == 16
    assert calls.count("search") == 1
    assert calls.count("append") == 16
    assert run.to_json() == scenario.run(workers=1, cache=False).to_json()


class TestStoreFixedCosts:
    def test_the_content_key_is_hashed_once_per_spec(self, monkeypatch):
        job = replace(SHORT_JOB)
        hashed = []
        original = spec_module._content_key

        def spy(payload):
            hashed.append(payload)
            return original(payload)

        monkeypatch.setattr(spec_module, "_content_key", spy)
        assert job.key() == job.key() == job.sweep_key()
        assert len(hashed) == 1

    def test_the_memo_is_not_part_of_the_spec(self):
        job = replace(SHORT_JOB)
        key = job.key()
        fresh = replace(SHORT_JOB)
        assert job == fresh and hash(job) == hash(fresh)
        assert pickle.loads(pickle.dumps(job)).key() == key
        assert replace(job, horizon=5).key() != key

    def test_an_append_to_an_existing_file_opens_once(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path / "store")
        job = SHORT_JOB
        first, second = shard_specs(job, 2)
        store.append(job, run_shard(first))

        opened, made = [], []
        original_open, original_mkdir = os.open, Path.mkdir

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return original_open(*args, **kwargs)

        def counting_mkdir(self, *args, **kwargs):
            made.append(self)
            return original_mkdir(self, *args, **kwargs)

        monkeypatch.setattr(os, "open", counting_open)
        monkeypatch.setattr(Path, "mkdir", counting_mkdir)
        store.append(job, run_shard(second))
        assert (len(opened), made) == (1, [])
        assert sorted(store.load(job)) == [first.shard, second.shard]
