"""Kill-and-resume on the process pool: the kill axis of the crown jewel.

A pooled run whose worker is SIGKILLed mid-shard must fail loudly,
naming every shard it lost.  Rerun on the same run store, it resumes from
the shards already persisted, and its report is byte-identical to a
serial run's.  The kill lands on the first, the middle and the last
planned shard once every other shard is persisted, and on the first
shard at once, with other shards still in flight.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.api import Scenario
from repro.runtime import RunStore, ShardExecutionError, plan_shards
from repro.runtime import executor as executor_module
from repro.runtime.worker import run_shard

# ``fast`` accepts delays (``fast-sim`` refuses them), so the adversary
# space spans labels x starts x delays.
SCENARIO = Scenario(
    graph="ring",
    graph_params={"n": 8},
    algorithm="fast",
    label_space=4,
    delays=(0, 1, 3),
    fix_first_start=False,
)
BOUNDS = plan_shards(SCENARIO.config_space_size())
POSITIONS = {"first": 0, "middle": len(BOUNDS) // 2, "last": len(BOUNDS) - 1}

# The hook's orders travel through the environment, which pool workers
# inherit whatever their start method.
KILL_SHARD = "KILL_RESUME_SHARD"
KILL_STORE = "KILL_RESUME_STORE"
KILL_AT_ONCE = "KILL_RESUME_AT_ONCE"


def _kill_on_shard(spec):
    """Picklable stand-in for ``run_shard`` that SIGKILLs its own worker.

    Every shard but the chosen one runs normally.  A dying worker fails
    every unfinished shard of the pool alike, so unless told to die at
    once, the hook first waits until the parent has persisted every
    other shard: the chosen shard is then the only one lost.
    """
    lo, hi = (int(bound) for bound in os.environ[KILL_SHARD].split(","))
    if spec.shard != (lo, hi):
        return run_shard(spec)
    if not os.environ.get(KILL_AT_ONCE):
        store = RunStore(os.environ[KILL_STORE])
        deadline = time.monotonic() + 60.0
        while (
            len(store.load(spec)) < len(BOUNDS) - 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
    os.kill(os.getpid(), signal.SIGKILL)


def _killed_run(monkeypatch, store: str, chosen: tuple[int, int], at_once: bool):
    """Run the scenario on a pool whose worker dies on ``chosen``."""
    with monkeypatch.context() as patch:
        patch.setenv(KILL_SHARD, f"{chosen[0]},{chosen[1]}")
        patch.setenv(KILL_STORE, store)
        patch.setenv(KILL_AT_ONCE, "1" if at_once else "")
        patch.setattr(executor_module, "run_shard", _kill_on_shard)
        with pytest.raises(ShardExecutionError) as excinfo:
            SCENARIO.run(workers=2, cache=store)
    return excinfo.value


def _assert_resumes(store: str, lost: int):
    """A cached rerun re-executes exactly the lost shards, byte-identically."""
    resumed = SCENARIO.run(workers=2, cache=store)
    assert resumed.to_json() == SCENARIO.run(workers=1, cache=False).to_json()
    stats = resumed.stats
    assert stats.shards_total == len(BOUNDS)
    assert stats.shards_cached + stats.shards_executed == stats.shards_total
    assert stats.shards_executed == lost


@pytest.mark.parametrize("position", sorted(POSITIONS))
def test_a_killed_pooled_run_resumes_byte_identically(tmp_path, monkeypatch, position):
    chosen = BOUNDS[POSITIONS[position]]
    store = str(tmp_path / "store")
    error = _killed_run(monkeypatch, store, chosen, at_once=False)
    assert error.shard == chosen
    assert error.unfinished == ((POSITIONS[position], chosen),)
    assert f"[{chosen[0]}, {chosen[1]})" in str(error)
    # Only the lost shard re-executes; the rest come from the store.
    _assert_resumes(store, lost=1)


def test_an_immediate_kill_names_every_unfinished_shard(tmp_path, monkeypatch):
    """Killed at once, the worker takes its in-flight neighbours with it.

    Every future the dead pool failed is named, the killed shard among
    them, and exactly those re-execute on the cached rerun.
    """
    chosen = BOUNDS[0]
    store = str(tmp_path / "store")
    error = _killed_run(monkeypatch, store, chosen, at_once=True)
    named = [bounds for _, bounds in error.unfinished]
    assert chosen in named
    assert [index for index, _ in error.unfinished] == sorted(
        BOUNDS.index(bounds) for bounds in named
    )
    assert (error.index, error.shard) == error.unfinished[0]
    total = len(BOUNDS)
    for index, (lo, hi) in error.unfinished:
        assert f"{index + 1}/{total} [{lo}, {hi})" in str(error)
    _assert_resumes(store, lost=len(error.unfinished))
