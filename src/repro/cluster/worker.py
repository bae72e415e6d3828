"""The cluster worker: claim shards, execute, publish, repeat.

A worker is a freestanding process (``python -m repro cluster worker``)
pointed at a run directory.  It needs no coordinator to be alive: the
job spec is read from ``job.json``, claims go through the shard queue's
lease files (stealing expired ones), results are atomic file writes, and
the worker exits on its own once every published shard has a result.
Killing a worker at *any* instruction loses nothing -- its lease expires
and a survivor re-executes the shard to the identical report.

Workers never touch the run store: results travel through the queue's
result files, and the coordinating ``execute_job`` appends them to its
resolved :class:`repro.runtime.store.RunStore` as they arrive, so the
store has exactly one writer however many workers a run has.

While a shard executes (which can take arbitrarily long), a daemon
:class:`LeaseKeeper` thread renews the shard lease and beats the
heartbeat file every ``ttl / 3`` seconds, so a *live* worker is never
mistaken for a dead one by the reaper.

Fault injection (test instrumentation, wired through CI and the
kill-matrix suite): set ``REPRO_CLUSTER_FAULT=<point>:<lo>`` in a
worker's environment and the worker executing the shard whose lower
bound is ``<lo>`` SIGKILLs itself at ``<point>`` -- ``after-claim``
(lease held, no work done), ``before-result`` (work done, result
unpublished) or ``after-result`` (result published, lease still held).
An ``O_EXCL`` marker file under ``faults/`` makes each fault fire
exactly once per run, so the survivor that re-claims the shard does not
also die.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.cluster.files import try_create_json
from repro.cluster.heartbeat import HeartbeatFile, default_node_id
from repro.cluster.queue import ClusterError, ShardQueue, ShardTask
from repro.runtime.spec import JobSpec
from repro.runtime.worker import run_shard

#: Environment variable carrying a fault-injection directive.
FAULT_ENV = "REPRO_CLUSTER_FAULT"

#: Where in the claim->execute->publish cycle a fault may fire.
FAULT_POINTS = ("after-claim", "before-result", "after-result")

#: Default lease TTL (seconds).  Local test clusters dial this down.
DEFAULT_TTL = 30.0


def parse_fault(text: "str | None") -> "tuple[str, int] | None":
    """Decode a ``<point>:<lo>`` fault directive (``None`` passes through)."""
    if not text:
        return None
    point, _, lo = text.partition(":")
    if point not in FAULT_POINTS:
        raise ClusterError(
            f"unknown fault point {point!r} in {FAULT_ENV}={text!r}; "
            f"choose from {list(FAULT_POINTS)}"
        )
    try:
        return point, int(lo)
    except ValueError:
        raise ClusterError(
            f"fault directive {FAULT_ENV}={text!r} needs an integer shard "
            f"lower bound after the colon"
        ) from None


def maybe_fault(queue: ShardQueue, point: str, task: ShardTask) -> None:
    """SIGKILL this process if the injected fault matches, once per run.

    SIGKILL (not an exception) is the point: nothing unwinds, no lease is
    released, no finally block runs -- exactly the crash the protocol
    must absorb.  The marker file arbitrates exactly-once across every
    worker in the run.
    """
    directive = parse_fault(os.environ.get(FAULT_ENV))
    if directive is None or directive != (point, task.lo):
        return
    marker = queue.faults_dir / f"{point}-{task.lo}.fired"
    if try_create_json(marker, {"point": point, "lo": task.lo, "pid": os.getpid()}):
        os.kill(os.getpid(), signal.SIGKILL)


@dataclass(frozen=True)
class WorkerConfig:
    """How one worker process behaves (mirrors the CLI flags)."""

    run_dir: "str | Path"
    node: "str | None" = None
    ttl: float = DEFAULT_TTL
    poll: float = 0.2
    max_shards: "int | None" = None
    startup_timeout: float = 60.0


class LeaseKeeper(threading.Thread):
    """Renew one shard lease (and beat) until stopped or lost."""

    def __init__(
        self,
        queue: ShardQueue,
        task: ShardTask,
        owner: str,
        ttl: float,
        heartbeat: HeartbeatFile,
    ):
        super().__init__(daemon=True, name=f"lease-keeper-{task.ident}")
        self.queue = queue
        self.task = task
        self.owner = owner
        self.ttl = ttl
        self.heartbeat = heartbeat
        self.lost = False
        self._halt = threading.Event()

    def run(self) -> None:
        interval = max(self.ttl / 3.0, 0.05)
        while not self._halt.wait(interval):
            lease = self.queue.renew(self.task, self.owner, self.ttl)
            if lease is None:
                # Stolen (we stalled past the TTL) or released under us.
                # Keep executing: duplicate execution is safe, and our
                # atomic result write is idempotent.  Just say so.
                self.lost = True
                self.heartbeat.warn(
                    f"lost lease on shard {self.task}", shard=self.task.ident
                )
                return
            self.heartbeat.beat("executing", shard=self.task.ident)

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=self.ttl)


def _wait_for_job(queue: ShardQueue, timeout: float, poll: float) -> JobSpec:
    # repro: allow(REP001): startup/poll deadlines are liveness decisions,
    # not data; shard content is computed by the deterministic worker path.
    deadline = time.monotonic() + timeout
    while True:
        try:
            return queue.load_spec()
        except ClusterError:
            if time.monotonic() >= deadline:  # repro: allow(REP001)
                raise ClusterError(
                    f"no job appeared under {queue.run_dir} within "
                    f"{timeout:.0f}s; is the coordinator running?"
                ) from None
            time.sleep(poll)


def work(config: WorkerConfig) -> int:
    """Run the worker loop to completion; returns shards executed.

    Exits when every published task has a result, or after
    ``max_shards`` claims (used by tests to stage partial progress).
    Waiting states poll: claims race through lease files, never locks.
    """
    queue = ShardQueue(config.run_dir)
    node = config.node if config.node is not None else default_node_id("worker")
    spec = _wait_for_job(queue, config.startup_timeout, config.poll)
    executed = 0
    with HeartbeatFile(
        queue.heartbeats_dir / f"{node}.jsonl", node, "worker"
    ) as heartbeat:
        heartbeat.event("node.start")
        while True:
            if queue.finished():
                break
            if config.max_shards is not None and executed >= config.max_shards:
                break
            claimed = queue.claim(node, config.ttl)
            if claimed is None:
                heartbeat.beat("waiting")
                time.sleep(config.poll)
                continue
            task, _lease = claimed
            heartbeat.event("shard.claimed", shard=task.ident)
            maybe_fault(queue, "after-claim", task)
            keeper = LeaseKeeper(queue, task, node, config.ttl, heartbeat)
            keeper.start()
            try:
                report = run_shard(spec.shard_spec(task.lo, task.hi))
            finally:
                keeper.stop()
            maybe_fault(queue, "before-result", task)
            queue.complete(task, report, owner=node)
            executed += 1
            heartbeat.event("shard.done", shard=task.ident)
            maybe_fault(queue, "after-result", task)
        heartbeat.event("node.exit", executed=executed)
    return executed


def worker_command(
    root: "str | Path",
    run_id: str,
    *,
    node: "str | None" = None,
    ttl: float = DEFAULT_TTL,
    poll: float = 0.2,
    max_shards: "int | None" = None,
) -> "list[str]":
    """The argv that launches this worker as a freestanding process."""
    import sys

    argv = [
        sys.executable,
        "-m",
        "repro",
        "cluster",
        "worker",
        "--run-id",
        run_id,
        "--root",
        str(root),
        "--ttl",
        str(ttl),
        "--poll",
        str(poll),
    ]
    if node is not None:
        argv.extend(["--node", node])
    if max_shards is not None:
        argv.extend(["--max-shards", str(max_shards)])
    return argv


__all__ = [
    "DEFAULT_TTL",
    "FAULT_ENV",
    "FAULT_POINTS",
    "LeaseKeeper",
    "WorkerConfig",
    "maybe_fault",
    "parse_fault",
    "work",
    "worker_command",
]
