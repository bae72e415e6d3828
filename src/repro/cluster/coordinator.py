"""The cluster coordinator: publish shards, watch leases, collect results.

:class:`ClusterExecutor` implements the runtime's ``Executor`` protocol
(``map_shards(specs) -> Iterator[ShardReport]``), which is the whole
integration trick: :func:`repro.runtime.runner.execute_job` keeps doing
what it always does -- plan shards, subtract what the content-addressed
run store already holds, merge deterministically -- and only the *missing*
shards ever reach the queue.  Crash-resumability therefore composes from
two independent layers: the run store resumes across coordinator
restarts (re-running a killed campaign republishes only the still-missing
shards), and the lease protocol resumes within a run (a killed worker's
shards are re-claimed by survivors).  Byte-identity of the merged report
is inherited, not re-proven: the queue yields the same ``ShardReport``
values a serial executor would compute.  The coordinating
``execute_job`` is the store's only writer: it appends fresh shards to
the run's :class:`repro.runtime.store.RunStore`, so cluster runs publish
into the same store serial and pool runs do.

The coordinator itself holds a lease (``coordinator.lease``).  A second
coordinator pointed at the same run directory refuses to start while
that lease is live, and *adopts* the run -- takeover -- once it expires:
republish (idempotent), reap, resume collecting.  Workers never need the
coordinator alive; it is a convenience that spawns local workers, reaps
expired leases centrally, and turns files appearing on disk back into an
iterator of reports.
"""

from __future__ import annotations

# repro: allow-file(REP001) -- stall detection, lease reaping and worker
# wait deadlines are wall-clock decisions by design; the canonical merge
# is delegated to runtime.runner and never sees these clocks.

import os
import subprocess
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from repro.cluster.files import acquire_lease, read_lease, release_lease, renew_lease
from repro.cluster.heartbeat import HeartbeatFile, default_node_id, live_nodes
from repro.cluster.queue import (
    DEFAULT_CLUSTER_ROOT,
    ClusterError,
    ShardQueue,
    ShardTask,
)
from repro.cluster.worker import DEFAULT_TTL, worker_command
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.runtime.report import ShardReport
from repro.runtime.spec import JobSpec


@dataclass(frozen=True)
class ClusterConfig:
    """How a cluster run is laid out and paced.

    ``workers`` local worker processes are spawned per run (0 means
    none -- external workers, started by hand or on other hosts against
    the same ``root``, do all the executing).  ``run_id=None`` derives a
    fresh id per sweep from the sweep key; pin it only to adopt or join
    one specific run.  ``ttl`` is the lease time-to-live -- the failure
    detection horizon: a killed worker's shards come back after at most
    ``ttl`` seconds.  ``stall_timeout`` bounds how long the coordinator
    tolerates *zero progress* while no live worker exists (``None``
    waits forever, for externally-staffed runs).
    """

    workers: int = 2
    root: "str | None" = None
    run_id: "str | None" = None
    ttl: float = DEFAULT_TTL
    poll: float = 0.1
    stall_timeout: "float | None" = None
    node: "str | None" = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.ttl <= 0:
            raise ValueError(f"ttl must be positive, got {self.ttl}")
        if self.poll <= 0:
            raise ValueError(f"poll must be positive, got {self.poll}")


class ClusterExecutor:
    """Drive shard specs through a filesystem work queue.

    Satisfies the :class:`repro.runtime.executor.Executor` protocol, so
    it drops into :meth:`Scenario.run`, :class:`Campaign` and
    ``execute_job`` wherever a process pool would go.  One
    ``map_shards`` call is one published run; with ``run_id=None`` each
    sweep gets its own run directory, so a single executor instance can
    serve a whole campaign.
    """

    def __init__(
        self,
        config: "ClusterConfig | None" = None,
        telemetry: Telemetry = NULL_TELEMETRY,
    ):
        self.config = config if config is not None else ClusterConfig()
        self.telemetry = telemetry
        self.node = (
            self.config.node
            if self.config.node is not None
            else default_node_id("coordinator")
        )
        self.root = Path(
            self.config.root if self.config.root is not None else DEFAULT_CLUSTER_ROOT
        )
        #: The directory of the most recently published run (CLI surfaces
        #: report/status paths from it after a run completes).
        self.run_dir: "Path | None" = None
        self.run_id: "str | None" = None
        #: Recorded in ``job.json`` as the plan hint an adopting
        #: coordinator defaults its ``--shards`` to (the runner owns the
        #: actual plan; the executor only sees the missing shards).
        self.publish_shard_count: "int | None" = None
        #: Display-name hint recorded alongside it (``run_job``'s
        #: ``graph_name``), purely so adopted rows label identically.
        self.publish_graph_name: "str | None" = None
        self._procs: "list[subprocess.Popen]" = []
        self._queue: "ShardQueue | None" = None

    # -- protocol attribute (parallels Serial/ParallelExecutor.workers)
    @property
    def workers(self) -> int:
        return self.config.workers

    # ------------------------------------------------------------------
    # Executor protocol
    # ------------------------------------------------------------------

    def map_shards(self, specs: Sequence[JobSpec]) -> Iterator[ShardReport]:
        specs = list(specs)
        if not specs:
            return
        sweep = specs[0].sweep_spec()
        tasks = []
        for spec in specs:
            if spec.shard is None:
                raise ClusterError(
                    "cluster execution needs sharded specs; got a sweep spec"
                )
            if spec.sweep_spec().key() != sweep.key():
                raise ClusterError(
                    "one map_shards call must carry shards of one sweep; "
                    f"got {spec.sweep_spec().key()[:12]} alongside "
                    f"{sweep.key()[:12]}"
                )
            tasks.append(ShardTask(spec.shard[0], spec.shard[1]))

        run_id = (
            self.config.run_id
            if self.config.run_id is not None
            else f"{sweep.key()[:12]}-{uuid.uuid4().hex[:8]}"
        )
        queue = ShardQueue(self.root / run_id)
        self.run_dir, self.run_id, self._queue = queue.run_dir, run_id, queue
        self._acquire_coordination(queue)
        created = queue.publish(
            sweep,
            [task.bounds for task in tasks],
            shard_count=self.publish_shard_count,
            graph_name=self.publish_graph_name,
        )
        self.telemetry.event(
            "cluster.published",
            run_id=run_id,
            shards=len(tasks),
            new=created,
            workers=self.config.workers,
        )
        heartbeat = HeartbeatFile(
            queue.heartbeats_dir / f"{self.node}.jsonl", self.node, "coordinator"
        )
        heartbeat.event("node.start", run_id=run_id)
        self._spawn_workers(run_id)
        try:
            yield from self._collect(queue, tasks, heartbeat)
            heartbeat.event("node.exit")
        finally:
            heartbeat.close()
            self._finish_run(queue)

    def _collect(
        self,
        queue: ShardQueue,
        tasks: "list[ShardTask]",
        heartbeat: HeartbeatFile,
    ) -> Iterator[ShardReport]:
        pending = {task: True for task in tasks}  # insertion-ordered set
        last_progress = time.monotonic()
        while pending:
            lease = renew_lease(
                queue.coordinator_lease_path, self.node, self.config.ttl
            )
            if lease is None:
                # Expired and possibly adopted while we stalled; the run
                # still completes (results are append-only), so keep
                # collecting, but say so loudly.
                self.telemetry.warn(
                    f"coordinator lease lost on run {self.run_id}"
                )
                acquire_lease(
                    queue.coordinator_lease_path, self.node, self.config.ttl
                )
            for task, stale in queue.reap_expired():
                self.telemetry.event(
                    "shard.requeued",
                    lo=task.lo,
                    hi=task.hi,
                    owner=stale.owner,
                )
                heartbeat.event(
                    "shard.requeued", shard=task.ident, owner=stale.owner
                )
            progressed = False
            for task in list(pending):
                report = queue.result(task)
                if report is not None:
                    del pending[task]
                    progressed = True
                    yield report
            if progressed:
                last_progress = time.monotonic()
                heartbeat.beat("collecting")
            if not pending:
                return
            self._reap_local_workers()
            self._check_liveness(queue, pending, last_progress)
            time.sleep(self.config.poll)

    # ------------------------------------------------------------------
    # Coordinator lease / takeover
    # ------------------------------------------------------------------

    def _acquire_coordination(self, queue: ShardQueue) -> None:
        path = queue.coordinator_lease_path
        previous = read_lease(path)
        lease = acquire_lease(path, self.node, self.config.ttl)
        if lease is None:
            current = read_lease(path)
            owner = current.owner if current is not None else "unknown"
            raise ClusterError(
                f"run {queue.run_dir} already has a live coordinator "
                f"({owner}); wait for its lease to expire (ttl "
                f"{self.config.ttl:.0f}s) or use a different --run-id"
            )
        if previous is not None and previous.owner != self.node:
            self.telemetry.event(
                "coordinator.takeover",
                run_id=queue.run_dir.name,
                previous=previous.owner,
            )

    # ------------------------------------------------------------------
    # Local worker processes
    # ------------------------------------------------------------------

    def _spawn_workers(self, run_id: str) -> None:
        if self.config.workers <= 0:
            return
        import repro

        env = dict(os.environ)
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        for index in range(self.config.workers):
            argv = worker_command(
                self.root,
                run_id,
                node=f"{self.node}-w{index}",
                ttl=self.config.ttl,
                poll=self.config.poll,
            )
            self._procs.append(
                subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
            )

    def _reap_local_workers(self) -> None:
        for proc in self._procs:
            proc.poll()

    def _check_liveness(
        self,
        queue: ShardQueue,
        pending: "Mapping[ShardTask, Any]",
        last_progress: float,
    ) -> None:
        stalled_for = time.monotonic() - last_progress
        if (
            self.config.stall_timeout is not None
            and stalled_for > self.config.stall_timeout
        ):
            raise ClusterError(
                f"no shard completed for {stalled_for:.0f}s on run "
                f"{self.run_id} ({len(pending)} shards pending); "
                f"{self._resume_hint()}"
            )
        if self.config.workers <= 0:
            return  # externally staffed: workers may join at any time
        if any(proc.returncode is None for proc in self._procs):
            return
        # Every local worker is dead.  Give leases and heartbeats one TTL
        # of grace before declaring the run stranded: external workers
        # or duplicate executions may still be in flight.
        now = queue.clock()
        if any(
            (lease := queue.lease_of(task)) is not None
            and not lease.expired(now)
            for task in pending
        ):
            return
        if live_nodes(queue.heartbeats_dir, self.config.ttl * 2):
            return
        if stalled_for < self.config.ttl * 2:
            return
        remaining = ", ".join(str(task) for task in list(pending)[:4])
        more = len(pending) - min(len(pending), 4)
        raise ClusterError(
            f"all workers of run {self.run_id} died with {len(pending)} "
            f"shards unfinished ({remaining}{f' and {more} more' if more else ''}); "
            f"{self._resume_hint()}"
        )

    def _resume_hint(self) -> str:
        return (
            f"completed shards are preserved -- resume with "
            f"`python -m repro cluster coordinator --run-id {self.run_id}` "
            f"or add workers with `python -m repro cluster worker "
            f"--run-id {self.run_id}`"
        )

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def _finish_run(self, queue: ShardQueue) -> None:
        self._terminate_workers()
        release_lease(queue.coordinator_lease_path, self.node)

    def _terminate_workers(self) -> None:
        for proc in self._procs:
            if proc.returncode is None:
                proc.terminate()
        deadline = time.monotonic() + 5.0
        for proc in self._procs:
            if proc.returncode is None:
                try:
                    proc.wait(timeout=max(0.0, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        self._procs = []

    def close(self) -> None:
        """Terminate local workers and drop the coordinator lease."""
        self._terminate_workers()
        if self._queue is not None:
            release_lease(self._queue.coordinator_lease_path, self.node)

    def __enter__(self) -> "ClusterExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ClusterExecutor(workers={self.config.workers}, "
            f"root={str(self.root)!r}, run_id={self.config.run_id!r})"
        )


def resolve_cluster(
    cluster: Any, telemetry: Telemetry = NULL_TELEMETRY
) -> "ClusterExecutor | None":
    """Map :meth:`Scenario.run`'s ``cluster`` argument to an executor.

    ``None``/``False`` disable cluster execution; ``True`` uses the
    default :class:`ClusterConfig`; an ``int`` is a local worker count; a
    mapping holds :class:`ClusterConfig` fields; a config or an executor
    pass through.  Executors built *here* are owned by the caller that
    resolved them (and must be closed); a passed-in executor stays open.
    """
    if cluster is None or cluster is False:
        return None
    if cluster is True:
        return ClusterExecutor(ClusterConfig(), telemetry=telemetry)
    if isinstance(cluster, bool):  # pragma: no cover - exhausted above
        return None
    if isinstance(cluster, int):
        return ClusterExecutor(ClusterConfig(workers=cluster), telemetry=telemetry)
    if isinstance(cluster, Mapping):
        return ClusterExecutor(ClusterConfig(**cluster), telemetry=telemetry)
    if isinstance(cluster, ClusterConfig):
        return ClusterExecutor(cluster, telemetry=telemetry)
    if isinstance(cluster, ClusterExecutor):
        if cluster.telemetry is NULL_TELEMETRY:
            cluster.telemetry = telemetry
        return cluster
    raise TypeError(
        f"cluster must be None/bool/int/dict/ClusterConfig/ClusterExecutor, "
        f"got {type(cluster).__name__}"
    )


__all__ = [
    "ClusterConfig",
    "ClusterError",
    "ClusterExecutor",
    "resolve_cluster",
]
