"""Shard planning and the executor layer (serial and process-pool).

Whenever a :class:`repro.runtime.store.RunStore` is attached, shard
boundaries are a function of the configuration-space size only -- *not*
of the worker count -- so a sweep cached by a serial run is hit by a
parallel rerun and vice versa, and any worker count replays the same
shards from the store.  A serial run without a store is one shard (see
:func:`repro.runtime.runner.execute_job`): with no store to resume from
and no pool to balance, more shards only repeat per-shard costs.
The plan sets what is *recorded* -- one report per shard, which is the
run store's resume unit -- while the executor decides what is *computed*
in one pass: the serial executor runs each maximal run of abutting
shards of one sweep (up to :data:`_PASS_CONFIGS` configurations) in one
engine pass (:func:`repro.runtime.worker.run_shards`), and the pool
submits one shard per task.
Executors yield shard reports as they complete (the parallel one out of
order); callers that need determinism get it from
:func:`repro.runtime.report.merge_reports`, which is order-insensitive.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Iterator, Protocol, Sequence

from repro.runtime.report import ShardReport
from repro.runtime.spec import JobSpec
from repro.runtime.worker import run_shard, run_shards

#: Default number of shards per sweep with a store or a pool.  Fixed
#: (rather than derived from the worker count) so cache entries survive
#: ``--workers`` changes, and large enough to keep a typical pool busy
#: with work-stealing slack.  A serial run without a store plans one.
DEFAULT_SHARD_COUNT = 16

#: The most configurations one serial engine pass groups; a shard larger
#: than this runs alone.  It bounds what an interrupted serial sweep
#: loses: the reports of a pass reach the run store when the pass ends.
_PASS_CONFIGS = 4096


class ShardExecutionError(RuntimeError):
    """A worker process died, and the shards still unfinished were lost.

    Wraps the pool's bare ``BrokenProcessPool`` with what the caller
    actually needs: *which* shards did not finish, and that a run store,
    when one is in use, already holds the completed shards -- a cached
    rerun resumes from them rather than starting over.  A dying worker
    fails every unfinished shard of the pool alike, so the one it was
    executing cannot be told apart from those queued or running beside
    it: ``unfinished`` lists them all as ``(index, bounds)`` in plan
    order, and ``index``/``shard`` name the first.
    """

    def __init__(self, unfinished: Sequence[tuple[int, JobSpec]], total: int):
        self.unfinished = tuple(
            (index, spec.shard) for index, spec in sorted(unfinished)
        )
        self.index, self.shard = self.unfinished[0]
        lost = ", ".join(
            f"{index + 1}/{total} [{shard[0]}, {shard[1]})" if shard else "?"
            for index, shard in self.unfinished
        )
        super().__init__(
            f"worker process died; {len(self.unfinished)} shard(s) did not "
            f"finish (configurations {lost}); completed shards are kept only "
            f"when a run store is in use (the default --cache), so a cached "
            f"rerun resumes from them"
        )


def plan_shards(
    total: int, shard_count: int | None = None
) -> list[tuple[int, int]]:
    """Split ``[0, total)`` into ``shard_count`` (default 16) near-equal
    contiguous shards.

    No shard is ever empty: ``shard_count`` larger than the space clamps
    to one configuration per shard rather than planning zero-width
    ``[lo, lo)`` shards (which would poison the run store with keys no
    execution ever fills).
    """
    if total < 0:
        raise ValueError(f"configuration-space size must be >= 0, got {total}")
    if shard_count is not None and shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    if total == 0:
        return []
    count = min(total, shard_count if shard_count is not None else DEFAULT_SHARD_COUNT)
    base, extra = divmod(total, count)
    bounds = []
    lo = 0
    for i in range(count):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


class Executor(Protocol):
    """Anything that can turn shard specs into shard reports.

    ``workers`` is how many shards it can run at once; one means serial.
    """

    workers: int

    def map_shards(self, specs: Sequence[JobSpec]) -> Iterator[ShardReport]:
        ...


def _passes(specs: Sequence[JobSpec]) -> Iterator[list[JobSpec]]:
    """The specs cut into maximal runs of abutting shards of one sweep.

    A run grows while the next shard starts where the last one ends,
    belongs to the same sweep and keeps the run within
    :data:`_PASS_CONFIGS` configurations.
    """
    run: list[JobSpec] = []
    configs = 0
    for spec in specs:
        last, shard = run[-1].shard if run else None, spec.shard
        if (
            last is not None
            and shard is not None
            and last[1] == shard[0]
            and configs + shard[1] - shard[0] <= _PASS_CONFIGS
            and spec.same_sweep(run[0])
        ):
            run.append(spec)
        else:
            if run:
                yield run
            run, configs = [spec], 0
        if shard is not None:
            configs += shard[1] - shard[0]
    if run:
        yield run


class SerialExecutor:
    """Run shards in-process, in submission order, one pass per run of
    abutting shards (see :func:`_passes`)."""

    workers = 1

    def map_shards(self, specs: Sequence[JobSpec]) -> Iterator[ShardReport]:
        for run in _passes(specs):
            yield from run_shards(run)

    def close(self) -> None:
        """Nothing to release; present so callers can close uniformly."""

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ParallelExecutor:
    """Fan shards out to a ``ProcessPoolExecutor``.

    Reports are yielded as shards finish, so a caller persisting them to
    the run store checkpoints continuously -- an interrupted run loses at
    most the in-flight shards.  With one worker (or one shard) it degrades
    to the serial path rather than paying pool overhead.

    The pool is created lazily on first use and *reused* across
    :meth:`map_shards` calls, so a sweep over many jobs pays process
    startup once, not once per job.  Call :meth:`close` (or use the
    executor as a context manager) when done; the high-level entry points
    close executors they created themselves.
    """

    def __init__(self, workers: int | None = None):
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError(f"need at least one worker, got {self.workers}")
        self._pool: ProcessPoolExecutor | None = None

    def _get_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def map_shards(self, specs: Sequence[JobSpec]) -> Iterator[ShardReport]:
        specs = list(specs)
        if self.workers == 1 or len(specs) <= 1:
            yield from SerialExecutor().map_shards(specs)
            return
        pool = self._get_pool()
        submitted = {pool.submit(run_shard, spec): (index, spec)
                     for index, spec in enumerate(specs)}
        pending = set(submitted)
        # A dead worker fails every unfinished future; the reports that
        # did complete are still handed over before the error names the
        # lost shards.
        lost: list[tuple[int, JobSpec]] = []
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    try:
                        report = future.result()
                    except BrokenProcessPool:
                        lost.append(submitted[future])
                        continue
                    yield report
        finally:
            # An abandoned iteration (break / exception / GeneratorExit)
            # must not leave queued shards burning CPU in the background.
            for future in pending:
                future.cancel()
            if lost:
                # A dead pool poisons this executor: drop it so a caller
                # that catches the error and retries gets a fresh pool
                # instead of the same broken one.
                self.close()
        if lost:
            raise ShardExecutionError(lost, len(specs))

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __del__(self) -> None:
        # Safety net for callers written against the old per-call pool
        # lifetime that never call close(): release worker processes at
        # GC instead of holding them until interpreter exit.
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ParallelExecutor(workers={self.workers})"


def make_executor(workers: int | None) -> "SerialExecutor | ParallelExecutor":
    """The conventional mapping from a ``--workers`` flag to an executor.

    The one check every API entry point's worker count passes: a count
    below one is refused, not run serially.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers is None or workers == 1:
        return SerialExecutor()
    return ParallelExecutor(workers)
