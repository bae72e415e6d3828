"""Shard planning and the executor layer (serial and process-pool).

Shard boundaries are a function of the configuration-space size only --
*not* of the worker count -- so a sweep cached by a serial run is hit by a
parallel rerun and vice versa, and any worker count replays the same
shards from the :class:`repro.runtime.store.RunStore`.  Executors yield
shard reports as they complete (the parallel one out of order); callers
that need determinism get it from
:func:`repro.runtime.report.merge_reports`, which is order-insensitive.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Iterator, Protocol, Sequence

from repro.runtime.report import ShardReport
from repro.runtime.spec import JobSpec
from repro.runtime.worker import run_shard

#: Default number of shards per sweep.  Fixed (rather than derived from
#: the worker count) so cache entries survive ``--workers`` changes, and
#: large enough to keep a typical pool busy with work-stealing slack.
DEFAULT_SHARD_COUNT = 16


class ShardExecutionError(RuntimeError):
    """A worker process died while executing one shard.

    Wraps the pool's bare ``BrokenProcessPool`` with what the caller
    actually needs: *which* shard was in flight, and that completed
    shards are already persisted -- a cached rerun resumes from them
    rather than starting over.
    """

    def __init__(self, spec: JobSpec, index: int, total: int):
        self.shard = spec.shard
        self.index = index
        bounds = f"[{spec.shard[0]}, {spec.shard[1]})" if spec.shard else "?"
        super().__init__(
            f"worker process died executing shard {index + 1}/{total} "
            f"(configurations {bounds}); completed shards are kept by the "
            f"run store -- rerun with caching enabled (the default --cache) "
            f"to resume, or use `python -m repro cluster run` for "
            f"fault-tolerant execution"
        )


def plan_shards(
    total: int,
    shard_count: int | None = None,
    shard_size: int | None = None,
) -> list[tuple[int, int]]:
    """Split ``[0, total)`` into contiguous shard bounds.

    With ``shard_size`` set, chunks of that size are cut; otherwise the
    space is split into ``shard_count`` (default 16) near-equal parts.
    Either way no shard is ever empty: ``shard_count`` larger than the
    space clamps to one configuration per shard rather than planning
    zero-width ``[lo, lo)`` shards (which would poison the run store
    with keys no execution ever fills).
    """
    if total < 0:
        raise ValueError(f"configuration-space size must be >= 0, got {total}")
    if shard_count is not None and shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    if total == 0:
        return []
    if shard_size is not None:
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        return [(lo, min(lo + shard_size, total)) for lo in range(0, total, shard_size)]
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
    """Anything that can turn shard specs into shard reports."""

    def map_shards(self, specs: Sequence[JobSpec]) -> Iterator[ShardReport]:
        ...


class SerialExecutor:
    """Run shards in-process, one after another, in submission order."""

    workers = 1

    def map_shards(self, specs: Sequence[JobSpec]) -> Iterator[ShardReport]:
        for spec in specs:
            yield run_shard(spec)

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
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    try:
                        yield future.result()
                    except BrokenProcessPool:
                        # A dead pool poisons this executor: drop it so a
                        # caller that catches the error and retries gets
                        # a fresh pool instead of the same broken one.
                        self.close()
                        index, spec = submitted[future]
                        raise ShardExecutionError(
                            spec, index, len(specs)
                        ) from None
        finally:
            # An abandoned iteration (break / exception / GeneratorExit)
            # must not leave queued shards burning CPU in the background.
            for future in pending:
                future.cancel()

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
    """The conventional mapping from a ``--workers`` flag to an executor."""
    if workers is None or workers <= 1:
        return SerialExecutor()
    return ParallelExecutor(workers)
