"""Parallel experiment runtime: sharded adversary search with a run store.

Every number in the paper's tables is the maximum over an adversarial
configuration space (labels x starts x delays).  This package turns that
one-off serial enumeration into sharded, parallel, resumable *runs*:

* :mod:`repro.runtime.spec` -- serializable job specifications
  (:class:`JobSpec` = algorithm descriptor + graph descriptor + sweep
  parameters + an optional configuration-shard slice), with a canonical
  JSON form and a content hash so work units can cross process boundaries
  and key a cache;
* :mod:`repro.runtime.report` -- shard and merged reports (each a
  :class:`~repro.sim.adversary.WorstCaseReport` plus shard bookkeeping)
  and a deterministic merge whose tie-breaking (lowest configuration
  index wins) makes parallel output bit-identical to the serial
  enumeration;
* :mod:`repro.runtime.worker` -- the pure functions a worker runs:
  rebuild the graph and algorithm from the spec, execute a run of
  abutting shards in one engine pass (one shard on a pool);
* :mod:`repro.runtime.executor` -- shard planning plus
  :class:`SerialExecutor` (which groups abutting shards into passes) and
  :class:`ParallelExecutor` (a ``ProcessPoolExecutor`` pool);
* :mod:`repro.runtime.store` -- a content-addressed run store under
  ``.repro_cache/`` so repeated sweeps skip completed shards and
  interrupted runs resume where they stopped (one append-only JSONL
  file per sweep), plus a query layer answering worst-case questions
  from stored runs;
* :mod:`repro.runtime.runner` -- :func:`execute_job`, the high-level
  entry point gluing planning, cache lookup, execution and merge.
"""

from repro.runtime.executor import (
    DEFAULT_SHARD_COUNT,
    ParallelExecutor,
    SerialExecutor,
    ShardExecutionError,
    make_executor,
    plan_shards,
)
from repro.runtime.report import (
    MergedReport,
    ShardReport,
    merge_reports,
)
from repro.runtime.runner import RunOutcome, RunStats, execute_job
from repro.runtime.spec import AlgorithmSpec, GraphSpec, JobSpec, canonical_json
from repro.runtime.store import (
    CompactionStats,
    RunStore,
    StoredRun,
    query_payload,
    query_runs,
)
from repro.runtime.worker import run_shard, run_shards

__all__ = [
    "AlgorithmSpec",
    "CompactionStats",
    "DEFAULT_SHARD_COUNT",
    "GraphSpec",
    "JobSpec",
    "MergedReport",
    "ParallelExecutor",
    "RunOutcome",
    "RunStats",
    "RunStore",
    "SerialExecutor",
    "ShardExecutionError",
    "ShardReport",
    "StoredRun",
    "canonical_json",
    "execute_job",
    "make_executor",
    "merge_reports",
    "plan_shards",
    "query_payload",
    "query_runs",
    "run_shard",
    "run_shards",
]
