"""Content-addressed on-disk store of completed shards.

The store persists every completed shard keyed by the content hash of
its sweep spec, so interrupted or repeated runs resume instead of
recomputing.  :class:`RunStore` keeps one append-only JSONL file per
sweep under ``runs/``, written with single ``O_APPEND`` syscalls
(:mod:`repro.runtime.store.jsonl`); :mod:`repro.runtime.store.query`
answers worst-case questions from its contents without re-executing
anything.
"""

from __future__ import annotations

from repro.runtime.store.jsonl import (
    _FORMAT_VERSION,
    DEFAULT_CACHE_DIR,
    CompactionStats,
    RunStore,
    StoredRun,
    _library_version,
)
from repro.runtime.store.query import (
    query_json,
    query_payload,
    query_runs,
    render_query_lines,
)

#: The store class by on-disk format.  Not an option: nothing selects
#: through it.  The benchmark's layer tracer (``perfbench/layers.py``)
#: finds the store methods it times here.
BACKENDS = {"jsonl": RunStore}

__all__ = [
    "CompactionStats",
    "DEFAULT_CACHE_DIR",
    "RunStore",
    "StoredRun",
    "query_json",
    "query_payload",
    "query_runs",
    "render_query_lines",
    "_FORMAT_VERSION",
    "_library_version",
]
