"""Answer worst-case and tradeoff questions from stored runs.

The store already holds every completed shard of every sweep; this
module turns those records into answers without re-executing anything:
filter the stored sweeps (:func:`query_runs`), merge each one's shards
with the same :func:`repro.runtime.report.merge_reports` a live run
uses, and report the merged extremes.  Because the merge discards the
non-canonical ``timing`` section and the entries are sorted by content
key, the same stored sweeps produce byte-identical query payloads
whatever order they were written in -- the crown-jewel invariant,
extended to queries.
"""

from __future__ import annotations

from typing import Any

from repro.runtime.report import merge_reports
from repro.runtime.spec import canonical_json
from repro.runtime.store.jsonl import RunStore


def query_runs(
    store: RunStore,
    *,
    algorithm: str | None = None,
    graph: str | None = None,
    engine: str | None = None,
    label_space: int | None = None,
) -> list[dict[str, Any]]:
    """Stored sweeps matching the filters, each merged to its extremes.

    ``algorithm`` filters on the algorithm name, ``graph`` on the graph
    family (``ring``, ``path``, ...), ``engine`` on the spec's engine and
    ``label_space`` on the algorithm's label-space size; ``None`` matches
    anything.  Sweeps with no completed shards yet (a header and nothing
    else) are skipped: they have no extremes to report.  Entries come
    back sorted by (sweep_key, library, format), so the listing is
    stable across insertion orders.
    """
    entries: list[dict[str, Any]] = []
    for run in store.iter_runs():
        if not run.shards:
            continue
        if algorithm is not None and run.algorithm != algorithm:
            continue
        if graph is not None and run.graph_family != graph:
            continue
        if engine is not None and run.engine != engine:
            continue
        if label_space is not None and run.label_space != label_space:
            continue
        merged = merge_reports(run.shards.values())
        entries.append(
            {
                "sweep_key": run.sweep_key,
                "library": run.library,
                "format": run.format,
                "algorithm": run.algorithm,
                "graph": run.spec["graph"],
                "engine": run.engine,
                "label_space": run.label_space,
                "spec": run.spec,
                "result": merged.to_dict(),
            }
        )
    entries.sort(key=lambda e: (e["sweep_key"], e["library"], e["format"]))
    return entries


def query_payload(
    store: RunStore,
    *,
    algorithm: str | None = None,
    graph: str | None = None,
    engine: str | None = None,
    label_space: int | None = None,
) -> dict[str, Any]:
    """The canonical query answer: the filters asked, the runs found.

    Deliberately omits the store root: the payload describes the stored
    computations, not the bytes holding them, so two stores holding the
    same sweeps answer identically.
    """
    runs = query_runs(
        store,
        algorithm=algorithm,
        graph=graph,
        engine=engine,
        label_space=label_space,
    )
    return {
        "query": {
            "algorithm": algorithm,
            "graph": graph,
            "engine": engine,
            "label_space": label_space,
        },
        "result": {"count": len(runs), "runs": runs},
    }


def render_query_lines(payload: dict[str, Any]) -> list[str]:
    """Human-readable lines for a :func:`query_payload` answer."""
    runs = payload["result"]["runs"]
    lines = [f"{len(runs)} stored run(s) match"]
    for entry in runs:
        graph = entry["graph"]
        params = ",".join(f"{k}={v}" for k, v in sorted(graph["params"].items()))
        result = entry["result"]
        worst_time = result["worst_time"]
        worst_cost = result["worst_cost"]
        extremes = (
            "no successful execution"
            if worst_time is None
            else (
                f"worst time {worst_time['time']}"
                f" worst cost {worst_cost['cost']}"
            )
        )
        lines.append(
            f"  {entry['algorithm']} on {graph['family']}({params})"
            f" L={entry['label_space']} engine={entry['engine']}:"
            f" {result['executions']} executions over"
            f" {result['shards']} shard(s); {extremes}"
            f" [{entry['sweep_key'][:12]}]"
        )
    return lines


def query_json(payload: dict[str, Any]) -> str:
    """The payload as canonical JSON (sorted keys, no whitespace)."""
    return canonical_json(payload)
