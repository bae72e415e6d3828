"""The telemetry event schema: validation, summaries, and timing strippers.

Every event is a flat JSON object with two required fields -- ``ev`` (the
kind) and ``ts`` (seconds since the run's telemetry epoch) -- plus the
kind's own required fields:

======== ==============================================================
kind      required fields
======== ==============================================================
meta      ``schema`` (int), ``library`` (str)
span_start ``name`` (str), ``span`` (int), ``parent`` (int or null)
span_end  ``name`` (str), ``span`` (int), ``seconds`` (number)
counter   ``name`` (str), ``delta`` (number), ``value`` (number)
gauge     ``name`` (str), ``value``
event     ``name`` (str)
progress  ``name`` (str), ``done`` (number), ``total`` (number or null)
message   ``text`` (str)
warning   ``message`` (str)
close     ``seconds`` (number), ``counters`` (object)
======== ==============================================================

``span_start``/``event``/``warning`` may carry an optional ``attrs``
object.  :func:`validate_events` checks each event against this table
plus the structural rules (a ``meta`` header first, spans properly
paired); ``python -m repro telemetry summary --check`` is a thin CLI
over it.  :func:`summarize` folds a valid stream into the per-phase /
per-shard breakdown :func:`render_summary` prints.

:func:`strip_timing` is the other half of the inertness contract: it
removes every (non-canonical) ``timing`` section from a report payload,
so CI can compare telemetry-on and telemetry-off campaign JSON byte for
byte.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from repro.obs.telemetry import SCHEMA_VERSION

#: ``kind -> {field: allowed types}`` beyond the shared ``ev``/``ts``.
_REQUIRED: dict[str, dict[str, tuple[type, ...]]] = {
    "meta": {"schema": (int,), "library": (str,)},
    "span_start": {"name": (str,), "span": (int,), "parent": (int, type(None))},
    "span_end": {"name": (str,), "span": (int,), "seconds": (int, float)},
    "counter": {"name": (str,), "delta": (int, float), "value": (int, float)},
    "gauge": {"name": (str,), "value": (object,)},
    "event": {"name": (str,)},
    "progress": {
        "name": (str,),
        "done": (int, float),
        "total": (int, float, type(None)),
    },
    "message": {"text": (str,)},
    "warning": {"message": (str,)},
    "close": {"seconds": (int, float), "counters": (dict,)},
}

EVENT_KINDS = tuple(_REQUIRED)

#: Cluster lifecycle event names (kind ``event``), as emitted by
#: :mod:`repro.cluster` through scenario telemetry and per-node
#: heartbeat files: run publication, lease requeues after worker death,
#: and coordinator takeover of an orphaned run.
CLUSTER_EVENTS = (
    "cluster.published",
    "shard.requeued",
    "coordinator.takeover",
)


def validate_event(event: Any, position: int = 0) -> list[str]:
    """Schema errors of one event (empty when valid)."""
    where = f"event {position}"
    if not isinstance(event, Mapping):
        return [f"{where}: not an object: {event!r}"]
    errors = []
    kind = event.get("ev")
    if kind not in _REQUIRED:
        return [f"{where}: unknown kind {kind!r}; expected one of {list(EVENT_KINDS)}"]
    ts = event.get("ts")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
        errors.append(f"{where} ({kind}): ts must be a non-negative number, got {ts!r}")
    for field, types in _REQUIRED[kind].items():
        if field not in event:
            errors.append(f"{where} ({kind}): missing required field {field!r}")
        elif object not in types and not isinstance(event[field], types):
            errors.append(
                f"{where} ({kind}): field {field!r} has type "
                f"{type(event[field]).__name__}, expected "
                f"{'/'.join(t.__name__ for t in types)}"
            )
    if "attrs" in event and not isinstance(event["attrs"], Mapping):
        errors.append(f"{where} ({kind}): attrs must be an object")
    return errors


def validate_events(events: Sequence[Any]) -> list[str]:
    """Schema plus structural errors of a whole event stream.

    Structural rules: the stream opens with a ``meta`` event of the
    current :data:`~repro.obs.telemetry.SCHEMA_VERSION`, and every span
    is properly paired (an end for every start, matching names, no end
    without a start).
    """
    errors: list[str] = []
    for position, event in enumerate(events):
        errors.extend(validate_event(event, position))
    if errors:
        return errors
    if not events:
        return ["empty event stream (no meta header)"]
    head = events[0]
    if head["ev"] != "meta":
        errors.append(f"first event must be 'meta', got {head['ev']!r}")
    elif head["schema"] != SCHEMA_VERSION:
        errors.append(
            f"schema version {head['schema']} is not the supported "
            f"{SCHEMA_VERSION}"
        )
    open_spans: dict[int, str] = {}
    for position, event in enumerate(events):
        if event["ev"] == "span_start":
            open_spans[event["span"]] = event["name"]
        elif event["ev"] == "span_end":
            name = open_spans.pop(event["span"], None)
            if name is None:
                errors.append(
                    f"event {position}: span_end {event['span']} "
                    f"({event['name']!r}) without a start"
                )
            elif name != event["name"]:
                errors.append(
                    f"event {position}: span {event['span']} started as "
                    f"{name!r} but ended as {event['name']!r}"
                )
    for span_id, name in open_spans.items():
        errors.append(f"span {span_id} ({name!r}) never ended")
    return errors


def read_events(path: str) -> list[dict[str, Any]]:
    """Parse a JSONL telemetry file (raises ``ValueError`` on bad lines)."""
    events = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as err:
                raise ValueError(f"{path}:{number}: not valid JSON: {err}") from None
    return events


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------


def summarize(events: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Fold an event stream into the per-phase / per-shard breakdown.

    Pure data (JSON-shaped), rendered by :func:`render_summary`; callers
    validate first -- this folds whatever it is given.
    """
    phases: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    gauges: dict[str, Any] = {}
    shards: list[dict[str, Any]] = []
    cluster: list[dict[str, Any]] = []
    warnings: list[str] = []
    meta: dict[str, Any] = {}
    duration = 0.0
    for event in events:
        kind = event.get("ev")
        duration = max(duration, float(event.get("ts", 0.0)))
        if kind == "meta":
            meta = {"schema": event.get("schema"), "library": event.get("library")}
        elif kind == "span_end":
            phase = phases.setdefault(event["name"], {"count": 0, "seconds": 0.0})
            phase["count"] += 1
            phase["seconds"] = round(phase["seconds"] + event["seconds"], 6)
        elif kind == "counter":
            counters[event["name"]] = event["value"]
        elif kind == "gauge":
            gauges[event["name"]] = event["value"]
        elif kind == "warning":
            warnings.append(event["message"])
        elif kind == "event" and event.get("name") in (
            "shard.complete",
            "shard.cached",
        ):
            attrs = dict(event.get("attrs", {}))
            attrs["cached"] = event["name"] == "shard.cached"
            shards.append(attrs)
        elif kind == "event" and event.get("name") in CLUSTER_EVENTS:
            attrs = dict(event.get("attrs", {}))
            entry = {"event": event["name"]}
            entry.update(attrs)
            cluster.append(entry)
        elif kind == "close":
            duration = max(duration, float(event.get("seconds", 0.0)))
            for name, value in event.get("counters", {}).items():
                counters.setdefault(name, value)
    summary = {
        "meta": meta,
        "duration": round(duration, 6),
        "events": len(events),
        "phases": phases,
        "counters": counters,
        "gauges": gauges,
        "shards": shards,
        "warnings": warnings,
    }
    if cluster:
        # Only present when cluster events occurred, so summaries of
        # non-cluster streams keep their pre-cluster shape.
        summary["cluster"] = cluster
    return summary


def render_summary(summary: Mapping[str, Any]) -> list[str]:
    """Human-readable lines for a :func:`summarize` payload."""
    meta = summary.get("meta") or {}
    lines = [
        f"telemetry summary: {summary['events']} events over "
        f"{summary['duration']:.3f}s"
        + (f" (library {meta['library']})" if meta.get("library") else "")
    ]
    phases = summary.get("phases") or {}
    if phases:
        lines.append("phases:")
        width = max(len(name) for name in phases)
        for name, phase in sorted(
            phases.items(), key=lambda item: -item[1]["seconds"]
        ):
            lines.append(
                f"  {name:<{width}}  {phase['seconds']:>9.3f}s  "
                f"x{phase['count']}"
            )
    counters = summary.get("counters") or {}
    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {counters[name]:g}")
    shards = summary.get("shards") or []
    if shards:
        executed = [s for s in shards if not s.get("cached")]
        lines.append(
            f"shards: {len(shards)} total, {len(shards) - len(executed)} cached"
        )
        for shard in executed:
            bounds = f"[{shard.get('lo', '?')}, {shard.get('hi', '?')})"
            lines.append(
                f"  {bounds:<16} {shard.get('executions', 0):>8} configs  "
                f"{shard.get('seconds', 0.0):>8.3f}s  "
                f"engine={shard.get('engine', '?')}"
                + (f" path={shard['path']}" if "path" in shard else "")
            )
    cluster = summary.get("cluster") or []
    if cluster:
        requeued = sum(1 for e in cluster if e.get("event") == "shard.requeued")
        takeovers = sum(
            1 for e in cluster if e.get("event") == "coordinator.takeover"
        )
        published = [e for e in cluster if e.get("event") == "cluster.published"]
        lines.append(
            f"cluster: {len(published)} runs published, "
            f"{requeued} shards requeued, {takeovers} takeovers"
        )
        for entry in cluster:
            if entry.get("event") == "shard.requeued":
                lines.append(
                    f"  requeued [{entry.get('lo', '?')}, {entry.get('hi', '?')})"
                    f" from {entry.get('owner', '?')}"
                )
            elif entry.get("event") == "coordinator.takeover":
                lines.append(
                    f"  takeover of run {entry.get('run_id', '?')} "
                    f"from {entry.get('previous', '?')}"
                )
    for warning in summary.get("warnings") or []:
        lines.append(f"warning: {warning}")
    return lines


# ----------------------------------------------------------------------
# The non-canonical ``timing`` sections
# ----------------------------------------------------------------------


def _strip_keys(payload: Any, keys: "frozenset[str]") -> Any:
    if isinstance(payload, Mapping):
        return {
            key: _strip_keys(value, keys)
            for key, value in payload.items()
            if key not in keys
        }
    if isinstance(payload, (list, tuple)):
        return [_strip_keys(item, keys) for item in payload]
    return payload


#: Every non-canonical provenance section a report may carry: worker
#: timing, run-store statistics, and cluster run identifiers.
PROVENANCE_KEYS = frozenset({"timing", "runtime", "cluster"})


def strip_timing(payload: Any) -> Any:
    """A deep copy of ``payload`` with every ``"timing"`` key removed.

    The single definition of "the canonical part" of a report that
    carries timing: experiment reports, campaign JSON and the CI
    byte-identity comparisons all strip through here (and through
    ``python -m repro telemetry strip``).
    """
    return _strip_keys(payload, frozenset({"timing"}))


def strip_provenance(payload: Any) -> Any:
    """Strip every non-canonical section: :data:`PROVENANCE_KEYS`.

    The wider sibling of :func:`strip_timing` for outputs that carry
    run provenance beyond timing -- ``runtime`` (cache-hit statistics,
    which legitimately differ between reruns) and ``cluster`` (run ids
    and directories).  ``python -m repro telemetry strip --provenance``
    and the CI cluster-vs-serial ``cmp`` use this.
    """
    return _strip_keys(payload, PROVENANCE_KEYS)


__all__ = [
    "CLUSTER_EVENTS",
    "EVENT_KINDS",
    "PROVENANCE_KEYS",
    "read_events",
    "render_summary",
    "strip_provenance",
    "strip_timing",
    "summarize",
    "validate_event",
    "validate_events",
]
