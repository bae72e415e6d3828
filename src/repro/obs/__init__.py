"""Observability: spans, counters, progress streaming and event sinks.

The telemetry subsystem is dependency-free and **inert**: it observes
runs (sweeps, engines, the sharded runtime, campaigns) without ever
influencing their canonical output.  See :mod:`repro.obs.telemetry` for
the front end, :mod:`repro.obs.sinks` for where events go, and
:mod:`repro.obs.events` for the event schema, summaries and the
``timing``-stripping helpers behind ``python -m repro telemetry``.
"""

from repro.obs.events import (
    EVENT_KINDS,
    PROVENANCE_KEYS,
    read_events,
    render_summary,
    strip_provenance,
    strip_timing,
    summarize,
    validate_event,
    validate_events,
)
from repro.obs.sinks import (
    JsonlSink,
    MemorySink,
    MultiSink,
    NullSink,
    ProgressSink,
    Sink,
    combine,
)
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    SCHEMA_VERSION,
    Telemetry,
    resolve_telemetry,
)

__all__ = [
    "EVENT_KINDS",
    "JsonlSink",
    "PROVENANCE_KEYS",
    "MemorySink",
    "MultiSink",
    "NULL_TELEMETRY",
    "NullSink",
    "NullTelemetry",
    "ProgressSink",
    "SCHEMA_VERSION",
    "Sink",
    "Telemetry",
    "combine",
    "read_events",
    "render_summary",
    "resolve_telemetry",
    "strip_provenance",
    "strip_timing",
    "summarize",
    "validate_event",
    "validate_events",
]
