"""The telemetry front end: spans, counters, gauges and events.

One :class:`Telemetry` instance narrates one run: nested wall-clock
**spans** (``with telemetry.span("merge"): ...``), monotonically
increasing **counters** (configs evaluated, shards completed, cache
hits), point-in-time **gauges**, and structured one-off **events**
(shard completions, engine resolution).  Everything is emitted as plain
dicts to a :mod:`~repro.obs.sinks` sink; the schema is documented and
validated in :mod:`repro.obs.events`.

The hard invariant of the whole subsystem is **inertness**: telemetry
observes the computation and never influences it.  Nothing here returns
data into the instrumented code path, and canonical reports are
byte-identical with telemetry enabled or disabled -- the cross-engine
identity suite asserts exactly that.  The no-op singleton
:data:`NULL_TELEMETRY` makes the disabled path allocation-free: every
instrumented call site takes a telemetry argument defaulting to it, and
instrumentation sits at shard/chunk granularity (never per
configuration) so the enabled path stays cheap too.

Instances are single-threaded by design; worker *processes* never hold
one -- their measurements travel back through the
:class:`~repro.runtime.report.ShardReport` channel and are re-emitted as
events by the coordinating process.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, ContextManager, Iterator

from repro.obs.sinks import MemorySink, NullSink, Sink

#: Version of the event schema (see :mod:`repro.obs.events`).
SCHEMA_VERSION = 1


def _library_version() -> str:
    # Imported lazily: repro/__init__ transitively imports this package.
    from repro import __version__

    return __version__


class Telemetry:
    """Emit spans, counters, gauges and events to a sink.

    ``ts`` on every event is seconds (float) since this instance was
    created, measured on ``clock`` (``time.perf_counter`` by default) --
    relative timestamps keep event files deterministic in *shape* and
    make rates trivial for renderers.
    """

    enabled = True

    def __init__(
        self,
        sink: Sink | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.sink: Sink = sink if sink is not None else MemorySink()
        self._clock = clock
        self._epoch = clock()
        self._next_span_id = 1
        self._span_stack: list[int] = []
        self._closed = False
        self.counters: dict[str, float] = {}
        self.emit("meta", schema=SCHEMA_VERSION, library=_library_version())

    # ------------------------------------------------------------------
    # Emission primitives
    # ------------------------------------------------------------------

    def elapsed(self) -> float:
        """Seconds since this telemetry was created."""
        return self._clock() - self._epoch

    def emit(self, kind: str, **fields: Any) -> None:
        """Emit one raw event (``ev``/``ts`` added here)."""
        self.sink.emit({"ev": kind, "ts": round(self.elapsed(), 6), **fields})

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[int]:
        """A nested wall-clock timer: ``span_start`` now, ``span_end`` at exit.

        Yields the span id (mostly useful to tests); exceptions still end
        the span, so event files always pair starts with ends.
        """
        span_id = self._next_span_id
        self._next_span_id += 1
        parent = self._span_stack[-1] if self._span_stack else None
        started = self._clock()
        fields: dict[str, Any] = {"name": name, "span": span_id, "parent": parent}
        if attrs:
            fields["attrs"] = attrs
        self.emit("span_start", **fields)
        self._span_stack.append(span_id)
        try:
            yield span_id
        finally:
            self._span_stack.pop()
            self.emit(
                "span_end",
                name=name,
                span=span_id,
                seconds=round(self._clock() - started, 6),
            )

    def count(self, name: str, delta: float = 1) -> None:
        """Increment a cumulative counter (emits delta and new value)."""
        value = self.counters.get(name, 0) + delta
        self.counters[name] = value
        self.emit("counter", name=name, delta=delta, value=value)

    def gauge(self, name: str, value: Any) -> None:
        """Record a point-in-time value."""
        self.emit("gauge", name=name, value=value)

    def event(self, name: str, **attrs: Any) -> None:
        """A structured one-off occurrence (shard completion, resolution)."""
        fields: dict[str, Any] = {"name": name}
        if attrs:
            fields["attrs"] = attrs
        self.emit("event", **fields)

    def progress(self, name: str, done: float, total: float | None) -> None:
        """Advance a progress stream (drives the stderr renderer's ETA)."""
        self.emit("progress", name=name, done=done, total=total)

    def message(self, text: str) -> None:
        """A human-oriented line (the ``--verbose`` trace route)."""
        self.emit("message", text=text)

    def warn(self, message: str, **attrs: Any) -> None:
        """A telemetry warning event (cache corruption, fallbacks)."""
        fields: dict[str, Any] = {"message": message}
        if attrs:
            fields["attrs"] = attrs
        self.emit("warning", **fields)

    def close(self) -> None:
        """Emit the final counter snapshot and close the sink (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.emit(
            "close", seconds=round(self.elapsed(), 6), counters=dict(self.counters)
        )
        self.sink.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"Telemetry(sink={self.sink!r})"


class NullTelemetry(Telemetry):
    """The do-nothing telemetry: every operation is a cheap no-op.

    Instrumented call sites default to the shared :data:`NULL_TELEMETRY`
    instance, so the disabled path costs an attribute lookup and an empty
    call -- no event dicts, no clock reads, no sink traffic.
    """

    enabled = False

    def __init__(self) -> None:
        self.sink = NullSink()
        self.counters = {}

    def elapsed(self) -> float:
        return 0.0

    def emit(self, kind: str, **fields: Any) -> None:
        pass

    def span(self, name: str, **attrs: Any) -> ContextManager[int]:  # type: ignore[override]
        return nullcontext(0)

    def count(self, name: str, delta: float = 1) -> None:
        pass

    def gauge(self, name: str, value: Any) -> None:
        pass

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def progress(self, name: str, done: float, total: float | None) -> None:
        pass

    def message(self, text: str) -> None:
        pass

    def warn(self, message: str, **attrs: Any) -> None:
        pass

    def close(self) -> None:
        pass

    def __repr__(self) -> str:
        return "NullTelemetry()"


#: The shared no-op instance every instrumented signature defaults to.
NULL_TELEMETRY = NullTelemetry()


def resolve_telemetry(value: "Telemetry | Sink | None") -> Telemetry:
    """Map a ``telemetry=`` argument to a :class:`Telemetry`.

    ``None`` means disabled (the shared no-op); a :class:`Telemetry` is
    used as-is (the caller owns its lifecycle); a bare sink is wrapped in
    a fresh instance, so ``Scenario.run(telemetry=MemorySink())`` just
    works.
    """
    if value is None:
        return NULL_TELEMETRY
    if isinstance(value, Telemetry):
        return value
    if hasattr(value, "emit") and hasattr(value, "close"):
        return Telemetry(value)
    raise TypeError(
        f"telemetry must be None, a Telemetry, or a sink with emit()/close(); "
        f"got {value!r}"
    )


__all__ = [
    "NULL_TELEMETRY",
    "NullTelemetry",
    "SCHEMA_VERSION",
    "Telemetry",
    "resolve_telemetry",
]
