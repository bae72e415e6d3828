"""Unit tests for the telemetry subsystem: spans, sinks, schema, summaries."""

import io
import json

import pytest

from repro.obs import (
    EVENT_KINDS,
    JsonlSink,
    MemorySink,
    MultiSink,
    NULL_TELEMETRY,
    NullSink,
    NullTelemetry,
    ProgressSink,
    SCHEMA_VERSION,
    Telemetry,
    combine,
    read_events,
    render_summary,
    resolve_telemetry,
    strip_timing,
    summarize,
    validate_events,
)


class FakeClock:
    """A deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step=0.25):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def make_telemetry():
    sink = MemorySink()
    return Telemetry(sink, clock=FakeClock()), sink


class TestTelemetry:
    def test_meta_event_opens_the_stream(self):
        telemetry, sink = make_telemetry()
        head = sink.events[0]
        assert head["ev"] == "meta"
        assert head["schema"] == SCHEMA_VERSION
        import repro

        assert head["library"] == repro.__version__

    def test_span_pairs_start_and_end_with_seconds(self):
        telemetry, sink = make_telemetry()
        with telemetry.span("merge") as span_id:
            pass
        start = sink.of_kind("span_start")[0]
        end = sink.of_kind("span_end")[0]
        assert start["name"] == end["name"] == "merge"
        assert start["span"] == end["span"] == span_id == 1
        assert start["parent"] is None
        assert end["seconds"] > 0

    def test_spans_nest_and_track_parents(self):
        telemetry, sink = make_telemetry()
        with telemetry.span("outer") as outer:
            with telemetry.span("inner") as inner:
                pass
        starts = {event["name"]: event for event in sink.of_kind("span_start")}
        assert starts["inner"]["parent"] == outer
        assert inner != outer

    def test_span_ends_on_exception(self):
        telemetry, sink = make_telemetry()
        with pytest.raises(RuntimeError):
            with telemetry.span("doomed"):
                raise RuntimeError("boom")
        assert len(sink.of_kind("span_end")) == 1
        assert validate_events(sink.events + [_close_event()]) == []

    def test_counters_accumulate(self):
        telemetry, sink = make_telemetry()
        telemetry.count("configs.evaluated", 10)
        telemetry.count("configs.evaluated", 5)
        events = sink.of_kind("counter")
        assert [event["delta"] for event in events] == [10, 5]
        assert [event["value"] for event in events] == [10, 15]
        assert telemetry.counters == {"configs.evaluated": 15}

    def test_close_snapshots_counters_and_is_idempotent(self):
        telemetry, sink = make_telemetry()
        telemetry.count("shards.completed", 3)
        telemetry.close()
        telemetry.close()
        closes = sink.of_kind("close")
        assert len(closes) == 1
        assert closes[0]["counters"] == {"shards.completed": 3}

    def test_full_stream_validates(self):
        telemetry, sink = make_telemetry()
        with telemetry.span("scenario.run", algorithm="fast"):
            telemetry.event("engine.resolved", requested="auto")
            telemetry.gauge("sweep.shards", 16)
            telemetry.count("configs.evaluated", 840)
            telemetry.progress("shards", 16, 16)
            telemetry.message("hello")
            telemetry.warn("torn line", file="x.jsonl")
        telemetry.close()
        assert validate_events(sink.events) == []

    def test_context_manager_closes(self):
        sink = MemorySink()
        with Telemetry(sink) as telemetry:
            telemetry.gauge("x", 1)
        assert sink.of_kind("close")


def _close_event():
    return {"ev": "close", "ts": 9.0, "seconds": 9.0, "counters": {}}


class TestNullTelemetry:
    def test_is_disabled_and_silent(self):
        assert NULL_TELEMETRY.enabled is False
        NULL_TELEMETRY.count("x")
        NULL_TELEMETRY.gauge("x", 1)
        NULL_TELEMETRY.event("x")
        NULL_TELEMETRY.progress("x", 1, 2)
        NULL_TELEMETRY.message("x")
        NULL_TELEMETRY.warn("x")
        NULL_TELEMETRY.close()
        assert NULL_TELEMETRY.counters == {}

    def test_span_is_a_noop_context(self):
        with NULL_TELEMETRY.span("anything") as span_id:
            assert span_id == 0

    def test_singleton_is_a_null_telemetry(self):
        assert isinstance(NULL_TELEMETRY, NullTelemetry)


class TestResolveTelemetry:
    def test_none_resolves_to_the_shared_noop(self):
        assert resolve_telemetry(None) is NULL_TELEMETRY

    def test_telemetry_passes_through(self):
        telemetry = Telemetry(MemorySink())
        assert resolve_telemetry(telemetry) is telemetry

    def test_bare_sink_is_wrapped(self):
        sink = MemorySink()
        telemetry = resolve_telemetry(sink)
        assert isinstance(telemetry, Telemetry)
        assert telemetry.sink is sink

    def test_garbage_raises_type_error(self):
        with pytest.raises(TypeError, match="telemetry"):
            resolve_telemetry(42)


class TestSinks:
    def test_memory_sink_aggregates(self):
        telemetry, sink = make_telemetry()
        with telemetry.span("merge"):
            pass
        with telemetry.span("merge"):
            pass
        telemetry.count("a", 2)
        telemetry.gauge("g", "v")
        assert sink.span_totals()["merge"] > 0
        assert sink.counter_totals() == {"a": 2}
        assert sink.gauge_values() == {"g": "v"}
        assert len(sink) == len(sink.events)

    def test_jsonl_sink_round_trips_through_read_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with Telemetry(JsonlSink(str(path))) as telemetry:
            with telemetry.span("work"):
                telemetry.count("n", 1)
        events = read_events(str(path))
        assert validate_events(events) == []
        assert [event["ev"] for event in events] == [
            "meta", "span_start", "counter", "span_end", "close",
        ]
        # Lines are canonical JSON: sorted keys.
        first_line = path.read_text().splitlines()[0]
        assert first_line == json.dumps(json.loads(first_line), sort_keys=True)

    def test_jsonl_sink_truncates_on_open(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("stale\n")
        with Telemetry(JsonlSink(str(path))):
            pass
        assert "stale" not in path.read_text()

    def test_read_events_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ev": "meta"}\n{broken\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_events(str(path))

    def test_progress_sink_renders_rate_and_warnings(self):
        stream = io.StringIO()
        sink = ProgressSink(stream=stream, min_interval=0.0)
        sink.emit({"ev": "counter", "name": "configs.evaluated",
                   "delta": 100, "value": 100, "ts": 0.5})
        sink.emit({"ev": "progress", "name": "shards", "done": 8,
                   "total": 16, "ts": 1.0})
        sink.emit({"ev": "warning", "message": "torn line", "ts": 1.5})
        sink.close()
        output = stream.getvalue()
        assert "shards 8/16" in output
        assert "100 configs" in output
        assert "eta" in output
        assert "warning: torn line" in output

    def test_progress_sink_messages_are_gated(self):
        silent, chatty = io.StringIO(), io.StringIO()
        ProgressSink(stream=silent).emit(
            {"ev": "message", "text": "trace", "ts": 0.1}
        )
        ProgressSink(stream=chatty, messages=True).emit(
            {"ev": "message", "text": "trace", "ts": 0.1}
        )
        assert silent.getvalue() == ""
        assert "trace" in chatty.getvalue()

    def test_combine_and_multi_sink(self):
        assert isinstance(combine([]), NullSink)
        only = MemorySink()
        assert combine([only]) is only
        first, second = MemorySink(), MemorySink()
        multi = combine([first, second])
        assert isinstance(multi, MultiSink)
        multi.emit({"ev": "gauge", "ts": 0.0, "name": "x", "value": 1})
        assert len(first) == len(second) == 1


class TestSchemaValidation:
    def test_every_kind_is_covered(self):
        assert set(EVENT_KINDS) >= {
            "meta", "span_start", "span_end", "counter", "gauge",
            "event", "progress", "message", "warning", "close",
        }

    def test_unknown_kind_is_an_error(self):
        errors = validate_events([{"ev": "mystery", "ts": 0.0}])
        assert any("unknown kind" in error for error in errors)

    def test_missing_meta_header(self):
        errors = validate_events(
            [{"ev": "gauge", "ts": 0.0, "name": "x", "value": 1}]
        )
        assert any("meta" in error for error in errors)

    def test_wrong_schema_version(self):
        errors = validate_events(
            [{"ev": "meta", "ts": 0.0, "schema": 999, "library": "x"}]
        )
        assert any("schema version" in error for error in errors)

    def test_unpaired_span_is_an_error(self):
        events = [
            {"ev": "meta", "ts": 0.0, "schema": SCHEMA_VERSION, "library": "x"},
            {"ev": "span_start", "ts": 0.1, "name": "s", "span": 1,
             "parent": None},
        ]
        errors = validate_events(events)
        assert any("never ended" in error for error in errors)

    def test_span_end_without_start(self):
        events = [
            {"ev": "meta", "ts": 0.0, "schema": SCHEMA_VERSION, "library": "x"},
            {"ev": "span_end", "ts": 0.1, "name": "s", "span": 7,
             "seconds": 0.1},
        ]
        errors = validate_events(events)
        assert any("without a start" in error for error in errors)

    def test_field_type_mismatch(self):
        errors = validate_events(
            [{"ev": "meta", "ts": 0.0, "schema": "one", "library": "x"}]
        )
        assert any("schema" in error and "type" in error for error in errors)

    def test_empty_stream(self):
        assert validate_events([]) == ["empty event stream (no meta header)"]


class TestSummaries:
    def stream(self):
        telemetry, sink = make_telemetry()
        with telemetry.span("scenario.run"):
            telemetry.event("shard.complete",
                            lo=0, hi=10, executions=10, seconds=0.5,
                            engine="cube", path="whole_cube")
            telemetry.event("shard.cached", lo=10, hi=20, executions=10)
            telemetry.count("configs.evaluated", 20)
            telemetry.warn("something tore")
        telemetry.close()
        return sink.events

    def test_summarize_folds_phases_shards_and_warnings(self):
        summary = summarize(self.stream())
        assert summary["phases"]["scenario.run"]["count"] == 1
        assert summary["counters"]["configs.evaluated"] == 20
        assert summary["warnings"] == ["something tore"]
        cached = [shard for shard in summary["shards"] if shard["cached"]]
        executed = [shard for shard in summary["shards"] if not shard["cached"]]
        assert len(cached) == len(executed) == 1
        assert executed[0]["engine"] == "cube"
        assert executed[0]["path"] == "whole_cube"

    def test_render_summary_lines(self):
        lines = render_summary(summarize(self.stream()))
        text = "\n".join(lines)
        assert "telemetry summary:" in text
        assert "scenario.run" in text
        assert "shards: 2 total, 1 cached" in text
        assert "executed: 1, 10 configs, 0.500s; cube/whole_cube x1" in text
        assert "warning: something tore" in text

    def test_many_shards_render_totals_and_the_slowest_five(self):
        telemetry, sink = make_telemetry()
        for index in range(8):
            telemetry.event("shard.complete",
                            lo=10 * index, hi=10 * index + 10, executions=10,
                            seconds=0.1 * (index + 1),
                            engine="cube" if index % 2 else "compiled",
                            path="whole_cube" if index % 2 else "stream")
        telemetry.event("shard.cached", lo=80, hi=90, executions=10)
        telemetry.close()
        summary = summarize(sink.events)
        # The payload (and --json) keeps every shard ...
        assert len(summary["shards"]) == 9
        lines = render_summary(summary)
        # ... the rendering keeps one totals line and the five slowest.
        shard_lines = [line for line in lines if " configs  " in line]
        assert len(shard_lines) == 5
        assert shard_lines[0].startswith("  [70, 80)")
        assert [line.split()[0] for line in shard_lines] == [
            "[70,", "[60,", "[50,", "[40,", "[30,"
        ]
        text = "\n".join(lines)
        assert "shards: 9 total, 1 cached" in text
        assert (
            "executed: 8, 80 configs, 3.600s; "
            "compiled/stream x4, cube/whole_cube x4"
        ) in text
        assert "slowest 5:" in text


class TestStripTiming:
    def test_removes_timing_keys_recursively(self):
        payload = {
            "timing": {"seconds": 1},
            "reports": [
                {"verdict": "ok", "timing": {"seconds": 2},
                 "units": ({"key": "a", "timing": {}},)},
            ],
            "kept": {"nested": {"timing": 0, "value": 3}},
        }
        stripped = strip_timing(payload)
        assert stripped == {
            "reports": [{"verdict": "ok", "units": [{"key": "a"}]}],
            "kept": {"nested": {"value": 3}},
        }

    def test_leaves_scalars_and_originals_alone(self):
        payload = {"timing": {"seconds": 1}, "value": 42}
        assert strip_timing(payload) == {"value": 42}
        assert payload["timing"] == {"seconds": 1}  # deep copy, not mutation
        assert strip_timing("text") == "text"
        assert strip_timing(3.5) == 3.5
