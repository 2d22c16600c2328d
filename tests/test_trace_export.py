"""Tests for the trace/metrics exporters (``repro.obs.export``).

Both trace formats must round-trip: a recorded span tree written out
and read back through :func:`load_spans` has to carry the same IDs,
parents, attributes, events and statuses, or ``ion-trace`` summaries
of a file would drift from summaries of the live tracer.  The Chrome
output additionally has to satisfy its own validator — the same check
CI runs on the journey smoke artifact.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.export import (
    SpanRecord,
    TraceFormatError,
    chrome_trace,
    load_spans,
    render_prometheus,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
    write_trace,
)
from repro.obs.summary import render_summary, summarize
from repro.obs.trace import Tracer, ticking_clock
from repro.util.metrics import MetricsRegistry


def span_record(name: str, seconds: float) -> SpanRecord:
    """A finished root span of ``seconds`` duration."""
    return SpanRecord("t", name, None, name, start=0.0, end=seconds)


def recorded_tracer() -> Tracer:
    """A tracer holding two traces with attributes, events and errors."""
    tracer = Tracer(clock=ticking_clock())
    with tracer.span("trace.diagnose", attributes={"trace": "alpha"}):
        with tracer.span("analyzer.query", attributes={"issue": "x"}) as q:
            q.add_event("retry", attempt=2, delay=0.5)
            q.set_attribute("degraded", True)
            q.set_attribute("fallback", "drishti")
    with tracer.span("trace.diagnose", attributes={"trace": "beta"}) as root:
        root.set_status("error", "boom")
    return tracer


class TestJsonlRoundTrip:
    def test_every_field_survives(self, tmp_path):
        tracer = recorded_tracer()
        path = write_jsonl(tracer.spans(), tmp_path / "trace.jsonl")
        loaded = load_spans(path)
        originals = {s.span_id: s for s in tracer.spans()}
        assert len(loaded) == len(originals)
        for record in loaded:
            original = originals[record.span_id]
            assert isinstance(record, SpanRecord)
            assert record.trace_id == original.trace_id
            assert record.parent_id == original.parent_id
            assert record.name == original.name
            assert record.attributes == original.attributes
            assert record.status == original.status
            assert record.status_detail == original.status_detail
            assert record.thread == original.thread
            assert [e.name for e in record.events] == [
                e.name for e in original.events
            ]
            for mine, theirs in zip(record.events, original.events):
                assert mine.attributes == theirs.attributes
                assert mine.time == pytest.approx(theirs.time)

    def test_summary_identical_live_and_reloaded(self, tmp_path):
        tracer = recorded_tracer()
        path = write_jsonl(tracer.spans(), tmp_path / "trace.jsonl")
        live = render_summary(summarize(tracer.spans()))
        reloaded = render_summary(summarize(load_spans(path)))
        assert live == reloaded

    def test_lines_are_sorted_key_json(self, tmp_path):
        path = write_jsonl(recorded_tracer().spans(), tmp_path / "t.jsonl")
        for line in path.read_text().splitlines():
            payload = json.loads(line)
            assert list(payload) == sorted(payload)


class TestChromeTrace:
    def test_structure_pids_and_metadata(self):
        tracer = recorded_tracer()
        payload = chrome_trace(tracer.spans())
        events = payload["traceEvents"]
        assert validate_chrome_trace(payload) == []
        # One pid per trace in order of first span start, named in
        # process_name metadata events.
        process_names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        trace_ids = sorted(
            {s.trace_id for s in tracer.spans()},
            key=lambda t: min(
                s.start for s in tracer.spans() if s.trace_id == t
            ),
        )
        assert list(process_names.values()) == [
            f"trace {t}" for t in trace_ids
        ]
        # Timestamps rebase to the earliest start.
        complete = [e for e in events if e["ph"] == "X"]
        assert min(e["ts"] for e in complete) == 0.0
        # Retry instants carry their attributes and owning span.
        (instant,) = [e for e in events if e["ph"] == "i"]
        assert instant["name"] == "retry"
        assert instant["args"]["attempt"] == 2
        assert isinstance(instant["args"]["span_id"], str)

    def test_round_trip_preserves_identity_and_events(self, tmp_path):
        tracer = recorded_tracer()
        path = write_chrome_trace(tracer.spans(), tmp_path / "trace.json")
        loaded = {s.span_id: s for s in load_spans(path)}
        for span in tracer.spans():
            record = loaded[span.span_id]
            assert record.trace_id == span.trace_id
            assert record.parent_id == span.parent_id
            assert record.name == span.name
            assert record.attributes == span.attributes
            assert record.status == span.status
            assert record.status_detail == span.status_detail
            assert [e.name for e in record.events] == [
                e.name for e in span.events
            ]
        # Retry/degradation accounting survives the format conversion.
        live = summarize(tracer.spans())
        back = summarize(loaded.values())
        for a, b in zip(live.traces, back.traces):
            assert (a.retries, a.degraded, a.fallbacks, a.errors) == (
                b.retries, b.degraded, b.fallbacks, b.errors
            )

    def test_write_trace_dispatches_on_suffix(self, tmp_path):
        spans = recorded_tracer().spans()
        jsonl = write_trace(spans, tmp_path / "a.jsonl")
        chrome = write_trace(spans, tmp_path / "b.json")
        assert jsonl.read_text().lstrip().startswith('{"attributes"')
        assert '"traceEvents"' in chrome.read_text()[:200]
        assert len(load_spans(jsonl)) == len(load_spans(chrome)) == len(spans)

    def test_empty_span_list_still_validates(self):
        assert validate_chrome_trace(chrome_trace([])) == []


class TestValidator:
    def test_rejects_malformed_payloads(self):
        assert validate_chrome_trace([]) == ["top level must be a JSON object"]
        assert validate_chrome_trace({}) == ["traceEvents must be a list"]
        problems = validate_chrome_trace(
            {
                "traceEvents": [
                    {"ph": "Z", "name": "bad"},
                    {"ph": "X", "name": 3, "pid": "x", "tid": 0,
                     "ts": -1, "dur": 1, "args": {}},
                    {"ph": "i", "name": "e", "pid": 1, "tid": 1,
                     "ts": 0, "args": {"span_id": 7}},
                ]
            }
        )
        assert any("unknown phase" in p for p in problems)
        assert any("missing name" in p for p in problems)
        assert any("pid/tid" in p for p in problems)
        assert any("ts must be" in p for p in problems)
        assert any("args.trace_id" in p for p in problems)
        assert any("args.span_id" in p for p in problems)

    def test_load_rejects_empty_and_invalid_files(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(TraceFormatError):
            load_spans(empty)
        broken = tmp_path / "broken.jsonl"
        broken.write_text("{not json}\n")
        with pytest.raises(TraceFormatError):
            load_spans(broken)
        bad_chrome = tmp_path / "bad.json"
        bad_chrome.write_text('{"traceEvents": [{"ph": "Q"}]}')
        with pytest.raises(TraceFormatError):
            load_spans(bad_chrome)


class TestPrometheus:
    def test_renders_every_metric_kind(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("batch.traces.ok").inc(3)
        registry.gauge("pool.size").set(4.5)
        histogram = registry.histogram("query.seconds", buckets=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(10.0)
        spans = [
            span_record("analyzer.analyze", 1.0),
            span_record("analyzer.analyze", 3.0),
        ]
        text = render_prometheus(registry, spans)
        lines = text.splitlines()
        assert "# TYPE batch_traces_ok counter" in lines
        assert "batch_traces_ok 3" in lines
        assert "pool_size 4.5" in lines
        assert "# TYPE analyzer_analyze_seconds histogram" in lines
        assert 'analyzer_analyze_seconds_bucket{le="1"} 1' in lines
        assert 'analyzer_analyze_seconds_bucket{le="5"} 2' in lines
        assert 'analyzer_analyze_seconds_bucket{le="+Inf"} 2' in lines
        assert "analyzer_analyze_seconds_count 2" in lines
        assert "analyzer_analyze_seconds_sum 4" in lines
        assert "# TYPE query_seconds histogram" in lines
        assert 'query_seconds_bucket{le="1"} 1' in lines
        assert 'query_seconds_bucket{le="2"} 1' in lines
        assert 'query_seconds_bucket{le="+Inf"} 2' in lines
        assert "query_seconds_sum 10.5" in lines
        assert "query_seconds_count 2" in lines
        assert text.endswith("\n")
        written = write_prometheus(registry, tmp_path / "metrics.prom", spans)
        assert written.read_text(encoding="utf-8") == text

    def test_one_latency_histogram_per_span_name(self):
        tracer = Tracer(clock=ticking_clock(step=1.0))
        with tracer.span("pipeline.diagnose"):
            for _ in range(3):
                with tracer.span("analyzer.query"):
                    pass
        registry = MetricsRegistry()
        registry.counter("analyzer.reports").inc()
        text = render_prometheus(registry, tracer.spans())
        lines = text.splitlines()
        # Registry and span-derived series share one name-sorted order.
        assert [line for line in lines if line.startswith("# TYPE")] == [
            "# TYPE analyzer_query_seconds histogram",
            "# TYPE analyzer_reports counter",
            "# TYPE pipeline_diagnose_seconds histogram",
        ]
        assert "analyzer_query_seconds_count 3" in lines
        assert "analyzer_query_seconds_sum 3" in lines
        assert "pipeline_diagnose_seconds_count 1" in lines
        assert "pipeline_diagnose_seconds_sum 7" in lines
        assert render_prometheus(registry) == (
            "# TYPE analyzer_reports counter\nanalyzer_reports 1\n"
        )

    def test_span_name_colliding_with_a_registry_metric_raises(self):
        registry = MetricsRegistry()
        registry.histogram("analyzer.query.seconds").observe(0.5)
        with pytest.raises(ValueError, match="analyzer.query.seconds"):
            render_prometheus(registry, [span_record("analyzer.query", 1.0)])

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""
