"""Tests for the span tracer core (``repro.obs.trace``).

Covers the three propagation rules the pipeline relies on — ambient
contextvar nesting within a thread, explicit ``parent=`` handoff across
worker-pool boundaries, and ``new_trace=True`` roots that must ignore
stale ambient context in reused pool threads — plus the null tracer
that builds and folds spans but keeps none, and the injectable
clock/ID determinism contract.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.trace import (
    NullTracer,
    Span,
    Tracer,
    spans_in_trace,
    ticking_clock,
)
from repro.util.metrics import MetricsRegistry


class TestContextPropagation:
    def test_nested_spans_parent_via_contextvars(self):
        tracer = Tracer(clock=ticking_clock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span() is inner
            assert tracer.current_span() is outer
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_sibling_spans_share_parent_not_each_other(self):
        tracer = Tracer(clock=ticking_clock())
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_no_ambient_context_after_exit(self):
        tracer = Tracer(clock=ticking_clock())
        with tracer.span("only"):
            pass
        assert tracer.current_span() is None
        # A new span after the exit starts a fresh trace.
        with tracer.span("later") as later:
            pass
        assert later.parent_id is None

    def test_explicit_parent_none_forces_root(self):
        tracer = Tracer(clock=ticking_clock())
        with tracer.span("outer") as outer:
            with tracer.span("detached", parent=None) as detached:
                pass
        assert detached.parent_id is None
        assert detached.trace_id != outer.trace_id

    def test_new_trace_ignores_ambient_context(self):
        tracer = Tracer(clock=ticking_clock())
        with tracer.span("stale") as stale:
            with tracer.span("fresh", new_trace=True) as fresh:
                # Children of the fresh root nest under it as usual.
                with tracer.span("child") as child:
                    pass
        assert fresh.parent_id is None
        assert fresh.trace_id != stale.trace_id
        assert child.trace_id == fresh.trace_id
        assert child.parent_id == fresh.span_id


class TestThreadHandoff:
    def test_pool_workers_need_explicit_parent(self):
        tracer = Tracer(clock=ticking_clock())

        def work(parent: Span, index: int) -> Span:
            # Worker threads have no inherited context: the captured
            # parent must be handed across the boundary explicitly.
            with tracer.span("query", parent=parent) as span:
                span.set_attribute("index", index)
            return span

        with tracer.span("analyze") as analyze:
            parent = tracer.current_span()
            with ThreadPoolExecutor(max_workers=3) as pool:
                futures = [pool.submit(work, parent, i) for i in range(6)]
                results = [f.result() for f in futures]

        for span in results:
            assert span.trace_id == analyze.trace_id
            assert span.parent_id == analyze.span_id
        assert len({s.span_id for s in results}) == 6

    def test_context_does_not_leak_between_pool_tasks(self):
        tracer = Tracer(clock=ticking_clock())

        def open_and_close() -> None:
            with tracer.span("first", new_trace=True):
                pass

        def observe_ambient(_index: int):
            return tracer.current_span()

        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(open_and_close).result()
            # Same reused thread: the previous task's span must not
            # linger as ambient context.
            ambient = pool.submit(observe_ambient, 0).result()
        assert ambient is None


class TestSpanRecording:
    def test_attributes_events_and_status(self):
        tracer = Tracer(clock=ticking_clock())
        with tracer.span("q", attributes={"issue": "alignment"}) as span:
            span.set_attribute("attempts", 2)
            span.add_event("retry", attempt=2, delay=0.5)
            span.set_status("degraded", "fell back")
        assert span.attributes == {"issue": "alignment", "attempts": 2}
        assert [e.name for e in span.events] == ["retry"]
        assert span.events[0].attributes == {"attempt": 2, "delay": 0.5}
        assert (span.status, span.status_detail) == ("degraded", "fell back")

    def test_exception_marks_span_error_and_propagates(self):
        tracer = Tracer(clock=ticking_clock())
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.spans()
        assert span.status == "error"
        assert "RuntimeError: boom" in span.status_detail
        assert span.end is not None

    def test_explicit_status_survives_exception(self):
        tracer = Tracer(clock=ticking_clock())
        with pytest.raises(ValueError):
            with tracer.span("doomed") as span:
                span.set_status("degraded", "already handled")
                raise ValueError("boom")
        (span,) = tracer.spans()
        assert (span.status, span.status_detail) == (
            "degraded", "already handled"
        )

    def test_spans_recorded_in_completion_order(self):
        tracer = Tracer(clock=ticking_clock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.spans()] == ["inner", "outer"]
        tracer.clear()
        assert tracer.spans() == []

    def test_to_dict_round_numbers(self):
        tracer = Tracer(clock=ticking_clock(step=0.25))
        with tracer.span("s") as span:
            pass
        payload = span.to_dict()
        assert payload["start"] == 0.0
        assert payload["end"] == 0.25
        assert payload["duration"] == 0.25
        assert payload["thread"] == span.thread


class TestDeterminism:
    def test_sequential_ids_and_ticking_clock(self):
        def run() -> list[dict]:
            tracer = Tracer(clock=ticking_clock())
            with tracer.span("root", attributes={"trace": "t"}):
                with tracer.span("child"):
                    pass
            return [s.to_dict() for s in tracer.spans()]

        assert run() == run()

    def test_ids_are_zero_padded_hex(self):
        tracer = Tracer(clock=ticking_clock())
        with tracer.span("root") as span:
            pass
        assert span.trace_id == f"{1:016x}"
        assert span.span_id == f"{2:016x}"

    def test_spans_in_trace_filters(self):
        tracer = Tracer(clock=ticking_clock())
        with tracer.span("a", new_trace=True) as a:
            pass
        with tracer.span("b", new_trace=True):
            pass
        mine = spans_in_trace(tracer.spans(), a.trace_id)
        assert [s.name for s in mine] == ["a"]


class TestNullTracer:
    def test_builds_and_folds_spans_but_keeps_none(self):
        tracer = NullTracer()
        metrics = MetricsRegistry()
        tracer.fold_into(metrics)
        assert tracer.enabled is False
        with tracer.span("extractor.extract", attributes={"k": "v"}) as span:
            span.set_attribute("rows", 7)
            span.add_event("csv.emit", module="POSIX", rows=7)
            assert tracer.current_span() is span
        assert isinstance(span, Span)
        assert span.attributes == {"k": "v", "rows": 7}
        assert [event.name for event in span.events] == ["csv.emit"]
        assert tracer.spans() == []
        assert metrics.counter_value("extractor.extractions") == 1
        assert metrics.counter_value("extractor.rows") == 7

    def test_each_null_tracer_is_its_own(self):
        first, second = NullTracer(), NullTracer()
        metrics = MetricsRegistry()
        first.fold_into(metrics)
        with second.span("extractor.extract"):
            pass
        assert metrics.snapshot() == {}

    def test_null_context_swallows_nothing(self):
        # Exceptions still propagate — the null tracer only drops data.
        with pytest.raises(KeyError):
            with NullTracer().span("x"):
                raise KeyError("boom")


class TestFoldInto:
    def test_attaching_twice_folds_once(self):
        tracer = Tracer(clock=ticking_clock())
        metrics = MetricsRegistry()
        tracer.fold_into(metrics)
        tracer.fold_into(metrics)
        with tracer.span("extractor.extract"):
            pass
        assert metrics.counter_value("extractor.extractions") == 1
        assert len(tracer.spans()) == 1

    def test_every_attached_registry_counts_each_span(self):
        tracer = Tracer(clock=ticking_clock())
        first, second = MetricsRegistry(), MetricsRegistry()
        tracer.fold_into(first)
        tracer.fold_into(second)
        with tracer.span("llm.prompt", attributes={"prompt.chars": 10}):
            pass
        for metrics in (first, second):
            assert metrics.counter_value("analyzer.prompts") == 1
            assert metrics.snapshot()["analyzer.prompt.chars.count"] == 1

    def test_an_erroring_span_counts_only_what_it_recorded(self):
        tracer = NullTracer()
        metrics = MetricsRegistry()
        tracer.fold_into(metrics)
        with pytest.raises(RuntimeError):
            with tracer.span("extractor.extract") as span:
                span.set_attribute("rows", 3)
                raise RuntimeError("disk full")
        assert span.status == "error"
        assert metrics.snapshot() == {}
