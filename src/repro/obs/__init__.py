"""Span tracing and telemetry export for the ION pipeline (``repro.obs``).

The :class:`~repro.util.metrics.MetricsRegistry` answers "how much and
how long, in aggregate"; this package answers "what happened, in what
order, caused by what".  A :class:`~repro.obs.trace.Tracer` records a
tree of :class:`~repro.obs.trace.Span` objects — one per pipeline
stage, LLM query, retry envelope, tool round, journey attempt — with
trace/span IDs, parent links, attributes and point-in-time events.

Spans are always built and kept only when asked.  Every instrumented
component accepts ``tracer=None`` and then builds its own
:class:`~repro.obs.trace.NullTracer`, which keeps no span.  Either
way, each finished span is folded into the metrics registries attached
to its tracer (:data:`repro.util.metrics.FOLD`), so the registry is a
view of the spans, never a second record beside them.  Clock and ID
sources are injectable so tests (and the golden trace-summary
snapshot) are fully deterministic.

Exporters live in :mod:`repro.obs.export` (JSONL, Chrome trace-event
JSON for Perfetto/``chrome://tracing``, Prometheus text exposition);
:mod:`repro.obs.summary` distills a recorded trace into the
deterministic per-stage report the ``ion-trace`` CLI prints.
"""

from repro.obs.export import (
    load_spans,
    render_prometheus,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
    write_trace,
)
from repro.obs.summary import render_summary, stage_rows, summarize
from repro.obs.trace import (
    NullTracer,
    Span,
    SpanEvent,
    Tracer,
)

__all__ = [
    "NullTracer",
    "Span",
    "SpanEvent",
    "Tracer",
    "load_spans",
    "render_prometheus",
    "render_summary",
    "stage_rows",
    "summarize",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
    "write_trace",
]
