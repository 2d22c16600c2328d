"""``ion-trace`` command-line interface, plus shared tracing flags.

Usage::

    ion-trace TRACE_FILE [--top N]        # per-stage summary
    ion-trace TRACE_FILE --validate       # Chrome-trace schema check

``TRACE_FILE`` is anything ``ion``/``ion-batch``/``ion-journey`` wrote
through ``--trace-out``: a ``.jsonl`` span log or a Chrome trace-event
JSON file.  The summary is computed from spans alone — per-stage
totals, slowest spans, per-trace retry/degradation/breaker counts and
the critical path — so it reproduces pipeline health without access
to the original reports.

This module also hosts the ``--trace-out`` / ``--metrics-out`` flag
helpers the other CLIs share, so tracing is wired identically
everywhere.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.export import (
    TraceFormatError,
    load_spans,
    validate_chrome_trace,
    write_prometheus,
    write_trace,
)
from repro.obs.summary import render_summary, summarize
from repro.obs.trace import NullTracer, Tracer
from repro.util.console import suppress_broken_pipe


def add_tracing_args(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--trace-out`` / ``--metrics-out`` flags."""
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record spans for every pipeline stage and write them here "
        "(.jsonl = span log, anything else = Chrome trace-event JSON "
        "loadable in Perfetto; summarize with `ion-trace`)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the pipeline metrics registry, plus per-stage latency "
        "histograms derived from spans, as Prometheus text exposition",
    )


def tracer_from_args(args: argparse.Namespace):
    """A keeping tracer when ``--trace-out`` or ``--metrics-out`` was given.

    The metrics file derives stage latency from kept spans; with
    neither flag this is a :class:`NullTracer`, which keeps none.
    """
    if (
        getattr(args, "trace_out", None) is not None
        or getattr(args, "metrics_out", None) is not None
    ):
        return Tracer()
    return NullTracer()


def emit_telemetry(args: argparse.Namespace, tracer, metrics) -> None:
    """Write the trace/metrics files the flags asked for."""
    if getattr(args, "trace_out", None) is not None:
        path = write_trace(tracer.spans(), args.trace_out)
        print(f"Trace written to {path} ({len(tracer.spans())} span(s))")
    if getattr(args, "metrics_out", None) is not None:
        path = write_prometheus(metrics, args.metrics_out, tracer.spans())
        print(f"Metrics written to {path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ion-trace",
        description=(
            "Summarize a trace recorded by ion/ion-batch/ion-journey "
            "--trace-out: per-stage timings, slowest spans, per-trace "
            "retry and degradation counts, critical paths."
        ),
    )
    parser.add_argument("trace", help="trace file (.jsonl or Chrome JSON)")
    parser.add_argument(
        "--top", type=int, default=5, metavar="N",
        help="how many slowest spans to list (default: 5)",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="schema-check a Chrome trace-event file and exit "
        "(0 = valid, 1 = problems found)",
    )
    return parser


def _validate(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"ion-trace: error: {path}: {exc}", file=sys.stderr)
        return 1
    problems = validate_chrome_trace(payload)
    if problems:
        for problem in problems:
            print(f"ion-trace: invalid: {problem}", file=sys.stderr)
        return 1
    events = payload["traceEvents"]
    spans = sum(1 for event in events if event.get("ph") == "X")
    print(f"trace OK: {len(events)} event(s), {spans} span(s)")
    return 0


@suppress_broken_pipe
def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.top < 1:
        print("ion-trace: error: --top must be at least 1", file=sys.stderr)
        return 1
    if args.validate:
        return _validate(args.trace)
    try:
        spans = load_spans(args.trace)
    except (TraceFormatError, OSError) as exc:
        print(f"ion-trace: error: {exc}", file=sys.stderr)
        return 1
    if not spans:
        print("ion-trace: error: trace contains no spans", file=sys.stderr)
        return 1
    print(render_summary(summarize(spans), top=args.top), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
