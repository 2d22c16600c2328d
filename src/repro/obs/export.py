"""Trace and metrics exporters: JSONL, Chrome trace-event, Prometheus.

Three wire formats, each aimed at an existing tool chain:

- **JSONL** (``.jsonl``): one JSON object per span, ``sort_keys`` so
  diffs are stable.  The canonical machine-readable form; ``ion-trace``
  reads it back losslessly.
- **Chrome trace-event JSON** (anything else): complete (``"X"``)
  events plus instant (``"i"``) events for span events, loadable in
  Perfetto and ``chrome://tracing``.  One *pid* per trace ID, one
  *tid* per recording thread, with metadata events naming both.  Span
  identity (trace/span/parent IDs) rides in ``args`` so the format
  round-trips through :func:`load_spans`.
- **Prometheus text exposition** for a
  :class:`~repro.util.metrics.MetricsRegistry`: counters, gauges and
  histograms (cumulative ``_bucket{le=...}`` series), plus one
  ``<span name>.seconds`` histogram per span name derived from the
  recorded spans — stage latency has no other source.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Iterable

from repro.obs.trace import Span, SpanEvent
from repro.util.errors import ReproError
from repro.util.metrics import LATENCY_BUCKETS, Histogram, MetricsRegistry


class TraceFormatError(ReproError):
    """A trace file did not match the expected schema."""


# -- JSONL ------------------------------------------------------------


def write_jsonl(spans: Iterable, path: str | Path) -> Path:
    """Write one sorted-keys JSON object per span; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
    return path


# -- Chrome trace-event JSON ------------------------------------------


def chrome_trace(spans: Iterable) -> dict:
    """Render spans as a Chrome trace-event JSON object.

    Timestamps are rebased to the earliest span start so the viewer
    timeline begins at zero; units are microseconds per the format.
    """
    spans = list(spans)
    origin = min((span.start for span in spans), default=0.0)
    # Stable pid per trace: order of first appearance by (start, id).
    trace_order: dict[str, int] = {}
    for span in sorted(spans, key=lambda s: (s.start, s.trace_id, s.span_id)):
        if span.trace_id not in trace_order:
            trace_order[span.trace_id] = len(trace_order) + 1
    thread_order: dict[str, int] = {}
    events: list[dict] = []
    for trace_id, pid in trace_order.items():
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"trace {trace_id}"},
            }
        )
    for span in spans:
        pid = trace_order[span.trace_id]
        thread = getattr(span, "thread", "") or "MainThread"
        if thread not in thread_order:
            thread_order[thread] = len(thread_order) + 1
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": thread_order[thread],
                    "args": {"name": thread},
                }
            )
        tid = thread_order[thread]
        end = span.end if span.end is not None else span.start
        args = dict(span.attributes)
        args.update(
            {
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "status": span.status,
            }
        )
        if span.status_detail:
            args["status_detail"] = span.status_detail
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.name.split(".")[0],
                "pid": pid,
                "tid": tid,
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round((end - span.start) * 1e6, 3),
                "args": args,
            }
        )
        for event in span.events:
            events.append(
                {
                    "ph": "i",
                    "name": event.name,
                    "cat": span.name.split(".")[0],
                    "pid": pid,
                    "tid": tid,
                    "ts": round((event.time - origin) * 1e6, 3),
                    "s": "t",
                    "args": {**event.attributes, "span_id": span.span_id},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Iterable, path: str | Path) -> Path:
    """Write spans as Chrome trace-event JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(spans), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def write_trace(spans: Iterable, path: str | Path) -> Path:
    """Write a trace, picking the format from the file extension.

    ``.jsonl`` selects the JSONL event log; anything else the Chrome
    trace-event JSON.
    """
    path = Path(path)
    if path.suffix == ".jsonl":
        return write_jsonl(spans, path)
    return write_chrome_trace(spans, path)


def validate_chrome_trace(payload: object) -> list[str]:
    """Schema-check a parsed Chrome trace; returns problems (empty = ok)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["top level must be a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "i", "M"):
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing name")
        if not isinstance(event.get("pid"), int) or not isinstance(
            event.get("tid"), int
        ):
            problems.append(f"{where}: pid/tid must be integers")
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative number")
        args = event.get("args")
        if not isinstance(args, dict):
            problems.append(f"{where}: args must be an object")
            continue
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: dur must be a non-negative number")
            for key in ("trace_id", "span_id"):
                if not isinstance(args.get(key), str):
                    problems.append(f"{where}: args.{key} must be a string")
        if ph == "i" and not isinstance(args.get("span_id"), str):
            problems.append(f"{where}: args.span_id must be a string")
    return problems


# -- reading traces back ----------------------------------------------


def load_spans(path: str | Path) -> list[Span]:
    """Read a trace file (JSONL or Chrome JSON) back into spans."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    stripped = text.lstrip()
    if not stripped:
        raise TraceFormatError(f"{path} is empty")
    if stripped.startswith("{") and '"traceEvents"' in stripped[:200]:
        return _spans_from_chrome(path, text)
    return _spans_from_jsonl(path, text)


def _spans_from_jsonl(path: Path, text: str) -> list[Span]:
    records: list[Span] = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"{path}:{number}: invalid JSON: {exc}") from exc
        try:
            record = Span(
                payload["trace_id"],
                payload["span_id"],
                payload.get("parent_id"),
                payload["name"],
                float(payload["start"]),
                attributes=payload.get("attributes", {}),
                end=float(payload["end"] if payload["end"] is not None
                          else payload["start"]),
                thread=payload.get("thread", "MainThread"),
            )
            record.events = [
                SpanEvent(
                    event["name"], float(event["time"]), event.get("attributes", {})
                )
                for event in payload.get("events", [])
            ]
            record.set_status(
                payload.get("status", "ok"), payload.get("status_detail", "")
            )
            records.append(record)
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(
                f"{path}:{number}: span record missing field: {exc}"
            ) from exc
    return records


def _spans_from_chrome(path: Path, text: str) -> list[Span]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path}: invalid JSON: {exc}") from exc
    problems = validate_chrome_trace(payload)
    if problems:
        raise TraceFormatError(
            f"{path}: not a valid Chrome trace: {problems[0]}"
        )
    by_span_id: dict[str, Span] = {}
    instants: list[dict] = []
    for event in payload["traceEvents"]:
        if event["ph"] == "X":
            args = dict(event["args"])
            record = Span(
                args.pop("trace_id"),
                args.pop("span_id"),
                args.pop("parent_id", None),
                event["name"],
                event["ts"] / 1e6,
                end=(event["ts"] + event["dur"]) / 1e6,
                thread="MainThread",
            )
            record.set_status(args.pop("status", "ok"), args.pop("status_detail", ""))
            record.attributes = args
            by_span_id[record.span_id] = record
        elif event["ph"] == "i":
            instants.append(event)
    for event in instants:
        args = dict(event["args"])
        span_id = args.pop("span_id")
        record = by_span_id.get(span_id)
        if record is not None:
            record.events.append(
                SpanEvent(event["name"], event["ts"] / 1e6, args)
            )
    return list(by_span_id.values())


# -- Prometheus text exposition ---------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    sanitized = _NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_value(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(round(value, 9))


def _span_histograms(spans: Iterable) -> dict[str, Histogram]:
    """One latency histogram of span durations per span name."""
    histograms: dict[str, Histogram] = {}
    for span in spans:
        name = f"{span.name}.seconds"
        if name not in histograms:
            histograms[name] = Histogram(LATENCY_BUCKETS)
        histograms[name].observe(span.duration)
    return histograms


def render_prometheus(registry: MetricsRegistry, spans: Iterable = ()) -> str:
    """Render every registry metric as Prometheus text exposition.

    ``spans`` (finished spans or span records) add one
    ``<span name>.seconds`` histogram per span name.  A derived name
    that is also a registry metric raises ``ValueError``.
    """
    derived = _span_histograms(spans)
    metrics = registry.collect()
    clashes = sorted(derived.keys() & {name for name, _, _ in metrics})
    if clashes:
        raise ValueError(
            f"span-derived metric {clashes[0]!r} is already a registry metric"
        )
    metrics += [(name, "histogram", metric) for name, metric in derived.items()]
    lines: list[str] = []
    for name, kind, metric in sorted(metrics, key=lambda item: item[0]):
        base = _prom_name(name)
        lines.append(f"# TYPE {base} {kind}")
        if kind != "histogram":
            lines.append(f"{base} {_prom_value(metric.value)}")
        else:
            for edge, cumulative in metric.bucket_counts():
                lines.append(
                    f'{base}_bucket{{le="{_prom_value(edge)}"}} {cumulative}'
                )
            lines.append(f"{base}_sum {_prom_value(metric.sum)}")
            lines.append(f"{base}_count {metric.count}")
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(
    registry: MetricsRegistry, path: str | Path, spans: Iterable = ()
) -> Path:
    """Write the Prometheus exposition of registry and spans; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_prometheus(registry, spans), encoding="utf-8")
    return path
