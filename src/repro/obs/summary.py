"""Deterministic per-stage digestion of a recorded trace.

Turns a flat list of :class:`~repro.obs.trace.Span` objects (live,
or read back from a file) into the report ``ion-trace`` prints: per-stage timing totals,
the slowest individual spans, and a per-trace block with retry /
degradation / breaker accounting and the critical path (the
root-to-leaf chain maximizing summed span duration).

Everything sorts on explicit keys (total time desc, then name; trace
order of first appearance), so identical traces render identically —
the golden trace-summary snapshot depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True)
class StageRow:
    """Aggregated timing of every span sharing one name."""

    name: str
    count: int
    total: float
    mean: float
    max: float


@dataclass
class TraceStats:
    """Everything the summary reports about one trace."""

    trace_id: str
    name: str
    spans: int
    duration: float
    retries: int
    degraded: int
    fallbacks: int
    short_circuits: int
    errors: int
    critical_path: list[str] = field(default_factory=list)


@dataclass
class TraceSummary:
    """The full digest of one recorded trace file."""

    span_count: int
    event_count: int
    error_count: int
    stages: list[StageRow]
    traces: list[TraceStats]
    slowest: list


def _span_label(span) -> str:
    """A human label for one span (name plus its discriminating attr)."""
    for key in ("issue", "action", "trace", "module", "workload"):
        value = span.attributes.get(key)
        if value is not None:
            return f"{span.name}({value})"
    return span.name


def stage_rows(spans: Iterable) -> list[StageRow]:
    """Aggregate spans by name, ordered by total time desc then name."""
    totals: dict[str, list[float]] = {}
    for span in spans:
        bucket = totals.setdefault(span.name, [0, 0.0, 0.0])
        bucket[0] += 1
        bucket[1] += span.duration
        bucket[2] = max(bucket[2], span.duration)
    rows = [
        StageRow(
            name=name,
            count=int(count),
            total=total,
            mean=total / count if count else 0.0,
            max=maximum,
        )
        for name, (count, total, maximum) in totals.items()
    ]
    rows.sort(key=lambda row: (-row.total, row.name))
    return rows


def _critical_path(root, children: dict) -> tuple[float, list[str]]:
    """Longest root-to-leaf chain by summed duration (iterative DFS)."""
    best: dict[str, tuple[float, list[str]]] = {}
    stack = [(root, False)]
    while stack:
        span, expanded = stack.pop()
        kids = children.get(span.span_id, [])
        if not expanded:
            stack.append((span, True))
            stack.extend((kid, False) for kid in kids)
            continue
        if kids:
            tail = max(
                (best[kid.span_id] for kid in kids),
                key=lambda item: (item[0], item[1]),
            )
        else:
            tail = (0.0, [])
        best[span.span_id] = (
            span.duration + tail[0],
            [_span_label(span), *tail[1]],
        )
    return best[root.span_id]


def summarize(spans: Iterable) -> TraceSummary:
    """Digest a span list into the deterministic summary structure."""
    spans = list(spans)
    by_trace: dict[str, list] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)

    traces: list[TraceStats] = []
    for trace_id, members in by_trace.items():
        members = sorted(members, key=lambda s: (s.start, s.span_id))
        roots = [s for s in members if s.parent_id is None]
        retries = degraded = fallbacks = short_circuits = errors = 0
        for span in members:
            for event in span.events:
                if event.name == "retry":
                    retries += 1
                elif event.name == "breaker.short_circuit":
                    short_circuits += 1
            if span.attributes.get("degraded"):
                degraded += 1
                if span.attributes.get("fallback") == "drishti":
                    fallbacks += 1
            if span.status == "error":
                errors += 1
        start = min(s.start for s in members)
        end = max(s.end if s.end is not None else s.start for s in members)
        children: dict[str, list] = {}
        for span in members:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)
        path: list[str] = []
        if len(roots) == 1:
            _, path = _critical_path(roots[0], children)
        name = ""
        for root in roots:
            for key in ("trace", "workload", "name"):
                if root.attributes.get(key):
                    name = str(root.attributes[key])
                    break
            if name:
                break
        traces.append(
            TraceStats(
                trace_id=trace_id,
                name=name,
                spans=len(members),
                duration=end - start,
                retries=retries,
                degraded=degraded,
                fallbacks=fallbacks,
                short_circuits=short_circuits,
                errors=errors,
                critical_path=path,
            )
        )
    # Order traces by first span start, then id — submission order for
    # serial runs, stable under any interleaving.
    order = {
        trace_id: min(s.start for s in members)
        for trace_id, members in by_trace.items()
    }
    traces.sort(key=lambda t: (order[t.trace_id], t.trace_id))

    slowest = sorted(
        spans, key=lambda s: (-s.duration, s.name, s.trace_id, s.span_id)
    )
    return TraceSummary(
        span_count=len(spans),
        event_count=sum(len(s.events) for s in spans),
        error_count=sum(1 for s in spans if s.status == "error"),
        stages=stage_rows(spans),
        traces=traces,
        slowest=slowest,
    )


def render_summary(summary: TraceSummary, top: int = 5) -> str:
    """Render the summary as the deterministic ``ion-trace`` report."""
    lines: list[str] = []
    lines.append(
        f"ION trace summary — {len(summary.traces)} trace(s), "
        f"{summary.span_count} span(s), {summary.event_count} event(s), "
        f"{summary.error_count} error(s)"
    )
    lines.append("")
    lines.append("--- Stages (by total time) ---")
    name_width = max([len(row.name) for row in summary.stages] + [5])
    lines.append(
        f"  {'stage':<{name_width}}  {'count':>5}  {'total':>11}  "
        f"{'mean':>11}  {'max':>11}"
    )
    for row in summary.stages:
        lines.append(
            f"  {row.name:<{name_width}}  {row.count:>5}  "
            f"{row.total:>10.6f}s  {row.mean:>10.6f}s  {row.max:>10.6f}s"
        )
    lines.append("")
    lines.append(f"--- Slowest spans (top {top}) ---")
    for rank, span in enumerate(summary.slowest[:top], start=1):
        lines.append(
            f"  {rank}. {span.duration:.6f}s  {_span_label(span)}  "
            f"[trace {span.trace_id}]"
        )
    lines.append("")
    lines.append("--- Per-trace ---")
    for stats in summary.traces:
        title = f"trace {stats.trace_id}"
        if stats.name:
            title += f"  {stats.name}"
        lines.append(f"  {title}")
        lines.append(
            f"    spans={stats.spans}  duration={stats.duration:.6f}s  "
            f"retries={stats.retries}  degraded={stats.degraded}  "
            f"fallbacks={stats.fallbacks}  "
            f"short_circuits={stats.short_circuits}  errors={stats.errors}"
        )
        if stats.critical_path:
            lines.append(
                "    critical path: " + " -> ".join(stats.critical_path)
            )
    return "\n".join(lines) + "\n"
