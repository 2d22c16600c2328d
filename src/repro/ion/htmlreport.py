"""Self-contained HTML rendering of diagnosis reports.

The paper's front end (Figure 1) presents one modal per issue —
diagnosis steps, generated analysis code, and the conclusion — above a
global summary and the interactive message window.  This module emits
the static equivalent: a single HTML file with collapsible per-issue
sections, severity badges, the executed code, measured evidence, and
(optionally) the Q&A transcript of an interactive session.

No external assets, no JavaScript dependencies: the file renders
anywhere, including air-gapped HPC login nodes.
"""

from __future__ import annotations

import html
import json
from pathlib import Path

from repro.ion.interactive import IonSession
from repro.ion.issues import Diagnosis, DiagnosisReport, Severity

_SEVERITY_STYLE = {
    Severity.CRITICAL: ("CRITICAL", "#b3261e", "#fde7e9"),
    Severity.WARNING: ("WARNING", "#8a6d00", "#fff3cd"),
    Severity.INFO: ("MITIGATED", "#0b57d0", "#e8f0fe"),
    Severity.OK: ("OK", "#1e6b3a", "#e6f4ea"),
}

_CSS = """
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 60rem;
       color: #1f1f1f; line-height: 1.45; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #ddd; padding-bottom: .4rem; }
.badge { display: inline-block; font-size: .75rem; font-weight: 700;
         padding: .15rem .5rem; border-radius: .6rem; margin-right: .5rem; }
details.issue { border: 1px solid #ddd; border-radius: .5rem;
                margin: .6rem 0; padding: .2rem .8rem; }
details.issue summary { cursor: pointer; font-weight: 600; padding: .4rem 0; }
.conclusion { margin: .4rem 0 .6rem; }
.mitigation { color: #0b57d0; font-style: italic; }
.degraded { color: #8a6d00; font-style: italic; }
table.health { border-collapse: collapse; font-size: .85rem; }
table.health td, table.health th { border: 1px solid #ddd;
  padding: .15rem .5rem; text-align: left; }
ol.steps { margin: .2rem 0 .6rem 1.2rem; }
pre { background: #f6f8fa; border-radius: .4rem; padding: .7rem;
      overflow-x: auto; font-size: .82rem; }
.summary { background: #f2f6ff; border-radius: .5rem; padding: .8rem 1rem;
           margin-top: 1rem; white-space: pre-wrap; }
.qa { margin-top: 1rem; }
.qa .q { font-weight: 600; margin-top: .6rem; }
table.evidence { border-collapse: collapse; font-size: .82rem; }
table.evidence td, table.evidence th { border: 1px solid #ddd;
  padding: .15rem .5rem; text-align: left; }
footer { margin-top: 2rem; color: #777; font-size: .8rem; }
"""


def _badge(severity: Severity) -> str:
    label, fg, bg = _SEVERITY_STYLE[severity]
    return (
        f'<span class="badge" style="color:{fg};background:{bg}">{label}</span>'
    )


def _evidence_table(evidence: dict) -> str:
    if not evidence:
        return ""
    rows = []
    for key in sorted(evidence):
        value = evidence[key]
        if isinstance(value, (list, dict)):
            value = json.dumps(value)
        rows.append(
            f"<tr><td>{html.escape(str(key))}</td>"
            f"<td>{html.escape(str(value))}</td></tr>"
        )
    return (
        '<table class="evidence"><tr><th>metric</th><th>measured</th></tr>'
        + "".join(rows)
        + "</table>"
    )


def _issue_section(diagnosis: Diagnosis) -> str:
    parts = ['<details class="issue">']
    open_attr = " open" if diagnosis.detected else ""
    parts[0] = f'<details class="issue"{open_attr}>'
    parts.append(
        f"<summary>{_badge(diagnosis.severity)}"
        f"{html.escape(diagnosis.issue.title)}</summary>"
    )
    parts.append(
        f'<p class="conclusion">{html.escape(diagnosis.conclusion)}</p>'
    )
    if diagnosis.mitigations:
        notes = "; ".join(note.title for note in diagnosis.mitigations)
        parts.append(f'<p class="mitigation">Mitigating context: '
                     f"{html.escape(notes)}</p>")
    if diagnosis.degraded:
        source = {
            "drishti": "Drishti heuristic fallback",
            "none": "no fallback available",
        }.get(diagnosis.fallback_source, diagnosis.fallback_source)
        parts.append(
            f'<p class="degraded">DEGRADED ({html.escape(source)}): '
            f"{html.escape(diagnosis.degraded_reason)}</p>"
        )
    if diagnosis.steps:
        steps = "".join(
            f"<li>{html.escape(step)}</li>" for step in diagnosis.steps
        )
        parts.append(f"<div>Diagnosis steps:</div><ol class='steps'>{steps}</ol>")
    if diagnosis.evidence:
        parts.append("<div>Measured evidence:</div>")
        parts.append(_evidence_table(diagnosis.evidence))
    if diagnosis.code:
        parts.append("<details><summary>Analysis code</summary>")
        parts.append(f"<pre>{html.escape(diagnosis.code)}</pre></details>")
    parts.append("</details>")
    return "\n".join(parts)


def timings_table(timings, css_class: str = "health") -> str:
    """The "Pipeline timings" section from per-stage span aggregates."""
    rows = "".join(
        f"<tr><td>{html.escape(row.name)}</td><td>{row.count}</td>"
        f"<td>{row.total:.6f}</td><td>{row.mean:.6f}</td>"
        f"<td>{row.max:.6f}</td></tr>"
        for row in timings
    )
    return (
        "<h2>Pipeline timings</h2>"
        f'<table class="{css_class}"><tr><th>stage</th><th>count</th>'
        "<th>total (s)</th><th>mean (s)</th><th>max (s)</th></tr>"
        + rows
        + "</table>"
    )


def render_html(
    report: DiagnosisReport,
    session: IonSession | None = None,
    timings=None,
) -> str:
    """Render a report (and optional Q&A history) as one HTML document.

    ``timings`` (optional) is a list of per-stage
    :class:`~repro.obs.summary.StageRow` aggregates recorded by a live
    tracer; when omitted the document is byte-identical to pre-tracing
    output.
    """
    sections = []
    for group, title in (
        ([d for d in report.diagnoses if d.detected],
         "Issues affecting performance"),
        ([d for d in report.diagnoses if d.observed and not d.detected],
         "Patterns present but mitigated"),
        ([d for d in report.diagnoses if not d.observed],
         "Examined and unproblematic"),
    ):
        if not group:
            continue
        sections.append(f"<h2>{html.escape(title)}</h2>")
        sections.extend(_issue_section(diagnosis) for diagnosis in group)
    if report.summary:
        sections.append("<h2>Global summary</h2>")
        sections.append(f'<div class="summary">{html.escape(report.summary)}</div>')
    if report.health is not None:
        health = report.health
        trips = (
            f" (tripped {health.breaker_trips}x this run)"
            if health.breaker_trips
            else ""
        )
        rows = [
            ("queries", str(health.queries)),
            ("attempts", str(health.attempts)),
            ("retries", str(health.retries)),
            ("degraded", str(health.degraded)),
            ("drishti fallbacks", str(health.fallbacks)),
            ("circuit breaker", f"{health.breaker_state}{trips}"),
        ]
        cells = "".join(
            f"<tr><td>{html.escape(key)}</td>"
            f"<td>{html.escape(value)}</td></tr>"
            for key, value in rows
        )
        sections.append("<h2>Pipeline health</h2>")
        sections.append(
            '<table class="health"><tr><th>metric</th><th>value</th></tr>'
            + cells
            + "</table>"
        )
        if health.notes:
            notes = "".join(
                f"<li>{html.escape(note)}</li>" for note in health.notes
            )
            sections.append(f"<ul>{notes}</ul>")
    if timings:
        sections.append(timings_table(timings))
    if session is not None and session.history:
        sections.append('<h2>Interactive session</h2><div class="qa">')
        for exchange in session.history:
            sections.append(
                f'<div class="q">Q: {html.escape(exchange.question)}</div>'
            )
            sections.append(f"<div>A: {html.escape(exchange.answer)}</div>")
        sections.append("</div>")
    body = "\n".join(sections)
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>ION diagnosis — {html.escape(report.trace_name)}</title>
<style>{_CSS}</style>
</head>
<body>
<h1>ION diagnosis report — {html.escape(report.trace_name)}</h1>
{body}
<footer>Generated by the ION reproduction (HotStorage 2024).</footer>
</body>
</html>
"""


def write_html(
    report: DiagnosisReport,
    path: str | Path,
    session: IonSession | None = None,
    timings=None,
) -> Path:
    """Render and write the HTML report; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_html(report, session=session, timings=timings))
    return path
