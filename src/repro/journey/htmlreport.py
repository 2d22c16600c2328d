"""Self-contained HTML rendering of journey reports.

Follows the diagnosis HTML renderer's conventions: one static file,
inline CSS, no JavaScript dependencies — it renders anywhere, including
air-gapped HPC login nodes.  Each step is a collapsible section listing
its attempts with verdict badges; the header summarizes the outcome and
the overall performance delta.
"""

from __future__ import annotations

import html
from pathlib import Path

from repro.ion.htmlreport import timings_table
from repro.journey.model import (
    JourneyReport,
    JourneyStatus,
    JourneyStep,
    RemediationAttempt,
    Verdict,
)
from repro.util.units import format_size

_VERDICT_STYLE = {
    Verdict.VERIFIED: ("VERIFIED", "#1e6b3a", "#e6f4ea"),
    Verdict.NO_EFFECT: ("NO EFFECT", "#5f6368", "#f1f3f4"),
    Verdict.REGRESSED: ("REGRESSED", "#b3261e", "#fde7e9"),
    Verdict.INAPPLICABLE: ("INAPPLICABLE", "#8a6d00", "#fff3cd"),
}

_STATUS_STYLE = {
    JourneyStatus.CLEAN: ("CLEAN", "#1e6b3a", "#e6f4ea"),
    JourneyStatus.STALLED: ("STALLED", "#8a6d00", "#fff3cd"),
    JourneyStatus.BUDGET_EXHAUSTED: ("BUDGET EXHAUSTED", "#8a6d00", "#fff3cd"),
    JourneyStatus.NO_REMEDIATION: ("NO REMEDIATION", "#b3261e", "#fde7e9"),
}

_CSS = """
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 60rem;
       color: #1f1f1f; line-height: 1.45; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #ddd; padding-bottom: .4rem; }
.badge { display: inline-block; font-size: .75rem; font-weight: 700;
         padding: .15rem .5rem; border-radius: .6rem; margin-right: .5rem; }
details.step { border: 1px solid #ddd; border-radius: .5rem;
               margin: .6rem 0; padding: .2rem .8rem; }
details.step summary { cursor: pointer; font-weight: 600; padding: .4rem 0; }
.attempt { border-left: 3px solid #ddd; margin: .5rem 0; padding: .2rem .8rem; }
.reason { margin: .3rem 0; }
.degraded { color: #8a6d00; font-style: italic; }
table.perf { border-collapse: collapse; font-size: .85rem; margin: .6rem 0; }
table.perf td, table.perf th { border: 1px solid #ddd;
  padding: .15rem .5rem; text-align: left; }
ul.changes { margin: .2rem 0 .4rem 1.2rem; font-family: ui-monospace,
             monospace; font-size: .82rem; }
.applied { color: #1e6b3a; font-weight: 600; }
footer { margin-top: 2rem; color: #777; font-size: .8rem; }
"""


def _badge(label: str, fg: str, bg: str) -> str:
    return (
        f'<span class="badge" style="color:{fg};background:{bg}">'
        f"{html.escape(label)}</span>"
    )


def _perf_cells(label: str, perf) -> str:
    return (
        f"<tr><td>{html.escape(label)}</td>"
        f"<td>{perf.runtime_seconds:.3f} s</td>"
        f"<td>{html.escape(format_size(perf.bytes_moved))}</td>"
        f"<td>{html.escape(format_size(perf.aggregate_bandwidth))}/s</td></tr>"
    )


def _attempt_section(attempt: RemediationAttempt) -> str:
    label, fg, bg = _VERDICT_STYLE[attempt.verdict]
    parts = ['<div class="attempt">']
    parts.append(
        f"{_badge(label, fg, bg)}"
        f"<strong>{html.escape(attempt.remediation.action)}</strong>"
        f" — {html.escape(attempt.remediation.issue.title)}"
    )
    parts.append(
        f"<div>{html.escape(attempt.remediation.description)}</div>"
    )
    if attempt.changes:
        changes = "".join(
            f"<li>{html.escape(change.render())}</li>"
            for change in attempt.changes
        )
        parts.append(f'<ul class="changes">{changes}</ul>')
    parts.append(f'<div class="reason">{html.escape(attempt.reason)}</div>')
    if attempt.perf_after is not None:
        parts.append(
            f"<div>After: {html.escape(attempt.perf_after.render())}</div>"
        )
    if attempt.cleared:
        cleared = ", ".join(sorted(i.value for i in attempt.cleared))
        parts.append(f"<div>Cleared: {html.escape(cleared)}</div>")
    if attempt.introduced:
        introduced = ", ".join(sorted(i.value for i in attempt.introduced))
        parts.append(f"<div>Introduced: {html.escape(introduced)}</div>")
    if attempt.degraded:
        parts.append(
            '<div class="degraded">Post-fix diagnosis ran degraded.</div>'
        )
    parts.append("</div>")
    return "\n".join(parts)


def _step_section(step: JourneyStep) -> str:
    detected = (
        ", ".join(sorted(issue.value for issue in step.detected))
        if step.detected
        else "none"
    )
    open_attr = " open" if step.attempts or step.detected else ""
    parts = [f'<details class="step"{open_attr}>']
    degraded = " — diagnosis degraded" if step.degraded else ""
    parts.append(
        f"<summary>Step {step.index}: detected {html.escape(detected)}"
        f"{html.escape(degraded)}</summary>"
    )
    parts.append(f"<div>Performance: {html.escape(step.perf.render())}</div>")
    parts.extend(_attempt_section(attempt) for attempt in step.attempts)
    if step.applied is not None:
        parts.append(
            f'<div class="applied">Applied: {html.escape(step.applied)}</div>'
        )
    parts.append("</details>")
    return "\n".join(parts)


def render_journey_html(report: JourneyReport, timings=None) -> str:
    """Render a journey report as one HTML document.

    ``timings`` (optional) is a list of per-stage
    :class:`~repro.obs.summary.StageRow` aggregates recorded by a live
    tracer; when omitted the document is byte-identical to pre-tracing
    output.
    """
    label, fg, bg = _STATUS_STYLE[report.status]
    sections = [f"<p>Outcome: {_badge(label, fg, bg)}</p>"]
    sections.append(
        '<table class="perf">'
        "<tr><th></th><th>runtime</th><th>moved</th><th>aggregate</th></tr>"
        + _perf_cells("initial", report.initial_perf)
        + _perf_cells("final", report.final_perf)
        + "</table>"
    )
    sections.append(
        f"<p>Overall: {html.escape(report.overall_delta.render())}</p>"
    )
    if report.applied_actions:
        chain = " → ".join(report.applied_actions)
        sections.append(f"<p>Applied: {html.escape(chain)}</p>")
    if report.config_diff:
        changes = "".join(
            f"<li>{html.escape(change.render())}</li>"
            for change in report.config_diff
        )
        sections.append(
            f"<p>Configuration diff:</p><ul class='changes'>{changes}</ul>"
        )
    sections.append("<h2>Steps</h2>")
    sections.extend(_step_section(step) for step in report.steps)
    remaining = report.remaining_issues
    if remaining:
        issues = ", ".join(sorted(issue.value for issue in remaining))
        sections.append(f"<p>Remaining issues: {html.escape(issues)}</p>")
    if timings:
        sections.append(timings_table(timings, css_class="perf"))
    body = "\n".join(sections)
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>ION journey — {html.escape(report.trace_name)}</title>
<style>{_CSS}</style>
</head>
<body>
<h1>ION optimization journey — {html.escape(report.trace_name)}</h1>
{body}
<footer>Generated by the ION reproduction (HotStorage 2024).</footer>
</body>
</html>
"""


def write_journey_html(
    report: JourneyReport, path: str | Path, timings=None
) -> Path:
    """Render and write the journey HTML; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_journey_html(report, timings=timings))
    return path
