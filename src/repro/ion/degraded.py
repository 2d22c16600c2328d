"""Degraded-mode diagnosis: deterministic fallbacks for a failed LLM path.

When a per-issue LLM query exhausts its retry budget (or the circuit
breaker is open), the analyzer does not abort the report — it answers
that issue from the fully deterministic Drishti trigger engine
(:mod:`repro.drishti`), which shares ION's issue taxonomy.  The
fallback is honest about its provenance: every substituted diagnosis
is marked ``degraded`` with the failure reason and the fallback
source, and the report's health section counts it.

The same module supplies the degraded global summary used when the
summarization query itself fails.
"""

from __future__ import annotations

import threading

from repro.darshan.binformat import LogFile
from repro.darshan.log import DarshanLog
from repro.drishti.analyzer import DrishtiAnalyzer
from repro.drishti.insights import DrishtiReport, Level
from repro.ion.issues import Diagnosis, IssueType, Severity

#: Drishti severity levels mapped onto ION's severity scale.
_LEVEL_TO_SEVERITY = {
    Level.HIGH: Severity.CRITICAL,
    Level.WARN: Severity.WARNING,
    Level.INFO: Severity.INFO,
    Level.OK: Severity.OK,
}

_SEVERITY_RANK = {
    Severity.OK: 0,
    Severity.INFO: 1,
    Severity.WARNING: 2,
    Severity.CRITICAL: 3,
}


class DrishtiFallback:
    """Per-report oracle answering issues the LLM path could not.

    The Drishti report is computed lazily (only if a query actually
    degrades) and exactly once per trace, however many of the
    analyzer's prompt threads ask for it concurrently.  A
    :class:`LogFile` is read then too, and not before.
    """

    def __init__(self, log: DarshanLog | LogFile | None, trace_name: str) -> None:
        self._log = log
        self._trace_name = trace_name
        self._lock = threading.Lock()
        self._report: DrishtiReport | None = None

    @property
    def available(self) -> bool:
        """Whether a heuristic fallback is possible (the log is known)."""
        return self._log is not None

    def _drishti_report(self) -> DrishtiReport:
        with self._lock:
            if self._report is None:
                log = self._log
                if isinstance(log, LogFile):
                    log = log.log
                self._report = DrishtiAnalyzer().analyze(log, self._trace_name)
            return self._report

    def diagnosis_for(self, issue: IssueType, reason: str) -> Diagnosis:
        """A degraded diagnosis of ``issue``, heuristic when possible."""
        if not self.available:
            return Diagnosis(
                issue=issue,
                severity=Severity.OK,
                conclusion=(
                    "LLM diagnosis unavailable and no trace is attached "
                    "for a heuristic fallback; this issue was NOT examined."
                ),
                degraded=True,
                degraded_reason=reason,
                fallback_source="none",
            )
        insights = [
            insight
            for insight in self._drishti_report().insights
            if insight.issue == issue
        ]
        if not insights:
            return Diagnosis(
                issue=issue,
                severity=Severity.OK,
                conclusion=(
                    "Drishti heuristic fallback: no trigger fired for "
                    "this issue."
                ),
                degraded=True,
                degraded_reason=reason,
                fallback_source="drishti",
            )
        severity = max(
            (_LEVEL_TO_SEVERITY[insight.level] for insight in insights),
            key=_SEVERITY_RANK.__getitem__,
        )
        flagged = [
            insight
            for insight in insights
            if _LEVEL_TO_SEVERITY[insight.level] == severity
        ]
        parts = []
        for insight in flagged:
            text = insight.message
            if insight.recommendation:
                text += f" Recommendation: {insight.recommendation}"
            parts.append(text)
        return Diagnosis(
            issue=issue,
            severity=severity,
            conclusion="Drishti heuristic fallback: " + " ".join(parts),
            evidence={
                "drishti_triggers": sorted(
                    insight.code for insight in insights
                )
            },
            degraded=True,
            degraded_reason=reason,
            fallback_source="drishti",
        )


def compose_degraded_summary(
    trace_name: str, diagnoses: list[Diagnosis], reason: str
) -> str:
    """A deterministic global summary when the summarizer query fails."""
    flagged = [d for d in diagnoses if d.detected]
    mitigated = [d for d in diagnoses if d.observed and not d.detected]
    lines = [
        f"(degraded summary — LLM summarizer unavailable: {reason})",
        f"Of {len(diagnoses)} issues examined for {trace_name}, "
        f"{len(flagged)} affect performance and {len(mitigated)} are "
        "present but mitigated.",
    ]
    if flagged:
        titles = ", ".join(d.issue.title for d in flagged)
        lines.append(f"Flagged: {titles}.")
    degraded = [d for d in diagnoses if d.degraded]
    if degraded:
        lines.append(
            f"{len(degraded)} of the per-issue diagnoses above are "
            "themselves degraded-mode results; re-run when the LLM "
            "backend recovers for mitigation analysis."
        )
    return " ".join(lines)
