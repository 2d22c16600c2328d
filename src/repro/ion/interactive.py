"""ION's interactive Q&A interface over a finished diagnosis.

After the global summary, the paper's front end exposes a message
window where the scientist asks follow-up questions about any analysis
step or result.  :class:`IonSession` reproduces that: it builds a
digest of the report (summary, per-issue conclusions, measured
evidence) and answers each question through the LLM with the digest as
context, keeping the conversation history.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.ion.issues import DiagnosisReport
from repro.ion.prompts import build_question_prompt
from repro.llm.client import LLMClient
from repro.llm.messages import Message
from repro.obs.trace import NullTracer
from repro.util.errors import LLMError


def build_digest(report: DiagnosisReport) -> str:
    """Render a report into the digest format the Q&A prompt carries."""
    lines = [f"Summary: {' '.join(report.summary.split())}"]
    for diagnosis in report.diagnoses:
        lines.append("")
        lines.append(
            f"[{diagnosis.issue.value}] severity={diagnosis.severity.value}"
        )
        lines.append(f"Conclusion: {diagnosis.conclusion}")
        lines.append(f"Evidence: {json.dumps(diagnosis.evidence, sort_keys=True)}")
    return "\n".join(lines)


@dataclass
class Exchange:
    """One question/answer pair in a session."""

    question: str
    answer: str


@dataclass
class IonSession:
    """A conversational window onto one diagnosis report.

    The session degrades rather than raises when the LLM path fails: a
    question asked while the backend is down gets a deterministic
    answer pointing at the already-computed diagnosis, and
    ``degraded_answers`` counts how often that happened.
    """

    report: DiagnosisReport
    client: LLMClient
    history: list[Exchange] = field(default_factory=list)
    degraded_answers: int = 0
    tracer: object = field(default_factory=NullTracer)

    def ask(self, question: str) -> str:
        """Ask a follow-up question; the answer cites measured evidence."""
        question = question.strip()
        if not question:
            raise ValueError("question must not be empty")
        prompt = build_question_prompt(
            self.report.trace_name, build_digest(self.report), question
        )
        with self.tracer.span(
            "session.ask", attributes={"turn": len(self.history) + 1}
        ) as span:
            try:
                answer = self.client.complete([Message.user(prompt)]).content
            except LLMError as exc:
                self.degraded_answers += 1
                span.set_attribute("degraded", True)
                flagged = sorted(
                    issue.title for issue in self.report.detected_issues
                )
                summary = (
                    "; flagged issues: " + ", ".join(flagged)
                    if flagged
                    else "; no issues were flagged"
                )
                answer = (
                    f"(degraded answer — assistant unavailable: "
                    f"{type(exc).__name__}: {exc}) Refer to the diagnosis "
                    f"report for {self.report.trace_name}{summary}."
                )
        exchange = Exchange(question=question, answer=answer)
        self.history.append(exchange)
        return exchange.answer
