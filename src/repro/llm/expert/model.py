"""The simulated GPT-4 I/O expert.

:class:`SimulatedExpertLLM` implements the :class:`LLMClient` protocol
deterministically.  It reads the prompt the way ION wrote it, selects
analyses based on the *issue contexts present in the prompt*
(no context → only vacuous generalities, reproducing the paper's
observation), narrates chain-of-thought steps, emits real analysis
code, debugs it when an execution fails, and grounds every conclusion
in the metrics the code printed.

Substitution note: this class stands in for ``gpt-4-1106-preview``.
What it must get right for the reproduction is the *framework
behaviour* — prompts in, code-running completions out, conclusions
derived from measurements — not free-form language ability.
"""

from __future__ import annotations

import json
import re

from repro.ion import specs
from repro.ion.issues import IssueType
from repro.llm.expert import narrator
from repro.llm.expert.codegen import strip_imports
from repro.llm.expert.attention import ATTENTION_BUDGET_CHARS, attended_issues
from repro.llm.expert.promptspec import PromptSpec, parse_prompt
from repro.llm.messages import CodeCall, Completion, Message, Role
from repro.util.errors import LLMError

#: Printed by the analysis code before each issue's metrics.
ISSUE_MARKER = "### ISSUE:"

#: Matches the guard's ``[sca.import] line N: module 'x'`` feedback
#: lines (see :meth:`repro.sca.violations.GuardVerdict.render_feedback`).
_GUARD_IMPORT_RE = re.compile(r"\[sca\.import\] line \d+: module '([A-Za-z_][\w.]*)'")


class SimulatedExpertLLM:
    """Deterministic stand-in for the paper's GPT-4 analysis model."""

    def __init__(
        self,
        attention_budget: int = ATTENTION_BUDGET_CHARS,
        max_debug_rounds: int = 2,
    ) -> None:
        self.attention_budget = attention_budget
        self.max_debug_rounds = max_debug_rounds

    # -- LLMClient ------------------------------------------------------

    def complete(self, messages: list[Message]) -> Completion:
        """Produce the next assistant turn for an ION conversation."""
        user_index = self._last_user_index(messages)
        spec = parse_prompt(messages[user_index].content)
        if spec.kind == "summarize":
            return Completion(content=narrator.compose_summary(spec))
        if spec.kind == "question":
            return Completion(content=narrator.answer_question(spec))
        return self._diagnose_turn(spec, messages[user_index + 1 :])

    # -- diagnosis flow ----------------------------------------------------

    def _last_user_index(self, messages: list[Message]) -> int:
        for index in range(len(messages) - 1, -1, -1):
            if messages[index].role == Role.USER:
                return index
        raise LLMError("conversation contains no user message")

    def _diagnose_turn(
        self, spec: PromptSpec, tail: list[Message]
    ) -> Completion:
        issues = attended_issues(spec, self.attention_budget)
        grounded = [issue for issue in issues if self._grounded(spec, issue)]
        dropped = [issue for issue in spec.issues if issue not in issues]
        if not grounded:
            return self._vacuous_completion(spec)
        tool_messages = [m for m in tail if m.role == Role.TOOL]
        if not tool_messages:
            return self._first_turn(spec, grounded, dropped)
        last_tool = tool_messages[-1]
        failures = sum(
            1 for m in tool_messages if m.content.startswith("[execution error]")
        )
        if last_tool.content.startswith("[execution error]"):
            if failures <= self.max_debug_rounds - 1:
                return self._debug_turn(spec, grounded, last_tool.content)
            return Completion(
                content=self._failure_conclusions(grounded, last_tool.content)
            )
        return self._conclusion_turn(spec, grounded, last_tool.content)

    def _grounded(self, spec: PromptSpec, issue: IssueType) -> bool:
        """Whether the prompt supplies usable domain context for an issue."""
        context = spec.contexts.get(issue, "")
        if not context:
            return False
        markers = specs.spec_for(issue).markers
        lowered = context.lower()
        return any(marker.lower() in lowered for marker in markers)

    def _analyzable(self, spec: PromptSpec, issue: IssueType) -> bool:
        # Absent non-POSIX modules are handled by the analysis code.
        return (
            "POSIX" not in specs.spec_for(issue).modules
            or spec.file_path("POSIX") is not None
        )

    def _section(self, issue: IssueType, code: str) -> str:
        return f'print("{ISSUE_MARKER} {issue.value}")\n' + code

    # -- turn builders -----------------------------------------------------

    def _first_turn(
        self, spec: PromptSpec, issues: list[IssueType], dropped: list[IssueType]
    ) -> Completion:
        lines: list[str] = ["Diagnosis Steps:"]
        step_number = 1
        code_sections: list[str] = []
        for issue in issues:
            issue_spec = specs.spec_for(issue)
            if not self._analyzable(spec, issue):
                continue
            if len(issues) > 1:
                lines.append(f"[{issue.title}]")
            for step in issue_spec.steps(spec):
                lines.append(f"{step_number}. {step}")
                step_number += 1
            code_sections.append(self._section(issue, issue_spec.code(spec)))
        if not code_sections:
            return self._unanalyzable_completion(spec, issues)
        lines.append("")
        lines.append(
            "I will now run the analysis code over the listed trace files."
        )
        metadata: dict[str, object] = {"attended": [i.value for i in issues]}
        if dropped:
            metadata["dropped_for_context_budget"] = [i.value for i in dropped]
        return Completion(
            content="\n".join(lines),
            code_call=CodeCall("\n\n".join(code_sections)),
            metadata=metadata,
        )

    def _debug_turn(
        self, spec: PromptSpec, issues: list[IssueType], error_text: str
    ) -> Completion:
        banned = frozenset(_GUARD_IMPORT_RE.findall(error_text))
        if banned:
            return self._guard_repair_turn(spec, issues, banned, error_text)
        sections: list[str] = []
        for issue in issues:
            if not self._analyzable(spec, issue):
                continue
            issue_spec = specs.spec_for(issue)
            code = (issue_spec.fallback_code or issue_spec.code)(spec)
            sections.append(self._section(issue, code))
        if not sections:
            return Completion(content=self._failure_conclusions(issues, error_text))
        return Completion(
            content=(
                "The previous analysis code failed to execute. I will retry "
                "with a more defensive variant that relies only on the "
                "aggregate counters."
            ),
            code_call=CodeCall("\n\n".join(sections)),
            metadata={"debug_retry": True},
        )

    def _guard_repair_turn(
        self,
        spec: PromptSpec,
        issues: list[IssueType],
        banned: frozenset[str],
        error_text: str,
    ) -> Completion:
        """Repair an ``sca.import`` guard rejection.

        The sandbox guard names the refused modules in its feedback;
        the expert regenerates the analysis with those imports removed
        rather than falling back to the defensive counter-only code —
        a guard rejection is a policy problem, not a data problem.
        """
        sections: list[str] = []
        for issue in issues:
            if not self._analyzable(spec, issue):
                continue
            code = strip_imports(specs.spec_for(issue).code(spec), banned)
            sections.append(self._section(issue, code))
        if not sections:
            return Completion(content=self._failure_conclusions(issues, error_text))
        listed = ", ".join(sorted(banned))
        return Completion(
            content=(
                "The sandbox guard rejected the previous code because it "
                f"imported disallowed module(s): {listed}. I will resubmit "
                "the analysis without those imports."
            ),
            code_call=CodeCall("\n\n".join(sections)),
            metadata={"debug_retry": True, "guard_repair": sorted(banned)},
        )

    def _conclusion_turn(
        self, spec: PromptSpec, issues: list[IssueType], stdout: str
    ) -> Completion:
        metrics_by_issue = parse_tool_output(
            stdout, issues[0] if len(issues) == 1 else None
        )
        lines: list[str] = []
        for issue in issues:
            metrics = metrics_by_issue.get(issue)
            if metrics is None:
                lines.append(
                    f"Conclusion ({issue.title}): the analysis produced no "
                    "metrics for this issue. [severity=ok]"
                )
                continue
            verdict = specs.spec_for(issue).verdict(metrics, spec)
            tag = f"[severity={verdict.severity.value}]"
            if verdict.mitigations:
                notes = ",".join(note.value for note in verdict.mitigations)
                tag += f" [mitigations={notes}]"
            lines.append(f"Conclusion ({issue.title}): {verdict.conclusion} {tag}")
        return Completion(content="\n\n".join(lines))

    # -- degenerate completions ------------------------------------------------

    def _vacuous_completion(self, spec: PromptSpec) -> Completion:
        """What the model produces without grounded issue context."""
        files = ", ".join(sorted(spec.files)) or "no trace files"
        lines = [
            "The provided trace extracts cover the following modules: "
            f"{files}. Without domain-specific context describing how each "
            "I/O issue manifests in these counters, only general guidance "
            "can be offered: prefer large contiguous transfers, use "
            "parallel I/O libraries, and consult your facility's I/O "
            "documentation.",
        ]
        for issue in spec.issues:
            lines.append(
                f"Conclusion ({issue.title}): no specific diagnosis can be "
                "made from the trace without further context. [severity=ok]"
            )
        return Completion(content="\n\n".join(lines), metadata={"vacuous": True})

    def _unanalyzable_completion(
        self, spec: PromptSpec, issues: list[IssueType]
    ) -> Completion:
        lines = [
            "The files required for this analysis are not listed in the "
            "prompt, so no measurement is possible."
        ]
        for issue in issues:
            lines.append(
                f"Conclusion ({issue.title}): required trace files are "
                "unavailable; the issue cannot be assessed. [severity=ok]"
            )
        return Completion(content="\n\n".join(lines))

    def _failure_conclusions(self, issues: list[IssueType], error: str) -> str:
        summary = error.splitlines()[-1] if error.splitlines() else "unknown error"
        lines = [
            "Analysis code could not be executed successfully even after "
            f"debugging (last error: {summary})."
        ]
        for issue in issues:
            lines.append(
                f"Conclusion ({issue.title}): analysis failed; no diagnosis. "
                "[severity=ok]"
            )
        return "\n\n".join(lines)


_CONCLUSION_RE = re.compile(
    r"Conclusion \((?P<title>[^)]+)\):\s*(?P<body>.*?)(?=(?:\n\nConclusion \()|\Z)",
    flags=re.DOTALL,
)


def parse_conclusions(text: str) -> dict[str, str]:
    """Split a diagnosis completion into per-issue conclusion bodies.

    Shared with the ION analyzer, which must parse completions exactly
    the way real ION parses GPT-4 output.
    """
    return {
        match.group("title").strip(): match.group("body").strip()
        for match in _CONCLUSION_RE.finditer(text)
    }


def parse_tool_output(
    stdout: str, default: IssueType | None = None
) -> dict[IssueType, dict]:
    """Split analysis-code output into per-issue metric payloads.

    Each JSON line belongs to the issue named by the last
    ``ISSUE_MARKER`` line above it; lines under no marker, or under an
    unknown one, belong to ``default``.  Shared with the ION analyzer.
    """
    result: dict[IssueType, dict] = {}
    current: IssueType | None = None
    for line in stdout.splitlines():
        line = line.strip()
        if line.startswith(ISSUE_MARKER):
            value = line[len(ISSUE_MARKER) :].strip()
            try:
                current = IssueType(value)
            except ValueError:
                current = None
            continue
        if not line.startswith("{"):
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            continue
        owner = current or default
        if owner is not None:
            result[owner] = payload
    return result
