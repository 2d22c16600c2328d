"""Summary and interactive-answer composition for the simulated expert.

These produce the two non-diagnosis completions ION requests: the
global summary over all per-issue conclusions, and answers to follow-up
questions grounded in the stored diagnosis digest.
"""

from __future__ import annotations

import json
import re

from repro.ion import specs
from repro.ion.issues import IssueType, Severity
from repro.llm.expert.promptspec import PromptSpec

_SEVERITY_RE = re.compile(r"\[severity=(\w+)\]")

def _severity_of(text: str) -> Severity:
    match = _SEVERITY_RE.search(text)
    if not match:
        return Severity.OK
    try:
        return Severity(match.group(1))
    except ValueError:
        return Severity.OK


def compose_summary(spec: PromptSpec) -> str:
    """Build the global diagnosis summary from per-issue conclusions."""
    buckets: dict[Severity, list[tuple[str, str]]] = {s: [] for s in Severity}
    for title, conclusion in spec.conclusions:
        buckets[_severity_of(conclusion)].append((title, conclusion))
    parts: list[str] = [f"Diagnosis summary for trace '{spec.trace_name}':"]
    dominating = buckets[Severity.CRITICAL] + buckets[Severity.WARNING]
    if dominating:
        parts.append(
            "The dominating issues are: "
            + "; ".join(
                f"{title} — {_strip_tags(text)}" for title, text in dominating
            )
        )
    else:
        parts.append(
            "No I/O issue dominating performance was found in this trace."
        )
    if buckets[Severity.INFO]:
        parts.append(
            "Present but mitigated or informational: "
            + "; ".join(
                f"{title} — {_strip_tags(text)}"
                for title, text in buckets[Severity.INFO]
            )
        )
    if buckets[Severity.OK]:
        ok_titles = ", ".join(title for title, _ in buckets[Severity.OK])
        parts.append(f"Examined and found unproblematic: {ok_titles}.")
    if dominating:
        top = specs.spec_titled(dominating[0][0])
        if top is not None:
            parts.append(f"Most impactful recommendation: {top.recommendation}.")
    return "\n\n".join(parts)


def _strip_tags(text: str) -> str:
    return re.sub(r"\s*\[(severity|mitigations)=[^\]]*\]", "", text).strip()


def _digest_blocks(digest: str) -> dict[str, dict[str, str]]:
    """Parse the analyzer's digest into per-issue blocks."""
    blocks: dict[str, dict[str, str]] = {}
    pattern = re.compile(
        r"^\[(?P<key>\w+)\] severity=(?P<severity>\w+)\n"
        r"Conclusion: (?P<conclusion>.*?)\n"
        r"Evidence: (?P<evidence>\{.*?\})$",
        flags=re.MULTILINE | re.DOTALL,
    )
    for match in pattern.finditer(digest):
        blocks[match.group("key")] = {
            "severity": match.group("severity"),
            "conclusion": match.group("conclusion").strip(),
            "evidence": match.group("evidence").strip(),
        }
    return blocks


_FIX_INTENT = (
    "fix", "resolve", "recommend", "improve", "optimize", "optimise",
    "what should", "how do i", "how can i", "mitigate", "address",
)

_FOLLOW_UP = ("why", "how come", "explain", "tell me more", "elaborate")


def _worst_block(blocks: dict[str, dict[str, str]]) -> str | None:
    """The most severe diagnosed issue in the digest."""
    order = {"critical": 3, "warning": 2, "info": 1, "ok": 0}
    ranked = sorted(
        blocks.items(),
        key=lambda item: (-order.get(item[1]["severity"], 0), item[0]),
    )
    if not ranked or order.get(ranked[0][1]["severity"], 0) == 0:
        return None
    return ranked[0][0]


def answer_question(spec: PromptSpec) -> str:
    """Answer a follow-up question from the stored diagnosis digest.

    Three intents are understood beyond plain lookups: quantitative
    questions quote the measured evidence, fix-oriented questions append
    the recommendation for the matched issue, and bare follow-ups
    ("why?", "tell me more") route to the most severe diagnosed issue.
    """
    question = spec.question.lower()
    blocks = _digest_blocks(spec.digest)
    scores: dict[str, int] = {}
    for issue_spec in specs.all_specs():
        key = issue_spec.issue.value
        if key in blocks:
            scores[key] = sum(1 for kw in issue_spec.keywords if kw in question)
    best_key = max(scores, key=lambda k: (scores[k], k), default=None)
    wants_fix = any(phrase in question for phrase in _FIX_INTENT)
    if best_key is None or scores.get(best_key, 0) == 0:
        # No direct keyword match: bare follow-ups and fix requests fall
        # back to the dominant issue; everything else gets the summary.
        if (wants_fix or any(question.startswith(w) for w in _FOLLOW_UP)):
            best_key = _worst_block(blocks)
        else:
            best_key = None
        if best_key is None:
            summary_match = re.search(
                r"^Summary: (.*)$", spec.digest, flags=re.MULTILINE
            )
            lead = summary_match.group(1) if summary_match else ""
            return (
                "That question does not map onto a specific analyzed issue. "
                f"Overall: {lead} You can ask about any of: "
                + ", ".join(sorted(blocks)) + "."
            )
    block = blocks[best_key]
    answer = [block["conclusion"]]
    wants_numbers = any(
        phrase in question
        for phrase in ("how many", "how much", "what percent", "percentage",
                       "fraction", "count", "number of", "which file",
                       "which rank", "ratio")
    )
    if wants_numbers:
        try:
            evidence = json.loads(block["evidence"])
        except json.JSONDecodeError:
            evidence = {}
        if evidence:
            facts = ", ".join(
                f"{key}={value}" for key, value in sorted(evidence.items())
                if not isinstance(value, (list, dict))
            )
            answer.append(f"Measured values: {facts}.")
    if wants_fix:
        recommendation = specs.spec_for(IssueType(best_key)).recommendation
        answer.append(f"Recommendation: {recommendation}.")
    answer.append(f"(severity assessed: {block['severity']})")
    return " ".join(answer)
