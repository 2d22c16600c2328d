"""Prompt construction for the ION Analyzer.

One prompt per issue type (the divide-and-conquer strategy the paper
converged on), each assembled from four blocks:

1. the issue's *I/O Performance Issue Context* (domain knowledge),
2. system parameters (rank count, stripe/RPC sizes — facts, not tuned
   thresholds),
3. descriptions of the extracted CSV files, filtered to the modules the
   issue needs,
4. an output-format block demanding chain-of-thought steps, runnable
   analysis code, and a tagged conclusion.

``build_monolithic_prompt`` builds the single voluminous prompt the
paper found to overwhelm even strong models; it exists for the ABL1
ablation.
"""

from __future__ import annotations

from repro.ion.extractor import ExtractionResult
from repro.ion.issues import IssueType
from repro.ion.specs import IssueSpec

ASSISTANT_INSTRUCTIONS = """\
You are ION, an expert high-performance-computing I/O performance
analyst. You are given extracts of a Darshan trace as CSV files plus
domain context about one class of I/O performance issue. Analyze the
trace strictly through measurements: reason step by step, write Python
code against the listed CSV files, run it, and ground every claim in
the numbers your code prints. Never invent metrics. If your code
fails, debug it and run again. Conclude with a diagnosis a domain
scientist can act on.
"""

OUTPUT_FORMAT = """\
## Output Format
Respond with, in order:
1. A "Diagnosis Steps:" section with numbered reasoning steps (chain of
   thought) describing how you will test for the issue.
2. Python analysis code, executed via the code interpreter, that reads
   only the files listed above and prints exactly one JSON object of
   measured metrics.
3. A "Conclusion:" paragraph grounded in the measured metrics, ending
   with the tags [severity=ok|info|warning|critical] and, when
   applicable, [mitigations=<comma-separated notes>].
"""

QUESTION_OUTPUT_FORMAT = """\
## Output Format
Answer the question directly, citing the measured metrics from the
diagnosis context. Do not speculate beyond the trace.
"""


def _system_block(extraction: ExtractionResult) -> str:
    lines = ["## System Parameters"]
    for key in sorted(extraction.system):
        lines.append(f"- {key}: {extraction.system[key]}")
    return "\n".join(lines)


def _files_block(extraction: ExtractionResult, modules: list[str]) -> str:
    lines = ["## Available Trace Files"]
    for module in modules:
        if not extraction.has_module(module):
            continue
        lines.append(f"- module: {module}")
        lines.append(f"  path: {extraction.path_for(module)}")
        lines.append(f"  rows: {extraction.row_counts[module]}")
        lines.append(f"  columns: {', '.join(extraction.columns[module])}")
    if len(lines) == 1:
        lines.append("(no trace files available)")
    return "\n".join(lines)


def modules_for_issue(
    spec: IssueSpec,
    extraction: ExtractionResult,
    include_dxt: bool = True,
) -> list[str]:
    """The module CSVs an issue's prompt should describe."""
    modules = [m for m in spec.modules if extraction.has_module(m)]
    if include_dxt and spec.dxt and extraction.has_module("DXT"):
        modules.append("DXT")
    return modules


def _context_block(spec: IssueSpec) -> str:
    return f"## Issue Context: {spec.title}\n{spec.context}"


def build_issue_prompt(
    trace_name: str,
    spec: IssueSpec,
    extraction: ExtractionResult,
    include_context: bool = True,
    include_dxt: bool = True,
) -> str:
    """One divide-and-conquer diagnosis prompt for one issue."""
    parts = [
        "# ION I/O Diagnosis Request",
        f"Trace: {trace_name}",
        f"## Target Issue: {spec.title}",
    ]
    if include_context:
        parts.append(_context_block(spec))
    parts.append(_system_block(extraction))
    parts.append(
        _files_block(extraction, modules_for_issue(spec, extraction, include_dxt))
    )
    parts.append(OUTPUT_FORMAT)
    return "\n\n".join(parts)


def build_monolithic_prompt(
    trace_name: str,
    specs: list[IssueSpec],
    extraction: ExtractionResult,
    include_context: bool = True,
    include_dxt: bool = True,
) -> str:
    """The single voluminous prompt covering every issue (ABL1)."""
    titles = ", ".join(spec.title for spec in specs)
    parts = [
        "# ION I/O Diagnosis Request",
        f"Trace: {trace_name}",
        f"## Target Issues: {titles}",
    ]
    if include_context:
        parts.extend(_context_block(spec) for spec in specs)
    modules: list[str] = []
    for spec in specs:
        for module in modules_for_issue(spec, extraction, include_dxt):
            if module not in modules:
                modules.append(module)
    parts.append(_system_block(extraction))
    parts.append(_files_block(extraction, modules))
    parts.append(OUTPUT_FORMAT)
    return "\n\n".join(parts)


def build_summary_prompt(
    trace_name: str, conclusions: list[tuple[IssueType, str]]
) -> str:
    """The summarization prompt combining all per-issue conclusions."""
    parts = [
        "# ION Summary Request",
        f"Trace: {trace_name}",
        "## Per-Issue Conclusions",
    ]
    for issue, conclusion in conclusions:
        parts.append(f"### {issue.title}\n{conclusion}")
    parts.append(
        "## Output Format\nWrite one global diagnosis summary for a domain "
        "scientist: lead with the issues that dominate performance, mention "
        "mitigated or absent patterns briefly, and end with the most "
        "impactful recommendation."
    )
    return "\n\n".join(parts)


def build_question_prompt(
    trace_name: str, digest: str, question: str
) -> str:
    """An interactive follow-up question over a finished diagnosis."""
    parts = [
        "# ION Interactive Question",
        f"Trace: {trace_name}",
        f"## Diagnosis Context\n{digest}",
        f"## Question\n{question}",
        QUESTION_OUTPUT_FORMAT,
    ]
    return "\n\n".join(parts)
