"""Structured parsing of ION prompts by the simulated expert model.

A real LLM reads the prompt as text; the simulated expert does the
equivalent explicitly: it locates the target issue(s), the issue
context sections, the system parameters, and the available trace
files, producing a :class:`PromptSpec` the issue specs' analyses consume.
Parsing failures raise :class:`PromptFormatError` — a prompt the model
cannot interpret is a pipeline bug, not something to paper over.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.ion import specs
from repro.ion.issues import IssueType
from repro.util.errors import PromptFormatError


@dataclass(frozen=True)
class FileRef:
    """One trace file advertised in the prompt."""

    module: str
    path: Path
    rows: int
    columns: tuple[str, ...]


@dataclass
class PromptSpec:
    """Everything the expert extracted from one prompt."""

    kind: str  # "diagnose" | "summarize" | "question"
    trace_name: str = ""
    issues: list[IssueType] = field(default_factory=list)
    contexts: dict[IssueType, str] = field(default_factory=dict)
    context_end_offsets: dict[IssueType, int] = field(default_factory=dict)
    params: dict[str, object] = field(default_factory=dict)
    files: dict[str, FileRef] = field(default_factory=dict)
    conclusions: list[tuple[str, str]] = field(default_factory=list)
    digest: str = ""
    question: str = ""
    prompt_chars: int = 0

    @property
    def monolithic(self) -> bool:
        return self.kind == "diagnose" and len(self.issues) > 1

    def file_path(self, module: str) -> Path | None:
        ref = self.files.get(module)
        return ref.path if ref else None

    def param_int(self, key: str, default: int) -> int:
        value = self.params.get(key, default)
        try:
            return int(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return default


def _split_sections(text: str) -> list[tuple[str, str, int]]:
    """Split prompt into (header, body, end_offset) level-2 sections."""
    sections = []
    matches = list(re.finditer(r"^## (.+)$", text, flags=re.MULTILINE))
    for index, match in enumerate(matches):
        start = match.end()
        end = matches[index + 1].start() if index + 1 < len(matches) else len(text)
        sections.append((match.group(1).strip(), text[start:end].strip(), end))
    return sections


def _parse_issue_titles(raw: str) -> list[IssueType]:
    issues = []
    for title in raw.split(","):
        title = title.strip()
        if not title:
            continue
        issue_spec = specs.spec_titled(title)
        if issue_spec is None:
            raise PromptFormatError(f"unknown issue title {title!r}")
        issues.append(issue_spec.issue)
    return issues


def _parse_params(body: str) -> dict[str, object]:
    params: dict[str, object] = {}
    for line in body.splitlines():
        match = re.match(r"- (\S+): (.*)", line.strip())
        if not match:
            continue
        key, raw = match.group(1), match.group(2).strip()
        try:
            params[key] = int(raw)
        except ValueError:
            try:
                params[key] = float(raw)
            except ValueError:
                params[key] = raw
    return params


def _parse_files(body: str) -> dict[str, FileRef]:
    files: dict[str, FileRef] = {}
    module = path = None
    rows = 0
    columns: tuple[str, ...] = ()

    def flush() -> None:
        if module is not None and path is not None:
            files[module] = FileRef(module, Path(path), rows, columns)

    for line in body.splitlines():
        stripped = line.strip()
        if stripped.startswith("- module:"):
            flush()
            module = stripped.split(":", 1)[1].strip()
            path, rows, columns = None, 0, ()
        elif stripped.startswith("path:"):
            path = stripped.split(":", 1)[1].strip()
        elif stripped.startswith("rows:"):
            rows = int(stripped.split(":", 1)[1].strip())
        elif stripped.startswith("columns:"):
            columns = tuple(
                c.strip() for c in stripped.split(":", 1)[1].split(",") if c.strip()
            )
    flush()
    return files


def parse_prompt(text: str) -> PromptSpec:
    """Parse one ION prompt into a :class:`PromptSpec`."""
    first_line = text.lstrip().splitlines()[0] if text.strip() else ""
    if "Diagnosis Request" in first_line:
        kind = "diagnose"
    elif "Summary Request" in first_line:
        kind = "summarize"
    elif "Interactive Question" in first_line:
        kind = "question"
    else:
        raise PromptFormatError(
            f"unrecognized prompt header {first_line[:60]!r}"
        )
    spec = PromptSpec(kind=kind, prompt_chars=len(text))
    trace_match = re.search(r"^Trace: (.+)$", text, flags=re.MULTILINE)
    if trace_match:
        spec.trace_name = trace_match.group(1).strip()
    for header, body, end_offset in _split_sections(text):
        if header.startswith("Target Issue:") or header.startswith("Target Issues:"):
            spec.issues = _parse_issue_titles(header.split(":", 1)[1])
        elif header.startswith("Issue Context:"):
            title = header.split(":", 1)[1].strip()
            issue_spec = specs.spec_titled(title)
            if issue_spec is None:
                raise PromptFormatError(f"context for unknown issue {title!r}")
            spec.contexts[issue_spec.issue] = body
            spec.context_end_offsets[issue_spec.issue] = end_offset
        elif header == "System Parameters":
            spec.params = _parse_params(body)
        elif header == "Available Trace Files":
            spec.files = _parse_files(body)
        elif header == "Per-Issue Conclusions":
            for match in re.finditer(
                r"^### (.+?)$\n(.*?)(?=^### |\Z)", body, flags=re.MULTILINE | re.DOTALL
            ):
                spec.conclusions.append(
                    (match.group(1).strip(), match.group(2).strip())
                )
        elif header == "Diagnosis Context":
            spec.digest = body
        elif header == "Question":
            spec.question = body
    if kind == "diagnose" and not spec.issues:
        raise PromptFormatError("diagnosis prompt names no target issue")
    if kind == "question" and not spec.question:
        raise PromptFormatError("interactive prompt contains no question")
    return spec
