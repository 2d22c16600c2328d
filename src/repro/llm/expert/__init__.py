"""The simulated GPT-4 I/O expert (prompt parsing, analysis, narration)."""

from repro.llm.expert.attention import ATTENTION_BUDGET_CHARS, attended_issues
from repro.llm.expert.model import (
    SimulatedExpertLLM,
    parse_conclusions,
    parse_tool_output,
)
from repro.llm.expert.promptspec import FileRef, PromptSpec, parse_prompt

__all__ = [
    "ATTENTION_BUDGET_CHARS",
    "FileRef",
    "PromptSpec",
    "SimulatedExpertLLM",
    "attended_issues",
    "parse_conclusions",
    "parse_prompt",
    "parse_tool_output",
]
