"""Tests for the simulated expert model's turn-by-turn behaviour."""

from __future__ import annotations

import pytest

from repro.ion.issues import IssueType
from repro.ion.prompts import (
    ASSISTANT_INSTRUCTIONS,
    build_issue_prompt,
    build_monolithic_prompt,
)
from repro.ion.specs import all_specs, spec_for
from repro.llm.assistants import Assistant, RunStatus, Thread
from repro.llm.expert.model import SimulatedExpertLLM, parse_conclusions
from repro.llm.interpreter import CodeInterpreter
from repro.llm.messages import Message
from repro.util.errors import LLMError


def run_issue(extraction, issue, include_context=True, model=None):
    prompt = build_issue_prompt(
        "trace", spec_for(issue), extraction, include_context=include_context
    )
    assistant = Assistant(
        client=model or SimulatedExpertLLM(),
        instructions=ASSISTANT_INSTRUCTIONS,
        interpreter=CodeInterpreter(extraction.directory),
    )
    thread = Thread()
    thread.add(Message.user(prompt))
    return assistant.run(thread)


class TestFirstTurn:
    def test_steps_then_code_then_conclusion(self, easy_extraction):
        run = run_issue(easy_extraction, IssueType.SMALL_IO)
        assert run.status == RunStatus.COMPLETED
        first = run.steps[0].completion
        assert "Diagnosis Steps:" in first.content
        assert first.code_call is not None
        assert "import csv" in first.code_call.code
        final = run.final_text
        assert final.startswith("Conclusion (Small I/O Operations):")
        assert "[severity=" in final

    def test_conclusion_grounded_in_measurements(self, easy_extraction):
        run = run_issue(easy_extraction, IssueType.MISALIGNED_IO)
        # The exact measured number appears in the conclusion text.
        assert "99.80%" in run.final_text
        assert "[severity=critical]" in run.final_text

    def test_mitigation_tag_emitted(self, easy_extraction):
        run = run_issue(easy_extraction, IssueType.SMALL_IO)
        assert "[mitigations=aggregatable]" in run.final_text


class TestNoContext:
    def test_vacuous_without_context(self, easy_extraction):
        run = run_issue(easy_extraction, IssueType.SMALL_IO, include_context=False)
        assert run.code_blocks == []  # no analysis was even attempted
        assert "[severity=ok]" in run.final_text
        assert "without" in run.final_text.lower()


class TestDebugLoop:
    def test_fallback_after_dxt_failure(self, random_extraction, tmp_path):
        """If DXT.csv vanishes between prompt construction and execution,
        the model debugs the failure and retries with counters only."""
        prompt = build_issue_prompt(
            "trace", spec_for(IssueType.RANDOM_ACCESS), random_extraction
        )
        # Point the interpreter at a directory holding only POSIX/LUSTRE
        # CSVs, so the first (DXT-based) code fails at open().
        for name in ("POSIX", "LUSTRE"):
            source = random_extraction.path_for(name)
            (tmp_path / source.name).write_bytes(source.read_bytes())
        broken_prompt = prompt.replace(str(random_extraction.directory), str(tmp_path))
        assistant = Assistant(
            client=SimulatedExpertLLM(),
            instructions=ASSISTANT_INSTRUCTIONS,
            interpreter=CodeInterpreter(tmp_path),
        )
        thread = Thread()
        thread.add(Message.user(broken_prompt))
        run = assistant.run(thread)
        assert run.status == RunStatus.COMPLETED
        assert run.debug_rounds == 1
        assert len(run.code_blocks) == 2
        # The conclusion still detects randomness, from counters alone.
        assert "[severity=critical]" in run.final_text or (
            "[severity=warning]" in run.final_text
        )

    def test_gives_up_after_budget(self, easy_extraction, tmp_path):
        """With no CSVs at all, both attempts fail and the model concedes."""
        prompt = build_issue_prompt(
            "trace", spec_for(IssueType.RANDOM_ACCESS), easy_extraction
        )
        broken_prompt = prompt.replace(str(easy_extraction.directory), str(tmp_path))
        assistant = Assistant(
            client=SimulatedExpertLLM(),
            instructions=ASSISTANT_INSTRUCTIONS,
            interpreter=CodeInterpreter(tmp_path),
        )
        thread = Thread()
        thread.add(Message.user(broken_prompt))
        run = assistant.run(thread)
        assert run.status == RunStatus.COMPLETED
        assert run.debug_rounds == 2
        assert "analysis failed" in run.final_text.lower()
        assert "[severity=ok]" in run.final_text


class TestMonolithic:
    def test_combined_code_and_conclusions(self, easy_extraction):
        prompt = build_monolithic_prompt("trace", all_specs(), easy_extraction)
        assistant = Assistant(
            client=SimulatedExpertLLM(),
            instructions=ASSISTANT_INSTRUCTIONS,
            interpreter=CodeInterpreter(easy_extraction.directory),
        )
        thread = Thread()
        thread.add(Message.user(prompt))
        run = assistant.run(thread)
        assert run.status == RunStatus.COMPLETED
        conclusions = parse_conclusions(run.final_text)
        # Some issues attended (and concluded), later ones dropped.
        assert 0 < len(conclusions) < len(IssueType)
        assert IssueType.SMALL_IO.title in conclusions
        metadata = run.steps[0].completion.metadata
        assert metadata.get("dropped_for_context_budget")

    def test_huge_budget_covers_everything(self, easy_extraction):
        prompt = build_monolithic_prompt("trace", all_specs(), easy_extraction)
        assistant = Assistant(
            client=SimulatedExpertLLM(attention_budget=10**9),
            instructions=ASSISTANT_INSTRUCTIONS,
            interpreter=CodeInterpreter(easy_extraction.directory),
        )
        thread = Thread()
        thread.add(Message.user(prompt))
        run = assistant.run(thread)
        conclusions = parse_conclusions(run.final_text)
        assert len(conclusions) == len(IssueType)


class TestParseConclusions:
    def test_multiple_blocks(self):
        text = (
            "Conclusion (Small I/O Operations): lots. [severity=warning]\n\n"
            "Conclusion (Misaligned I/O): none. [severity=ok]"
        )
        parsed = parse_conclusions(text)
        assert parsed["Small I/O Operations"] == "lots. [severity=warning]"
        assert parsed["Misaligned I/O"] == "none. [severity=ok]"

    def test_no_conclusions(self):
        assert parse_conclusions("just text") == {}


class TestErrors:
    def test_no_user_message_rejected(self):
        with pytest.raises(LLMError):
            SimulatedExpertLLM().complete([Message.assistant("hello")])
