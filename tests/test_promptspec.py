"""Tests for prompt construction and the expert's prompt parsing."""

from __future__ import annotations

import pytest

from repro.ion.issues import IssueType
from repro.ion.prompts import (
    build_issue_prompt,
    build_monolithic_prompt,
    build_question_prompt,
    build_summary_prompt,
)
from repro.ion.specs import all_specs, spec_for
from repro.llm.expert.promptspec import parse_prompt
from repro.util.errors import PromptFormatError


class TestIssuePrompt:
    def test_round_trip_through_parser(self, easy_extraction):
        prompt = build_issue_prompt(
            "trace-x", spec_for(IssueType.SMALL_IO), easy_extraction
        )
        spec = parse_prompt(prompt)
        assert spec.kind == "diagnose"
        assert spec.trace_name == "trace-x"
        assert spec.issues == [IssueType.SMALL_IO]
        assert not spec.monolithic
        assert IssueType.SMALL_IO in spec.contexts
        assert spec.params["nprocs"] == 4
        assert spec.params["rpc_size"] == 4 * 1024 * 1024
        assert "POSIX" in spec.files
        assert spec.files["POSIX"].path == easy_extraction.path_for("POSIX")
        assert "POSIX_READS" in spec.files["POSIX"].columns

    def test_module_filtering(self, easy_extraction):
        prompt = build_issue_prompt(
            "t", spec_for(IssueType.NO_COLLECTIVE), easy_extraction
        )
        spec = parse_prompt(prompt)
        # The easy trace is POSIX-only: its prompt lists no MPI-IO file,
        # and the NO_COLLECTIVE mapping excludes POSIX.
        assert "MPI-IO" not in spec.files
        assert "POSIX" not in spec.files

    def test_dxt_included_only_for_dxt_issues(self, easy_extraction):
        random_prompt = build_issue_prompt(
            "t", spec_for(IssueType.RANDOM_ACCESS), easy_extraction
        )
        small_prompt = build_issue_prompt(
            "t", spec_for(IssueType.SMALL_IO), easy_extraction
        )
        assert "DXT" in parse_prompt(random_prompt).files
        assert "DXT" not in parse_prompt(small_prompt).files

    def test_context_stripping(self, easy_extraction):
        prompt = build_issue_prompt(
            "t", spec_for(IssueType.SMALL_IO), easy_extraction,
            include_context=False,
        )
        spec = parse_prompt(prompt)
        assert spec.contexts == {}

    def test_stripe_size_parameter_extracted_from_lustre(self, easy_extraction):
        prompt = build_issue_prompt(
            "t", spec_for(IssueType.MISALIGNED_IO), easy_extraction
        )
        spec = parse_prompt(prompt)
        assert spec.param_int("lustre_stripe_size", 0) == 1024 * 1024

    def test_param_int_fallback(self, easy_extraction):
        prompt = build_issue_prompt(
            "t", spec_for(IssueType.SMALL_IO), easy_extraction
        )
        spec = parse_prompt(prompt)
        assert spec.param_int("not_there", 7) == 7


class TestMonolithicPrompt:
    def test_all_issues_listed(self, easy_extraction):
        prompt = build_monolithic_prompt("t", all_specs(), easy_extraction)
        spec = parse_prompt(prompt)
        assert spec.monolithic
        assert len(spec.issues) == len(IssueType)
        assert len(spec.contexts) == len(IssueType)
        # Context sections appear in order, so end offsets increase.
        offsets = [spec.context_end_offsets[i] for i in spec.issues]
        assert offsets == sorted(offsets)

    def test_larger_than_any_divide_prompt(self, easy_extraction):
        mono = build_monolithic_prompt("t", all_specs(), easy_extraction)
        for issue_spec in all_specs():
            divide = build_issue_prompt("t", issue_spec, easy_extraction)
            assert len(mono) > len(divide)


class TestSummaryAndQuestionPrompts:
    def test_summary_round_trip(self):
        prompt = build_summary_prompt(
            "t", [(IssueType.SMALL_IO, "lots of small ops [severity=warning]")]
        )
        spec = parse_prompt(prompt)
        assert spec.kind == "summarize"
        assert spec.conclusions == [
            (IssueType.SMALL_IO.title, "lots of small ops [severity=warning]")
        ]

    def test_question_round_trip(self):
        prompt = build_question_prompt("t", "DIGEST TEXT", "why misaligned?")
        spec = parse_prompt(prompt)
        assert spec.kind == "question"
        assert spec.digest == "DIGEST TEXT"
        assert spec.question == "why misaligned?"


class TestParserErrors:
    def test_unknown_header_rejected(self):
        with pytest.raises(PromptFormatError):
            parse_prompt("# Something else entirely")

    def test_empty_rejected(self):
        with pytest.raises(PromptFormatError):
            parse_prompt("")

    def test_diagnose_without_issue_rejected(self):
        with pytest.raises(PromptFormatError, match="no target issue"):
            parse_prompt("# ION I/O Diagnosis Request\nTrace: t\n")

    def test_unknown_issue_title_rejected(self):
        with pytest.raises(PromptFormatError, match="unknown issue"):
            parse_prompt(
                "# ION I/O Diagnosis Request\n\n## Target Issue: Flux Capacitor\n"
            )

    def test_question_without_question_rejected(self):
        with pytest.raises(PromptFormatError):
            parse_prompt("# ION Interactive Question\nTrace: t\n")
