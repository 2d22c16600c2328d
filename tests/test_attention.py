"""Tests for the expert's context-budget (attention) model."""

from __future__ import annotations

from repro.ion.issues import IssueType
from repro.ion.prompts import build_issue_prompt, build_monolithic_prompt
from repro.ion.specs import all_specs, spec_for
from repro.llm.expert.attention import ATTENTION_BUDGET_CHARS, attended_issues
from repro.llm.expert.promptspec import parse_prompt


class TestDividePrompts:
    def test_single_issue_always_attended(self, easy_extraction):
        for issue_spec in all_specs():
            prompt = build_issue_prompt("t", issue_spec, easy_extraction)
            spec = parse_prompt(prompt)
            assert attended_issues(spec) == [issue_spec.issue]

    def test_divide_prompts_fit_budget(self, easy_extraction):
        """The design invariant: every single-issue prompt fits."""
        for issue_spec in all_specs():
            prompt = build_issue_prompt("t", issue_spec, easy_extraction)
            assert len(prompt) < ATTENTION_BUDGET_CHARS * 2  # sanity bound
            spec = parse_prompt(prompt)
            # Even under the budget rule applied to divide prompts, the
            # single context section ends early in the prompt.
            end = spec.context_end_offsets[issue_spec.issue]
            assert end <= ATTENTION_BUDGET_CHARS


class TestMonolithicPrompts:
    def test_later_issues_dropped(self, easy_extraction):
        prompt = build_monolithic_prompt("t", all_specs(), easy_extraction)
        spec = parse_prompt(prompt)
        attended = attended_issues(spec)
        assert 0 < len(attended) < len(IssueType)
        # The attended set is a prefix of the issue order.
        assert attended == list(IssueType)[: len(attended)]

    def test_budget_parameter_respected(self, easy_extraction):
        prompt = build_monolithic_prompt("t", all_specs(), easy_extraction)
        spec = parse_prompt(prompt)
        everything = attended_issues(spec, budget=10**9)
        assert everything == list(IssueType)
        minimum = attended_issues(spec, budget=1)
        assert minimum == [list(IssueType)[0]]  # never empty

    def test_two_issue_prompt_within_budget_keeps_both(self, easy_extraction):
        specs = [
            spec_for(IssueType.SMALL_IO),
            spec_for(IssueType.MISALIGNED_IO),
        ]
        prompt = build_monolithic_prompt("t", specs, easy_extraction)
        spec = parse_prompt(prompt)
        assert attended_issues(spec) == [
            IssueType.SMALL_IO, IssueType.MISALIGNED_IO,
        ]
