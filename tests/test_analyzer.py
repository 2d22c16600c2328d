"""Tests for the ION Analyzer: strategies, parsing, summaries."""

from __future__ import annotations

import threading
import time

import pytest

from repro.ion.analyzer import Analyzer, AnalyzerConfig, ResilienceConfig
from repro.ion.issues import IssueType, MitigationNote, Severity
from repro.llm.client import ScriptedLLM
from repro.llm.messages import CodeCall, Completion
from repro.util.errors import AnalysisError, LLMError


class TestConfig:
    def test_bad_strategy_rejected(self):
        with pytest.raises(AnalysisError):
            AnalyzerConfig(strategy="chaotic")

    def test_empty_issue_list_rejected(self):
        with pytest.raises(AnalysisError):
            AnalyzerConfig(issues=())


class TestDivideStrategy:
    @pytest.fixture(scope="class")
    def report(self, easy_extraction):
        analyzer = Analyzer(
            config=AnalyzerConfig(parallel_prompts=2)
        )
        return analyzer.analyze(easy_extraction, "easy-trace")

    def test_one_diagnosis_per_issue(self, report):
        assert {d.issue for d in report.diagnoses} == set(IssueType)

    def test_expected_detections(self, report):
        assert report.detected_issues == {
            IssueType.MISALIGNED_IO,
            IssueType.NO_MPIIO,
        }
        assert IssueType.SMALL_IO in report.observed_issues
        assert MitigationNote.AGGREGATABLE in report.mitigation_notes

    def test_diagnosis_artifacts_populated(self, report):
        small = report.diagnosis_for(IssueType.SMALL_IO)
        assert small.steps
        assert "import csv" in small.code
        assert small.code_output.strip().endswith("}")
        assert small.evidence["total_ops"] == 8192
        assert small.severity == Severity.INFO
        assert "[severity=" not in small.conclusion  # tags stripped

    def test_summary_generated(self, report):
        assert "easy-trace" in report.summary
        assert "Misaligned I/O" in report.summary

    def test_missing_issue_lookup_raises(self, report):
        report.diagnosis_for(IssueType.SMALL_IO)
        with pytest.raises(KeyError):
            from repro.ion.issues import Diagnosis, DiagnosisReport

            DiagnosisReport("x", []).diagnosis_for(IssueType.SMALL_IO)

    def test_serial_matches_parallel(self, easy_extraction, report):
        serial = Analyzer(
            config=AnalyzerConfig(parallel_prompts=1)
        ).analyze(easy_extraction, "easy-trace")
        for left, right in zip(report.diagnoses, serial.diagnoses):
            assert left.issue == right.issue
            assert left.severity == right.severity
            assert left.conclusion == right.conclusion


class TestMonolithicStrategy:
    def test_unattended_issues_marked_unaddressed(self, easy_extraction):
        analyzer = Analyzer(config=AnalyzerConfig(strategy="monolithic"))
        report = analyzer.analyze(easy_extraction, "easy-trace")
        unaddressed = [
            d for d in report.diagnoses if "did not address" in d.conclusion
        ]
        assert unaddressed
        assert all(d.severity == Severity.OK for d in unaddressed)
        # Early issues are still diagnosed properly.
        assert report.diagnosis_for(IssueType.MISALIGNED_IO).detected

    def test_subset_of_issues(self, easy_extraction):
        analyzer = Analyzer(
            config=AnalyzerConfig(
                issues=(IssueType.SMALL_IO, IssueType.MISALIGNED_IO),
                strategy="monolithic",
            )
        )
        report = analyzer.analyze(easy_extraction, "t")
        assert len(report.diagnoses) == 2
        assert report.diagnosis_for(IssueType.MISALIGNED_IO).detected


class TestCompletionParsing:
    def _analyze_with(self, extraction, completions, issues):
        # Strict mode: parsing failures should surface as exceptions
        # here, not degrade to heuristics (see test_chaos for the
        # graceful-degradation behaviour).
        analyzer = Analyzer(
            client=ScriptedLLM(completions),
            config=AnalyzerConfig(
                issues=issues, parallel_prompts=1, summarize=False,
                resilience=ResilienceConfig(max_attempts=1, degrade=False),
            ),
        )
        return analyzer.analyze(extraction, "t")

    def test_scripted_severity_and_mitigations(self, easy_extraction):
        completions = [
            Completion(
                content=(
                    "Conclusion (Small I/O Operations): scripted verdict. "
                    "[severity=warning] [mitigations=aggregatable,low_volume]"
                )
            )
        ]
        report = self._analyze_with(
            easy_extraction, completions, (IssueType.SMALL_IO,)
        )
        diagnosis = report.diagnoses[0]
        assert diagnosis.severity == Severity.WARNING
        assert diagnosis.mitigations == [
            MitigationNote.AGGREGATABLE, MitigationNote.LOW_VOLUME,
        ]
        assert diagnosis.conclusion == "scripted verdict."

    def test_unknown_severity_rejected(self, easy_extraction):
        completions = [
            Completion(
                content="Conclusion (Small I/O Operations): x [severity=meh]"
            )
        ]
        with pytest.raises(AnalysisError, match="severity"):
            self._analyze_with(easy_extraction, completions, (IssueType.SMALL_IO,))

    def test_unknown_mitigation_rejected(self, easy_extraction):
        completions = [
            Completion(
                content=(
                    "Conclusion (Small I/O Operations): x [severity=ok] "
                    "[mitigations=vibes]"
                )
            )
        ]
        with pytest.raises(AnalysisError, match="mitigation"):
            self._analyze_with(easy_extraction, completions, (IssueType.SMALL_IO,))

    def test_tool_budget_overrun_fails(self, easy_extraction):
        completions = [
            Completion(content=f"{i}", code_call=CodeCall("print(1)"))
            for i in range(10)
        ]
        analyzer = Analyzer(
            client=ScriptedLLM(completions),
            config=AnalyzerConfig(
                issues=(IssueType.SMALL_IO,), parallel_prompts=1,
                summarize=False, max_tool_rounds=2,
                resilience=ResilienceConfig(max_attempts=1, degrade=False),
            ),
        )
        with pytest.raises(AnalysisError, match="tool budget"):
            analyzer.analyze(easy_extraction, "t")


class TestPromptPool:
    """The analyzer owns one prompt thread pool across its analyses."""

    @staticmethod
    def starts_during(monkeypatch, action) -> list[str]:
        started = []
        start = threading.Thread.start

        def counting(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        try:
            action()
        finally:
            monkeypatch.undo()
        return started

    def test_a_second_analyze_starts_no_thread(self, easy_extraction, monkeypatch):
        analyzer = Analyzer(config=AnalyzerConfig(parallel_prompts=4))
        try:
            first = self.starts_during(
                monkeypatch, lambda: analyzer.analyze(easy_extraction, "first")
            )
            second = self.starts_during(
                monkeypatch, lambda: analyzer.analyze(easy_extraction, "second")
            )
        finally:
            analyzer.close()
        assert 1 <= len(first) <= 4
        assert second == []

    def test_one_prompt_at_a_time_runs_inline(self, easy_extraction, monkeypatch):
        analyzer = Analyzer(config=AnalyzerConfig(parallel_prompts=1))
        started = self.starts_during(
            monkeypatch, lambda: analyzer.analyze(easy_extraction, "inline")
        )
        assert started == []

    def test_close_stops_the_threads_and_analyze_restarts_them(
        self, easy_extraction
    ):
        analyzer = Analyzer(config=AnalyzerConfig(parallel_prompts=2))
        expected = analyzer.analyze(easy_extraction, "t")
        threads = list(analyzer._pool._threads)
        analyzer.close()
        assert threads and not any(thread.is_alive() for thread in threads)
        try:
            again = analyzer.analyze(easy_extraction, "t")
        finally:
            analyzer.close()
        assert again.summary == expected.summary

    def test_a_failed_strict_query_waits_for_the_others(
        self, easy_extraction
    ):
        slow_started = threading.Event()
        finished = []

        class Client:
            def complete(self, messages):
                prompt = messages[-1].content
                if IssueType.SMALL_IO.title in prompt:
                    assert slow_started.wait(timeout=10)
                else:
                    slow_started.set()
                    time.sleep(0.2)
                    finished.append(prompt)
                raise LLMError("backend down")

        analyzer = Analyzer(
            client=Client(),
            config=AnalyzerConfig(
                issues=(
                    IssueType.SMALL_IO,
                    IssueType.RANDOM_ACCESS,
                    IssueType.METADATA_LOAD,
                ),
                parallel_prompts=2,
                summarize=False,
                resilience=ResilienceConfig(max_attempts=1, degrade=False),
            ),
        )
        try:
            with pytest.raises(AnalysisError):
                analyzer.analyze(easy_extraction, "t")
            assert len(finished) == 2
        finally:
            analyzer.close()
