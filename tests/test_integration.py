"""End-to-end integration tests: workload -> trace -> disk -> diagnosis.

These are the reproduction's acceptance tests: each controlled trace
must come back from the full pipeline with its injected issues observed
and nothing spurious flagged.
"""

from __future__ import annotations

import pytest

from repro.darshan.binformat import write_log
from repro.evaluation.matching import score_drishti, score_ion
from repro.drishti.analyzer import DrishtiAnalyzer
from repro.ion.issues import IssueType, MitigationNote
from repro.ion.pipeline import IoNavigator


class TestEasyTraceEndToEnd:
    @pytest.fixture(scope="class")
    def result(self, easy_2k_bundle, tmp_path_factory):
        directory = tmp_path_factory.mktemp("e2e")
        log_path = write_log(easy_2k_bundle.log, directory / "easy.darshan")
        navigator = IoNavigator(workdir=directory / "work")
        return navigator.diagnose_file(log_path)

    def test_score_is_exact(self, result, easy_2k_bundle):
        score = score_ion(easy_2k_bundle.truth, result.report)
        assert score.exact
        assert score.mitigation_recall == 1.0

    def test_paper_numbers_in_conclusions(self, result):
        misaligned = result.report.diagnosis_for(IssueType.MISALIGNED_IO)
        assert "99.80%" in misaligned.conclusion
        small = result.report.diagnosis_for(IssueType.SMALL_IO)
        assert "2.00 KiB" in small.conclusion

    def test_shared_file_mitigated(self, result):
        shared = result.report.diagnosis_for(IssueType.SHARED_FILE_CONTENTION)
        assert not shared.detected
        assert MitigationNote.NON_OVERLAPPING in shared.mitigations

    def test_session_answers_follow_ups(self, result):
        answer = result.session.ask("is the file shared between ranks?")
        assert "shared" in answer.lower()


class TestHardTraceEndToEnd:
    @pytest.fixture(scope="class")
    def reports(self, hard_bundle):
        with IoNavigator() as navigator:
            ion = navigator.diagnose(hard_bundle.log, hard_bundle.name).report
        drishti = DrishtiAnalyzer().analyze(hard_bundle.log, hard_bundle.name)
        return ion, drishti

    def test_ion_exact(self, reports, hard_bundle):
        ion, _ = reports
        score = score_ion(hard_bundle.truth, ion)
        assert score.recall == 1.0
        assert score.precision == 1.0

    def test_ion_sees_contention_drishti_cannot(self, reports, hard_bundle):
        ion, drishti = reports
        assert IssueType.SHARED_FILE_CONTENTION in ion.detected_issues
        assert IssueType.SHARED_FILE_CONTENTION not in score_drishti(
            hard_bundle.truth, drishti
        ).observed

    def test_small_io_not_mitigated_here(self, reports):
        ion, _ = reports
        small = ion.diagnosis_for(IssueType.SMALL_IO)
        assert small.detected
        assert not small.mitigations


class TestRandomTraceEndToEnd:
    def test_random_flagged_without_mitigation(self, random_bundle):
        with IoNavigator() as navigator:
            report = navigator.diagnose(random_bundle.log, "rnd").report
        random_diag = report.diagnosis_for(IssueType.RANDOM_ACCESS)
        assert random_diag.detected
        assert MitigationNote.LOW_VOLUME not in random_diag.mitigations
        score = score_ion(random_bundle.truth, report)
        assert score.recall == 1.0


class TestDeterminism:
    def test_same_trace_same_report(self, easy_2k_bundle):
        with IoNavigator() as navigator:
            first = navigator.diagnose(easy_2k_bundle.log, "t").report
        with IoNavigator() as navigator:
            second = navigator.diagnose(easy_2k_bundle.log, "t").report
        for a, b in zip(first.diagnoses, second.diagnoses):
            assert a.issue == b.issue
            assert a.severity == b.severity
            assert a.conclusion == b.conclusion
            assert a.evidence == b.evidence
        assert first.summary == second.summary
