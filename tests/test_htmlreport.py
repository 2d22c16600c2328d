"""Tests for the HTML report renderer and extended CLI outputs."""

from __future__ import annotations

import pytest

from repro.darshan.binformat import write_log
from repro.ion import cli as ion_cli
from repro.ion.htmlreport import render_html, write_html
from repro.ion.issues import (
    Diagnosis,
    DiagnosisReport,
    IssueType,
    MitigationNote,
    Severity,
)


def sample_report():
    return DiagnosisReport(
        trace_name="trace<x>",
        summary="summary & more",
        diagnoses=[
            Diagnosis(
                issue=IssueType.MISALIGNED_IO,
                severity=Severity.CRITICAL,
                conclusion="99.8% misaligned <offsets>",
                steps=["inspect alignment"],
                code="print('code & stuff')",
                evidence={"misaligned_ops": 2044, "detail": [1, 2]},
            ),
            Diagnosis(
                issue=IssueType.SMALL_IO,
                severity=Severity.INFO,
                conclusion="aggregatable",
                mitigations=[MitigationNote.AGGREGATABLE],
            ),
            Diagnosis(
                issue=IssueType.RANDOM_ACCESS,
                severity=Severity.OK,
                conclusion="sequential",
            ),
        ],
    )


class TestRenderHtml:
    def test_structure(self):
        page = render_html(sample_report())
        assert page.startswith("<!DOCTYPE html>")
        assert "Issues affecting performance" in page
        assert "Patterns present but mitigated" in page
        assert "Examined and unproblematic" in page
        assert "Global summary" in page
        assert "CRITICAL" in page
        assert "MITIGATED" in page

    def test_everything_escaped(self):
        page = render_html(sample_report())
        assert "trace&lt;x&gt;" in page
        assert "&lt;offsets&gt;" in page
        assert "summary &amp; more" in page
        assert "code &amp; stuff" in page
        # No raw angle brackets leaked from data fields.
        assert "<offsets>" not in page

    def test_detected_issues_open_by_default(self):
        page = render_html(sample_report())
        assert '<details class="issue" open>' in page

    def test_evidence_rendered(self):
        page = render_html(sample_report())
        assert "misaligned_ops" in page
        assert "2044" in page
        assert "[1, 2]" in page

    def test_qa_transcript_included(self, easy_2k_bundle):
        from repro.ion.pipeline import IoNavigator

        with IoNavigator() as navigator:
            result = navigator.diagnose(easy_2k_bundle.log, "easy")
            result.session.ask("how many misaligned operations?")
            page = render_html(result.report, session=result.session)
        assert "Interactive session" in page
        assert "how many misaligned operations?" in page

    def test_write_html(self, tmp_path):
        path = write_html(sample_report(), tmp_path / "sub" / "report.html")
        assert path.exists()
        assert "<!DOCTYPE html>" in path.read_text()


class TestCliOutputs:
    @pytest.fixture(scope="class")
    def trace_path(self, easy_2k_bundle, tmp_path_factory):
        directory = tmp_path_factory.mktemp("cli-html")
        return str(write_log(easy_2k_bundle.log, directory / "t.darshan"))

    def test_html_flag(self, trace_path, tmp_path, capsys):
        target = tmp_path / "report.html"
        assert ion_cli.main([trace_path, "--html", str(target)]) == 0
        assert target.exists()
        assert "HTML report written" in capsys.readouterr().out

    def test_json_flag(self, trace_path, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert ion_cli.main([trace_path, "--json", str(target)]) == 0
        from repro.ion.serialize import load_report

        report = load_report(target)
        assert IssueType.MISALIGNED_IO in report.detected_issues

    def test_consistency_flag(self, trace_path, capsys):
        assert ion_cli.main([trace_path, "--consistency"]) == 0
        out = capsys.readouterr().out
        assert "Consistency check" in out
        assert "agreement:" in out


class TestDegradedRendering:
    def degraded_report(self):
        from repro.ion.issues import ReportHealth

        report = sample_report()
        report.diagnoses[0].degraded = True
        report.diagnoses[0].degraded_reason = "LLMTimeoutError: <late>"
        report.diagnoses[0].fallback_source = "drishti"
        report.health = ReportHealth(
            queries=4, attempts=7, retries=3, degraded=1, fallbacks=1,
            breaker_state="open", breaker_trips=2,
            notes=["query:misaligned_io: LLMTimeoutError: <late>"],
        )
        return report

    def test_degraded_marker_and_health_table(self):
        page = render_html(self.degraded_report())
        assert "DEGRADED (Drishti heuristic fallback)" in page
        assert "LLMTimeoutError: &lt;late&gt;" in page  # escaped
        assert "Pipeline health" in page
        assert "open (tripped 2x this run)" in page
        assert "drishti fallbacks" in page

    def test_healthy_report_has_no_degraded_marker(self):
        page = render_html(sample_report())
        assert "DEGRADED" not in page
        assert "Pipeline health" not in page  # no health block attached
