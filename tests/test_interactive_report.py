"""Tests for the interactive session, digest, and report rendering."""

from __future__ import annotations

import json

import pytest

from repro.ion.interactive import IonSession, build_digest
from repro.ion.issues import (
    Diagnosis,
    DiagnosisReport,
    IssueType,
    MitigationNote,
    Severity,
)
from repro.ion.pipeline import IoNavigator
from repro.ion.report import render_diagnosis, render_report


def sample_report():
    return DiagnosisReport(
        trace_name="sample",
        summary="misalignment dominates.",
        diagnoses=[
            Diagnosis(
                issue=IssueType.MISALIGNED_IO,
                severity=Severity.CRITICAL,
                conclusion="99.8% misaligned.",
                steps=["check alignment"],
                code="print('x')",
                evidence={"misaligned_ops": 2044},
            ),
            Diagnosis(
                issue=IssueType.SMALL_IO,
                severity=Severity.INFO,
                conclusion="small but aggregatable.",
                mitigations=[MitigationNote.AGGREGATABLE],
                evidence={"small_fraction": 1.0},
            ),
            Diagnosis(
                issue=IssueType.RANDOM_ACCESS,
                severity=Severity.OK,
                conclusion="sequential.",
            ),
        ],
    )


class TestDigest:
    def test_structure(self):
        digest = build_digest(sample_report())
        assert digest.startswith("Summary: misalignment dominates.")
        assert "[misaligned_io] severity=critical" in digest
        assert "[small_io] severity=info" in digest
        block = digest.split("[misaligned_io]")[1]
        evidence_line = next(
            line for line in block.splitlines() if line.startswith("Evidence:")
        )
        assert json.loads(evidence_line[len("Evidence: "):]) == {
            "misaligned_ops": 2044
        }


class TestSessionWithExpert:
    @pytest.fixture(scope="class")
    def session(self, easy_extraction, easy_2k_bundle):
        # The session reads the extraction, so the navigator stays open
        # until the class is done with it.
        with IoNavigator() as navigator:
            yield navigator.diagnose(easy_2k_bundle.log, "easy").session

    def test_ask_quantitative(self, session):
        answer = session.ask("How many misaligned operations are there?")
        assert "8176" in answer.replace(",", "")  # full-scale trace: 8192 ops

    def test_ask_about_aggregation(self, session):
        answer = session.ask("Can the small writes be aggregated?")
        assert "aggregat" in answer.lower() or "consecutive" in answer.lower()

    def test_history_recorded(self, session):
        before = len(session.history)
        session.ask("what about metadata load?")
        assert len(session.history) == before + 1
        assert session.history[-1].question == "what about metadata load?"

    def test_empty_question_rejected(self, session):
        with pytest.raises(ValueError):
            session.ask("   ")


class TestReportRendering:
    def test_groups_by_severity(self):
        text = render_report(sample_report())
        assert text.index("Issues affecting performance") < text.index(
            "Patterns present but mitigated"
        )
        assert text.index("Patterns present but mitigated") < text.index(
            "Examined and unproblematic"
        )
        assert "[CRIT] Misaligned I/O" in text
        assert "[info] Small I/O Operations" in text
        assert "[ ok ] Random Access Pattern" in text
        assert "Global summary" in text

    def test_mitigation_note_rendered(self):
        text = render_report(sample_report())
        assert "small operations are consecutive and aggregatable" in text

    def test_code_hidden_by_default(self):
        diagnosis = sample_report().diagnoses[0]
        assert "print('x')" not in render_diagnosis(diagnosis)
        assert "print('x')" in render_diagnosis(diagnosis, show_code=True)

    def test_steps_rendered_numbered(self):
        text = render_diagnosis(sample_report().diagnoses[0])
        assert "1. check alignment" in text
