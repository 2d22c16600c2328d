"""Tests for JSON report serialization."""

from __future__ import annotations

import json
import re

import pytest

from repro.ion.issues import (
    Diagnosis,
    DiagnosisReport,
    IssueType,
    MitigationNote,
    Severity,
)
from repro.ion.serialize import (
    SCHEMA_VERSION,
    dump_report,
    from_dict,
    load,
    load_report,
    report_from_dict,
    report_to_dict,
)
from repro.journey.perf import PerfSnapshot
from repro.util.errors import ReproError


def sample_report():
    return DiagnosisReport(
        trace_name="t",
        summary="summary text",
        diagnoses=[
            Diagnosis(
                issue=IssueType.SMALL_IO,
                severity=Severity.INFO,
                conclusion="small but fine",
                steps=["step one", "step two"],
                code="print(1)",
                code_output="1\n",
                evidence={"total_ops": 10, "fraction": 0.5},
                mitigations=[MitigationNote.AGGREGATABLE],
            ),
            Diagnosis(
                issue=IssueType.MISALIGNED_IO,
                severity=Severity.CRITICAL,
                conclusion="everything misaligned",
            ),
        ],
    )


class TestRoundTrip:
    def test_dict_round_trip(self):
        report = sample_report()
        back = report_from_dict(report_to_dict(report))
        assert back.trace_name == report.trace_name
        assert back.summary == report.summary
        assert len(back.diagnoses) == 2
        first = back.diagnoses[0]
        assert first.issue == IssueType.SMALL_IO
        assert first.severity == Severity.INFO
        assert first.steps == ["step one", "step two"]
        assert first.evidence == {"total_ops": 10, "fraction": 0.5}
        assert first.mitigations == [MitigationNote.AGGREGATABLE]

    def test_file_round_trip(self, tmp_path):
        path = dump_report(sample_report(), tmp_path / "out" / "report.json")
        assert path.exists()
        back = load_report(path)
        assert back.detected_issues == {IssueType.MISALIGNED_IO}

    def test_json_is_stable(self, tmp_path):
        first = dump_report(sample_report(), tmp_path / "a.json").read_text()
        second = dump_report(sample_report(), tmp_path / "b.json").read_text()
        assert first == second

    def test_pipeline_report_serializes(self, easy_2k_bundle, tmp_path):
        from repro.ion.pipeline import IoNavigator

        with IoNavigator() as navigator:
            report = navigator.diagnose(easy_2k_bundle.log, "easy").report
        back = load_report(dump_report(report, tmp_path / "r.json"))
        assert back.detected_issues == report.detected_issues
        assert back.mitigation_notes == report.mitigation_notes
        for a, b in zip(report.diagnoses, back.diagnoses):
            assert a.conclusion == b.conclusion
            assert a.evidence == b.evidence


class TestErrors:
    def test_wrong_schema_version(self):
        payload = report_to_dict(sample_report())
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ReproError, match="schema version"):
            report_from_dict(payload)

    def test_bad_issue_value(self):
        payload = report_to_dict(sample_report())
        payload["diagnoses"][0]["issue"] = "quantum_flux"
        with pytest.raises(ReproError):
            report_from_dict(payload)

    def test_missing_fields(self):
        with pytest.raises(ReproError):
            report_from_dict({"schema_version": SCHEMA_VERSION})

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ReproError):
            load_report(path)

    def test_record_without_schema_fails_as_repro_error(self, tmp_path):
        # A nested record has no SCHEMA: the error names its class.
        with pytest.raises(ReproError, match="malformed PerfSnapshot payload"):
            from_dict(PerfSnapshot, {"runtime_seconds": "x", "bytes_moved": 1})
        path = tmp_path / "perf.json"
        path.write_text("{not json")
        with pytest.raises(ReproError, match="not valid PerfSnapshot JSON"):
            load(PerfSnapshot, path)

    def test_bad_mitigation(self):
        payload = report_to_dict(sample_report())
        payload["diagnoses"][0]["mitigations"] = ["wishful_thinking"]
        with pytest.raises(ReproError):
            report_from_dict(payload)

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda p: p.update(trace_name=None), "trace_name"),
            (lambda p: p["diagnoses"][0].update(degraded="false"), "diagnoses[0].degraded"),
            (lambda p: p["diagnoses"][0].update(steps=[1, None]), "diagnoses[0].steps[0]"),
            (lambda p: p["diagnoses"][0].update(degraded=0), "diagnoses[0].degraded"),
            (lambda p: p.update(health={"queries": True}), "health.queries"),
            (lambda p: p.update(health={"queries": 2.0}), "health.queries"),
            (lambda p: p.update(schema_version="2"), "schema version"),
        ],
    )
    def test_scalars_are_checked_not_coerced(self, edit, where):
        # str(None) and bool("false") would decode without complaint.
        payload = report_to_dict(sample_report())
        edit(payload)
        with pytest.raises(ReproError, match=re.escape(where)):
            report_from_dict(payload)

    def test_int_accepted_for_float(self):
        from repro.ion.serialize import from_dict
        from repro.journey.perf import PerfSnapshot

        snapshot = from_dict(PerfSnapshot, {"runtime_seconds": 3, "bytes_moved": 5})
        assert snapshot.runtime_seconds == 3.0
        assert isinstance(snapshot.runtime_seconds, float)

    @pytest.mark.parametrize("payload", [[], "x", 3])
    def test_non_object_payload(self, payload, tmp_path):
        with pytest.raises(ReproError, match="malformed report payload"):
            report_from_dict(payload)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ReproError, match="malformed report payload"):
            load_report(path)


class TestDegradedAndHealth:
    def degraded_report(self):
        from repro.ion.issues import ReportHealth

        report = sample_report()
        report.diagnoses[0].degraded = True
        report.diagnoses[0].degraded_reason = "LLMTransientError: boom"
        report.diagnoses[0].fallback_source = "drishti"
        report.health = ReportHealth(
            queries=3, attempts=5, retries=2, degraded=1, fallbacks=1,
            breaker_state="open", breaker_trips=1,
            notes=["query:small_io: LLMTransientError: boom"],
        )
        return report

    def test_degraded_fields_round_trip(self):
        back = report_from_dict(report_to_dict(self.degraded_report()))
        first = back.diagnoses[0]
        assert first.degraded
        assert first.degraded_reason == "LLMTransientError: boom"
        assert first.fallback_source == "drishti"
        assert not back.diagnoses[1].degraded

    def test_health_round_trips(self):
        back = report_from_dict(report_to_dict(self.degraded_report()))
        health = back.health
        assert health is not None
        assert (health.queries, health.attempts, health.retries) == (3, 5, 2)
        assert health.breaker_state == "open"
        assert health.breaker_trips == 1
        assert health.notes == ["query:small_io: LLMTransientError: boom"]
        assert not health.healthy

    def test_version_one_payloads_still_readable(self):
        # A v1 payload predates the degraded/health fields entirely.
        payload = report_to_dict(sample_report())
        payload["schema_version"] = 1
        del payload["health"]
        for diagnosis in payload["diagnoses"]:
            del diagnosis["degraded"]
            del diagnosis["degraded_reason"]
            del diagnosis["fallback_source"]
        back = report_from_dict(payload)
        assert back.health is None
        assert all(not d.degraded for d in back.diagnoses)

    def test_malformed_health_rejected(self):
        payload = report_to_dict(self.degraded_report())
        payload["health"] = {"queries": "lots and lots"}
        with pytest.raises(ReproError, match="health"):
            report_from_dict(payload)
