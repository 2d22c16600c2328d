"""Tests for the closed-loop optimization journey subsystem.

Covers the remediation registry, the pure config transforms, the
verdict judge, the full executor loop on real simulated workloads
(every registered remediation exercised through the verify loop,
including NO_EFFECT / REGRESSED / INAPPLICABLE paths), degraded-mode
journeys on a dead LLM backend, and the JSON/HTML encodings.
"""

from __future__ import annotations

import json

import pytest

from repro.ion.analyzer import AnalyzerConfig, ResilienceConfig
from repro.ion.issues import Diagnosis, DiagnosisReport, IssueType, Severity
from repro.journey import (
    JourneyConfig,
    JourneyNavigator,
    JourneyStatus,
    Verdict,
    apply_config_changes,
    config_knobs,
    journey_from_dict,
    journey_to_dict,
    plan_remedies,
    remediable_issues,
    remediations,
    render_journey,
    render_journey_html,
)
from repro.journey.executor import _Observation
from repro.journey.perf import PerfDelta, PerfSnapshot
from repro.llm.expert.model import SimulatedExpertLLM
from repro.llm.faults import FaultKind, FaultPlan, FaultyLLMClient
from repro.util.errors import JourneyError, WorkloadConfigError
from repro.workloads import make_workload


def _fast_degraded_analyzer_config() -> AnalyzerConfig:
    return AnalyzerConfig(
        parallel_prompts=1,
        resilience=ResilienceConfig(
            max_attempts=2, backoff_base=0.0, backoff_max=0.0
        ),
    )


def _journey(workload_name, scale, max_steps=3, overrides=None, **nav_kwargs):
    workload = make_workload(workload_name, overrides=overrides)
    config = JourneyConfig(scale=scale, max_steps=max_steps)
    with JourneyNavigator(journey_config=config, **nav_kwargs) as navigator:
        return navigator.navigate(workload)


class TestRemedyRegistry:
    def test_at_least_four_issue_types_remediable(self):
        assert len(remediable_issues()) >= 4

    def test_expected_issue_coverage(self):
        assert {
            IssueType.SMALL_IO,
            IssueType.MISALIGNED_IO,
            IssueType.SHARED_FILE_CONTENTION,
            IssueType.NO_MPIIO,
            IssueType.NO_COLLECTIVE,
        } <= remediable_issues()

    def test_filtering_by_issue(self):
        contention = remediations(IssueType.SHARED_FILE_CONTENTION)
        assert {r.action for r in contention} == {
            "file-per-process",
            "widen-striping",
        }
        assert all(
            r.issue == IssueType.SHARED_FILE_CONTENTION for r in contention
        )

    def test_every_remediation_declares_expected_effect(self):
        for remediation in remediations():
            assert remediation.issue in remediation.expected.clears
            assert remediation.expected.rationale
            assert remediation.description

    def test_plan_skips_already_satisfied_configs(self):
        # 1 MiB transfers are already stripe-aligned: nothing to plan.
        workload = make_workload("ior-easy-1m-shared")
        assert plan_remedies(IssueType.MISALIGNED_IO, workload) == []
        # POSIX workload cannot "enable collective" without MPI-IO.
        assert plan_remedies(IssueType.NO_COLLECTIVE, workload) == []

    def test_plan_proposes_concrete_changes(self):
        workload = make_workload("ior-easy-2k-shared")
        planned = plan_remedies(IssueType.MISALIGNED_IO, workload)
        assert len(planned) == 1
        changes = planned[0].changes
        # 2 KiB rounds up to the 1 MiB stripe.
        assert changes["transfer_size"] == 2**20

    def test_small_io_plan_targets_rpc_cap(self):
        workload = make_workload("ior-hard")
        planned = plan_remedies(IssueType.SMALL_IO, workload)
        assert len(planned) == 1
        assert planned[0].changes["transfer_size"] == 4 * 2**20


class TestTransforms:
    def test_apply_returns_diff_and_new_workload(self):
        workload = make_workload("ior-easy-2k-shared")
        patched, diff = apply_config_changes(
            workload, {"transfer_size": 2**20}
        )
        assert patched.config.transfer_size == 2**20
        assert workload.config.transfer_size == 2048  # purity
        (change,) = diff
        assert (change.field, change.old, change.new) == (
            "transfer_size", 2048, 2**20,
        )

    def test_unknown_knob_rejected_with_known_list(self):
        workload = make_workload("ior-easy-2k-shared")
        with pytest.raises(WorkloadConfigError, match="transfer_size"):
            apply_config_changes(workload, {"blocksize": 1})

    def test_invalid_combination_rejected_by_validation(self):
        # The IOR config's own __post_init__ runs on the patched config.
        workload = make_workload("ior-hard")
        with pytest.raises(WorkloadConfigError, match="shared file"):
            apply_config_changes(workload, {"file_per_process": True})

    def test_config_knobs_reads_normalized_values(self):
        knobs = config_knobs(make_workload("ior-easy-2k-shared"))
        assert knobs["transfer_size"] == 2048
        assert knobs["file_per_process"] is False
        assert knobs["stripe_size"] == 2**20


class TestJourneyConfig:
    def test_defaults_valid(self):
        config = JourneyConfig()
        assert config.max_steps == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_steps": 0},
            {"scale": 0.0},
            {"scale": -1.0},
            {"min_gain": -0.1},
            {"regress_tolerance": -0.1},
        ],
    )
    def test_invalid_config_raises_journey_error(self, kwargs):
        with pytest.raises(JourneyError):
            JourneyConfig(**kwargs)


def _observation(detected, bandwidth):
    diagnoses = [
        Diagnosis(issue=issue, severity=Severity.WARNING, conclusion="x")
        for issue in detected
    ]
    return _Observation(
        report=DiagnosisReport(trace_name="t", diagnoses=diagnoses),
        perf=PerfSnapshot(runtime_seconds=1.0, bytes_moved=int(bandwidth)),
    )


class TestJudge:
    def setup_method(self):
        self.navigator = JourneyNavigator()
        self.remediation = remediations(IssueType.SMALL_IO)[0]

    def teardown_method(self):
        self.navigator.close()

    def _judge(self, before, after):
        return self.navigator._judge(self.remediation, before, after)

    def test_cleared_with_gain_is_verified(self):
        verdict, reason = self._judge(
            _observation({IssueType.SMALL_IO}, 100),
            _observation(set(), 200),
        )
        assert verdict is Verdict.VERIFIED
        assert "small_io" in reason

    def test_new_issue_is_regressed_even_with_gain(self):
        verdict, reason = self._judge(
            _observation({IssueType.SMALL_IO}, 100),
            _observation({IssueType.LOAD_IMBALANCE}, 500),
        )
        assert verdict is Verdict.REGRESSED
        assert "load_imbalance" in reason

    def test_bandwidth_loss_is_regressed(self):
        verdict, reason = self._judge(
            _observation({IssueType.SMALL_IO}, 100),
            _observation(set(), 80),
        )
        assert verdict is Verdict.REGRESSED
        assert "bandwidth" in reason

    def test_target_still_detected_is_no_effect(self):
        verdict, reason = self._judge(
            _observation({IssueType.SMALL_IO}, 100),
            _observation({IssueType.SMALL_IO}, 101),
        )
        assert verdict is Verdict.NO_EFFECT
        assert "still detected" in reason

    def test_cleared_but_flat_bandwidth_is_no_effect(self):
        verdict, reason = self._judge(
            _observation({IssueType.SMALL_IO}, 100),
            _observation(set(), 101),
        )
        assert verdict is Verdict.NO_EFFECT
        assert "gain floor" in reason


@pytest.fixture(scope="module")
def easy_2k_journey():
    """One shared small-scale journey over the seeded 2 KiB IOR trace."""
    return _journey("ior-easy-2k-shared", scale=0.05)


@pytest.fixture(scope="module")
def hard_journey():
    """One shared journey over ior-hard: every verdict path in one step."""
    return _journey("ior-hard", scale=0.005, max_steps=1)


class TestJourneyLoop:
    def test_easy_2k_improves_bandwidth(self, easy_2k_journey):
        report = easy_2k_journey
        assert "align-transfer-to-stripe" in report.applied_actions
        assert report.overall_delta.bandwidth_ratio > 1.02
        # The targeted issue is cleared after the applied fix.
        assert IssueType.MISALIGNED_IO in report.steps[0].detected
        assert IssueType.MISALIGNED_IO not in report.remaining_issues

    def test_align_remediation_verified(self, easy_2k_journey):
        attempts = {
            a.remediation.action: a for a in easy_2k_journey.steps[0].attempts
        }
        align = attempts["align-transfer-to-stripe"]
        assert align.verdict is Verdict.VERIFIED
        assert IssueType.MISALIGNED_IO in align.cleared

    def test_file_per_process_verified_on_easy_shared(self, easy_2k_journey):
        attempts = {
            a.remediation.action: a for a in easy_2k_journey.steps[0].attempts
        }
        fpp = attempts["file-per-process"]
        assert fpp.verdict is Verdict.VERIFIED
        assert IssueType.SHARED_FILE_CONTENTION in fpp.cleared

    def test_widen_striping_no_effect_on_easy_shared(self, easy_2k_journey):
        attempts = {
            a.remediation.action: a for a in easy_2k_journey.steps[0].attempts
        }
        assert attempts["widen-striping"].verdict is Verdict.NO_EFFECT

    def test_adopt_collective_regresses_on_easy_2k(self, easy_2k_journey):
        # Collective buffering funnels tiny transfers through
        # aggregators, which the diagnosis flags as load imbalance.
        attempts = {
            a.remediation.action: a for a in easy_2k_journey.steps[0].attempts
        }
        assert attempts["adopt-collective-mpiio"].verdict is Verdict.REGRESSED

    def test_config_diff_tracks_applied_changes(self, easy_2k_journey):
        fields = {change.field for change in easy_2k_journey.config_diff}
        assert "transfer_size" in fields

    def test_coalesce_verified_on_hard(self, hard_journey):
        attempts = {
            a.remediation.action: a for a in hard_journey.steps[0].attempts
        }
        coalesce = attempts["coalesce-transfers"]
        assert coalesce.verdict is Verdict.VERIFIED
        assert IssueType.SMALL_IO in coalesce.cleared

    def test_file_per_process_inapplicable_on_hard(self, hard_journey):
        # IOR hard mode *requires* a shared file: the transform is
        # rejected by the workload's own validation, never simulated.
        attempts = {
            a.remediation.action: a for a in hard_journey.steps[0].attempts
        }
        fpp = attempts["file-per-process"]
        assert fpp.verdict is Verdict.INAPPLICABLE
        assert "shared file" in fpp.reason
        assert fpp.perf_after is None
        # The proposed (rejected) diff is still reported.
        assert [c.field for c in fpp.changes] == ["file_per_process"]

    def test_budget_exhaustion_reported(self, hard_journey):
        assert hard_journey.status is JourneyStatus.BUDGET_EXHAUSTED
        assert len(hard_journey.applied_actions) == 1
        assert hard_journey.remaining_issues

    def test_enable_collective_regresses_on_independent_mpiio(self):
        report = _journey(
            "ior-easy-1m-shared",
            scale=0.1,
            max_steps=1,
            overrides={"api": "MPIIO"},
        )
        assert report.status is JourneyStatus.STALLED
        (attempt,) = report.steps[0].attempts
        assert attempt.remediation.action == "enable-collective"
        assert attempt.verdict is Verdict.REGRESSED

    def test_clean_workload_ends_immediately(self):
        # A single-rank, aligned, file-per-process run diagnoses clean.
        report = _journey(
            "ior-easy-1m-fpp", scale=0.05, overrides={"nprocs": "1"}
        )
        assert report.status is JourneyStatus.CLEAN
        assert report.applied_actions == ()
        assert len(report.steps) == 1
        assert report.overall_delta.bandwidth_ratio == 1.0

    def test_journey_is_deterministic(self, easy_2k_journey):
        again = _journey("ior-easy-2k-shared", scale=0.05)
        assert render_journey(again) == render_journey(easy_2k_journey)


class TestDegradedJourney:
    def test_dead_llm_backend_still_produces_recommendations(self):
        # Total LLM outage: every query degrades onto the Drishti
        # heuristics, which still detect the seeded issues — so the
        # journey must plan, verify and apply fixes without crashing.
        client = FaultyLLMClient(
            SimulatedExpertLLM(), FaultPlan.always(FaultKind.TRANSIENT)
        )
        workload = make_workload("ior-easy-2k-shared")
        with JourneyNavigator(
            client=client,
            analyzer_config=_fast_degraded_analyzer_config(),
            journey_config=JourneyConfig(scale=0.05),
        ) as navigator:
            report = navigator.navigate(workload)
        assert all(step.degraded for step in report.steps)
        assert all(d.degraded for d in report.initial_report.diagnoses)
        # Drishti heuristics flag the seeded small/misaligned issues and
        # the loop still verifies a fix against them.
        assert report.applied_actions
        assert report.overall_delta.bandwidth_ratio > 1.02
        text = render_journey(report)
        assert "diagnosis degraded" in text


class TestJourneySerialization:
    def test_json_round_trip_preserves_rendering(self, easy_2k_journey):
        payload = journey_to_dict(easy_2k_journey)
        blob = json.dumps(payload, indent=2, sort_keys=True)
        loaded = journey_from_dict(json.loads(blob))
        assert render_journey(loaded) == render_journey(easy_2k_journey)
        assert loaded.status is easy_2k_journey.status

    def test_unsupported_schema_version_rejected(self, easy_2k_journey):
        from repro.util.errors import ReproError

        payload = journey_to_dict(easy_2k_journey)
        payload["schema_version"] = 99
        with pytest.raises(ReproError, match="schema version"):
            journey_from_dict(payload)

    def test_malformed_payload_rejected(self):
        from repro.util.errors import ReproError

        with pytest.raises(ReproError):
            journey_from_dict({"schema_version": 1, "trace_name": "x"})

    @pytest.mark.parametrize("payload", [[], "x", 3])
    def test_non_object_payload_rejected(self, payload, tmp_path):
        from repro.journey import load_journey
        from repro.util.errors import ReproError

        with pytest.raises(ReproError, match="malformed journey payload"):
            journey_from_dict(payload)
        path = tmp_path / "journey.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ReproError, match="malformed journey payload"):
            load_journey(path)

    def test_non_object_expected_effect_rejected(self, easy_2k_journey):
        from repro.util.errors import ReproError

        payload = journey_to_dict(easy_2k_journey)
        attempt = payload["steps"][0]["attempts"][0]
        attempt["remediation"]["expected"] = []
        with pytest.raises(ReproError, match="remediation.expected"):
            journey_from_dict(payload)

    def test_html_rendering_is_self_contained(self, easy_2k_journey):
        html_text = render_journey_html(easy_2k_journey)
        assert html_text.startswith("<!DOCTYPE html>")
        assert "ior-easy-2k-shared" in html_text
        assert "VERIFIED" in html_text
        assert "align-transfer-to-stripe" in html_text
        assert "<script" not in html_text


class TestPerfModel:
    def test_snapshot_from_log_counts_posix_and_stdio(self, easy_2k_bundle):
        snapshot = PerfSnapshot.from_log(easy_2k_bundle.log)
        assert snapshot.bytes_moved > 0
        assert snapshot.runtime_seconds > 0
        assert snapshot.aggregate_bandwidth == pytest.approx(
            snapshot.bytes_moved / snapshot.runtime_seconds
        )

    def test_delta_ratios(self):
        before = PerfSnapshot(runtime_seconds=2.0, bytes_moved=100)
        after = PerfSnapshot(runtime_seconds=1.0, bytes_moved=100)
        delta = PerfDelta(before=before, after=after)
        assert delta.bandwidth_ratio == pytest.approx(2.0)
        assert delta.runtime_ratio == pytest.approx(0.5)

    def test_zero_baseline_is_safe(self):
        zero = PerfSnapshot(runtime_seconds=0.0, bytes_moved=0)
        assert zero.aggregate_bandwidth == 0.0
        delta = PerfDelta(before=zero, after=zero)
        assert delta.bandwidth_ratio == 1.0


class TestJourneyCli:
    def test_cli_runs_and_writes_artifacts(self, tmp_path, capsys):
        from repro.journey import cli as journey_cli

        json_path = tmp_path / "journey.json"
        html_path = tmp_path / "journey.html"
        assert journey_cli.main(
            [
                "ior-easy-2k-shared",
                "--scale", "0.05",
                "--json", str(json_path),
                "--html", str(html_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "ION optimization journey" in out
        assert "applied align-transfer-to-stripe" in out
        assert json.loads(json_path.read_text())["schema_version"] == 1
        assert html_path.read_text().startswith("<!DOCTYPE html>")

    def test_cli_rejects_bad_config(self, capsys):
        from repro.journey import cli as journey_cli

        assert journey_cli.main(
            ["ior-easy-2k-shared", "--max-steps", "0"]
        ) == 1
        assert "max_steps" in capsys.readouterr().err

    def test_cli_set_override_changes_start_point(self, capsys):
        from repro.journey import cli as journey_cli

        # Starting from an already-aligned config, the align fix is
        # never proposed.
        assert journey_cli.main(
            [
                "ior-easy-2k-shared",
                "--scale", "0.05",
                "--max-steps", "1",
                "--set", "transfer_size=1MiB",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "align-transfer-to-stripe" not in out
