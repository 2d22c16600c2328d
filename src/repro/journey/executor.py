"""The journey executor: observe -> plan -> attempt -> apply, repeated.

One :class:`JourneyNavigator` drives a workload through the full
closed loop.  Every *observation* simulates the workload, extracts the
trace, diagnoses it through the resilient analyzer (honoring degraded
mode — a dead LLM backend still yields Drishti-heuristic diagnoses,
and therefore recommendations), and snapshots simulated performance.
Every *attempt* re-simulates a patched configuration in scratch space
and is judged against the step's baseline:

* a new detected issue, or a bandwidth loss beyond
  ``regress_tolerance``, makes the attempt ``REGRESSED``;
* otherwise, clearing the targeted issue with a bandwidth gain above
  ``min_gain`` makes it ``VERIFIED``;
* otherwise it is ``NO_EFFECT``;
* a transform the workload's own validation rejects is
  ``INAPPLICABLE`` and never simulated.

The best verified attempt (highest post-fix bandwidth) is applied and
the loop continues until the diagnosis is clean, nothing verifies, or
the budget of applied remediations runs out.  Everything downstream of
the workload's seed is deterministic, so journeys are reproducible and
snapshot-testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.ion.analyzer import AnalyzerConfig
from repro.ion.issues import DiagnosisReport
from repro.ion.pipeline import IoNavigator
from repro.journey.model import (
    JourneyReport,
    JourneyStatus,
    JourneyStep,
    RemediationAttempt,
    Verdict,
)
from repro.journey.perf import PerfSnapshot
from repro.journey.remedies import PlannedRemediation, plan_remedies
from repro.llm.client import LLMClient
from repro.llm.resilience import CircuitBreaker
from repro.util.errors import JourneyError, WorkloadConfigError
from repro.util.metrics import MetricsRegistry
from repro.workloads.base import (
    FieldChange,
    Workload,
    apply_config_changes,
    describe_changes,
)


@dataclass(frozen=True)
class JourneyConfig:
    """Tunables of the closed loop."""

    #: Maximum number of remediations applied along the journey.
    max_steps: int = 3
    #: Workload scale for every simulation (same knob as ``iogen``).
    scale: float = 1.0
    #: Minimum fractional bandwidth gain for a fix to VERIFY.
    min_gain: float = 0.02
    #: Fractional bandwidth loss beyond which an attempt REGRESSED.
    regress_tolerance: float = 0.02

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise JourneyError(
                f"max_steps must be at least 1, got {self.max_steps}"
            )
        if self.scale <= 0:
            raise JourneyError(f"scale must be positive, got {self.scale}")
        if self.min_gain < 0:
            raise JourneyError(
                f"min_gain must be non-negative, got {self.min_gain}"
            )
        if self.regress_tolerance < 0:
            raise JourneyError(
                "regress_tolerance must be non-negative, got "
                f"{self.regress_tolerance}"
            )


@dataclass
class _Observation:
    """One simulate + diagnose + snapshot of a workload configuration."""

    report: DiagnosisReport
    perf: PerfSnapshot

    @property
    def detected(self) -> frozenset:
        return frozenset(self.report.detected_issues)

    @property
    def degraded(self) -> bool:
        return bool(self.report.degraded_issues)


class JourneyNavigator:
    """Drive a workload through the recommend/apply/verify loop."""

    def __init__(
        self,
        client: LLMClient | None = None,
        analyzer_config: AnalyzerConfig | None = None,
        journey_config: JourneyConfig | None = None,
        metrics: MetricsRegistry | None = None,
        interpreter_factory: Callable | None = None,
        breaker: CircuitBreaker | None = None,
        tracer=None,
    ) -> None:
        self.journey_config = journey_config or JourneyConfig()
        # Scratch-only: journeys re-simulate every observation, so
        # there is no log file to read and no cache to share.
        self.navigator = IoNavigator(
            client=client,
            config=analyzer_config,
            metrics=metrics,
            interpreter_factory=interpreter_factory,
            breaker=breaker,
            tracer=tracer,
        )
        self.metrics = self.navigator.metrics
        self.tracer = self.navigator.tracer

    def close(self) -> None:
        """Remove the navigator's private scratch directory."""
        self.navigator.close()

    def __enter__(self) -> "JourneyNavigator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the loop -----------------------------------------------------

    def navigate(self, workload: Workload) -> JourneyReport:
        """Run the full closed loop over a workload."""
        config = self.journey_config
        trace_name = getattr(workload, "name", "journey")
        # ``new_trace=True``: each journey is its own trace even when a
        # campaign pool thread is reused across workloads.
        with self.tracer.span(
            "journey.navigate",
            attributes={"workload": trace_name},
            new_trace=True,
        ) as span:
            observation = self._observe(workload, trace_name)
            initial = observation
            steps: list[JourneyStep] = []
            merged_diff: dict[str, FieldChange] = {}
            applied_count = 0
            index = 0
            while True:
                index += 1
                detected = observation.detected
                if not detected:
                    steps.append(self._observation_step(index, observation))
                    status = JourneyStatus.CLEAN
                    break
                if applied_count >= config.max_steps:
                    steps.append(self._observation_step(index, observation))
                    status = JourneyStatus.BUDGET_EXHAUSTED
                    break
                candidates = [
                    plan
                    for issue in sorted(detected, key=lambda i: i.value)
                    for plan in plan_remedies(issue, workload)
                ]
                if not candidates:
                    steps.append(self._observation_step(index, observation))
                    status = JourneyStatus.NO_REMEDIATION
                    break
                attempts: list[RemediationAttempt] = []
                patched_by_action: dict[str, tuple[Workload, _Observation]] = {}
                for plan in candidates:
                    attempt, patched, patched_obs = self._attempt(
                        workload, plan, observation, trace_name, index
                    )
                    attempts.append(attempt)
                    if patched is not None and patched_obs is not None:
                        patched_by_action[attempt.remediation.action] = (
                            patched,
                            patched_obs,
                        )
                verified = [
                    a for a in attempts if a.verdict is Verdict.VERIFIED
                ]
                if not verified:
                    steps.append(
                        self._observation_step(
                            index, observation, attempts=tuple(attempts)
                        )
                    )
                    status = JourneyStatus.STALLED
                    break
                best = max(
                    verified,
                    key=lambda a: (
                        a.perf_after.aggregate_bandwidth
                        if a.perf_after is not None
                        else 0.0,
                        a.remediation.action,
                    ),
                )
                steps.append(
                    self._observation_step(
                        index,
                        observation,
                        attempts=tuple(attempts),
                        applied=best.remediation.action,
                    )
                )
                for change in best.changes:
                    earlier = merged_diff.get(change.field)
                    merged_diff[change.field] = FieldChange(
                        field=change.field,
                        old=earlier.old if earlier else change.old,
                        new=change.new,
                    )
                applied_count += 1
                workload, observation = patched_by_action[
                    best.remediation.action
                ]
            span.set_attribute("status", status.value)
            span.set_attribute("steps", len(steps))
            span.set_attribute("applied", applied_count)
            return JourneyReport(
                trace_name=trace_name,
                status=status,
                steps=tuple(steps),
                initial_report=initial.report,
                final_report=observation.report,
                initial_perf=initial.perf,
                final_perf=observation.perf,
                config_diff=tuple(merged_diff.values()),
                parameters={
                    "scale": config.scale,
                    "max_steps": config.max_steps,
                    "min_gain": config.min_gain,
                    "regress_tolerance": config.regress_tolerance,
                },
            )

    # -- pieces -------------------------------------------------------

    @staticmethod
    def _observation_step(
        index: int,
        observation: _Observation,
        attempts: tuple[RemediationAttempt, ...] = (),
        applied: str | None = None,
    ) -> JourneyStep:
        return JourneyStep(
            index=index,
            detected=observation.detected,
            degraded=observation.degraded,
            perf=observation.perf,
            attempts=attempts,
            applied=applied,
        )

    def _observe(self, workload: Workload, trace_name: str) -> _Observation:
        """Simulate, extract, diagnose and snapshot one configuration."""
        with self.tracer.span(
            "journey.observe", attributes={"trace": trace_name}
        ) as span:
            with self.tracer.span("simulate"):
                bundle = workload.run(scale=self.journey_config.scale)
            # The analyzer sees the log, which enables the Drishti
            # fallback: degraded diagnoses still drive recommendations.
            report = self.navigator.run(bundle.log, trace_name).report
            span.set_attribute("issues", len(report.detected_issues))
            # Not named "degraded": that key is reserved for query spans
            # so trace summaries count each degraded query exactly once.
            span.set_attribute("degraded_issues", len(report.degraded_issues))
            return _Observation(
                report=report, perf=PerfSnapshot.from_log(bundle.log)
            )

    def _attempt(
        self,
        workload: Workload,
        plan: PlannedRemediation,
        baseline: _Observation,
        trace_name: str,
        step_index: int,
    ) -> tuple[RemediationAttempt, Workload | None, _Observation | None]:
        """Try one planned remediation against the step's baseline."""
        remediation = plan.remediation
        with self.tracer.span(
            "journey.attempt",
            attributes={
                "action": remediation.action,
                "issue": remediation.issue.value,
                "step": step_index,
            },
        ) as span:
            try:
                patched, diff = apply_config_changes(workload, plan.changes)
            except WorkloadConfigError as exc:
                span.set_attribute("verdict", Verdict.INAPPLICABLE.value)
                span.set_attribute("reason", str(exc))
                attempt = RemediationAttempt(
                    remediation=remediation,
                    changes=tuple(describe_changes(workload, plan.changes)),
                    verdict=Verdict.INAPPLICABLE,
                    reason=str(exc),
                )
                return attempt, None, None
            patched_obs = self._observe(
                patched, f"{trace_name}-s{step_index}-{remediation.action}"
            )
            verdict, reason = self._judge(remediation, baseline, patched_obs)
            span.set_attribute("verdict", verdict.value)
            span.set_attribute("reason", reason)
            attempt = RemediationAttempt(
                remediation=remediation,
                changes=tuple(diff),
                verdict=verdict,
                reason=reason,
                issues_after=patched_obs.detected,
                cleared=baseline.detected - patched_obs.detected,
                introduced=patched_obs.detected - baseline.detected,
                perf_after=patched_obs.perf,
                degraded=patched_obs.degraded,
            )
            return attempt, patched, patched_obs

    def _judge(
        self, remediation, baseline: _Observation, after: _Observation
    ) -> tuple[Verdict, str]:
        """Judge a simulated attempt on diagnosis delta + performance."""
        config = self.journey_config
        introduced = sorted(
            issue.value for issue in after.detected - baseline.detected
        )
        before_bw = baseline.perf.aggregate_bandwidth
        after_bw = after.perf.aggregate_bandwidth
        ratio = (after_bw / before_bw) if before_bw > 0 else float("inf")
        if introduced:
            return Verdict.REGRESSED, (
                f"introduced new issue(s): {', '.join(introduced)}"
            )
        if ratio < 1 - config.regress_tolerance:
            return Verdict.REGRESSED, (
                f"aggregate bandwidth fell to {ratio:.2f}x of baseline"
            )
        target_cleared = remediation.issue not in after.detected
        if target_cleared and ratio > 1 + config.min_gain:
            return Verdict.VERIFIED, (
                f"cleared {remediation.issue.value}; bandwidth {ratio:.2f}x"
            )
        if not target_cleared:
            return Verdict.NO_EFFECT, (
                f"{remediation.issue.value} still detected after the fix"
            )
        return Verdict.NO_EFFECT, (
            f"cleared {remediation.issue.value} but bandwidth stayed at "
            f"{ratio:.2f}x (below the {config.min_gain:.0%} gain floor)"
        )
