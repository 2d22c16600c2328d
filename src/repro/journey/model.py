"""Data model of an optimization journey.

A journey is a sequence of steps.  Each step observes the current
workload (simulate, extract, diagnose, snapshot performance), plans
remediations for every detected issue, tries each one in a scratch
re-simulation, and judges the attempts:

* ``VERIFIED`` — the targeted issue cleared, no new issue appeared, and
  simulated aggregate bandwidth improved beyond the noise floor.
* ``NO_EFFECT`` — nothing got worse, but the fix did not clear its
  target with a bandwidth win.
* ``REGRESSED`` — the fix introduced a new issue or lost bandwidth.
* ``INAPPLICABLE`` — the workload's own validation rejected the
  transformed configuration.

The best verified attempt is applied and the loop continues until the
diagnosis comes back clean, no attempt verifies, or the step budget
runs out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.ion.issues import DiagnosisReport, IssueType
from repro.journey.perf import PerfDelta, PerfSnapshot
from repro.journey.remedies import Remediation
from repro.workloads.base import FieldChange


class Verdict(enum.Enum):
    """Outcome of one remediation attempt."""

    VERIFIED = "verified"
    NO_EFFECT = "no_effect"
    REGRESSED = "regressed"
    INAPPLICABLE = "inapplicable"


class JourneyStatus(enum.Enum):
    """How the journey as a whole ended."""

    #: No issue remained detected at the final observation.
    CLEAN = "clean"
    #: Issues remain, but no attempted remediation verified.
    STALLED = "stalled"
    #: A verified fix was available but the step budget ran out.
    BUDGET_EXHAUSTED = "budget_exhausted"
    #: Issues were detected but none has a registered remediation.
    NO_REMEDIATION = "no_remediation"


@dataclass(frozen=True)
class RemediationAttempt:
    """One remediation tried against one observed configuration."""

    remediation: Remediation
    #: The config diff — proposed (INAPPLICABLE) or applied (others).
    changes: tuple[FieldChange, ...]
    verdict: Verdict
    #: One-line judgement rationale, e.g. why an attempt regressed.
    reason: str
    #: Issues detected after the fix (empty for INAPPLICABLE).
    issues_after: frozenset[IssueType] = frozenset()
    #: Previously detected issues this attempt cleared.
    cleared: frozenset[IssueType] = frozenset()
    #: Issues the attempt newly introduced.
    introduced: frozenset[IssueType] = frozenset()
    #: Performance of the patched run (None for INAPPLICABLE).
    perf_after: PerfSnapshot | None = None
    #: True when the patched run's diagnosis ran degraded.
    degraded: bool = False


@dataclass(frozen=True)
class JourneyStep:
    """One observe -> plan -> attempt -> apply iteration."""

    index: int
    #: Issues detected at this step's observation.
    detected: frozenset[IssueType]
    #: True when this observation's diagnosis ran degraded.
    degraded: bool
    perf: PerfSnapshot
    attempts: tuple[RemediationAttempt, ...] = ()
    #: Action name of the attempt applied to continue, if any.
    applied: str | None = None


@dataclass(frozen=True)
class JourneyReport:
    """The full record of one optimization journey."""

    #: JSON kind, version written, versions read (``repro.ion.serialize``).
    SCHEMA = ("journey", 1, (1,))

    trace_name: str
    status: JourneyStatus
    steps: tuple[JourneyStep, ...]
    initial_report: DiagnosisReport
    final_report: DiagnosisReport
    initial_perf: PerfSnapshot
    final_perf: PerfSnapshot
    #: Cumulative config diff from the original workload to the final
    #: applied configuration (empty when nothing was applied).
    config_diff: tuple[FieldChange, ...] = ()
    parameters: dict[str, object] = field(default_factory=dict)

    @property
    def overall_delta(self) -> PerfDelta:
        """Initial vs final simulated performance."""
        return PerfDelta(before=self.initial_perf, after=self.final_perf)

    @property
    def applied_actions(self) -> tuple[str, ...]:
        """Action names applied along the journey, in order."""
        return tuple(
            step.applied for step in self.steps if step.applied is not None
        )

    @property
    def remaining_issues(self) -> frozenset[IssueType]:
        """Issues still detected at the final observation."""
        if not self.steps:
            return frozenset()
        return self.steps[-1].detected
