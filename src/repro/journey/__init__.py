"""Closed-loop optimization journeys: recommend -> apply -> verify.

The diagnosis pipeline answers *what is wrong*; this subsystem drives
the rest of the paper's title — the optimization *journey*.  Given a
diagnosed workload it recommends typed remediations
(:mod:`repro.journey.remedies`), applies them as pure config diffs
(:mod:`repro.workloads.base`), re-simulates and re-diagnoses the
patched run, and judges every attempt (VERIFIED / NO_EFFECT /
REGRESSED / INAPPLICABLE) on both the diagnosis delta and the
simulated performance delta (:mod:`repro.journey.executor`).  The
result is a :class:`~repro.journey.model.JourneyReport` with text,
HTML and JSON renderings and the ``ion-journey`` CLI on top.
"""

from repro.journey.executor import JourneyConfig, JourneyNavigator
from repro.journey.model import (
    JourneyReport,
    JourneyStatus,
    JourneyStep,
    RemediationAttempt,
    Verdict,
)
from repro.journey.htmlreport import render_journey_html, write_journey_html
from repro.journey.perf import PerfDelta, PerfSnapshot
from repro.journey.remedies import (
    ExpectedEffect,
    PlannedRemediation,
    Remediation,
    plan_remedies,
    remediable_issues,
    remediations,
)
from repro.journey.render import render_journey
from repro.journey.serialize import (
    dump_journey,
    journey_from_dict,
    journey_to_dict,
    load_journey,
)
from repro.workloads.base import (
    FieldChange,
    apply_config_changes,
    config_knobs,
    describe_changes,
)

__all__ = [
    "ExpectedEffect",
    "FieldChange",
    "JourneyConfig",
    "JourneyNavigator",
    "JourneyReport",
    "JourneyStatus",
    "JourneyStep",
    "PerfDelta",
    "PerfSnapshot",
    "PlannedRemediation",
    "Remediation",
    "RemediationAttempt",
    "Verdict",
    "apply_config_changes",
    "config_knobs",
    "describe_changes",
    "dump_journey",
    "journey_from_dict",
    "journey_to_dict",
    "load_journey",
    "plan_remedies",
    "remediable_issues",
    "remediations",
    "render_journey",
    "render_journey_html",
    "write_journey_html",
]
