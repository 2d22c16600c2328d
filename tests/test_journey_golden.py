"""Golden regression test for the full journey report text.

The rendered :class:`JourneyReport` for the paper-scale seeded
small-transfers IOR trace is snapshotted under ``tests/golden/``.  The
whole closed loop — diagnosis, remediation planning, re-simulation,
verdicts, applied fixes, final performance — is deterministic, so a
single changed character anywhere in the chain shows up as a diff.

If a change is *intentional*, regenerate the snapshot::

    ION_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_journey_golden.py

The journey's JSON encoding is pinned by its sha256 (scratch
directories masked) next to the text snapshot.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from repro.journey import (
    JourneyConfig,
    JourneyNavigator,
    JourneyStatus,
    Verdict,
    journey_from_dict,
    journey_to_dict,
    render_journey,
)
from repro.workloads import make_workload

GOLDEN = Path(__file__).parent / "golden" / "ior-easy-2k-shared.journey.txt"
JSON_DIGEST = GOLDEN.with_name("ior-easy-2k-shared.journey-json.sha256")


def _check_against(golden: Path, rendered: str) -> None:
    if os.environ.get("ION_REGEN_GOLDEN"):
        golden.write_text(rendered, encoding="utf-8")

    expected = golden.read_text(encoding="utf-8")
    if rendered != expected:
        diff = "\n".join(
            difflib.unified_diff(
                expected.splitlines(),
                rendered.splitlines(),
                fromfile="golden",
                tofile="current",
                lineterm="",
            )
        )
        raise AssertionError(
            "journey report drifted from the golden snapshot; if the "
            "change is intentional rerun with ION_REGEN_GOLDEN=1.\n" + diff
        )


@pytest.fixture(scope="module")
def paper_scale_journey():
    """The full paper-scale journey over the seeded 2 KiB IOR trace."""
    workload = make_workload("ior-easy-2k-shared")
    with JourneyNavigator(
        journey_config=JourneyConfig(scale=1.0)
    ) as navigator:
        return navigator.navigate(workload)


def test_journey_report_matches_golden_snapshot(paper_scale_journey):
    _check_against(GOLDEN, render_journey(paper_scale_journey))


def test_journey_json_matches_pinned_digest(paper_scale_journey):
    payload = journey_to_dict(paper_scale_journey)
    text = json.dumps(payload, indent=2, sort_keys=True)
    # Every observation writes its CSVs under <tmp>/ion-*/<trace>-*/.
    scratch = (
        re.escape(tempfile.gettempdir())
        + r"/ion-[^/]+/"
        + re.escape(paper_scale_journey.trace_name)
        + r"-[^/]+/"
    )
    normalized = re.sub(scratch, "<dir>/", text)
    digest = hashlib.sha256(normalized.encode("utf-8")).hexdigest()
    _check_against(JSON_DIGEST, digest + "\n")
    assert journey_to_dict(journey_from_dict(payload)) == payload


def test_journey_satisfies_acceptance_criteria(paper_scale_journey):
    # The seeded trace's targeted issue is cleared post-fix and the
    # simulated aggregate bandwidth improves — the paper's closed loop.
    from repro.ion.issues import IssueType

    report = paper_scale_journey
    assert IssueType.MISALIGNED_IO in report.steps[0].detected
    assert IssueType.MISALIGNED_IO not in report.remaining_issues
    assert report.overall_delta.bandwidth_ratio > 1.02
    assert report.applied_actions
    # The journey exercises a negative verdict too, not just wins.
    verdicts = {
        attempt.verdict
        for step in report.steps
        for attempt in step.attempts
    }
    assert Verdict.VERIFIED in verdicts
    assert verdicts & {Verdict.NO_EFFECT, Verdict.REGRESSED}


def test_golden_snapshot_stays_complete():
    # The snapshot must keep describing a full journey: steps, verdict
    # badges, the outcome line and the overall performance delta.
    text = GOLDEN.read_text(encoding="utf-8")
    assert "ION optimization journey — ior-easy-2k-shared" in text
    assert "Step 1:" in text
    assert "[VERIFIED]" in text
    assert "Outcome:" in text
    assert "Overall: bandwidth" in text
    assert GOLDEN.read_text(encoding="utf-8").endswith("\n")


def test_golden_matches_status(paper_scale_journey):
    # Lock the narrative shape, not just the text: one applied fix,
    # then a stall when the only remaining fix regresses.
    assert paper_scale_journey.status in (
        JourneyStatus.STALLED,
        JourneyStatus.CLEAN,
    )
