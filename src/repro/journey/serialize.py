"""JSON serialization of journey reports.

Journey schema version 1 (:attr:`JourneyReport.SCHEMA`), encoded by the
report codec in :mod:`repro.ion.serialize`.  The embedded before/after
diagnosis reports carry their own report schema version, so a journey
archive is self-contained and round-trippable: a loaded report renders
identically to the one that was dumped.
"""

from __future__ import annotations

from pathlib import Path

from repro.ion.serialize import dump, from_dict, load, to_dict
from repro.journey.model import JourneyReport


def journey_to_dict(report: JourneyReport) -> dict:
    """Encode a full journey report as plain JSON-ready data."""
    return to_dict(report)


def journey_from_dict(payload: dict) -> JourneyReport:
    """Decode a journey report; raises ReproError on malformed input."""
    return from_dict(JourneyReport, payload)


def dump_journey(report: JourneyReport, path: str | Path) -> Path:
    """Write a journey report as JSON; returns the path written."""
    return dump(report, path)


def load_journey(path: str | Path) -> JourneyReport:
    """Read a journey report written by :func:`dump_journey`."""
    return load(JourneyReport, path)
