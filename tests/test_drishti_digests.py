"""Byte-identity of the Drishti baseline's insights across refactors.

``tests/golden/drishti-insight-digests.json`` pins the sha256 of
``repr(DrishtiReport.insights)``: every insight in report order, with
its code, level, issue, message, recommendation and details.  It covers

- each of the 12 registry traces at its ``DEFAULT_SCALES`` scale, under
  the default thresholds and under every ``(small_request_size,
  small_requests_ratio)`` point ``benchmarks/bench_drishti_thresholds.py``
  sweeps;
- hand-built :class:`JobView`s that drive each read/write trigger pair
  (POSIX-01/02, 07/08, 09..12) and the two whole-job imbalance triggers
  (POSIX-15/16) down every branch: reads only, writes only, flagged and
  within bounds, the sequential praise, and the gap between the random
  and sequential thresholds.

If a change is *intentional*, regenerate the file::

    ION_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_drishti_digests.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.drishti.analyzer import DrishtiAnalyzer
from repro.drishti.thresholds import Thresholds
from repro.drishti.triggers import JobView, all_triggers
from repro.util.units import KIB, MIB
from repro.workloads.registry import workload_names

GOLDEN = Path(__file__).parent / "golden" / "drishti-insight-digests.json"

#: The threshold points the ABL3 benchmark sweeps.
SWEEP_SIZES = (4 * KIB, 100 * KIB, MIB, 2 * MIB, 4 * MIB)
SWEEP_RATIOS = (0.01, 0.10, 0.50, 0.95)

_READS_HIGH = dict(
    reads=1000, small_reads=600, seq_reads=100, bytes_read=10 * MIB,
    max_byte_read=MIB - 1,
)
_WRITES_HIGH = dict(
    writes=1000, small_writes=600, seq_writes=100, bytes_written=10 * MIB,
    max_byte_written=MIB - 1,
)
_READS_OK = dict(
    reads=1000, small_reads=50, seq_reads=900, bytes_read=MIB,
    max_byte_read=MIB - 1,
)
_WRITES_OK = dict(
    writes=1000, small_writes=50, seq_writes=900, bytes_written=MIB,
    max_byte_written=MIB - 1,
)
_SKEWED = dict(
    bytes_by_rank={0: 9 * MIB, 1: MIB, 2: MIB},
    time_by_rank={0: 9.0, 1: 1.0, 2: 1.0},
)
_BALANCED = dict(
    bytes_by_rank={0: MIB, 1: MIB}, time_by_rank={0: 1.0, 1: 1.1},
)

#: name -> (JobView fields, Thresholds fields).
VIEW_CASES: dict[str, tuple[dict, dict]] = {
    "empty": ({}, {}),
    "reads-only-high": ({**_READS_HIGH, **_SKEWED}, {}),
    "writes-only-high": ({**_WRITES_HIGH, **_SKEWED}, {}),
    "reads-only-ok": ({**_READS_OK, **_BALANCED}, {}),
    "writes-only-ok": ({**_WRITES_OK, **_BALANCED}, {}),
    "reads-high-writes-ok": ({**_READS_HIGH, **_WRITES_OK}, {}),
    "reads-ok-writes-high": ({**_READS_OK, **_WRITES_HIGH}, {}),
    # Exactly at the ratio cutoffs: not above them, so within bounds.
    "at-the-cutoffs": (
        dict(
            reads=100, small_reads=10, seq_reads=80, writes=100,
            small_writes=10, seq_writes=80, bytes_read=2 * MIB,
            max_byte_read=MIB - 1, bytes_written=2 * MIB,
            max_byte_written=MIB - 1,
        ),
        {},
    ),
    # Random at most 20% but sequential under 95%: neither flagged nor
    # praised.
    "between-random-and-sequential": (
        {**_READS_OK, **_WRITES_OK}, {"sequential_ratio": 0.95},
    ),
    # More sequential than total ops (counters from a broken log).
    "sequential-above-total": (
        dict(reads=10, seq_reads=12, writes=10, seq_writes=11), {},
    ),
    "one-rank": (
        dict(bytes_by_rank={0: MIB}, time_by_rank={0: 5.0}), {},
    ),
    "idle-ranks": (
        dict(bytes_by_rank={0: 0, 1: 0}, time_by_rank={0: 0.0, 1: 0.0}), {},
    ),
    # Time skew between the time and the data cutoffs: the straggler
    # trigger takes the larger of the two.
    "time-skew-below-data-cutoff": (
        dict(
            bytes_by_rank={0: MIB, 1: MIB},
            time_by_rank={0: 1.0, 1: 1.5},
        ),
        {},
    ),
    "custom-imbalance-cutoffs": (
        {**_SKEWED},
        {"data_imbalance_ratio": 0.9, "time_imbalance_ratio": 0.1},
    ),
}


def _sha(insights) -> str:
    return hashlib.sha256(repr(insights).encode("utf-8")).hexdigest()


def _trace_digests(registry_bundle) -> dict[str, dict[str, str]]:
    default = DrishtiAnalyzer()
    sweep = [
        DrishtiAnalyzer(Thresholds(small_request_size=size, small_requests_ratio=ratio))
        for size in SWEEP_SIZES
        for ratio in SWEEP_RATIOS
    ]
    digests = {}
    for name in workload_names():
        bundle = registry_bundle(name)
        digests[name] = {
            "default": _sha(default.analyze(bundle.log, name).insights),
            "sweep": _sha(
                [analyzer.analyze(bundle.log, name).insights for analyzer in sweep]
            ),
        }
    return digests


def _view_insights(view_fields: dict, threshold_fields: dict) -> list:
    view = JobView(**view_fields)
    thresholds = Thresholds(**threshold_fields)
    return [
        insight for trigger in all_triggers() for insight in trigger(view, thresholds)
    ]


def _view_digests() -> dict[str, str]:
    return {
        name: _sha(_view_insights(*fields)) for name, fields in VIEW_CASES.items()
    }


def _expected(registry_bundle) -> dict:
    if os.environ.get("ION_REGEN_GOLDEN"):
        pinned = {
            "traces": _trace_digests(registry_bundle),
            "views": _view_digests(),
        }
        GOLDEN.write_text(
            json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_pinned_digests_cover_every_registry_trace_and_view():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(expected["traces"]) == sorted(workload_names())
    assert sorted(expected["views"]) == sorted(VIEW_CASES)


def test_trace_insights_match_pinned_digests(registry_bundle):
    expected = _expected(registry_bundle)["traces"]
    drifted = sorted(
        name for name, digests in _trace_digests(registry_bundle).items()
        if digests != expected[name]
    )
    assert not drifted, f"Drishti insights drifted on {drifted}"


def test_view_insights_match_pinned_digests(registry_bundle):
    expected = _expected(registry_bundle)["views"]
    drifted = sorted(
        name for name, digest in _view_digests().items() if digest != expected[name]
    )
    assert not drifted, f"Drishti insights drifted on views {drifted}"


def test_views_reach_every_paired_branch():
    """The hand-built views cover each branch the digests pin."""
    seen = {
        (insight.code, insight.level.value)
        for fields in VIEW_CASES.values()
        for insight in _view_insights(*fields)
    }
    for code in ("POSIX-01", "POSIX-02", "POSIX-09", "POSIX-11"):
        assert (code, "high") in seen
    for code in ("POSIX-01", "POSIX-02", "POSIX-10", "POSIX-12"):
        assert (code, "ok") in seen
    for code in ("POSIX-07", "POSIX-08", "POSIX-15", "POSIX-16"):
        assert (code, "warn") in seen
    between = {
        insight.code
        for insight in _view_insights(*VIEW_CASES["between-random-and-sequential"])
    }
    assert between.isdisjoint({"POSIX-09", "POSIX-10", "POSIX-11", "POSIX-12"})
