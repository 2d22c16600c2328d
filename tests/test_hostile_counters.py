"""Hostile counter values: what the log format and the pipeline do today.

Real Darshan writes -1 for a counter it could not collect, so negative
values are data, not corruption.  Each case below puts one hostile
value into a small ``ior-hard`` log and pins that it round-trips
through ``write_log``/``read_log`` bit for bit (the content digest is
unchanged) and that a diagnosis of the written file completes with no
degraded query.
"""

from __future__ import annotations

import copy
import math

import pytest

from repro.darshan.binformat import read_log, write_log
from repro.darshan.counters import counters_for, fcounters_for
from repro.darshan.records import DxtSegment
from repro.ion.analyzer import AnalyzerConfig
from repro.ion.pipeline import IoNavigator
from repro.service.cache import log_digest

#: Case id -> (counter kind, counter name, value).
COUNTER_CASES = {
    "nan-fcounter": ("fcounters", "POSIX_F_META_TIME", math.nan),
    "inf-time": ("fcounters", "POSIX_F_READ_TIME", math.inf),
    "minus-inf-time": ("fcounters", "POSIX_F_WRITE_TIME", -math.inf),
    "minus-one-bytes": ("counters", "POSIX_BYTES_READ", -1),
    "2**62-bytes": ("counters", "POSIX_BYTES_WRITTEN", 2**62),
}

#: A DXT rank far past the job's rank count.
HUGE_RANK = 10**6


def _same(left: float, right: float) -> bool:
    return left == right or (math.isnan(left) and math.isnan(right))


def _hostile_log(base, case: str):
    log = copy.deepcopy(base)
    record = log.records["POSIX"][0]
    if case == "dxt-rank":
        log.add_dxt(
            DxtSegment("X_POSIX", record.record_id, HUGE_RANK, "write", 0, 8, 1.0, 1.5)
        )
        return log
    kind, name, value = COUNTER_CASES[case]
    getattr(record, kind)[name] = value
    return log


@pytest.mark.parametrize("case", [*COUNTER_CASES, "dxt-rank"])
def test_hostile_value_round_trips_and_diagnoses(case, hard_bundle, tmp_path):
    log = _hostile_log(hard_bundle.log, case)
    path = write_log(log, tmp_path / f"{case}.darshan")
    read = read_log(path)
    assert log_digest(read) == log_digest(log)
    if case == "dxt-rank":
        assert HUGE_RANK in {segment.rank for segment in read.dxt_segments}
    else:
        kind, name, value = COUNTER_CASES[case]
        assert _same(getattr(read.records["POSIX"][0], kind)[name], value)
    with IoNavigator(config=AnalyzerConfig(parallel_prompts=1)) as navigator:
        report = navigator.diagnose_file(path).report
    assert report.health.degraded == 0
    assert len(report.diagnoses) == len(AnalyzerConfig().issues)


def test_cases_name_real_posix_counters():
    for kind, name, _ in COUNTER_CASES.values():
        names = counters_for("POSIX") if kind == "counters" else fcounters_for("POSIX")
        assert name in names
