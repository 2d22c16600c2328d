"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

from layers import PassSpans, Traced, Untraced, pass_metrics, span_ids  # noqa: E402
from repro.obs.trace import Tracer  # noqa: E402
from scenarios import SEED_CLASSES, JourneyEasy, Op, check  # noqa: E402

REFERENCE = json.loads(run.REFERENCE.read_text())
JOURNEY_GOLDEN = run.ROOT / "tests" / "golden" / "ior-easy-2k-shared.journey.txt"


@pytest.fixture
def scratch():
    path = Path(tempfile.mkdtemp(prefix="perfbench-test-"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_reference_covers_every_seed_class():
    for name, by_seed in REFERENCE.items():
        assert sorted(by_seed, key=int) == [str(s) for s in range(SEED_CLASSES)], name


def test_journey_reference_agrees_with_committed_golden():
    text = JOURNEY_GOLDEN.read_text()
    verdict_label = {"VERIFIED": "verified", "no-effect": "no_effect",
                     "REGRESSED": "regressed", "inapplicable": "inapplicable"}
    steps = []
    for block in text.split("\nStep ")[1:]:
        attempts = [
            [action, verdict_label[label]]
            for label, action in re.findall(r"^    \[([\w-]+)\] (\S+)$", block, re.M)
        ]
        applied = re.search(r"^  => applied (\S+)$", block, re.M)
        steps.append((attempts, applied.group(1) if applied else None))
    status = re.search(r"^Outcome: (\w+)", text, re.M).group(1).lower()
    for by_key in REFERENCE["journey-easy"].values():
        journey = by_key["ior-easy-2k-shared"]
        assert journey["status"] == status
        assert [(s["attempts"], s["applied"]) for s in journey["steps"]] == steps


def test_check_flags_raise_degrade_and_mismatch():
    reference = {"t": {"detected": ["small_io"]}}
    assert check(Op("t", {"detected": ["small_io"]}), reference) is None
    assert "raised" in check(Op("t", None, error="ValueError: x"), reference)
    assert "degraded" in check(Op("t", {"detected": ["small_io"]}, degraded=True), reference)
    assert "differs" in check(Op("t", {"detected": []}), reference)
    assert "no reference" in check(Op("u", {"detected": []}), reference)


def test_injected_reference_mismatch_counts_as_failed(scratch):
    scenario = JourneyEasy(1, scratch)
    ops = scenario.iterate(Untraced())
    good = REFERENCE["journey-easy"]["1"]
    wrong = json.loads(json.dumps(good))
    wrong["ior-easy-2k-shared"]["steps"][0]["applied"] = "adopt-collective-mpiio"
    right_ledger, wrong_ledger = run.Ledger(good), run.Ledger(wrong)
    right_ledger.record(ops, leaked=0)
    wrong_ledger.record(ops, leaked=0)
    assert (right_ledger.attempted, right_ledger.failed, right_ledger.correct) == (1, 0, True)
    assert (wrong_ledger.attempted, wrong_ledger.failed, wrong_ledger.correct) == (1, 1, False)


def test_host_speed_sampler_samples_and_stops():
    import threading

    samples = []
    with run.host_speed_samples(samples):
        pass
    assert len(samples) == 1 and samples[0] > 0
    with run.host_speed_samples(samples):
        time.sleep(4 * run.HOST_SAMPLE_PERIOD)
    assert len(samples) >= 3  # the first call's one, then this call's first two
    assert not any(t.name == "perfbench-host-speed" for t in threading.enumerate())


def test_host_sample_seconds_leaves_out_the_slowest_tenth():
    samples = [1.0] * 18 + [50.0, 90.0]
    assert run.host_sample_seconds(samples) == 1.0
    assert run.host_sample_seconds([2.0]) == 2.0


def test_leaked_scratch_dir_fails_the_operation():
    ledger = run.Ledger({"t": {}})
    ledger.record([Op("t", {})], leaked=1)
    assert ledger.failed == 1 and not ledger.correct


def test_traced_iteration_is_faithful_and_matches_untraced(scratch):
    scenario = JourneyEasy(1, scratch)
    untraced = scenario.iterate(Untraced())
    probe = Traced(span_ids())
    with probe.patched(), probe.span("iteration"):
        traced = scenario.iterate(probe)
    assert [(o.key, o.output) for o in traced] == [(o.key, o.output) for o in untraced]
    metrics = pass_metrics(probe.tracer.spans())
    assert metrics["sca.vet.calls"] == metrics["sandbox.run.calls"] > 0
    assert metrics["workloads.run.calls"] == metrics["extractor.extract.calls"] == 4
    assert metrics["journey.attempts"] == 3
    assert 0 <= metrics["obs.unattributed_frac"] < 0.05
    # The wrappers are gone once the pass ends.
    from repro.ion.analyzer import Analyzer

    assert Analyzer.analyze.__qualname__ == "Analyzer.analyze"


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_and_broken_chains():
    clock = _Clock()
    tracer = Tracer(clock=clock)
    with tracer.span("bench.iteration"):
        clock.now = 1.0
        with tracer.span("bench.analyzer.analyze"):
            with tracer.span("bench.sandbox.run"):
                clock.now = 3.0
            clock.now = 2.0
            with tracer.span("bench.sandbox.run"):
                clock.now = 4.0
            clock.now = 5.0
        # A program span starting a new trace, as the batch pool does:
        # its layer spans still belong to this iteration.
        with tracer.span("trace.diagnose", new_trace=True):
            with tracer.span("bench.darshan.read_log", attributes={"bytes": 2e6}):
                clock.now = 6.0
        clock.now = 10.0
    metrics = pass_metrics(tracer.spans())
    assert metrics["sandbox.run.calls"] == 2
    assert metrics["sandbox.run.s"] == pytest.approx(4.0)
    # Children cover 1..4 of the analyze span's 1..5.
    assert metrics["analyzer.analyze.self_s"] == pytest.approx(1.0)
    assert metrics["analyzer.overlap"] == pytest.approx(1.0)
    assert metrics["darshan.read_log.mb_per_s"] == pytest.approx(2.0)
    # The iteration's 10 s: analyze covers 1..5, read_log 5..6.
    assert metrics["obs.unattributed_frac"] == pytest.approx(0.5)
    tree = PassSpans(tracer.spans())
    (read,) = tree.outermost("darshan.read_log")
    assert tree.parent[read.span_id] is tree.root


def test_exits_nonzero_without_program_source(scratch):
    shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(run.HERE, scratch / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "journey-easy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_metric_names_match_benchmark_json():
    from layers import PER_LAYER

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert spec["paths"] == [run.HERE.name]
