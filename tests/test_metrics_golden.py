"""Byte-identity of the pipeline metrics registry across refactors.

``tests/golden/registry-metrics.json`` pins every counter, every gauge
and every histogram's count that the metrics registry holds after:

- each of the 12 registry traces, diagnosed one at a time at its
  ``DEFAULT_SCALES`` scale under the default configuration;
- one 2-worker :class:`BatchNavigator` over those 12 logs written to
  disk, run twice through one fresh :class:`ExtractionCache` (the
  second run is served by the cache and the sandbox run memo);
- one serial :class:`BatchNavigator` over a byte-bounded cache that
  evicts on every miss, with one unreadable log, then a journey
  campaign over one workload that completes and one that raises;
- one ``ior-hard`` diagnosis under a :class:`FaultyLLMClient` ratio
  plan with serial prompts, for the divide and monolithic strategies,
  once degraded and once strict (the strict run raises, and what was
  counted before it raised is pinned).

Histogram sums are left out: prompts and completions quote scratch
paths, so their lengths differ between machines.  Each case vets with
a fresh CodeGuard, so ``sca.vet.walks`` does not depend on what ran
earlier in the process.

If a change is *intentional*, regenerate the file::

    ION_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_metrics_golden.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import repro.llm.interpreter as interpreter_module
from repro.darshan.binformat import write_log
from repro.journey.executor import JourneyConfig
from repro.ion.analyzer import AnalyzerConfig, ResilienceConfig
from repro.ion.pipeline import IoNavigator
from repro.llm.expert.model import SimulatedExpertLLM
from repro.llm.faults import FaultKind, FaultPlan, FaultyLLMClient
from repro.sca.guard import CodeGuard
from repro.service.batch import BatchConfig, BatchNavigator
from repro.service.cache import ExtractionCache
from repro.util.errors import AnalysisError
from repro.util.metrics import MetricsRegistry
from repro.workloads.registry import workload_names

GOLDEN = Path(__file__).parent / "golden" / "registry-metrics.json"

#: The trace the fault-injection cases diagnose, and their plan's rate.
FAULT_TRACE = "ior-hard"
FAULT_RATE = 0.8


def pinned(metrics: MetricsRegistry) -> dict[str, float]:
    """Every counter and gauge value, and every histogram's count."""
    out: dict[str, float] = {}
    for name, kind, metric in metrics.collect():
        if kind == "histogram":
            out[f"{name}.count"] = metric.count
        else:
            out[name] = metric.value
    return out


@pytest.fixture
def fresh_guard(monkeypatch):
    """Give the interpreter a fresh CodeGuard; call again for another."""

    def fresh() -> None:
        monkeypatch.setattr(interpreter_module, "_GUARD", CodeGuard())

    return fresh


def _trace_cases(registry_bundle, fresh_guard) -> dict[str, dict]:
    cases = {}
    for name in workload_names():
        fresh_guard()
        bundle = registry_bundle(name)
        metrics = MetricsRegistry()
        with IoNavigator(metrics=metrics) as navigator:
            navigator.diagnose(bundle.log, bundle.name)
        cases[f"trace/{name}"] = pinned(metrics)
    return cases


def _batch_case(registry_bundle, fresh_guard, root: Path) -> dict[str, dict]:
    fresh_guard()
    paths = [
        write_log(registry_bundle(name).log, root / "logs" / f"{name}.darshan")
        for name in workload_names()
    ]
    metrics = MetricsRegistry()
    cache = ExtractionCache(root / "cache", metrics=metrics)
    with BatchNavigator(
        config=BatchConfig(max_workers=2), cache=cache, metrics=metrics
    ) as batch:
        # Two campaigns, not one of 24 jobs: a second submission that
        # overlapped its first would make the miss count racy.
        for _ in range(2):
            summary = batch.run_files(paths)
            assert all(outcome.ok for outcome in summary.outcomes)
    return {"batch/registry-twice": pinned(metrics)}


class _BrokenWorkload:
    """A journey workload whose simulation raises."""

    name = "broken"

    def run(self, *args, **kwargs):
        raise RuntimeError("simulated workload failure")


def _edge_case(registry_bundle, fresh_guard, root: Path) -> dict[str, dict]:
    fresh_guard()
    paths = [
        write_log(registry_bundle(name).log, root / "edge" / f"{name}.darshan")
        for name in ("ior-easy-2k-shared", "ior-easy-1m-fpp")
    ]
    metrics = MetricsRegistry()
    cache = ExtractionCache(root / "bounded", max_bytes=1, metrics=metrics)
    # Serial: with two workers a miss can evict the entry another
    # worker is still analyzing, and its snippets then fail at random.
    with BatchNavigator(
        config=BatchConfig(max_workers=1), cache=cache, metrics=metrics
    ) as batch:
        summary = batch.run_files([*paths, root / "missing.darshan"])
        assert [outcome.ok for outcome in summary.outcomes] == [True, True, False]
        journeys = batch.run_journeys(
            ["ior-easy-2k-shared", _BrokenWorkload()],
            JourneyConfig(max_steps=1, scale=0.25),
        )
        assert [outcome.ok for outcome in journeys.outcomes] == [True, False]
    return {"batch/bounded-and-failing": pinned(metrics)}


def _fault_cases(registry_bundle, fresh_guard) -> dict[str, dict]:
    bundle = registry_bundle(FAULT_TRACE)
    cases = {}
    for strategy in ("divide", "monolithic"):
        for degrade in (True, False):
            fresh_guard()
            metrics = MetricsRegistry()
            client = FaultyLLMClient(
                SimulatedExpertLLM(),
                FaultPlan.ratio(FAULT_RATE, FaultKind.TRANSIENT),
            )
            config = AnalyzerConfig(
                strategy=strategy,
                parallel_prompts=1,
                resilience=ResilienceConfig(
                    backoff_base=0.001, backoff_max=0.001, degrade=degrade
                ),
            )
            with IoNavigator(
                client=client, config=config, metrics=metrics
            ) as navigator:
                if degrade:
                    navigator.diagnose(bundle.log, bundle.name)
                else:
                    with pytest.raises(AnalysisError):
                        navigator.diagnose(bundle.log, bundle.name)
            mode = "degraded" if degrade else "strict"
            cases[f"faults/{strategy}/{mode}"] = pinned(metrics)
    return cases


def test_registry_metrics_match_golden(registry_bundle, fresh_guard, tmp_path):
    cases = {
        **_trace_cases(registry_bundle, fresh_guard),
        **_batch_case(registry_bundle, fresh_guard, tmp_path),
        **_edge_case(registry_bundle, fresh_guard, tmp_path),
        **_fault_cases(registry_bundle, fresh_guard),
    }
    rendered = json.dumps(cases, indent=2, sort_keys=True) + "\n"
    if os.environ.get("ION_REGEN_GOLDEN"):
        GOLDEN.write_text(rendered, encoding="utf-8")
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(cases) == sorted(expected)
    for case, values in cases.items():
        assert values == expected[case], case
