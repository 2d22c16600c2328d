"""Acceptance tests: spans alone reproduce pipeline health.

The issue's core contract — an 8-trace ``ion-batch`` campaign under
fault injection exports a Perfetto-loadable Chrome trace and a
Prometheus text file, and the ``ion-trace`` summary computed from the
exported spans matches the :class:`ReportHealth` ledgers the analyzer
kept independently (retries, degradations, Drishti fallbacks) —
exactly, per trace.  A second battery pins the concurrency guarantees:
no orphan spans, no cross-attributed parents, one root per diagnosed
trace even with a worker pool reusing threads.
"""

from __future__ import annotations

import json

import pytest

from repro.ion.analyzer import AnalyzerConfig, ResilienceConfig
from repro.llm.expert.model import SimulatedExpertLLM
from repro.llm.faults import FaultKind, FaultPlan, FaultyLLMClient
from repro.obs import cli as trace_cli
from repro.obs.export import load_spans, validate_chrome_trace, write_prometheus, write_trace
from repro.obs.summary import summarize
from repro.obs.trace import Tracer
from repro.service.batch import BatchConfig, BatchNavigator
from repro.util.metrics import MetricsRegistry
from repro.util.units import KIB
from repro.workloads.ior import IorConfig, IorWorkload


def make_fleet(count: int = 8):
    """``count`` distinct small traces (mirrors the batch-service tests)."""
    bundles = []
    for index in range(count):
        mode = ("easy", "random")[index % 2]
        workload = IorWorkload(
            config=IorConfig(
                mode=mode, api="POSIX", nprocs=2,
                transfer_size=(index + 1) * KIB,
                segments=8 + index,
                file_per_process=False,
                file_name=f"/lustre/obs/ior_file_{index}",
            ),
            name=f"obs-{index:02d}-{mode}",
        )
        bundles.append(workload.run(scale=1.0))
    return bundles


def faulty_campaign(workers: int = 4):
    """Run an 8-trace campaign at a 30% transient fault rate, traced."""
    tracer = Tracer()
    metrics = MetricsRegistry()
    plan = FaultPlan.ratio(0.3, FaultKind.TRANSIENT)
    config = BatchConfig(
        max_workers=workers,
        analyzer=AnalyzerConfig(
            resilience=ResilienceConfig(backoff_base=0.0, backoff_max=0.0)
        ),
    )
    with BatchNavigator(
        client=FaultyLLMClient(SimulatedExpertLLM(), plan),
        config=config,
        metrics=metrics,
        tracer=tracer,
    ) as navigator:
        summary = navigator.run(make_fleet(8))
    return tracer, metrics, summary


@pytest.fixture(scope="module")
def campaign():
    return faulty_campaign(workers=4)


class TestAcceptance:
    def test_chrome_trace_export_is_perfetto_loadable(self, campaign, tmp_path):
        tracer, _metrics, summary = campaign
        assert not summary.failed
        path = write_trace(tracer.spans(), tmp_path / "campaign.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(payload) == []
        # ...and the bundled validator agrees via the CLI entry point.
        assert trace_cli.main([str(path), "--validate"]) == 0

    def test_prometheus_export_carries_pipeline_metrics(self, campaign, tmp_path):
        tracer, metrics, _summary = campaign
        path = write_prometheus(metrics, tmp_path / "metrics.prom", tracer.spans())
        text = path.read_text(encoding="utf-8")
        assert "batch_traces_ok 8" in text
        assert "# TYPE analyzer_query_seconds histogram" in text
        assert 'analyzer_query_seconds_bucket{le="+Inf"}' in text
        assert "extractor_extract_seconds_count" in text

    def test_summary_from_spans_matches_report_health(self, campaign, tmp_path):
        tracer, _metrics, summary = campaign
        path = write_trace(tracer.spans(), tmp_path / "campaign.json")
        digest = summarize(load_spans(path))
        # 8 diagnosed traces + the campaign's own trace.
        assert len(digest.traces) == 9
        by_name = {stats.name: stats for stats in digest.traces if stats.name}
        healths = {o.name: o.report.health for o in summary.outcomes}
        assert set(by_name) == set(healths)
        for name, health in healths.items():
            stats = by_name[name]
            # The span-derived ledger must match the analyzer's own
            # accounting exactly — retries counted per re-attempt event,
            # degradations and Drishti fallbacks per query attribute.
            assert stats.retries == health.retries, name
            assert stats.degraded == health.degraded, name
            assert stats.fallbacks == health.fallbacks, name
        # The faults actually fired: a 30% transient plan forces retries.
        assert sum(h.retries for h in healths.values()) > 0

    def test_ion_trace_summary_reports_the_campaign(self, campaign, tmp_path, capsys):
        tracer, _metrics, summary = campaign
        path = write_trace(tracer.spans(), tmp_path / "campaign.jsonl")
        assert trace_cli.main([str(path), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "ION trace summary — 9 trace(s)" in out
        assert "--- Stages (by total time) ---" in out
        assert "analyzer.query" in out
        total_retries = sum(
            o.report.health.retries for o in summary.outcomes
        )
        reported = sum(
            int(part.split("=")[1])
            for line in out.splitlines()
            for part in line.split()
            if part.startswith("retries=")
        )
        assert reported == total_retries


class TestPropagationUnderConcurrency:
    """Satellite: no orphans or cross-attributed spans at full fan-out."""

    @pytest.fixture(scope="class")
    def wide(self):
        tracer, _metrics, summary = faulty_campaign(workers=8)
        return tracer.spans(), summary

    def test_every_parent_resolves_within_its_own_trace(self, wide):
        spans, _summary = wide
        by_id = {span.span_id: span for span in spans}
        assert len(by_id) == len(spans)
        for span in spans:
            if span.parent_id is None:
                continue
            parent = by_id.get(span.parent_id)
            assert parent is not None, f"orphan span {span.name}"
            assert parent.trace_id == span.trace_id, (
                f"{span.name} parented across traces"
            )

    def test_one_root_per_diagnosed_trace(self, wide):
        spans, _summary = wide
        by_trace: dict[str, list] = {}
        for span in spans:
            by_trace.setdefault(span.trace_id, []).append(span)
        # 8 diagnosed traces plus the campaign trace.
        assert len(by_trace) == 9
        diagnose_roots = 0
        for members in by_trace.values():
            roots = [s for s in members if s.parent_id is None]
            assert len(roots) == 1
            if roots[0].name == "pipeline.diagnose":
                diagnose_roots += 1
            else:
                assert roots[0].name == "batch.campaign"
        assert diagnose_roots == 8

    def test_no_cross_attribution_between_traces(self, wide):
        spans, _summary = wide
        roots = {
            span.trace_id: span.attributes["trace"]
            for span in spans
            if span.parent_id is None and span.name == "pipeline.diagnose"
        }
        for span in spans:
            if span.name != "analyzer.analyze":
                continue
            # Every analyzer run must sit in the trace of the workload
            # it analyzed — pool threads are reused across jobs.
            assert span.attributes["trace"] == roots[span.trace_id]

    def test_trace_ids_are_distinct_per_workload(self, wide):
        spans, summary = wide
        names = {
            span.attributes["trace"]: span.trace_id
            for span in spans
            if span.name == "pipeline.diagnose"
        }
        assert len(names) == 8
        assert len(set(names.values())) == 8
        assert set(names) == {o.name for o in summary.outcomes}
