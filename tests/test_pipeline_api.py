"""Tests for the IoNavigator facade and the public API surface."""

from __future__ import annotations

import pytest

from repro.ion.analyzer import AnalyzerConfig
from repro.ion.issues import IssueType, Severity
from repro.ion.pipeline import IoNavigator
from repro.ion.report import render_report
from repro.util.units import MIB


class TestNavigatorConfig:
    def test_include_dxt_false_propagates(self, easy_2k_bundle, tmp_path):
        navigator = IoNavigator(
            config=AnalyzerConfig(include_dxt=False, summarize=False),
            workdir=tmp_path,
        )
        result = navigator.diagnose(easy_2k_bundle.log, "easy")
        shared = result.report.diagnosis_for(IssueType.SHARED_FILE_CONTENTION)
        # Without DXT in the prompt, the shared-file analysis cannot
        # measure stripe overlap and says so.
        assert not shared.evidence.get("dxt_available", True)
        assert "DXT" in shared.conclusion

    def test_issue_subset(self, easy_2k_bundle, tmp_path):
        navigator = IoNavigator(
            config=AnalyzerConfig(
                issues=(IssueType.MISALIGNED_IO,), summarize=False
            ),
            workdir=tmp_path,
        )
        result = navigator.diagnose(easy_2k_bundle.log, "easy")
        assert len(result.report.diagnoses) == 1
        assert result.report.diagnoses[0].severity == Severity.CRITICAL

    def test_custom_rpc_size_changes_small_classification(
        self, easy_2k_bundle, tmp_path
    ):
        # With a tiny "RPC size", 2 KiB ops are no longer sub-RPC.
        navigator = IoNavigator(rpc_size=1024, workdir=tmp_path)
        result = navigator.diagnose(easy_2k_bundle.log, "easy")
        small = result.report.diagnosis_for(IssueType.SMALL_IO)
        assert small.severity == Severity.OK

    def test_workdir_layout(self, easy_2k_bundle, tmp_path):
        navigator = IoNavigator(workdir=tmp_path)
        navigator.diagnose(easy_2k_bundle.log, "mytrace")
        assert (tmp_path / "mytrace" / "POSIX.csv").exists()
        assert (tmp_path / "mytrace" / "DXT.csv").exists()

    def test_temp_workdir_by_default(self, easy_2k_bundle):
        result = IoNavigator().diagnose(easy_2k_bundle.log, "t")
        assert result.extraction.directory.exists()


class TestPublicApi:
    def test_top_level_exports(self):
        import repro

        assert repro.__version__
        assert repro.IoNavigator is IoNavigator

    @pytest.mark.parametrize(
        "module",
        [
            "repro.util",
            "repro.darshan",
            "repro.lustre",
            "repro.iosim",
            "repro.workloads",
            "repro.llm",
            "repro.ion",
            "repro.drishti",
            "repro.evaluation",
            "repro.service",
        ],
    )
    def test_all_exports_resolve(self, module):
        import importlib

        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.__all__ lists missing {name}"

    def test_units_accessible_from_util(self):
        from repro.util import MIB as exported

        assert exported == MIB


class TestDiagnoseSpan:
    def test_read_log_runs_inside_the_diagnose_span(self, tmp_path):
        from repro.obs.trace import Tracer
        from repro.util.errors import DarshanFormatError

        corrupt = tmp_path / "corrupt.darshan"
        corrupt.write_bytes(b"not a darshan log")
        tracer = Tracer()
        with IoNavigator(tracer=tracer) as navigator:
            with pytest.raises(DarshanFormatError):
                navigator.diagnose_file(corrupt)
        (span,) = tracer.spans()
        assert span.name == "pipeline.diagnose"
        assert span.attributes["trace"] == "corrupt"
        assert span.status == "error"
        assert span.status_detail.startswith("DarshanFormatError")


class TestScratchLifecycle:
    def test_close_leaves_nothing_behind(self, easy_2k_bundle, tmp_path, monkeypatch):
        # Point tempfile at a private root so "nothing left behind"
        # is checkable as "this directory is empty again".
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        navigator = IoNavigator()
        result = navigator.diagnose(easy_2k_bundle.log, "t")
        assert result.extraction.directory.exists()
        assert any(tmp_path.iterdir())
        navigator.close()
        assert list(tmp_path.iterdir()) == []
        # close() is idempotent and diagnosing after close re-creates
        # scratch space rather than failing.
        navigator.close()

    def test_context_manager_cleans_up(self, easy_2k_bundle, tmp_path, monkeypatch):
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        with IoNavigator() as navigator:
            result = navigator.diagnose(easy_2k_bundle.log, "t")
            assert result.extraction.directory.exists()
        assert list(tmp_path.iterdir()) == []

    def test_same_trace_name_twice_gets_distinct_dirs(self, easy_2k_bundle):
        with IoNavigator() as navigator:
            first = navigator.diagnose(easy_2k_bundle.log, "dup")
            second = navigator.diagnose(easy_2k_bundle.log, "dup")
            assert (
                first.extraction.directory != second.extraction.directory
            )
            assert first.extraction.row_counts == second.extraction.row_counts

    def test_relative_workdir_still_detects_issues(
        self, easy_2k_bundle, tmp_path, monkeypatch
    ):
        # Regression: a relative extraction directory used to put
        # relative CSV paths into prompts, which the interpreter
        # sandbox re-anchored under the workdir — every analysis run
        # then failed and silently degraded to severity OK.
        monkeypatch.chdir(tmp_path)
        with IoNavigator(workdir="relative-scratch") as navigator:
            result = navigator.diagnose(easy_2k_bundle.log, "t")
        assert result.report.diagnoses[0].conclusion != (
            "analysis failed; no diagnosis."
        )
        assert any(d.detected for d in result.report.diagnoses)

    def test_user_workdir_is_not_deleted_on_close(self, easy_2k_bundle, tmp_path):
        with IoNavigator(workdir=tmp_path) as navigator:
            navigator.diagnose(easy_2k_bundle.log, "mine")
        assert (tmp_path / "mine" / "POSIX.csv").exists()

    def test_cache_backed_navigator_reports_hits(self, easy_2k_bundle, tmp_path):
        from repro.service.cache import ExtractionCache
        from repro.util.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        cache = ExtractionCache(tmp_path / "cache", metrics=metrics)
        with IoNavigator(cache=cache, metrics=metrics) as navigator:
            first = navigator.diagnose(easy_2k_bundle.log, "t")
            second = navigator.diagnose(easy_2k_bundle.log, "t")
        assert not first.cache_hit
        assert second.cache_hit
        assert metrics.counter_value("extractor.extractions") == 1
        assert render_report(first.report) == render_report(second.report)

    def test_pipeline_metrics_observed(self, easy_2k_bundle):
        from repro.util.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        with IoNavigator(metrics=metrics) as navigator:
            navigator.diagnose(easy_2k_bundle.log, "t")
        assert metrics.timer_stats("pipeline.diagnose.seconds").count == 1
        assert metrics.counter_value("analyzer.reports") == 1
        assert metrics.counter_value("extractor.extractions") == 1
        assert metrics.counter_value("analyzer.prompts") >= 1
