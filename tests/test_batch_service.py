"""Concurrency and regression tests for the batch diagnosis service.

The stress tests fan ≥8 synthetic traces over a small worker pool and
check the three properties a scheduler must not lose: every trace gets
a report, extraction state never leaks between traces, and diagnoses
are identical to what the single-trace pipeline produces.  Cache-backed
runs additionally assert that a repeated campaign is served entirely
from the extraction cache — via metrics counters, not wall clocks.
"""

from __future__ import annotations

import pytest

from repro.darshan.binformat import write_log
from repro.darshan.log import DarshanLog
from repro.darshan.records import JobRecord
from repro.ion.analyzer import AnalyzerConfig
from repro.ion.pipeline import IoNavigator
from repro.ion.report import render_report
from repro.service.batch import BatchConfig, BatchNavigator
from repro.service.cache import ExtractionCache
from repro.util.errors import BatchError
from repro.util.metrics import MetricsRegistry
from repro.util.units import KIB
from repro.workloads.ior import IorConfig, IorWorkload


def make_fleet(count: int = 8):
    """``count`` distinct small traces (different sizes and modes)."""
    bundles = []
    for index in range(count):
        mode = ("easy", "random")[index % 2]
        workload = IorWorkload(
            config=IorConfig(
                mode=mode, api="POSIX", nprocs=2,
                transfer_size=(index + 1) * KIB,
                segments=8 + index,
                file_per_process=False,
                file_name=f"/lustre/fleet/ior_file_{index}",
            ),
            name=f"fleet-{index:02d}-{mode}",
        )
        bundles.append(workload.run(scale=1.0))
    return bundles


def broken_log() -> DarshanLog:
    """A log with no module records: extraction raises ExtractionError."""
    return DarshanLog(job=JobRecord(job_id=1, uid=1, nprocs=1,
                                    start_time=0.0, end_time=1.0))


class TestBatchStress:
    def test_eight_traces_small_pool_all_reports_arrive(self):
        bundles = make_fleet(8)
        with BatchNavigator(config=BatchConfig(max_workers=3)) as navigator:
            summary = navigator.run(bundles)

        assert len(summary.outcomes) == 8
        assert not summary.failed
        # Outcomes come back in submission order, names intact.
        assert [o.name for o in summary.outcomes] == [b.name for b in bundles]
        for outcome in summary.outcomes:
            assert outcome.report is not None
            assert outcome.report.trace_name == outcome.name
            assert outcome.report.diagnoses
            assert outcome.duration_seconds > 0

    def test_no_cross_trace_contamination_of_extraction_dirs(self):
        bundles = make_fleet(8)
        with BatchNavigator(config=BatchConfig(max_workers=4)) as navigator:
            summary = navigator.run(bundles)

            directories = [o.extraction.directory for o in summary.outcomes]
            assert len(set(directories)) == len(directories)
            for bundle, outcome in zip(bundles, summary.outcomes):
                # Each directory holds exactly this trace's extraction:
                # the row counts must match the trace's own record counts.
                assert outcome.extraction.row_counts["POSIX"] == len(
                    bundle.log.records["POSIX"]
                )
                dxt_rows = outcome.extraction.row_counts.get("DXT", 0)
                assert dxt_rows == len(bundle.log.dxt_segments)
                assert (
                    outcome.extraction.system["nprocs"] == bundle.log.job.nprocs
                )

    def test_batch_diagnoses_match_single_trace_pipeline(self):
        bundles = make_fleet(8)
        with BatchNavigator(config=BatchConfig(max_workers=3)) as navigator:
            summary = navigator.run(bundles)
        with IoNavigator() as solo:
            for bundle, outcome in zip(bundles, summary.outcomes):
                expected = solo.diagnose(bundle.log, bundle.name)
                assert render_report(outcome.report) == render_report(
                    expected.report
                )

    def test_repeated_batch_runs_are_deterministic(self):
        bundles = make_fleet(8)
        with BatchNavigator(config=BatchConfig(max_workers=3)) as one:
            first = one.run(bundles)
        with BatchNavigator(config=BatchConfig(max_workers=8)) as two:
            second = two.run(bundles)
        for a, b in zip(first.outcomes, second.outcomes):
            assert render_report(a.report) == render_report(b.report)

    @pytest.mark.slow
    def test_large_campaign_wide_pool(self):
        bundles = make_fleet(24)
        with BatchNavigator(config=BatchConfig(max_workers=8)) as navigator:
            summary = navigator.run(bundles)
        assert len(summary.succeeded) == 24
        assert navigator.metrics.counter_value("batch.traces.ok") == 24


class TestBatchCache:
    def test_second_run_is_fully_cache_served(self, tmp_path):
        bundles = make_fleet(8)
        metrics = MetricsRegistry()
        cache = ExtractionCache(tmp_path / "cache", metrics=metrics)
        with BatchNavigator(
            config=BatchConfig(max_workers=3), cache=cache, metrics=metrics
        ) as navigator:
            first = navigator.run(bundles)
            extractions_after_first = metrics.counter_value(
                "extractor.extractions"
            )
            second = navigator.run(bundles)

        # Run 1 misses (concurrent first-sight misses are benign but
        # these 8 traces are all distinct, so exactly 8).
        assert first.cache_hit_rate == 0.0
        assert first.cache is not None and first.cache.misses == 8
        # Run 2: every trace is a hit, and — the real assertion — the
        # extractor never ran again.
        assert second.cache_hit_rate == 1.0
        assert all(o.cache_hit for o in second.outcomes)
        assert (
            metrics.counter_value("extractor.extractions")
            == extractions_after_first
        )
        assert second.cache.hits == 8
        # Faster in work terms: no trace was extracted a second time,
        # so the extraction count stayed at the first run's 8.
        assert metrics.counter_value("extractor.extractions") == 8
        # Reports are identical either way.
        for a, b in zip(first.outcomes, second.outcomes):
            assert render_report(a.report) == render_report(b.report)

    def test_duplicate_traces_within_one_batch_share_entries(self, tmp_path):
        bundle = make_fleet(1)[0]
        cache = ExtractionCache(tmp_path / "cache")
        with BatchNavigator(
            config=BatchConfig(max_workers=1), cache=cache
        ) as navigator:
            summary = navigator.run(
                [("a", bundle.log), ("b", bundle.log), ("c", bundle.log)]
            )
        assert cache.stats.entries == 1
        assert [o.cache_hit for o in summary.outcomes] == [False, True, True]


class TestBatchFailureIsolation:
    def test_one_bad_trace_does_not_sink_the_campaign(self):
        bundles = make_fleet(3)
        traces = [bundles[0], ("broken", broken_log()), *bundles[1:]]
        with BatchNavigator(config=BatchConfig(max_workers=2)) as navigator:
            summary = navigator.run(traces)

        assert len(summary.outcomes) == 4
        assert len(summary.succeeded) == 3
        (failure,) = summary.failed
        assert failure.name == "broken"
        assert "ExtractionError" in failure.error
        # The outcome carries the full worker traceback, not just the
        # one-line summary — a post-mortem needs the frames.
        assert failure.traceback is not None
        assert "Traceback (most recent call last):" in failure.traceback
        assert "ExtractionError" in failure.traceback
        assert failure.report is None
        assert failure.issue_count == 0
        assert navigator.metrics.counter_value("batch.traces.failed") == 1
        for success in summary.succeeded:
            assert success.traceback is None

    def test_fail_fast_raises(self):
        with BatchNavigator(
            config=BatchConfig(max_workers=2, fail_fast=True)
        ) as navigator:
            with pytest.raises(BatchError, match="broken"):
                navigator.run([("broken", broken_log())])

    def test_render_mentions_failures(self):
        with BatchNavigator(config=BatchConfig(max_workers=1)) as navigator:
            summary = navigator.run(
                [("broken", broken_log()), make_fleet(1)[0]]
            )
        text = summary.render()
        assert "FAILED" in text
        assert "1/2 traces diagnosed" in text


class TestBatchInputs:
    def test_accepts_paths_pairs_and_bundles(self, tmp_path):
        bundles = make_fleet(2)
        path = write_log(bundles[0].log, tmp_path / "on-disk.darshan")
        with BatchNavigator(config=BatchConfig(max_workers=2)) as navigator:
            summary = navigator.run(
                [str(path), ("pair", bundles[1].log), bundles[1]]
            )
        assert [o.name for o in summary.outcomes] == [
            "on-disk", "pair", bundles[1].name,
        ]
        assert not summary.failed

    def test_rejects_empty_campaign(self):
        with BatchNavigator() as navigator:
            with pytest.raises(BatchError, match="no traces"):
                navigator.run([])

    def test_rejects_unintelligible_trace(self):
        with BatchNavigator() as navigator:
            with pytest.raises(BatchError, match="cannot interpret"):
                navigator.run([42])

    def test_rejects_bad_pair(self):
        with BatchNavigator() as navigator:
            with pytest.raises(BatchError, match="DarshanLog"):
                navigator.run([("name", "not-a-log")])


class TestConfigValidation:
    def test_worker_count_validated(self):
        with pytest.raises(BatchError, match="max_workers"):
            BatchConfig(max_workers=0)

    def test_analyzer_parallel_prompts_validated(self):
        from repro.util.errors import AnalysisError

        with pytest.raises(AnalysisError, match="parallel_prompts"):
            AnalyzerConfig(parallel_prompts=0)
        with pytest.raises(AnalysisError, match="max_tool_rounds"):
            AnalyzerConfig(max_tool_rounds=0)

    def test_single_worker_pool_still_works(self):
        bundles = make_fleet(2)
        config = BatchConfig(
            max_workers=1, analyzer=AnalyzerConfig(parallel_prompts=1)
        )
        with BatchNavigator(config=config) as navigator:
            summary = navigator.run(bundles)
        assert len(summary.succeeded) == 2


class TestScratchHygiene:
    def test_batch_close_removes_scratch(self):
        navigator = BatchNavigator(config=BatchConfig(max_workers=2))
        summary = navigator.run(make_fleet(2))
        directories = [o.extraction.directory for o in summary.outcomes]
        assert all(d.exists() for d in directories)
        navigator.close()
        assert not any(d.exists() for d in directories)
        # close() is idempotent.
        navigator.close()

    def test_concurrent_same_name_extractions_stay_isolated(self):
        bundle = make_fleet(1)[0]
        navigator = BatchNavigator(config=BatchConfig(max_workers=4))
        summary = navigator.run([bundle] * 4)
        assert not summary.failed
        directories = [o.extraction.directory for o in summary.outcomes]
        assert len(set(directories)) == 4
        reports = {render_report(o.report) for o in summary.outcomes}
        assert len(reports) == 1
        navigator.close()
        assert not any(d.exists() for d in directories)

    def test_cached_entries_survive_navigator_close(self, tmp_path):
        cache = ExtractionCache(tmp_path / "cache")
        navigator = BatchNavigator(cache=cache)
        navigator.run(make_fleet(1))
        navigator.close()
        assert cache.stats.entries == 1


class TestBatchJourneys:
    def test_journey_campaign_over_workload_names(self):
        from repro.journey.executor import JourneyConfig

        with BatchNavigator(config=BatchConfig(max_workers=2)) as navigator:
            summary = navigator.run_journeys(
                ["ior-easy-2k-shared", "ior-easy-1m-shared"],
                journey_config=JourneyConfig(scale=0.05, max_steps=1),
            )
        assert len(summary.succeeded) == 2
        by_name = {o.name: o for o in summary.outcomes}
        easy_2k = by_name["ior-easy-2k-shared"].report
        assert "align-transfer-to-stripe" in easy_2k.applied_actions
        assert easy_2k.overall_delta.bandwidth_ratio > 1.02
        rendered = summary.render()
        assert "2/2 journeys finished" in rendered
        assert "applied" in rendered

    def test_journey_campaign_accepts_workload_instances(self):
        from repro.journey.executor import JourneyConfig
        from repro.workloads import make_workload

        workload = make_workload(
            "ior-easy-1m-fpp", overrides={"nprocs": "1"}
        )
        with BatchNavigator() as navigator:
            summary = navigator.run_journeys(
                [workload], journey_config=JourneyConfig(scale=0.05)
            )
        (outcome,) = summary.outcomes
        assert outcome.ok
        assert outcome.status == "clean"
        assert outcome.applied_count == 0

    def test_journey_failure_is_isolated(self):
        from repro.journey.executor import JourneyConfig

        class ExplodingWorkload:
            name = "exploding"

            def run(self, scale: float = 1.0):
                raise RuntimeError("boom")

        with BatchNavigator(config=BatchConfig(max_workers=2)) as navigator:
            summary = navigator.run_journeys(
                [ExplodingWorkload(), "ior-easy-1m-shared"],
                journey_config=JourneyConfig(scale=0.05, max_steps=1),
            )
        assert len(summary.failed) == 1
        assert len(summary.succeeded) == 1
        failed = summary.failed[0]
        assert failed.status == "failed"
        assert "boom" in failed.error
        assert "RuntimeError" in failed.traceback

    def test_empty_journey_campaign_rejected(self):
        with BatchNavigator() as navigator:
            with pytest.raises(BatchError, match="no workloads"):
                navigator.run_journeys([])
