"""Tests for the Drishti baseline: triggers, thresholds, reports."""

from __future__ import annotations

import pytest

from repro.drishti.analyzer import DrishtiAnalyzer
from repro.drishti.insights import Level
from repro.drishti.report import render_report
from repro.drishti.thresholds import DEFAULT_THRESHOLDS, Thresholds
from repro.drishti import triggers
from repro.drishti.triggers import all_triggers, build_view
from repro.ion.issues import IssueType
from repro.util.units import KIB, MIB
from repro.workloads.ior import IorConfig, IorWorkload
from repro.workloads.mdworkbench import MdWorkbenchConfig, MdWorkbenchWorkload


class TestJobView:
    def test_aggregates_easy_trace(self, easy_2k_bundle):
        view = build_view(easy_2k_bundle.log, DEFAULT_THRESHOLDS)
        assert view.reads == 4096
        assert view.writes == 4096
        assert view.small_writes == 4096  # all below 1 MiB
        assert view.file_not_aligned == 8176
        assert len(view.shared_files) == 1
        assert view.nprocs == 4
        assert not view.uses_mpiio
        assert view.stripe_sizes == [MIB]

    def test_small_threshold_respected(self, easy_2k_bundle):
        thresholds = Thresholds(small_request_size=1024)
        view = build_view(easy_2k_bundle.log, thresholds)
        assert view.small_writes == 0  # 2 KiB ops are not < 1 KiB


class TestTriggerRegistry:
    NAMES = [
        "small_reads", "small_writes", "small_requests_to_shared",
        "common_small_accesses", "misaligned_file", "misaligned_memory",
        "redundant_reads", "redundant_writes", "random_reads", "random_writes",
        "rw_interleaving", "shared_file_imbalance", "data_imbalance",
        "straggler_time", "metadata_time", "metadata_churn", "posix_only",
        "no_collective_operations", "no_nonblocking", "stdio_usage",
        "narrow_striping", "stripe_size_mismatch",
    ]

    def test_report_order_and_names(self):
        assert [trigger.__name__ for trigger in all_triggers()] == self.NAMES

    def test_each_trigger_is_a_module_attribute(self):
        for name, trigger in zip(self.NAMES, all_triggers()):
            assert getattr(triggers, name) is trigger


class TestTriggersOnEasyTrace:
    @pytest.fixture(scope="class")
    def report(self, easy_2k_bundle):
        return DrishtiAnalyzer().analyze(easy_2k_bundle.log, "easy")

    def test_small_requests_flagged(self, report):
        insight = report.by_code("POSIX-02")
        assert insight.level == Level.HIGH
        assert "4,096" in insight.message
        assert "100.00%" in insight.message

    def test_misalignment_flagged(self, report):
        insight = report.by_code("POSIX-05")
        assert insight.level == Level.HIGH
        assert "99.80%" in insight.message

    def test_sequential_praised(self, report):
        assert report.by_code("POSIX-10").level == Level.OK
        assert report.by_code("POSIX-12").level == Level.OK

    def test_posix_only_flagged(self, report):
        assert report.by_code("MPIIO-01").level == Level.WARN

    def test_common_access_sizes_detail(self, report):
        insight = report.by_code("POSIX-04")
        assert any("2.00 KiB" in detail for detail in insight.details)

    def test_detected_issue_mapping(self, report):
        assert IssueType.SMALL_IO in report.detected_issues
        assert IssueType.MISALIGNED_IO in report.detected_issues
        assert IssueType.NO_MPIIO in report.detected_issues
        # Drishti has no mitigation concept: the aggregatable small ops
        # are flagged anyway (the paper's criticism).
        assert IssueType.RANDOM_ACCESS not in report.detected_issues

    def test_missing_code_raises(self, report):
        with pytest.raises(KeyError):
            report.by_code("POSIX-99")


class TestTriggersOnOtherTraces:
    def test_random_flagged(self, random_bundle):
        report = DrishtiAnalyzer().analyze(random_bundle.log, "rnd")
        assert report.by_code("POSIX-09").level == Level.HIGH
        assert report.by_code("POSIX-11").level == Level.HIGH

    def test_metadata_churn_flagged(self):
        bundle = MdWorkbenchWorkload(
            config=MdWorkbenchConfig(nprocs=2, files_per_rank=8, iterations=12)
        ).run()
        report = DrishtiAnalyzer().analyze(bundle.log, "mdwb")
        assert report.has_code("POSIX-18")
        assert report.by_code("POSIX-18").level == Level.WARN
        assert IssueType.METADATA_LOAD in report.detected_issues

    def test_rw_interleaving_flagged(self):
        bundle = MdWorkbenchWorkload(
            config=MdWorkbenchConfig(nprocs=2, files_per_rank=4, iterations=8)
        ).run()
        report = DrishtiAnalyzer().analyze(bundle.log, "mdwb")
        assert report.has_code("POSIX-13")

    def test_redundant_reads_flagged(self):
        """Re-reading the same small extent repeatedly trips POSIX-07."""
        job_bundle = MdWorkbenchWorkload(
            config=MdWorkbenchConfig(nprocs=1, files_per_rank=2, iterations=10)
        ).run()
        report = DrishtiAnalyzer().analyze(job_bundle.log, "redundant")
        assert report.has_code("POSIX-07")

    def test_no_collective_flagged_for_indep_mpiio(self):
        bundle = IorWorkload(
            config=IorConfig(
                mode="easy", api="MPIIO", transfer_size=MIB, segments=16,
                nprocs=4,
            )
        ).run()
        report = DrishtiAnalyzer().analyze(bundle.log, "mpi-indep")
        assert report.by_code("MPIIO-02").level == Level.HIGH
        assert report.by_code("MPIIO-03").level == Level.INFO

    def test_collective_praised(self):
        bundle = IorWorkload(
            config=IorConfig(
                mode="easy", api="MPIIO", collective=True, transfer_size=MIB,
                segments=16, nprocs=4,
            )
        ).run()
        report = DrishtiAnalyzer().analyze(bundle.log, "mpi-coll")
        assert report.by_code("MPIIO-02").level == Level.OK


class TestThresholdSensitivity:
    """The paper's §2 claim: fixed thresholds change verdicts."""

    def test_small_size_threshold_flips_verdict(self):
        bundle = IorWorkload(
            config=IorConfig(mode="easy", transfer_size=MIB, segments=64, nprocs=4)
        ).run()
        default = DrishtiAnalyzer().analyze(bundle.log, "t")
        # 1 MiB transfers are NOT small under the 1 MiB default...
        assert IssueType.SMALL_IO not in default.detected_issues
        wide = DrishtiAnalyzer(
            thresholds=Thresholds(small_request_size=4 * MIB)
        ).analyze(bundle.log, "t")
        # ...but they are under an RPC-sized threshold.
        assert IssueType.SMALL_IO in wide.detected_issues

    def test_ratio_threshold_flips_verdict(self):
        config = IorConfig(
            mode="easy", transfer_size=2 * KIB, segments=64, nprocs=2
        )
        bundle = IorWorkload(config=config).run()
        permissive = DrishtiAnalyzer(
            thresholds=Thresholds(small_requests_ratio=1.01)
        ).analyze(bundle.log, "t")
        assert IssueType.SMALL_IO not in permissive.detected_issues


class TestReportRendering:
    def test_render(self, easy_2k_bundle):
        report = DrishtiAnalyzer().analyze(easy_2k_bundle.log, "easy")
        text = render_report(report)
        assert "DRISHTI" in text
        assert "[HIGH]" in text
        assert "Recommendation:" in text
        assert "critical/warning insight(s)" in text

    def test_analyze_file(self, easy_2k_bundle, tmp_path):
        from repro.darshan.binformat import write_log

        path = write_log(easy_2k_bundle.log, tmp_path / "easy.darshan")
        report = DrishtiAnalyzer().analyze_file(path)
        assert report.trace_name == "easy"
        assert report.flagged
