"""Edge-case traces through the full pipeline.

Real Darshan logs come in degenerate shapes: extended tracing disabled,
single-rank jobs, stdio-only applications, metadata-only activity.  The
pipeline must degrade gracefully (weaker evidence, stated limitations)
rather than crash or hallucinate.
"""

from __future__ import annotations

import pytest

from repro.drishti.analyzer import DrishtiAnalyzer
from repro.ion.issues import IssueType, Severity
from repro.ion.pipeline import IoNavigator
from repro.iosim.job import SimulatedJob
from repro.util.units import KIB, MIB


class TestNoDxtTrace:
    @pytest.fixture(scope="class")
    def report(self):
        job = SimulatedJob(nprocs=4, enable_dxt=False)
        fds = {}
        for rank in range(4):
            fds[rank] = job.posix(rank).open("/lustre/shared")
        for step in range(64):
            for rank in range(4):
                job.posix(rank).pwrite(
                    fds[rank], 4 * KIB, (step * 4 + rank) * 4 * KIB
                )
        for rank in range(4):
            job.posix(rank).close(fds[rank])
        log = job.finalize()
        with IoNavigator() as navigator:
            return navigator.diagnose(log, "no-dxt").report

    def test_counter_based_issues_still_detected(self, report):
        assert report.diagnosis_for(IssueType.SMALL_IO).detected
        assert report.diagnosis_for(IssueType.NO_MPIIO).detected

    def test_random_analysis_falls_back_to_counters(self, report):
        random_diag = report.diagnosis_for(IssueType.RANDOM_ACCESS)
        assert random_diag.evidence.get("source") == "counters"

    def test_contention_admits_uncertainty(self, report):
        shared = report.diagnosis_for(IssueType.SHARED_FILE_CONTENTION)
        assert shared.severity == Severity.INFO
        assert "DXT" in shared.conclusion


class TestSingleRankTrace:
    @pytest.fixture(scope="class")
    def report(self):
        job = SimulatedJob(nprocs=1)
        posix = job.posix(0)
        fd = posix.open("/lustre/solo")
        for index in range(32):
            posix.pwrite(fd, MIB, index * MIB)
        posix.close(fd)
        with IoNavigator() as navigator:
            return navigator.diagnose(job.finalize(), "solo").report

    def test_rank_dependent_issues_not_applicable(self, report):
        for issue in (
            IssueType.NO_MPIIO,
            IssueType.LOAD_IMBALANCE,
            IssueType.RANK_ZERO_BOTTLENECK,
            IssueType.SHARED_FILE_CONTENTION,
        ):
            assert report.diagnosis_for(issue).severity == Severity.OK

    def test_nothing_flagged_on_clean_stream(self, report):
        assert report.detected_issues == set()


class TestStdioOnlyTrace:
    @pytest.fixture(scope="class")
    def log(self):
        job = SimulatedJob(nprocs=1)
        stdio = job.stdio(0)
        handle = stdio.fopen("/lustre/log.txt")
        for _ in range(500):
            stdio.fwrite(handle, 256)
        stdio.fclose(handle)
        return job.finalize()

    def test_ion_degrades_gracefully(self, log):
        with IoNavigator() as navigator:
            report = navigator.diagnose(log, "stdio-only").report
        # No POSIX module: analyses state the limitation, flag nothing.
        assert report.detected_issues == set()
        small = report.diagnosis_for(IssueType.SMALL_IO)
        assert "unavailable" in small.conclusion

    def test_drishti_handles_stdio_only(self, log):
        report = DrishtiAnalyzer().analyze(log, "stdio-only")
        assert report.by_code("STDIO-01").level.flagged

    def test_summary_tool_handles_stdio_only(self, log):
        from repro.darshan.summary import render_summary

        text = render_summary(log)
        assert "STDIO" in text
        assert "POSIX" not in text.split("-- per-module activity --")[1].split(
            "\n\n"
        )[0].replace("POSIX access sizes", "")


class TestMetadataOnlyTrace:
    def test_stat_storm_diagnosed(self):
        job = SimulatedJob(nprocs=2)
        for rank in range(2):
            posix = job.posix(rank)
            fd = posix.open(f"/lustre/objs/r{rank}")
            posix.pwrite(fd, 100, 0)
            posix.close(fd)
        for _ in range(200):
            for rank in range(2):
                job.posix(rank).stat(f"/lustre/objs/r{rank}")
        with IoNavigator() as navigator:
            report = navigator.diagnose(job.finalize(), "stats").report
        meta = report.diagnosis_for(IssueType.METADATA_LOAD)
        assert meta.detected
        assert meta.evidence["stats"] == 400
