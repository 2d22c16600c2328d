"""Tests for the DXT-derived I/O heatmap."""

from __future__ import annotations

import pytest

from repro.darshan.binformat import write_log
from repro.darshan.cli import main as summary_cli
from repro.darshan.heatmap import build_heatmap, render_heatmap
from repro.util.errors import ReproError
from repro.workloads.e2e import E2eBaseline


@pytest.fixture(scope="module")
def e2e_log():
    return E2eBaseline().run(scale=0.02).log


class TestBuildHeatmap:
    def test_bytes_conserved(self, easy_2k_bundle):
        log = easy_2k_bundle.log
        heatmap = build_heatmap(log, nbins=32)
        binned = sum(heatmap.total_bytes(rank) for rank in heatmap.ranks)
        read, written = log.total_bytes("POSIX")
        assert binned == pytest.approx(read + written, rel=1e-9)

    def test_per_rank_direction_split(self, easy_2k_bundle):
        heatmap = build_heatmap(easy_2k_bundle.log, nbins=16)
        for rank in heatmap.ranks:
            assert sum(heatmap.read_bins[rank]) == pytest.approx(
                sum(heatmap.write_bins[rank]), rel=1e-9
            )  # symmetric write+read-back workload

    def test_rank0_fill_phase_visible(self, e2e_log):
        """Rank 0 is hot in the early bins while others are idle."""
        heatmap = build_heatmap(e2e_log, nbins=40)
        early = heatmap.nbins // 4
        rank0_early = sum(heatmap.combined(0)[:early])
        others_early = sum(
            sum(heatmap.combined(rank)[:early])
            for rank in heatmap.ranks
            if rank != 0
        )
        assert rank0_early > 10 * max(others_early, 1.0)

    def test_requires_dxt(self, easy_2k_bundle):
        from repro.iosim.job import SimulatedJob

        job = SimulatedJob(nprocs=1, enable_dxt=False)
        posix = job.posix(0)
        fd = posix.open("/lustre/x")
        posix.pwrite(fd, 10, 0)
        posix.close(fd)
        log = job.finalize()
        with pytest.raises(ReproError, match="DXT"):
            build_heatmap(log)

    def test_bad_bins_rejected(self, easy_2k_bundle):
        with pytest.raises(ReproError):
            build_heatmap(easy_2k_bundle.log, nbins=0)


class TestRenderHeatmap:
    def test_one_row_per_rank(self, easy_2k_bundle):
        text = render_heatmap(easy_2k_bundle.log, nbins=20)
        assert text.count("rank") >= 4
        assert "time axis" in text

    def test_folding_wide_jobs(self, e2e_log):
        text = render_heatmap(e2e_log, nbins=20, max_rows=5)
        assert "aggregates" in text
        assert text.count("|") >= 10  # 5 rows x 2 bars

    def test_cli_heatmap_mode(self, easy_2k_bundle, tmp_path, capsys):
        path = write_log(easy_2k_bundle.log, tmp_path / "t.darshan")
        assert summary_cli([str(path), "--heatmap"]) == 0
        assert "I/O heatmap" in capsys.readouterr().out


class TestStdioLoggerWorkload:
    @pytest.fixture(scope="class")
    def bundle(self):
        from repro.workloads.stdio_logger import StdioLoggerWorkload

        return StdioLoggerWorkload().run(scale=0.5)

    def test_valid(self, bundle):
        from repro.darshan.validate import validate_log

        validate_log(bundle.log)

    def test_stdio_share_significant(self, bundle):
        stdio = sum(
            r.counters["STDIO_BYTES_WRITTEN"]
            for r in bundle.log.records_for("STDIO")
        )
        posix = sum(
            r.counters["POSIX_BYTES_WRITTEN"]
            for r in bundle.log.records_for("POSIX")
        )
        assert stdio / (stdio + posix) > 0.10

    def test_drishti_flags_stdio(self, bundle):
        from repro.drishti.analyzer import DrishtiAnalyzer

        report = DrishtiAnalyzer().analyze(bundle.log, bundle.name)
        assert report.has_code("STDIO-01")
        assert report.by_code("STDIO-01").level.flagged

    def test_ion_diagnoses_posix_side(self, bundle):
        from repro.evaluation.matching import score_ion
        from repro.ion.pipeline import IoNavigator

        with IoNavigator() as navigator:
            report = navigator.diagnose(bundle.log, bundle.name).report
        score = score_ion(bundle.truth, report)
        assert score.recall == 1.0
