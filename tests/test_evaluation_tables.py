"""Tests for the evaluation table builders and experiment runners."""

from __future__ import annotations

import os

import pytest

from repro.drishti.analyzer import DrishtiAnalyzer
from repro.evaluation.experiments import (
    DEFAULT_SCALES,
    effective_scale,
    run_context_ablation,
    run_figure2,
    run_prompting_ablation,
    run_threshold_sweep,
)
from repro.evaluation.tables import (
    Figure2Row,
    Figure3Row,
    render_figure2,
    render_figure3,
)
from repro.ion.pipeline import IoNavigator
from repro.util.units import MIB
from repro.workloads.registry import workload_names


@pytest.fixture(scope="module")
def figure2_rows(easy_2k_bundle, random_bundle):
    rows = []
    with IoNavigator() as navigator:
        for bundle in (easy_2k_bundle, random_bundle):
            report = navigator.diagnose(bundle.log, bundle.name).report
            rows.append(Figure2Row(bundle=bundle, report=report))
    return rows


class TestFigure2Table:
    def test_render_contains_rows_and_scores(self, figure2_rows):
        table = render_figure2(figure2_rows)
        assert "ior-easy-2k-shared" in table
        assert "ior-rnd4k" in table
        assert "Ground truth" in table
        assert "Suite means" in table
        assert "recall=" in table

    def test_markers_distinguish_flagged_from_mitigated(self, figure2_rows):
        table = render_figure2(figure2_rows)
        assert "! Misaligned I/O" in table
        assert "~ Small I/O Operations [aggregatable]" in table

    def test_empty_rows_render(self):
        assert "Figure 2" in render_figure2([])


class TestFigure3Table:
    def test_render(self, easy_2k_bundle):
        with IoNavigator() as navigator:
            ion_report = navigator.diagnose(easy_2k_bundle.log, "t").report
        drishti_report = DrishtiAnalyzer().analyze(easy_2k_bundle.log, "t")
        table = render_figure3(
            [
                Figure3Row(
                    bundle=easy_2k_bundle,
                    ion_report=ion_report,
                    drishti_report=drishti_report,
                )
            ]
        )
        assert "ION output" in table
        assert "Drishti output" in table
        assert "(POSIX-02)" in table
        assert "ION score" in table
        assert "means:" in table


class TestExperimentRunners:
    def test_scales_cover_every_workload(self):
        assert set(DEFAULT_SCALES) == set(workload_names())

    def test_effective_scale_honours_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2")
        assert effective_scale("ior-hard") == pytest.approx(
            DEFAULT_SCALES["ior-hard"] * 2
        )
        monkeypatch.delenv("REPRO_SCALE")
        assert effective_scale("unknown-name") == 1.0

    def test_run_figure2_accepts_prebuilt_bundles(self, easy_2k_bundle):
        rows = run_figure2(bundles=[easy_2k_bundle])
        assert len(rows) == 1
        assert rows[0].score.recall == 1.0

    def test_ablations_share_bundles(self, easy_2k_bundle):
        prompting = run_prompting_ablation(bundles=[easy_2k_bundle])
        assert [r.variant for r in prompting] == ["divide", "monolithic"]
        context = run_context_ablation(bundles=[easy_2k_bundle])
        assert [r.variant for r in context] == ["with-context", "no-context"]
        assert context[0].recall == 1.0
        assert context[1].recall == 0.0

    def test_threshold_sweep_grid(self, easy_2k_bundle):
        points = run_threshold_sweep(
            sizes=(MIB,), ratios=(0.1, 0.9), bundles=[easy_2k_bundle]
        )
        assert len(points) == 2
        assert {p.small_ratio for p in points} == {0.1, 0.9}
        # 100% small ops: flagged regardless of ratio threshold < 1.
        assert all(p.flagged_small_io == 1 for p in points)
