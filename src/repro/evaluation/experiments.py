"""Experiment runners shared by the benchmark harness and the examples.

Each function regenerates one experiment from DESIGN.md's index (FIG2,
FIG3, ABL1, ABL2, ABL3) end to end: generate the traces, run the
tool(s), score against ground truth, and return structured results the
benches print.

Scales: every workload defaults to a bench-friendly scale that keeps
runtimes in seconds while preserving the ratio-based signatures the
analyses measure.  Set ``REPRO_SCALE`` to multiply all of them (e.g.
``REPRO_SCALE=10`` reproduces the paper-scale operation counts for the
IOR traces).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

from repro.drishti.analyzer import DrishtiAnalyzer
from repro.drishti.thresholds import Thresholds
from repro.evaluation.matching import TraceScore, score_drishti, score_ion
from repro.evaluation.tables import Figure2Row, Figure3Row
from repro.ion.analyzer import AnalyzerConfig
from repro.ion.pipeline import IoNavigator
from repro.workloads.base import TraceBundle
from repro.workloads.registry import (
    FIGURE2_WORKLOADS,
    FIGURE3_WORKLOADS,
    make_workload,
)

#: Per-workload bench scales.  ior-easy runs at full scale (cheap, and
#: fractional scales shrink the per-rank block below one stripe, which
#: changes the sharing geometry); the op-heavy traces run reduced.
DEFAULT_SCALES: dict[str, float] = {
    "ior-easy-2k-shared": 1.0,
    "ior-easy-1m-shared": 1.0,
    "ior-easy-1m-fpp": 1.0,
    "ior-hard": 0.02,
    "ior-rnd4k": 0.05,
    "md-workbench": 0.5,
    "ior-easy-mixed": 1.0,
    "stdio-logger": 1.0,
    "openpmd-baseline": 0.05,
    "openpmd-optimized": 0.1,
    "e2e-baseline": 0.0625,
    "e2e-optimized": 0.0625,
}


def effective_scale(name: str) -> float:
    """The scale a workload runs at, honouring ``REPRO_SCALE``."""
    multiplier = float(os.environ.get("REPRO_SCALE", "1"))
    return DEFAULT_SCALES.get(name, 1.0) * multiplier


def generate_bundle(name: str) -> TraceBundle:
    """Generate one workload's trace at its effective scale."""
    return make_workload(name).run(scale=effective_scale(name))


# -- FIG2 ------------------------------------------------------------------


def run_figure2(
    names: tuple[str, ...] = FIGURE2_WORKLOADS,
    config: AnalyzerConfig | None = None,
    bundles: list[TraceBundle] | None = None,
) -> list[Figure2Row]:
    """ION over the six controlled IO500 traces."""
    rows = []
    bundles = bundles or [generate_bundle(name) for name in names]
    with IoNavigator(config=config) as navigator:
        for bundle in bundles:
            result = navigator.diagnose(bundle.log, bundle.name)
            rows.append(Figure2Row(bundle=bundle, report=result.report))
    return rows


# -- FIG3 ----------------------------------------------------------------------


def run_figure3(
    names: tuple[str, ...] = FIGURE3_WORKLOADS,
    bundles: list[TraceBundle] | None = None,
) -> list[Figure3Row]:
    """ION and Drishti head to head over the real-application replays."""
    drishti = DrishtiAnalyzer()
    rows = []
    bundles = bundles or [generate_bundle(name) for name in names]
    with IoNavigator() as navigator:
        for bundle in bundles:
            ion_result = navigator.diagnose(bundle.log, bundle.name)
            drishti_report = drishti.analyze(bundle.log, bundle.name)
            rows.append(
                Figure3Row(
                    bundle=bundle,
                    ion_report=ion_result.report,
                    drishti_report=drishti_report,
                )
            )
    return rows


# -- ABL1 / ABL2 ---------------------------------------------------------------------


@dataclass
class AblationResult:
    """Detection quality of one pipeline variant over the FIG2 suite."""

    variant: str
    scores: list[TraceScore] = field(default_factory=list)

    @property
    def recall(self) -> float:
        return sum(s.recall for s in self.scores) / len(self.scores)

    @property
    def precision(self) -> float:
        return sum(s.precision for s in self.scores) / len(self.scores)

    @property
    def mitigation_recall(self) -> float:
        return sum(s.mitigation_recall for s in self.scores) / len(self.scores)


def run_ablation(
    variants: dict[str, dict[str, object]],
    names: tuple[str, ...] = FIGURE2_WORKLOADS,
    bundles: list[TraceBundle] | None = None,
) -> list[AblationResult]:
    """FIG2 detection quality of each variant: ``AnalyzerConfig`` fields."""
    bundles = bundles or [generate_bundle(name) for name in names]
    results = []
    for variant, fields in variants.items():
        config = AnalyzerConfig(**fields, summarize=False)
        rows = run_figure2(config=config, bundles=bundles)
        results.append(AblationResult(variant, [row.score for row in rows]))
    return results


#: ABL1: divide-and-conquer vs one monolithic prompt.
run_prompting_ablation = functools.partial(
    run_ablation,
    {"divide": {"strategy": "divide"}, "monolithic": {"strategy": "monolithic"}},
)
#: ABL2: issue contexts present vs stripped from every prompt.
run_context_ablation = functools.partial(
    run_ablation,
    {"with-context": {"include_context": True}, "no-context": {"include_context": False}},
)


# -- ABL3 ---------------------------------------------------------------------------------


@dataclass
class ThresholdPoint:
    """Drishti suite quality at one (size, ratio) threshold setting."""

    small_size: int
    small_ratio: float
    recall: float
    precision: float
    flagged_small_io: int  # traces where small I/O was flagged


def run_threshold_sweep(
    sizes: tuple[int, ...],
    ratios: tuple[float, ...],
    names: tuple[str, ...] = FIGURE2_WORKLOADS,
    bundles: list[TraceBundle] | None = None,
) -> list[ThresholdPoint]:
    """ABL3: sensitivity of Drishti's verdicts to its fixed thresholds."""
    bundles = bundles or [generate_bundle(name) for name in names]
    points = []
    from repro.ion.issues import IssueType

    for size in sizes:
        for ratio in ratios:
            thresholds = Thresholds(
                small_request_size=size, small_requests_ratio=ratio
            )
            analyzer = DrishtiAnalyzer(thresholds=thresholds)
            scores = []
            flagged_small = 0
            for bundle in bundles:
                report = analyzer.analyze(bundle.log, bundle.name)
                scores.append(score_drishti(bundle.truth, report))
                if IssueType.SMALL_IO in report.detected_issues:
                    flagged_small += 1
            points.append(
                ThresholdPoint(
                    small_size=size,
                    small_ratio=ratio,
                    recall=sum(s.recall for s in scores) / len(scores),
                    precision=sum(s.precision for s in scores) / len(scores),
                    flagged_small_io=flagged_small,
                )
            )
    return points
