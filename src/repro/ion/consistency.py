"""Diagnosis consistency checking (the paper's future work 2).

The paper plans to "optimize the prompts to enable consistency checking
of the diagnosis results".  This module implements that: the same trace
is diagnosed through several independent pipeline *variants* — the
standard divide-and-conquer run, a counters-only run (no DXT data), and
optionally the monolithic prompt — and the per-issue severities are
compared and majority-voted.

Disagreement between variants is itself a diagnostic signal: an issue
whose verdict flips when DXT is removed rests on per-operation evidence
(worth flagging to the user as such), and an issue that vanishes only
under the monolithic prompt exposes a context-window extraction failure
rather than a property of the trace.
"""

from __future__ import annotations

from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field

from repro.ion.analyzer import Analyzer, AnalyzerConfig
from repro.ion.extractor import ExtractionResult
from repro.ion.issues import DiagnosisReport, IssueType, Severity
from repro.llm.client import LLMClient
from repro.util.errors import AnalysisError

#: The named pipeline variants a consistency check can run.
VARIANT_CONFIGS: dict[str, dict[str, object]] = {
    "standard": {},
    "counters-only": {"include_dxt": False},
    "monolithic": {"strategy": "monolithic"},
}

_SEVERITY_RANK = {
    Severity.OK: 0,
    Severity.INFO: 1,
    Severity.WARNING: 2,
    Severity.CRITICAL: 3,
}


@dataclass
class IssueConsistency:
    """Agreement analysis for one issue type."""

    issue: IssueType
    severities: dict[str, Severity]
    voted: Severity

    @property
    def consistent(self) -> bool:
        """Whether every variant reached the same severity."""
        return len(set(self.severities.values())) == 1

    @property
    def detection_consistent(self) -> bool:
        """Whether every variant agreed on flagged-vs-not."""
        flags = {severity.flagged for severity in self.severities.values()}
        return len(flags) == 1

    @property
    def disagreeing_variants(self) -> list[str]:
        """Variants whose severity differs from the vote."""
        return sorted(
            name
            for name, severity in self.severities.items()
            if severity != self.voted
        )


@dataclass
class ConsistencyReport:
    """The outcome of a multi-variant consistency check."""

    trace_name: str
    variants: tuple[str, ...]
    issues: list[IssueConsistency]
    reports: dict[str, DiagnosisReport] = field(default_factory=dict)

    @property
    def agreement_rate(self) -> float:
        """Fraction of issues on which all variants agreed exactly."""
        if not self.issues:
            return 1.0
        return sum(1 for item in self.issues if item.consistent) / len(self.issues)

    @property
    def detection_agreement_rate(self) -> float:
        """Fraction of issues agreeing on flagged-vs-not."""
        if not self.issues:
            return 1.0
        return sum(
            1 for item in self.issues if item.detection_consistent
        ) / len(self.issues)

    @property
    def inconsistent_issues(self) -> list[IssueConsistency]:
        return [item for item in self.issues if not item.consistent]

    @property
    def voted_detections(self) -> set[IssueType]:
        """Issues flagged by the majority vote."""
        return {item.issue for item in self.issues if item.voted.flagged}

    def consistency_for(self, issue: IssueType) -> IssueConsistency:
        for item in self.issues:
            if item.issue == issue:
                return item
        raise KeyError(f"no consistency entry for {issue}")


def vote(severities: list[Severity]) -> Severity:
    """Majority severity; ties resolve toward the more severe verdict.

    Resolving ties upward is the conservative choice for a diagnosis
    tool: when the ensemble is split, surface the potential issue rather
    than hide it.
    """
    if not severities:
        raise AnalysisError("cannot vote over zero severities")
    counts = Counter(severities)
    best = max(
        counts.items(), key=lambda item: (item[1], _SEVERITY_RANK[item[0]])
    )
    return best[0]


class ConsistencyChecker:
    """Runs several pipeline variants and compares their diagnoses."""

    def __init__(
        self,
        client: LLMClient | None = None,
        variants: tuple[str, ...] = ("standard", "counters-only"),
        base_config: AnalyzerConfig | None = None,
    ) -> None:
        unknown = [v for v in variants if v not in VARIANT_CONFIGS]
        if unknown:
            raise AnalysisError(f"unknown consistency variants: {unknown}")
        if len(variants) < 2:
            raise AnalysisError("consistency checking needs >= 2 variants")
        self.client = client
        self.variants = tuple(variants)
        self.base_config = base_config or AnalyzerConfig(summarize=False)

    def _config_for(self, variant: str) -> AnalyzerConfig:
        base = self.base_config
        overrides = dict(VARIANT_CONFIGS[variant])
        return AnalyzerConfig(
            strategy=str(overrides.get("strategy", base.strategy)),
            include_context=base.include_context,
            include_dxt=bool(overrides.get("include_dxt", base.include_dxt)),
            context_source=base.context_source,
            retrieval_k=base.retrieval_k,
            issues=base.issues,
            max_tool_rounds=base.max_tool_rounds,
            parallel_prompts=base.parallel_prompts,
            summarize=False,
        )

    def check(
        self, extraction: ExtractionResult, trace_name: str = "trace"
    ) -> ConsistencyReport:
        """Diagnose through every variant and compare severities."""
        reports: dict[str, DiagnosisReport] = {}
        for variant in self.variants:
            with closing(
                Analyzer(client=self.client, config=self._config_for(variant))
            ) as analyzer:
                reports[variant] = analyzer.analyze(extraction, trace_name)
        issues = []
        for issue in self.base_config.issues:
            severities = {
                variant: reports[variant].diagnosis_for(issue).severity
                for variant in self.variants
            }
            issues.append(
                IssueConsistency(
                    issue=issue,
                    severities=severities,
                    voted=vote(list(severities.values())),
                )
            )
        return ConsistencyReport(
            trace_name=trace_name,
            variants=self.variants,
            issues=issues,
            reports=reports,
        )
