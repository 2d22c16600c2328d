"""The I/O issue taxonomy shared by ION, Drishti, and the evaluation.

The paper's ground-truth table (Figure 2) and tool-comparison table
(Figure 3) talk about the same nine issue families Drishti reports; ION
additionally attaches *mitigation notes* — conditions under which a
nominally-present issue does not actually hurt (small-but-consecutive
I/O can be aggregated, a shared file without overlapping extents incurs
no lock conflicts, and so on).  Those notes are the paper's headline
qualitative win over trigger-based tools, so they are first-class here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class IssueType(enum.Enum):
    """The nine I/O issue families diagnosed in the paper's evaluation."""

    SMALL_IO = "small_io"
    MISALIGNED_IO = "misaligned_io"
    RANDOM_ACCESS = "random_access"
    SHARED_FILE_CONTENTION = "shared_file_contention"
    LOAD_IMBALANCE = "load_imbalance"
    METADATA_LOAD = "metadata_load"
    NO_MPIIO = "no_mpiio"
    NO_COLLECTIVE = "no_collective"
    RANK_ZERO_BOTTLENECK = "rank_zero_bottleneck"

    @property
    def title(self) -> str:
        """Human-readable issue name used in prompts and reports."""
        from repro.ion.specs import spec_for

        return spec_for(self).title


class MitigationNote(enum.Enum):
    """Contextual conditions that soften an issue's impact.

    These are the "...but" clauses in ION's Figure 2/3 outputs: the
    issue pattern is present, yet some property of the workload means
    its cost is partially or wholly avoided.
    """

    AGGREGATABLE = "aggregatable"  # small ops are consecutive: client can merge
    NON_OVERLAPPING = "non_overlapping"  # shared file but disjoint stripes
    LOW_VOLUME = "low_volume"  # few ops / little data: impact bounded
    ALGORITHMIC_SKEW = "algorithmic_skew"  # subset imbalance looks intentional

    @property
    def title(self) -> str:
        return _MITIGATION_TITLES[self]


_MITIGATION_TITLES = {
    MitigationNote.AGGREGATABLE: "small operations are consecutive and aggregatable",
    MitigationNote.NON_OVERLAPPING: "shared-file accesses do not overlap in stripes",
    MitigationNote.LOW_VOLUME: "affected operation count and volume are low",
    MitigationNote.ALGORITHMIC_SKEW: "imbalance appears inherent to the algorithm",
}


class Severity(enum.Enum):
    """How strongly a diagnosis flags an issue."""

    OK = "ok"  # examined, not present
    INFO = "info"  # present but fully mitigated / informational
    WARNING = "warning"  # present, likely hurting performance
    CRITICAL = "critical"  # present and dominating performance

    @property
    def flagged(self) -> bool:
        """Whether this severity counts as a positive detection."""
        return self in (Severity.WARNING, Severity.CRITICAL)


@dataclass
class Diagnosis:
    """The outcome of analyzing one issue type over one trace."""

    issue: IssueType
    severity: Severity
    conclusion: str
    steps: list[str] = field(default_factory=list)
    code: str = ""
    code_output: str = ""
    evidence: dict[str, object] = field(default_factory=dict)
    mitigations: list[MitigationNote] = field(default_factory=list)
    #: True when the LLM query for this issue failed and the result is
    #: a degraded-mode substitute (see ``fallback_source``).
    degraded: bool = False
    #: Why the LLM path failed (e.g. ``"LLMTimeoutError: ..."``).
    degraded_reason: str = ""
    #: Which degraded-mode oracle produced the result: ``"drishti"``
    #: for the heuristic trigger fallback, ``"none"`` when no fallback
    #: was possible, ``""`` for healthy LLM results.  A query that did
    #: not degrade but whose ``DXT.csv`` analysis failed and was
    #: answered from counters has ``"counters: DXT run failed"``.
    fallback_source: str = ""

    @property
    def detected(self) -> bool:
        """Whether the issue was flagged as actually present and harmful."""
        return self.severity.flagged

    @property
    def observed(self) -> bool:
        """Whether the pattern was seen at all (even if mitigated)."""
        return self.severity != Severity.OK


@dataclass
class ReportHealth:
    """How the LLM pipeline behaved while producing one report.

    ``queries`` counts logical LLM queries (one per issue, plus the
    summarization query when enabled); ``attempts`` counts every
    dispatch including retries, so ``retries == attempts - queries``
    when nothing short-circuits.  ``degraded`` queries exhausted their
    retry budget (or hit an open breaker) and fell back —
    ``fallbacks`` of them to the Drishti heuristic oracle.
    """

    queries: int = 0
    attempts: int = 0
    retries: int = 0
    degraded: int = 0
    fallbacks: int = 0
    breaker_state: str = "closed"
    breaker_trips: int = 0
    #: One ``"<stage>: <reason>"`` entry per degraded query, and one
    #: per issue answered from counters after its DXT run failed.
    notes: list[str] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        """Whether every query was answered by the LLM path itself."""
        return self.degraded == 0 and self.breaker_trips == 0


@dataclass
class DiagnosisReport:
    """Everything the ION analyzer produced for one trace."""

    #: JSON kind, version written, versions read (``repro.ion.serialize``).
    #: Version 2 added the degraded-mode fields and the health block;
    #: version-1 payloads (no such fields) remain readable.
    SCHEMA = ("report", 2, (1, 2))

    trace_name: str
    diagnoses: list[Diagnosis]
    summary: str = ""
    health: ReportHealth | None = None

    def diagnosis_for(self, issue: IssueType) -> Diagnosis:
        """Look up the diagnosis of one issue type."""
        for diagnosis in self.diagnoses:
            if diagnosis.issue == issue:
                return diagnosis
        raise KeyError(f"no diagnosis for {issue}")

    @property
    def detected_issues(self) -> set[IssueType]:
        """Issues flagged as present and harmful."""
        return {d.issue for d in self.diagnoses if d.detected}

    @property
    def observed_issues(self) -> set[IssueType]:
        """Issues whose pattern was observed, harmful or mitigated."""
        return {d.issue for d in self.diagnoses if d.observed}

    @property
    def degraded_issues(self) -> set[IssueType]:
        """Issues whose diagnosis came from a degraded-mode fallback."""
        return {d.issue for d in self.diagnoses if d.degraded}

    @property
    def mitigation_notes(self) -> set[MitigationNote]:
        """Every mitigation note attached anywhere in the report."""
        notes: set[MitigationNote] = set()
        for diagnosis in self.diagnoses:
            notes.update(diagnosis.mitigations)
        return notes
