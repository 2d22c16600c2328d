"""ION core: extractor, issue registry, analyzer, reports, interactivity."""

from repro.ion.analyzer import Analyzer, AnalyzerConfig
from repro.ion.consistency import (
    ConsistencyChecker,
    ConsistencyReport,
    IssueConsistency,
)
from repro.ion.extractor import ExtractionResult, Extractor
from repro.ion.htmlreport import render_html, write_html
from repro.ion.interactive import IonSession, build_digest
from repro.ion.issues import (
    Diagnosis,
    DiagnosisReport,
    IssueType,
    MitigationNote,
    Severity,
)
from repro.ion.pipeline import IonResult, IoNavigator
from repro.ion.retrieval import ContextRetriever, Passage, TfIdfIndex, build_knowledge_base
from repro.ion.report import render_diagnosis, render_report
from repro.ion.serialize import (
    dump_report,
    load_report,
    report_from_dict,
    report_to_dict,
)
from repro.ion.specs import IssueSpec, all_specs, spec_for

__all__ = [
    "Analyzer",
    "AnalyzerConfig",
    "ConsistencyChecker",
    "ConsistencyReport",
    "ContextRetriever",
    "Diagnosis",
    "DiagnosisReport",
    "ExtractionResult",
    "Extractor",
    "IonResult",
    "IonSession",
    "IoNavigator",
    "IssueConsistency",
    "IssueSpec",
    "IssueType",
    "MitigationNote",
    "Passage",
    "Severity",
    "TfIdfIndex",
    "all_specs",
    "build_digest",
    "build_knowledge_base",
    "dump_report",
    "load_report",
    "render_diagnosis",
    "render_html",
    "render_report",
    "report_from_dict",
    "report_to_dict",
    "spec_for",
    "write_html",
]
