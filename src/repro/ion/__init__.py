"""ION core: extractor, issue registry, analyzer, reports, interactivity."""

from repro.util.lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "repro.ion.analyzer": ("Analyzer", "AnalyzerConfig"),
        "repro.ion.consistency": (
            "ConsistencyChecker",
            "ConsistencyReport",
            "IssueConsistency",
        ),
        "repro.ion.extractor": ("ExtractionResult", "Extractor"),
        "repro.ion.htmlreport": ("render_html", "write_html"),
        "repro.ion.interactive": ("IonSession", "build_digest"),
        "repro.ion.issues": (
            "Diagnosis",
            "DiagnosisReport",
            "IssueType",
            "MitigationNote",
            "Severity",
        ),
        "repro.ion.pipeline": ("IonResult", "IoNavigator"),
        "repro.ion.retrieval": (
            "ContextRetriever",
            "Passage",
            "TfIdfIndex",
            "build_knowledge_base",
        ),
        "repro.ion.report": ("render_diagnosis", "render_report"),
        "repro.ion.serialize": (
            "dump_report",
            "load_report",
            "report_from_dict",
            "report_to_dict",
        ),
        "repro.ion.specs": ("IssueSpec", "all_specs", "spec_for"),
    },
)

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
