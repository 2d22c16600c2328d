"""Darshan substrate: counter model, log container, binary format, parsers.

This package is a from-scratch reimplementation of the pieces of
Darshan 3.x that ION consumes: the POSIX / MPI-IO / STDIO / Lustre
counter sets, DXT extended tracing, the binary log file, and the
``darshan-parser`` / ``darshan-dxt-parser`` text dumps.
"""

from repro.util.lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "repro.darshan.binformat": ("read_log", "write_log"),
        "repro.darshan.counters": (
            "LUSTRE_MODULE",
            "MPIIO_MODULE",
            "POSIX_MODULE",
            "STDIO_MODULE",
            "counters_for",
            "fcounters_for",
            "known_modules",
        ),
        "repro.darshan.dxt": ("parse_dxt_dump", "parse_dxt_file", "render_dxt"),
        "repro.darshan.heatmap": ("Heatmap", "build_heatmap", "render_heatmap"),
        "repro.darshan.log": ("DarshanLog", "merge_rank_byte_totals"),
        "repro.darshan.parser": (
            "parse_file",
            "parse_text_dump",
            "render_header",
            "render_log",
            "render_module",
        ),
        "repro.darshan.summary": (
            "FileActivity",
            "ModuleTotals",
            "TraceSummary",
            "render_summary",
            "summarize",
        ),
        "repro.darshan.records": (
            "SHARED_RANK",
            "DxtSegment",
            "DxtTable",
            "JobRecord",
            "ModuleRecord",
            "NameRecord",
        ),
        "repro.darshan.validate": ("validate_log",),
    },
)

__all__ = [
    "DarshanLog",
    "DxtSegment",
    "DxtTable",
    "FileActivity",
    "Heatmap",
    "JobRecord",
    "LUSTRE_MODULE",
    "MPIIO_MODULE",
    "ModuleRecord",
    "ModuleTotals",
    "NameRecord",
    "POSIX_MODULE",
    "SHARED_RANK",
    "STDIO_MODULE",
    "TraceSummary",
    "build_heatmap",
    "counters_for",
    "fcounters_for",
    "known_modules",
    "merge_rank_byte_totals",
    "parse_dxt_dump",
    "parse_dxt_file",
    "parse_file",
    "parse_text_dump",
    "read_log",
    "render_dxt",
    "render_header",
    "render_heatmap",
    "render_log",
    "render_module",
    "render_summary",
    "summarize",
    "validate_log",
    "write_log",
]
