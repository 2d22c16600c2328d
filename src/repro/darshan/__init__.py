"""Darshan substrate: counter model, log container, binary format, parsers.

This package is a from-scratch reimplementation of the pieces of
Darshan 3.x that ION consumes: the POSIX / MPI-IO / STDIO / Lustre
counter sets, DXT extended tracing, the binary log file, and the
``darshan-parser`` / ``darshan-dxt-parser`` text dumps.
"""

from repro.darshan.binformat import read_log, write_log
from repro.darshan.counters import (
    LUSTRE_MODULE,
    MPIIO_MODULE,
    POSIX_MODULE,
    STDIO_MODULE,
    counters_for,
    fcounters_for,
    known_modules,
)
from repro.darshan.dxt import parse_dxt_dump, parse_dxt_file, render_dxt
from repro.darshan.heatmap import Heatmap, build_heatmap, render_heatmap
from repro.darshan.log import DarshanLog, merge_rank_byte_totals
from repro.darshan.parser import (
    parse_file,
    parse_text_dump,
    render_header,
    render_log,
    render_module,
)
from repro.darshan.summary import (
    FileActivity,
    ModuleTotals,
    TraceSummary,
    render_summary,
    summarize,
)
from repro.darshan.records import (
    SHARED_RANK,
    DxtSegment,
    DxtTable,
    JobRecord,
    ModuleRecord,
    NameRecord,
)
from repro.darshan.validate import validate_log

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
