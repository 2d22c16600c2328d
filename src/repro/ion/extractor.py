"""The ION Extractor: Darshan log -> per-module CSV files.

Mirrors the paper's design: the general parser output becomes one CSV
per module present in the log (``POSIX.csv``, ``MPI-IO.csv``,
``STDIO.csv``, ``LUSTRE.csv``), each row a unique (file, rank) pair
with one column per Darshan counter; the DXT parser output becomes
``DXT.csv`` with one row per traced read/write operation.

The extractor also distills the *system parameters* the Analyzer
injects into prompts (rank count, stripe and RPC sizes) — stripe
geometry is read out of the LUSTRE module records rather than asked of
the user, a step the paper lists as future work.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from typing import Iterator

from repro.darshan.binformat import read_log
from repro.darshan.counters import counters_for, fcounters_for
from repro.darshan.log import DarshanLog
from repro.darshan.records import DXT_MODULES, DXT_OPS
from repro.obs.trace import NullTracer
from repro.util.csvio import LINE_END, csv_field, write_lines, write_rows
from repro.util.errors import ExtractionError
from repro.util.units import MIB

DXT_COLUMNS = (
    "module",
    "rank",
    "operation",
    "segment",
    "offset",
    "length",
    "start",
    "end",
    "file_id",
    "file",
)

_BASE_COLUMNS = ("file_id", "rank", "file")


@dataclass
class ExtractionResult:
    """Everything the Analyzer needs to build prompts."""

    directory: Path
    csv_paths: dict[str, Path]
    columns: dict[str, list[str]]
    row_counts: dict[str, int]
    system: dict[str, object] = field(default_factory=dict)

    def has_module(self, module: str) -> bool:
        """Whether a module CSV was produced (including ``DXT``)."""
        return module in self.csv_paths

    def path_for(self, module: str) -> Path:
        """The CSV path of one module."""
        try:
            return self.csv_paths[module]
        except KeyError:
            raise ExtractionError(f"no CSV extracted for module {module!r}") from None


class Extractor:
    """Unpacks Darshan logs into the Analyzer's CSV interchange format."""

    def __init__(
        self,
        rpc_size: int = 4 * MIB,
        tracer=None,
    ) -> None:
        # The RPC size is not recorded in Darshan logs; like the paper,
        # it enters as a system hyper-parameter (default: Lustre's 4 MiB).
        self.rpc_size = rpc_size
        self.tracer = tracer or NullTracer()

    def extract_file(self, log_path: str | Path, out_dir: str | Path) -> ExtractionResult:
        """Parse a binary log file and extract its CSVs."""
        return self.extract(read_log(log_path), out_dir)

    def extract(self, log: DarshanLog, out_dir: str | Path) -> ExtractionResult:
        """Extract CSVs for every module present in ``log``."""
        with self.tracer.span("extractor.extract") as span:
            result = self._extract(log, out_dir)
            record_extraction(span, result)
        return result

    def _extract(self, log: DarshanLog, out_dir: str | Path) -> ExtractionResult:
        # Resolved so the CSV paths quoted in prompts stay valid inside
        # the code interpreter's sandbox, whose relative-path handling
        # is anchored to the extraction directory itself.
        directory = Path(out_dir).resolve()
        directory.mkdir(parents=True, exist_ok=True)
        csv_paths: dict[str, Path] = {}
        columns: dict[str, list[str]] = {}
        row_counts: dict[str, int] = {}
        for module in log.modules:
            path = directory / f"{module}.csv"
            fieldnames = list(_BASE_COLUMNS) + list(counters_for(module)) + list(
                fcounters_for(module)
            )
            rows = (
                {
                    "file_id": record.record_id,
                    "rank": record.rank,
                    "file": log.path_for(record.record_id),
                    **record.counters,
                    **{k: f"{v:.9f}" for k, v in record.fcounters.items()},
                }
                for record in log.records[module]
            )
            row_counts[module] = write_rows(path, fieldnames, rows)
            csv_paths[module] = path
            columns[module] = fieldnames
        if log.has_dxt:
            path = directory / "DXT.csv"
            row_counts["DXT"] = write_lines(path, DXT_COLUMNS, _dxt_lines(log))
            csv_paths["DXT"] = path
            columns["DXT"] = list(DXT_COLUMNS)
        if not csv_paths:
            raise ExtractionError("log contains no module records to extract")
        return ExtractionResult(
            directory=directory,
            csv_paths=csv_paths,
            columns=columns,
            row_counts=row_counts,
            system=self._system_parameters(log),
        )

    def _system_parameters(self, log: DarshanLog) -> dict[str, object]:
        """Distill prompt-level system facts from the log."""
        system: dict[str, object] = {
            "nprocs": log.job.nprocs,
            "run_time_seconds": round(log.job.run_time, 6),
            "rpc_size": self.rpc_size,
            "executable": log.job.executable,
        }
        stripe_sizes = [
            record.counters["LUSTRE_STRIPE_SIZE"]
            for record in log.records.get("LUSTRE", [])
        ]
        stripe_widths = [
            record.counters["LUSTRE_STRIPE_WIDTH"]
            for record in log.records.get("LUSTRE", [])
        ]
        if stripe_sizes:
            # Dominant stripe size across files; per-file values remain
            # available to analysis code through LUSTRE.csv.
            size_counts = Counter(stripe_sizes)
            system["lustre_stripe_size"] = size_counts.most_common(1)[0][0]
            system["lustre_stripe_width"] = Counter(stripe_widths).most_common(1)[0][0]
        else:
            posix = log.records.get("POSIX", [])
            if posix:
                system["lustre_stripe_size"] = posix[0].counters[
                    "POSIX_FILE_ALIGNMENT"
                ]
        return system


def record_extraction(span, result: ExtractionResult) -> None:
    """Record ``result`` on its ``extractor.extract`` span: one
    ``csv.emit`` event per CSV, and the ``modules`` and ``rows``
    attributes.  The extraction cache records its workers'
    extractions with it too."""
    for module in sorted(result.row_counts):
        span.add_event("csv.emit", module=module, rows=result.row_counts[module])
    span.set_attribute("modules", len(result.csv_paths))
    span.set_attribute("rows", sum(result.row_counts.values()))


def _dxt_lines(log: DarshanLog) -> Iterator[str]:
    """One ``DXT.csv`` line per segment, in :data:`DXT_COLUMNS` order.

    ``segment`` is the row's position within its (module, file, rank),
    counted as the rows are emitted; times carry nine decimals.  Each
    file's id and quoted path are formatted once.
    """
    table = log.dxt
    tails = {
        record_id: f"{record_id},{csv_field(log.path_for(record_id))}{LINE_END}"
        for record_id in set(table.record_id)
    }
    segments: defaultdict[tuple[int, int, int], count] = defaultdict(count)
    for module, rank, op, offset, length, start, end, record_id in zip(
        table.module,
        table.rank,
        table.op,
        table.offset,
        table.length,
        table.start,
        table.end,
        table.record_id,
    ):
        index = next(segments[module, record_id, rank])
        yield (
            f"{DXT_MODULES[module]},{rank},{DXT_OPS[op]},{index},{offset},"
            f"{length},{start:.9f},{end:.9f},{tails[record_id]}"
        )
