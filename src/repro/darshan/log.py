"""The in-memory Darshan log container.

:class:`DarshanLog` is what the instrumentation runtime produces, what
the binary format serializes, and what the parsers and analyzers read.
It deliberately mirrors the structure of a real ``.darshan`` file:
a job header, a name table, per-module record arrays, and an optional
columnar table of DXT segments.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.darshan.counters import known_modules
from repro.darshan.records import (
    SHARED_RANK,
    DxtSegment,
    DxtTable,
    JobRecord,
    ModuleRecord,
    NameRecord,
)
from repro.util.errors import DarshanValidationError

FORMAT_VERSION = "3.41-repro"


@dataclass(frozen=True)
class LogSource:
    """The file a log was read from, as ``read_log`` saw it."""

    #: ``"<size>:<sha256>"`` of the file's bytes.
    prekey: str
    #: Content digest of the sections read: what
    #: :func:`repro.service.cache.log_digest` returned for the log as read.
    digest: str


@dataclass
class DarshanLog:
    """A complete Darshan log for one job."""

    job: JobRecord
    version: str = FORMAT_VERSION
    name_records: dict[int, NameRecord] = field(default_factory=dict)
    records: dict[str, list[ModuleRecord]] = field(default_factory=dict)
    dxt: DxtTable = field(default_factory=DxtTable)
    #: Set by ``read_log``; not updated when the log is changed later.
    source: LogSource | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- construction -------------------------------------------------

    def add_name(self, record: NameRecord) -> None:
        """Register a file path; re-registering the same path is a no-op."""
        existing = self.name_records.get(record.record_id)
        if existing is not None and existing.path != record.path:
            raise DarshanValidationError(
                f"record id {record.record_id:#x} maps to both "
                f"{existing.path!r} and {record.path!r}"
            )
        self.name_records[record.record_id] = record

    def add_record(self, record: ModuleRecord) -> None:
        """Append one (module, file, rank) counter record."""
        if record.record_id not in self.name_records:
            raise DarshanValidationError(
                f"module record references unknown record id "
                f"{record.record_id:#x}; add the NameRecord first"
            )
        self.records.setdefault(record.module, []).append(record)

    def add_dxt(self, segment: DxtSegment) -> None:
        """Append one DXT trace segment."""
        if segment.record_id not in self.name_records:
            raise DarshanValidationError(
                f"DXT segment references unknown record id {segment.record_id:#x}"
            )
        self.dxt.append(
            segment.module,
            segment.record_id,
            segment.rank,
            segment.operation,
            segment.offset,
            segment.length,
            segment.start_time,
            segment.end_time,
            segment.hostname,
        )

    def set_dxt(self, table: DxtTable) -> None:
        """Replace the DXT segments with ``table`` after checking every row."""
        table.check(self.name_records)
        self.dxt = table

    # -- queries ------------------------------------------------------

    @property
    def modules(self) -> list[str]:
        """Modules present in this log, in canonical order."""
        return [m for m in known_modules() if self.records.get(m)]

    @property
    def has_dxt(self) -> bool:
        """Whether extended tracing data is present."""
        return len(self.dxt) > 0

    @property
    def dxt_segments(self) -> DxtTable:
        """The DXT segments as a sequence of :class:`DxtSegment` views."""
        return self.dxt

    def path_for(self, record_id: int) -> str:
        """Resolve a record id back to its file path."""
        return self.name_records[record_id].path

    def records_for(self, module: str) -> list[ModuleRecord]:
        """All records for one module (empty list if absent)."""
        return list(self.records.get(module, []))

    def records_for_file(self, module: str, record_id: int) -> list[ModuleRecord]:
        """All per-rank records of one file within one module."""
        return [r for r in self.records.get(module, []) if r.record_id == record_id]

    def file_ids(self, module: str | None = None) -> list[int]:
        """Distinct record ids, optionally restricted to one module."""
        if module is not None:
            seen = {r.record_id for r in self.records.get(module, [])}
        else:
            seen = {r.record_id for recs in self.records.values() for r in recs}
        return sorted(seen)

    def ranks(self) -> list[int]:
        """Distinct ranks that issued I/O, ignoring shared-reduced records."""
        seen = {
            r.rank
            for recs in self.records.values()
            for r in recs
            if r.rank != SHARED_RANK
        }
        return sorted(seen)

    def iter_dxt(
        self,
        module: str | None = None,
        record_id: int | None = None,
        rank: int | None = None,
    ) -> Iterator[DxtSegment]:
        """Iterate DXT segments with optional filters."""
        for segment in self.dxt:
            if module is not None and segment.module != module:
                continue
            if record_id is not None and segment.record_id != record_id:
                continue
            if rank is not None and segment.rank != rank:
                continue
            yield segment

    # -- aggregation --------------------------------------------------

    def reduce_shared(self, module: str, record_id: int) -> ModuleRecord:
        """Combine per-rank records of a shared file into one record.

        Mirrors Darshan's shared-file reduction: additive counters are
        summed, MAX-style counters take the max, alignment settings are
        carried through, and the result is tagged ``rank == -1``.
        """
        per_rank = self.records_for_file(module, record_id)
        if not per_rank:
            raise KeyError(
                f"no {module} records for record id {record_id:#x}"
            )
        merged = ModuleRecord(module=module, record_id=record_id, rank=SHARED_RANK)
        for name in merged.counters:
            values = [r.counters[name] for r in per_rank]
            if "MAX_BYTE" in name or name.endswith(("_MODE", "_ALIGNMENT")):
                merged.counters[name] = max(values)
            elif "FASTEST" in name or "SLOWEST" in name:
                # Recomputed below from per-rank byte totals.
                merged.counters[name] = 0
            else:
                merged.counters[name] = sum(values)
        for name in merged.fcounters:
            values = [r.fcounters[name] for r in per_rank]
            if "START_TIMESTAMP" in name:
                merged.fcounters[name] = min(v for v in values) if values else 0.0
            elif "END_TIMESTAMP" in name or "MAX" in name or "SLOWEST" in name:
                merged.fcounters[name] = max(values)
            elif "FASTEST" in name:
                merged.fcounters[name] = min(values)
            elif "VARIANCE" in name:
                merged.fcounters[name] = 0.0  # recomputed below
            else:
                merged.fcounters[name] = sum(values)
        _recompute_rank_extremes(module, merged, per_rank)
        return merged

    def total_bytes(self, module: str) -> tuple[int, int]:
        """(bytes read, bytes written) summed over a module's records."""
        read = written = 0
        prefix = _counter_prefix(module)
        for record in self.records.get(module, []):
            read += record.counters.get(f"{prefix}_BYTES_READ", 0)
            written += record.counters.get(f"{prefix}_BYTES_WRITTEN", 0)
        return read, written


def _counter_prefix(module: str) -> str:
    return module.replace("-", "")


def _recompute_rank_extremes(
    module: str, merged: ModuleRecord, per_rank: Iterable[ModuleRecord]
) -> None:
    """Fill FASTEST/SLOWEST rank counters and variance fcounters."""
    prefix = _counter_prefix(module)
    time_name = f"{prefix}_F_READ_TIME"
    if time_name not in merged.fcounters:
        return
    totals: dict[int, tuple[float, int]] = {}
    for record in per_rank:
        elapsed = (
            record.fcounters.get(f"{prefix}_F_READ_TIME", 0.0)
            + record.fcounters.get(f"{prefix}_F_WRITE_TIME", 0.0)
            + record.fcounters.get(f"{prefix}_F_META_TIME", 0.0)
        )
        moved = record.counters.get(
            f"{prefix}_BYTES_READ", 0
        ) + record.counters.get(f"{prefix}_BYTES_WRITTEN", 0)
        prev_elapsed, prev_moved = totals.get(record.rank, (0.0, 0))
        totals[record.rank] = (prev_elapsed + elapsed, prev_moved + moved)
    if not totals:
        return
    by_time = sorted(totals.items(), key=lambda item: (item[1][0], item[0]))
    fastest_rank, (fastest_time, fastest_bytes) = by_time[0]
    slowest_rank, (slowest_time, slowest_bytes) = by_time[-1]
    merged.counters[f"{prefix}_FASTEST_RANK"] = fastest_rank
    merged.counters[f"{prefix}_FASTEST_RANK_BYTES"] = fastest_bytes
    merged.counters[f"{prefix}_SLOWEST_RANK"] = slowest_rank
    merged.counters[f"{prefix}_SLOWEST_RANK_BYTES"] = slowest_bytes
    merged.fcounters[f"{prefix}_F_FASTEST_RANK_TIME"] = fastest_time
    merged.fcounters[f"{prefix}_F_SLOWEST_RANK_TIME"] = slowest_time
    times = [elapsed for elapsed, _ in totals.values()]
    byte_totals = [float(moved) for _, moved in totals.values()]
    merged.fcounters[f"{prefix}_F_VARIANCE_RANK_TIME"] = _variance(times)
    merged.fcounters[f"{prefix}_F_VARIANCE_RANK_BYTES"] = _variance(byte_totals)


def _variance(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / len(values)


def merge_rank_byte_totals(log: DarshanLog, module: str) -> dict[int, int]:
    """Total bytes moved per rank for one module, across all files."""
    prefix = _counter_prefix(module)
    totals: dict[int, int] = defaultdict(int)
    for record in log.records.get(module, []):
        if record.rank == SHARED_RANK:
            continue
        totals[record.rank] += record.counters.get(
            f"{prefix}_BYTES_READ", 0
        ) + record.counters.get(f"{prefix}_BYTES_WRITTEN", 0)
    return dict(totals)
