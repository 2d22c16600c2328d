"""Invariant checks over a Darshan log.

The instrumentation runtime is complex enough that silent counter bugs
are the most likely failure mode of the whole reproduction, so every
workload test validates its trace through :func:`validate_log` before
analysis.  Each check raises :class:`DarshanValidationError` naming the
offending record.
"""

from __future__ import annotations

from collections import defaultdict

from repro.darshan.log import DarshanLog
from repro.darshan.records import DXT_MODULES, DXT_OPS, SHARED_RANK, ModuleRecord
from repro.util.errors import DarshanValidationError
from repro.util.stats import SIZE_BIN_LABELS


def validate_log(log: DarshanLog, check_dxt_bytes: bool = True) -> None:
    """Run every invariant check; raise on the first violation."""
    _check_job(log)
    for module in log.modules:
        for record in log.records[module]:
            _check_record(log, record)
    if log.has_dxt:
        _check_dxt(log, check_dxt_bytes)


def _check_job(log: DarshanLog) -> None:
    job = log.job
    if job.nprocs <= 0:
        raise DarshanValidationError(f"job has nprocs={job.nprocs}")
    if job.end_time < job.start_time:
        raise DarshanValidationError("job ends before it starts")
    for recs in log.records.values():
        for record in recs:
            if record.rank != SHARED_RANK and record.rank >= job.nprocs:
                raise DarshanValidationError(
                    f"record rank {record.rank} >= nprocs {job.nprocs}"
                )


def _where(log: DarshanLog, record: ModuleRecord) -> str:
    path = log.name_records[record.record_id].path
    return f"{record.module} record for {path!r} rank {record.rank}"


def _check_record(log: DarshanLog, record: ModuleRecord) -> None:
    for name, value in record.counters.items():
        if value < 0 and "RANK" not in name and not name.endswith("_MODE"):
            raise DarshanValidationError(
                f"{_where(log, record)}: counter {name} is negative ({value})"
            )
    prefix = record.module.replace("-", "")
    if record.module == "POSIX":
        _check_rw_histograms(log, record, prefix)
        reads = record.counters["POSIX_READS"]
        writes = record.counters["POSIX_WRITES"]
        for direction, ops in (("READ", reads), ("WRITE", writes)):
            consec = record.counters[f"POSIX_CONSEC_{direction}S"]
            seq = record.counters[f"POSIX_SEQ_{direction}S"]
            if not consec <= seq <= max(ops, 0):
                raise DarshanValidationError(
                    f"{_where(log, record)}: CONSEC({consec}) <= SEQ({seq}) "
                    f"<= {direction}S({ops}) violated"
                )
        not_aligned = record.counters["POSIX_FILE_NOT_ALIGNED"]
        if not_aligned > reads + writes:
            raise DarshanValidationError(
                f"{_where(log, record)}: FILE_NOT_ALIGNED({not_aligned}) "
                f"exceeds total ops ({reads + writes})"
            )
    elif record.module == "MPI-IO":
        _check_rw_histograms(log, record, prefix, agg=True)
    _check_times(log, record, prefix)


def _check_rw_histograms(
    log: DarshanLog, record: ModuleRecord, prefix: str, agg: bool = False
) -> None:
    suffix = "_AGG" if agg else ""
    if agg:
        reads = (
            record.counters["MPIIO_INDEP_READS"]
            + record.counters["MPIIO_COLL_READS"]
            + record.counters["MPIIO_SPLIT_READS"]
            + record.counters["MPIIO_NB_READS"]
        )
        writes = (
            record.counters["MPIIO_INDEP_WRITES"]
            + record.counters["MPIIO_COLL_WRITES"]
            + record.counters["MPIIO_SPLIT_WRITES"]
            + record.counters["MPIIO_NB_WRITES"]
        )
    else:
        reads = record.counters[f"{prefix}_READS"]
        writes = record.counters[f"{prefix}_WRITES"]
    for direction, ops in (("READ", reads), ("WRITE", writes)):
        total = sum(
            record.counters[f"{prefix}_SIZE_{direction}{suffix}_{label}"]
            for label in SIZE_BIN_LABELS
        )
        if total != ops:
            raise DarshanValidationError(
                f"{_where(log, record)}: {direction} histogram sums to "
                f"{total}, expected {ops}"
            )


def _check_times(log: DarshanLog, record: ModuleRecord, prefix: str) -> None:
    for phase in ("READ", "WRITE", "META"):
        name = f"{prefix}_F_{phase}_TIME"
        if name in record.fcounters and record.fcounters[name] < 0:
            raise DarshanValidationError(
                f"{_where(log, record)}: {name} is negative"
            )
    run_time = log.job.run_time
    for phase in ("READ", "WRITE"):
        max_name = f"{prefix}_F_MAX_{phase}_TIME"
        total_name = f"{prefix}_F_{phase}_TIME"
        if max_name not in record.fcounters:
            continue
        # A single op cannot take longer than all ops combined (within
        # float tolerance), nor longer than the job itself.
        if record.fcounters[max_name] > record.fcounters[total_name] + 1e-9:
            raise DarshanValidationError(
                f"{_where(log, record)}: {max_name} exceeds {total_name}"
            )
        if run_time and record.fcounters[max_name] > run_time + 1e-6:
            raise DarshanValidationError(
                f"{_where(log, record)}: {max_name} exceeds job run time"
            )


def _check_dxt(log: DarshanLog, check_bytes: bool) -> None:
    moved: dict[tuple[int, int, str], int] = defaultdict(int)
    counts: dict[tuple[int, int, str], int] = defaultdict(int)
    table = log.dxt
    for module, record_id, rank, op, length in zip(
        table.module, table.record_id, table.rank, table.op, table.length
    ):
        if DXT_MODULES[module] == "X_POSIX":
            key = (record_id, rank, DXT_OPS[op])
            moved[key] += length
            counts[key] += 1
    for record in log.records.get("POSIX", []):
        if record.rank == SHARED_RANK:
            continue
        for op, bytes_name, ops_name in (
            ("read", "POSIX_BYTES_READ", "POSIX_READS"),
            ("write", "POSIX_BYTES_WRITTEN", "POSIX_WRITES"),
        ):
            key = (record.record_id, record.rank, op)
            if key not in counts:
                continue
            if counts[key] != record.counters[ops_name]:
                raise DarshanValidationError(
                    f"{_where(log, record)}: {counts[key]} DXT {op} segments "
                    f"but {ops_name}={record.counters[ops_name]}"
                )
            if check_bytes and moved[key] != record.counters[bytes_name]:
                raise DarshanValidationError(
                    f"{_where(log, record)}: DXT {op} bytes {moved[key]} "
                    f"!= {bytes_name} {record.counters[bytes_name]}"
                )
