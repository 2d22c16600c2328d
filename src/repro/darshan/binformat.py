"""Binary on-disk format for Darshan logs.

The real Darshan log is a sequence of zlib-compressed regions behind a
small header; this module implements the same shape.  A file is:

``magic | section count | sections...``

where each section is ``name | compressed length | CRC32 | zlib payload``
and the payload is fixed-width struct packing (no JSON for record data),
so the reader is a genuine binary parser with integrity checking.

DXT segments live in a columnar ``dxt2`` section: the segment count,
the hostname dictionary, then each :class:`DxtTable` column as one
length-prefixed little-endian block.  Logs carrying the row-per-segment
``dxt`` section of older versions still read.

Use :func:`write_log` / :func:`read_log`; everything else is framing.
"""

from __future__ import annotations

import io
import json
import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import Iterator

from repro.darshan.counters import counters_for, fcounters_for, known_modules
from repro.darshan.log import DarshanLog
from repro.darshan.records import (
    DXT_MODULES,
    DXT_OPS,
    DxtTable,
    JobRecord,
    ModuleRecord,
    NameRecord,
)
from repro.util.errors import DarshanFormatError, DarshanValidationError

MAGIC = b"DSHNRPRO"

#: Largest payload one section may inflate to; a section claiming more
#: is rejected as corrupt rather than allocated.
MAX_SECTION_BYTES = 1 << 30


# -- low-level packing -------------------------------------------------


def _pack_str(buffer: io.BytesIO, text: str) -> None:
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise DarshanFormatError(f"string too long to serialize ({len(data)} bytes)")
    buffer.write(struct.pack("<H", len(data)))
    buffer.write(data)


class _Reader:
    """Cursor over a log file or one decompressed section payload.

    Every read is bounds-checked before anything is sliced, so a corrupt
    length field fails as truncation instead of sizing an allocation.
    """

    def __init__(self, data: bytes, section: str, start: int = 0) -> None:
        self._data = memoryview(data)
        self._pos = start
        self._section = section

    def take(self, count: int) -> memoryview:
        if self._pos + count > len(self._data):
            raise DarshanFormatError(
                f"section {self._section!r} truncated at byte {self._pos}"
            )
        chunk = self._data[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def read_str(self) -> str:
        (length,) = self.unpack("<H")
        return str(self.take(length), "utf-8")

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._data)


# -- section encoders ---------------------------------------------------


def _encode_job(job: JobRecord, version: str) -> bytes:
    payload = {
        "version": version,
        "job_id": job.job_id,
        "uid": job.uid,
        "nprocs": job.nprocs,
        "start_time": job.start_time,
        "end_time": job.end_time,
        "executable": job.executable,
        "metadata": job.metadata,
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _decode_job(data: bytes) -> tuple[JobRecord, str]:
    try:
        payload = json.loads(data.decode("utf-8"))
        job = JobRecord(
            job_id=int(payload["job_id"]),
            uid=int(payload["uid"]),
            nprocs=int(payload["nprocs"]),
            start_time=float(payload["start_time"]),
            end_time=float(payload["end_time"]),
            executable=str(payload.get("executable", "unknown")),
            metadata=dict(payload.get("metadata", {})),
        )
        return job, str(payload["version"])
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise DarshanFormatError(f"corrupt job section: {exc}") from exc


def _encode_names(names: dict[int, NameRecord]) -> bytes:
    buffer = io.BytesIO()
    buffer.write(struct.pack("<I", len(names)))
    for record_id in sorted(names):
        record = names[record_id]
        buffer.write(struct.pack("<Q", record.record_id))
        _pack_str(buffer, record.path)
        _pack_str(buffer, record.mount_point)
        _pack_str(buffer, record.fs_type)
    return buffer.getvalue()


def _decode_names(data: bytes) -> dict[int, NameRecord]:
    reader = _Reader(data, "names")
    (count,) = reader.unpack("<I")
    names: dict[int, NameRecord] = {}
    for _ in range(count):
        (record_id,) = reader.unpack("<Q")
        path = reader.read_str()
        mount = reader.read_str()
        fs_type = reader.read_str()
        names[record_id] = NameRecord(record_id, path, mount, fs_type)
    return names


def _encode_module(module: str, records: list[ModuleRecord]) -> bytes:
    counter_names = counters_for(module)
    fcounter_names = fcounters_for(module)
    buffer = io.BytesIO()
    buffer.write(
        struct.pack("<III", len(records), len(counter_names), len(fcounter_names))
    )
    for record in records:
        buffer.write(struct.pack("<Qq", record.record_id, record.rank))
        values = [record.counters[name] for name in counter_names]
        buffer.write(struct.pack(f"<{len(values)}q", *values))
        fvalues = [record.fcounters[name] for name in fcounter_names]
        if fvalues:
            buffer.write(struct.pack(f"<{len(fvalues)}d", *fvalues))
    return buffer.getvalue()


def _decode_module(module: str, data: bytes) -> list[ModuleRecord]:
    counter_names = counters_for(module)
    fcounter_names = fcounters_for(module)
    reader = _Reader(data, f"mod:{module}")
    count, n_counters, n_fcounters = reader.unpack("<III")
    if n_counters != len(counter_names) or n_fcounters != len(fcounter_names):
        raise DarshanFormatError(
            f"module {module} was written with {n_counters}/{n_fcounters} "
            f"counters but this build registers "
            f"{len(counter_names)}/{len(fcounter_names)}"
        )
    records = []
    for _ in range(count):
        record_id, rank = reader.unpack("<Qq")
        values = reader.unpack(f"<{n_counters}q")
        fvalues = reader.unpack(f"<{n_fcounters}d") if n_fcounters else ()
        records.append(
            ModuleRecord(
                module=module,
                record_id=record_id,
                rank=rank,
                counters=dict(zip(counter_names, values)),
                fcounters=dict(zip(fcounter_names, fvalues)),
            )
        )
    return records


def _little_endian(column: array) -> array:
    if sys.byteorder == "little":
        return column
    swapped = array(column.typecode, column)
    swapped.byteswap()
    return swapped


def _encode_dxt2(table: DxtTable) -> bytes:
    buffer = io.BytesIO()
    buffer.write(struct.pack("<II", len(table), len(table.hostnames)))
    for hostname in table.hostnames:
        _pack_str(buffer, hostname)
    for column in table.columns():
        buffer.write(struct.pack("<Q", len(column) * column.itemsize))
        buffer.write(_little_endian(column))
    return buffer.getvalue()


def _decode_dxt2(data: bytes) -> DxtTable:
    reader = _Reader(data, "dxt2")
    count, host_count = reader.unpack("<II")
    table = DxtTable(reader.read_str() for _ in range(host_count))
    for (name, _), column in zip(DxtTable.COLUMNS, table.columns()):
        (size,) = reader.unpack("<Q")
        if size != count * column.itemsize:
            raise DarshanFormatError(
                f"dxt2 column {name!r} holds {size} bytes, "
                f"expected {count} x {column.itemsize}"
            )
        column.frombytes(reader.take(size))
        if sys.byteorder != "little":
            column.byteswap()
    if not reader.exhausted:
        raise DarshanFormatError("dxt2 section has trailing bytes")
    return table


def _decode_dxt_v1(data: bytes) -> DxtTable:
    """Decode the row-per-segment ``dxt`` section older versions wrote."""
    reader = _Reader(data, "dxt")
    (count,) = reader.unpack("<I")
    table = DxtTable()
    for _ in range(count):
        module, op, rank, record_id, offset, length, start, end = reader.unpack(
            "<BBqQQQdd"
        )
        if module >= len(DXT_MODULES) or op >= len(DXT_OPS):
            raise DarshanFormatError(f"bad DXT module/op code {module}/{op}")
        table.append(
            DXT_MODULES[module], record_id, rank, DXT_OPS[op],
            offset, length, start, end, reader.read_str(),
        )
    return table


# -- file framing -------------------------------------------------------


def iter_sections(log: DarshanLog) -> Iterator[tuple[str, bytes]]:
    """Yield ``(section name, payload)`` for every section of ``log``.

    These are the sections :func:`write_log` writes, in file order and
    before compression; :func:`repro.service.cache.log_digest` hashes
    the same payloads.
    """
    yield "job", _encode_job(log.job, log.version)
    yield "names", _encode_names(log.name_records)
    for module in known_modules():
        records = log.records.get(module)
        if records:
            yield f"mod:{module}", _encode_module(module, records)
    if log.has_dxt:
        yield "dxt2", _encode_dxt2(log.dxt)


def _write_section(handle, name: str, payload: bytes) -> None:
    compressed = zlib.compress(payload, level=6)
    name_bytes = name.encode("utf-8")
    handle.write(struct.pack("<H", len(name_bytes)))
    handle.write(name_bytes)
    handle.write(struct.pack("<QI", len(compressed), zlib.crc32(compressed)))
    handle.write(compressed)


def _read_section(reader: _Reader) -> tuple[str, bytes]:
    name = reader.read_str()
    length, crc = reader.unpack("<QI")
    compressed = reader.take(length)
    if zlib.crc32(compressed) != crc:
        raise DarshanFormatError(f"section {name!r} failed its CRC check")
    inflater = zlib.decompressobj()
    try:
        payload = inflater.decompress(compressed, MAX_SECTION_BYTES)
    except zlib.error as exc:
        raise DarshanFormatError(f"section {name!r} failed to inflate: {exc}") from exc
    if inflater.unconsumed_tail:
        raise DarshanFormatError(
            f"section {name!r} inflates past {MAX_SECTION_BYTES} bytes"
        )
    if not inflater.eof:
        raise DarshanFormatError(f"section {name!r} is an incomplete zlib stream")
    return name, payload


def write_log(log: DarshanLog, path: str | Path) -> Path:
    """Serialize ``log`` to ``path`` and return the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    sections = list(iter_sections(log))
    with path.open("wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<I", len(sections)))
        for name, payload in sections:
            _write_section(handle, name, payload)
    return path


def read_log(path: str | Path) -> DarshanLog:
    """Parse a binary log from ``path``.

    Raises :class:`~repro.util.errors.DarshanFormatError`, and nothing
    else, on any malformed content: a bad magic number, CRC mismatch,
    truncation, oversized section, counter-set skew, or a record that
    fails its checks.
    """
    path = Path(path)
    data = path.read_bytes()
    if data[: len(MAGIC)] != MAGIC:
        raise DarshanFormatError(
            f"{path} is not a Darshan log (magic {data[: len(MAGIC)]!r})"
        )
    try:
        return _parse(_Reader(data, "log", start=len(MAGIC)))
    except (ValueError, TypeError, OverflowError, DarshanValidationError) as exc:
        raise DarshanFormatError(f"{path}: {exc}") from exc


def _parse(reader: _Reader) -> DarshanLog:
    (section_count,) = reader.unpack("<I")
    sections = dict(_read_section(reader) for _ in range(section_count))
    if "job" not in sections or "names" not in sections:
        raise DarshanFormatError("log is missing its job or name section")
    job, version = _decode_job(sections["job"])
    log = DarshanLog(job=job, version=version)
    for record in _decode_names(sections["names"]).values():
        log.add_name(record)
    for module in known_modules():
        payload = sections.get(f"mod:{module}")
        if payload is None:
            continue
        for record in _decode_module(module, payload):
            log.add_record(record)
    if "dxt2" in sections:
        log.set_dxt(_decode_dxt2(sections["dxt2"]))
    elif "dxt" in sections:
        log.set_dxt(_decode_dxt_v1(sections["dxt"]))
    return log
