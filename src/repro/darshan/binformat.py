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
:func:`read_log` also records, in the log's :attr:`~DarshanLog.source`,
the file's pre-key and the content digest of the sections it read, so
a caller can key the log without re-encoding it.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
import sys
import threading
import zlib
from array import array
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.darshan.counters import counters_for, fcounters_for, known_modules
from repro.darshan.log import DarshanLog, LogSource
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


def _packed_str(text: str) -> bytes:
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise DarshanFormatError(f"string too long to serialize ({len(data)} bytes)")
    return struct.pack("<H", len(data)) + data


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
        buffer.write(_packed_str(record.path))
        buffer.write(_packed_str(record.mount_point))
        buffer.write(_packed_str(record.fs_type))
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


def _decode_module(module: str, data: bytes) -> tuple[list[ModuleRecord], bool]:
    """The section's records, and whether they filled the whole payload."""
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
    return records, reader.exhausted


def _little_endian(column: array) -> array:
    if sys.byteorder == "little":
        return column
    swapped = array(column.typecode, column)
    swapped.byteswap()
    return swapped


def _dxt2_chunks(table: DxtTable) -> Iterator[bytes | array]:
    """The ``dxt2`` payload in pieces; each column is one, uncopied."""
    yield struct.pack("<II", len(table), len(table.hostnames))
    for hostname in table.hostnames:
        yield _packed_str(hostname)
    for column in table.columns():
        yield struct.pack("<Q", len(column) * column.itemsize)
        yield _little_endian(column)


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


def _section_chunks(log: DarshanLog) -> list[tuple[str, Iterable]]:
    """``(section name, payload pieces)`` for every section of ``log``.

    The ``dxt2`` pieces are produced lazily, so no section's payload
    need exist as one buffer.
    """
    sections: list[tuple[str, Iterable]] = [
        ("job", (_encode_job(log.job, log.version),)),
        ("names", (_encode_names(log.name_records),)),
    ]
    for module in known_modules():
        records = log.records.get(module)
        if records:
            sections.append((f"mod:{module}", (_encode_module(module, records),)))
    if log.has_dxt:
        sections.append(("dxt2", _dxt2_chunks(log.dxt)))
    return sections


def iter_sections(log: DarshanLog) -> Iterator[tuple[str, bytes]]:
    """Yield ``(section name, payload)`` for every section of ``log``.

    These are the sections :func:`write_log` writes, in file order and
    before compression; :func:`repro.service.cache.log_digest` hashes
    the same payloads.
    """
    for name, chunks in _section_chunks(log):
        yield name, b"".join(chunks)


def content_digest(sections: Iterable[tuple[str, bytes]]) -> str:
    """SHA-256 over ``name:length:payload`` of each canonical section."""
    hasher = hashlib.sha256()
    for name, payload in sections:
        hasher.update(f"{name}:{len(payload)}:".encode("utf-8"))
        hasher.update(payload)
    return hasher.hexdigest()


def file_prekey(data: bytes) -> str:
    """A log file's pre-key: its size and the SHA-256 of its bytes."""
    return f"{len(data)}:{hashlib.sha256(data).hexdigest()}"


def _write_section(handle, name: str, chunks: Iterable) -> None:
    # Deflate piece by piece: the output equals ``zlib.compress`` of the
    # joined payload, and only the compressed bytes are held.
    deflate = zlib.compressobj(6)
    compressed = [deflate.compress(chunk) for chunk in chunks]
    compressed.append(deflate.flush())
    length = crc = 0
    for piece in compressed:
        length += len(piece)
        crc = zlib.crc32(piece, crc)
    name_bytes = name.encode("utf-8")
    handle.write(struct.pack("<H", len(name_bytes)))
    handle.write(name_bytes)
    handle.write(struct.pack("<QI", length, crc))
    handle.writelines(compressed)


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
    sections = _section_chunks(log)
    with path.open("wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<I", len(sections)))
        for name, chunks in sections:
            _write_section(handle, name, chunks)
    return path


def read_log(path: str | Path) -> DarshanLog:
    """Parse a binary log from ``path``.

    The log's ``source`` holds the file's pre-key (:func:`file_prekey`)
    and the content digest of the sections read, which equals
    :func:`repro.service.cache.log_digest` of the log as returned.

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
        log, digest = _parse(_Reader(data, "log", start=len(MAGIC)))
    except (ValueError, TypeError, OverflowError, DarshanValidationError) as exc:
        raise DarshanFormatError(f"{path}: {exc}") from exc
    log.source = LogSource(prekey=file_prekey(data), digest=digest)
    return log


def _parse(reader: _Reader) -> tuple[DarshanLog, str]:
    """The log, and the content digest of its canonical sections.

    A payload read is hashed as it is when it is already canonical;
    otherwise (a module section with bytes past its records, a v1
    ``dxt`` section) that section is re-encoded for the digest.
    """
    (section_count,) = reader.unpack("<I")
    sections = dict(_read_section(reader) for _ in range(section_count))
    if "job" not in sections or "names" not in sections:
        raise DarshanFormatError("log is missing its job or name section")
    job, version = _decode_job(sections["job"])
    log = DarshanLog(job=job, version=version)
    for record in _decode_names(sections["names"]).values():
        log.add_name(record)
    canonical = [
        ("job", _encode_job(job, version)),
        ("names", _encode_names(log.name_records)),
    ]
    for module in known_modules():
        name = f"mod:{module}"
        payload = sections.get(name)
        if payload is None:
            continue
        records, whole = _decode_module(module, payload)
        for record in records:
            log.add_record(record)
        if records:
            canonical.append(
                (name, payload if whole else _encode_module(module, records))
            )
    dxt_payload = sections.get("dxt2")
    if dxt_payload is not None:
        log.set_dxt(_decode_dxt2(dxt_payload))
    elif "dxt" in sections:
        log.set_dxt(_decode_dxt_v1(sections["dxt"]))
        # The canonical form of the v1 rows is their dxt2 encoding.
        dxt_payload = b"".join(_dxt2_chunks(log.dxt))
    if log.has_dxt:
        canonical.append(("dxt2", dxt_payload))
    return log, content_digest(canonical)


class LogFile:
    """A binary log file, parsed on first use and at most once.

    ``reader`` parses it (default :func:`read_log`).  Thread-safe: a
    second caller waits for the first parse instead of repeating it.
    """

    def __init__(
        self, path: str | Path, reader: Callable[[Path], DarshanLog] | None = None
    ) -> None:
        self.path = Path(path)
        self._reader = reader or read_log
        self._lock = threading.Lock()
        self._log: DarshanLog | None = None

    @property
    def log(self) -> DarshanLog:
        """The parsed log; the first access reads the file."""
        with self._lock:
            if self._log is None:
                self._log = self._reader(self.path)
            return self._log
