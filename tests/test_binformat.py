"""Round-trip and corruption tests for the binary log format."""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.darshan import binformat
from repro.darshan.binformat import (
    MAGIC,
    file_prekey,
    iter_sections,
    read_log,
    write_log,
)
from repro.darshan.counters import counters_for, fcounters_for
from repro.darshan.log import DarshanLog
from repro.darshan.records import DxtSegment, JobRecord, ModuleRecord, NameRecord
from repro.ion.extractor import Extractor
from repro.iosim.job import SimulatedJob
from repro.service.cache import log_digest
from repro.util.errors import DarshanFormatError


def sample_log():
    log = DarshanLog(
        job=JobRecord(
            job_id=77, uid=1001, nprocs=4, start_time=0.0, end_time=12.5,
            executable="app.x", metadata={"key": "value"},
        )
    )
    log.add_name(NameRecord(10, "/lustre/a", "/lustre", "lustre"))
    log.add_name(NameRecord(20, "/lustre/b"))
    log.add_record(
        ModuleRecord(
            module="POSIX", record_id=10, rank=0,
            counters={"POSIX_READS": 5, "POSIX_BYTES_READ": 500},
            fcounters={"POSIX_F_READ_TIME": 1.25},
        )
    )
    log.add_record(
        ModuleRecord(
            module="MPI-IO", record_id=20, rank=1,
            counters={"MPIIO_COLL_WRITES": 7},
        )
    )
    log.add_record(
        ModuleRecord(
            module="LUSTRE", record_id=10, rank=0,
            counters={"LUSTRE_STRIPE_SIZE": 1048576, "LUSTRE_STRIPE_WIDTH": 4},
        )
    )
    log.add_dxt(DxtSegment("X_POSIX", 10, 0, "read", 0, 500, 0.5, 0.75))
    return log


class TestRoundTrip:
    def test_full_round_trip(self, tmp_path):
        log = sample_log()
        path = write_log(log, tmp_path / "log.darshan")
        back = read_log(path)
        assert back.job.job_id == 77
        assert back.job.metadata == {"key": "value"}
        assert back.version == log.version
        assert back.name_records[10].path == "/lustre/a"
        assert back.records_for("POSIX")[0].counters["POSIX_READS"] == 5
        assert back.records_for("POSIX")[0].fcounters[
            "POSIX_F_READ_TIME"
        ] == pytest.approx(1.25)
        assert back.records_for("MPI-IO")[0].counters["MPIIO_COLL_WRITES"] == 7
        assert back.records_for("LUSTRE")[0].counters["LUSTRE_STRIPE_SIZE"] == 1048576
        assert len(back.dxt_segments) == 1
        assert back.dxt_segments[0].operation == "read"

    def test_empty_modules_omitted(self, tmp_path):
        log = DarshanLog(
            job=JobRecord(job_id=1, uid=1, nprocs=1, start_time=0, end_time=1)
        )
        log.add_name(NameRecord(1, "/a"))
        path = write_log(log, tmp_path / "empty.darshan")
        back = read_log(path)
        assert back.modules == []
        assert not back.has_dxt

    @settings(
        max_examples=25,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,  # tmp_path is reused safely
        ],
    )
    @given(
        counters=st.dictionaries(
            st.sampled_from(counters_for("POSIX")),
            st.integers(min_value=0, max_value=2**60),
            max_size=10,
        ),
        fcounters=st.dictionaries(
            st.sampled_from(fcounters_for("POSIX")),
            st.floats(0, 1e9, allow_nan=False),
            max_size=5,
        ),
        rank=st.integers(-1, 3),
    )
    def test_arbitrary_record_round_trip(self, tmp_path, counters, fcounters, rank):
        log = DarshanLog(
            job=JobRecord(job_id=1, uid=1, nprocs=4, start_time=0, end_time=1)
        )
        log.add_name(NameRecord(5, "/x"))
        log.add_record(
            ModuleRecord(
                module="POSIX", record_id=5, rank=rank,
                counters=counters, fcounters=fcounters,
            )
        )
        path = write_log(log, tmp_path / "prop.darshan")
        back = read_log(path).records_for("POSIX")[0]
        for name, value in counters.items():
            assert back.counters[name] == value
        for name, value in fcounters.items():
            assert back.fcounters[name] == pytest.approx(value)
        assert back.rank == rank


class TestCorruption:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.darshan"
        path.write_bytes(b"NOTDSHN!" + b"\x00" * 100)
        with pytest.raises(DarshanFormatError, match="magic"):
            read_log(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = write_log(sample_log(), tmp_path / "log.darshan")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(DarshanFormatError):
            read_log(path)

    def test_crc_mismatch_rejected(self, tmp_path):
        path = write_log(sample_log(), tmp_path / "log.darshan")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a bit inside the last section payload
        path.write_bytes(bytes(data))
        with pytest.raises(DarshanFormatError, match="CRC"):
            read_log(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.darshan"
        path.write_bytes(b"")
        with pytest.raises(DarshanFormatError):
            read_log(path)

    def test_magic_only_rejected(self, tmp_path):
        path = tmp_path / "short.darshan"
        path.write_bytes(MAGIC + struct.pack("<I", 3))
        with pytest.raises(DarshanFormatError):
            read_log(path)


# -- columnar DXT, the v1 reader and the read_log contract -------------

DATA = Path(__file__).parent / "data"


def v1_fixture_log():
    """The log ``tests/data/v1-tiny.darshan`` was written from.

    That file, and the CSVs under ``tests/data/v1-tiny/``, came from the
    row-per-segment ``dxt`` writer that preceded the ``dxt2`` section.
    """
    log = DarshanLog(
        job=JobRecord(
            job_id=8, uid=1001, nprocs=2, start_time=0.0, end_time=4.0,
            executable="fixture.x", metadata={"lib": "v1"},
        )
    )
    paths = {
        11: "/lustre/a,b",
        12: '/lustre/say "hi"',
        13: "/lustre/two\nlines",
        14: "/lustre/résumé",
        15: "",
    }
    for record_id, path in paths.items():
        log.add_name(NameRecord(record_id, path))
    for record_id in paths:
        for rank in (0, 1):
            log.add_record(
                ModuleRecord(
                    module="POSIX", record_id=record_id, rank=rank,
                    counters={"POSIX_WRITES": 2, "POSIX_BYTES_WRITTEN": 300},
                    fcounters={"POSIX_F_WRITE_TIME": 0.125 * (rank + 1)},
                )
            )
    log.add_record(
        ModuleRecord(
            module="MPI-IO", record_id=11, rank=0,
            counters={"MPIIO_COLL_WRITES": 2},
        )
    )
    hosts = ("node0", "node1", "nœud-2")
    now = 0.0
    for step in range(2):
        for record_id in paths:
            for rank in (0, 1):
                if record_id == 11 and rank == 0:
                    log.add_dxt(
                        DxtSegment(
                            "X_MPIIO", record_id, rank, "write",
                            step * 150, 150, now, now + 0.01, hosts[rank],
                        )
                    )
                log.add_dxt(
                    DxtSegment(
                        "X_POSIX", record_id, rank,
                        "write" if step == 0 else "read",
                        step * 150, 150, now, now + 0.0123456789,
                        hosts[(rank + step + record_id) % 3],
                    )
                )
                now += 0.03125
    return log


def frame(sections):
    """A log file holding ``sections`` with valid CRCs."""
    out = bytearray(MAGIC + struct.pack("<I", len(sections)))
    for name, payload in sections:
        compressed = zlib.compress(payload)
        out += struct.pack("<H", len(name)) + name.encode("utf-8")
        out += struct.pack("<QI", len(compressed), zlib.crc32(compressed))
        out += compressed
    return bytes(out)


def dxt_log():
    log = sample_log()
    log.add_dxt(DxtSegment("X_MPIIO", 20, 1, "write", 7, 93, 1.0, 1.5, "node7"))
    log.add_dxt(DxtSegment("X_POSIX", 20, 1, "write", 100, 3, 1.25, 1.5, "node7"))
    return log


class TestColumnarDxt:
    def test_dxt2_round_trip_is_exact(self, tmp_path):
        log = dxt_log()
        back = read_log(write_log(log, tmp_path / "log.darshan"))
        assert back == log
        assert back.dxt.hostnames == ["node0", "node7"]
        assert [s.hostname for s in back.dxt_segments] == ["node0", "node7", "node7"]

    def test_streamed_sections_equal_whole_payload_compression(self, tmp_path):
        # write_log deflates each section piece by piece; the bytes must
        # equal zlib.compress over each joined payload.
        job = SimulatedJob(nprocs=3)
        fds = [job.posix(rank).open("/lustre/stream") for rank in range(3)]
        job.posix_run(
            "write",
            ((rank, fds[rank], (step * 3 + rank) * 5000, 5000)
             for step in range(3000) for rank in range(3)),
        )
        for log in (dxt_log(), job.finalize()):
            written = write_log(log, tmp_path / "log.darshan").read_bytes()
            assert written == frame(list(iter_sections(log)))

    def test_writer_emits_dxt2_only(self):
        names = [name for name, _ in iter_sections(dxt_log())]
        assert names == ["job", "names", "mod:POSIX", "mod:MPI-IO", "mod:LUSTRE", "dxt2"]

    def test_v1_fixture_reads_to_the_same_log(self):
        assert read_log(DATA / "v1-tiny.darshan") == v1_fixture_log()

    def test_v1_fixture_extracts_to_the_same_csvs(self, tmp_path):
        result = Extractor().extract_file(DATA / "v1-tiny.darshan", tmp_path)
        expected = sorted(p.name for p in (DATA / "v1-tiny").iterdir())
        assert sorted(p.name for p in result.csv_paths.values()) == expected
        for name in expected:
            assert (tmp_path / name).read_bytes() == (
                DATA / "v1-tiny" / name
            ).read_bytes(), name

    def test_v1_and_dxt2_extract_identically(self, tmp_path):
        log = read_log(DATA / "v1-tiny.darshan")
        v2 = read_log(write_log(log, tmp_path / "v2.darshan"))
        first = Extractor().extract(log, tmp_path / "v1")
        second = Extractor().extract(v2, tmp_path / "v2")
        for module, path in first.csv_paths.items():
            assert path.read_bytes() == second.csv_paths[module].read_bytes()


class TestReadDigest:
    """``read_log``'s digest is ``log_digest`` of the log it returns."""

    def test_dxt2_log(self, tmp_path):
        path = write_log(dxt_log(), tmp_path / "log.darshan")
        log = read_log(path)
        assert log.source.digest == log_digest(log) == log_digest(dxt_log())
        assert log.source.prekey == file_prekey(path.read_bytes())

    def test_v1_dxt_log_is_hashed_in_its_dxt2_form(self, tmp_path):
        log = read_log(DATA / "v1-tiny.darshan")
        assert log.source.digest == log_digest(log)
        rewritten = read_log(write_log(log, tmp_path / "v2.darshan"))
        assert rewritten.source.digest == log.source.digest
        assert rewritten.source.prekey != log.source.prekey

    def test_sections_read_in_a_foreign_shape_are_hashed_canonically(
        self, tmp_path
    ):
        # Sections out of order, bytes past a module's records and an
        # unknown section all parse; the digest ignores the shape.
        sections = dict(iter_sections(dxt_log()))
        sections["mod:POSIX"] += b"\0" * 5
        sections["mod:NOT-A-MODULE"] = b"ignored"
        path = tmp_path / "foreign.darshan"
        path.write_bytes(frame(list(reversed(sections.items()))))
        log = read_log(path)
        assert log == dxt_log()
        assert log.source.digest == log_digest(log) == log_digest(dxt_log())


def dxt2_payload(log):
    return dict(iter_sections(log))["dxt2"]


def with_payload(log, name, payload):
    return frame([(n, payload if n == name else p) for n, p in iter_sections(log)])


class TestReadContract:
    """``read_log`` raises DarshanFormatError, and nothing else, on bad input."""

    def _read_or_format_error(self, tmp_path, data):
        path = tmp_path / "fuzz.darshan"
        path.write_bytes(data)
        try:
            read_log(path)
        except DarshanFormatError:
            pass

    def test_section_length_beyond_file_rejected(self, tmp_path):
        data = bytearray(frame(list(iter_sections(dxt_log()))))
        # The first section's compressed length follows its 2-byte name
        # length and the name "job".
        offset = len(MAGIC) + 4 + 2 + 3
        data[offset : offset + 8] = struct.pack("<Q", 2**62)
        path = tmp_path / "huge.darshan"
        path.write_bytes(bytes(data))
        with pytest.raises(DarshanFormatError, match="truncated"):
            read_log(path)

    def test_inflated_size_bounded(self, tmp_path, monkeypatch):
        path = write_log(dxt_log(), tmp_path / "log.darshan")
        monkeypatch.setattr(binformat, "MAX_SECTION_BYTES", 64)
        with pytest.raises(DarshanFormatError, match="inflates past 64"):
            read_log(path)

    def test_dxt2_count_mismatch_rejected(self, tmp_path):
        log = dxt_log()
        payload = bytearray(dxt2_payload(log))
        payload[0:4] = struct.pack("<I", len(log.dxt) + 1)
        path = tmp_path / "count.darshan"
        path.write_bytes(with_payload(log, "dxt2", bytes(payload)))
        with pytest.raises(DarshanFormatError, match="dxt2 column 'module'"):
            read_log(path)

    def test_dxt2_bad_row_rejected(self, tmp_path):
        log = dxt_log()
        log.dxt.end[0] = log.dxt.start[0] - 1.0
        path = tmp_path / "row.darshan"
        path.write_bytes(with_payload(log, "dxt2", dxt2_payload(log)))
        with pytest.raises(DarshanFormatError, match="ends before it starts"):
            read_log(path)

    def test_dxt2_unknown_record_rejected(self, tmp_path):
        log = dxt_log()
        log.dxt.record_id[0] = 999
        path = tmp_path / "rid.darshan"
        path.write_bytes(with_payload(log, "dxt2", dxt2_payload(log)))
        with pytest.raises(DarshanFormatError, match="unknown record id"):
            read_log(path)

    def test_bad_utf8_name_rejected(self, tmp_path):
        payload = dict(iter_sections(sample_log()))["names"].replace(
            b"/lustre/a", b"/lustre/\xff"
        )
        path = tmp_path / "utf8.darshan"
        path.write_bytes(with_payload(sample_log(), "names", payload))
        with pytest.raises(DarshanFormatError, match="utf-8"):
            read_log(path)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_bit_flips_in_the_file(self, tmp_path, data):
        raw = bytearray(frame(list(iter_sections(dxt_log()))))
        for _ in range(data.draw(st.integers(1, 3))):
            bit = data.draw(st.integers(0, len(raw) * 8 - 1))
            raw[bit // 8] ^= 1 << (bit % 8)
        self._read_or_format_error(tmp_path, bytes(raw))

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_crc_valid_payload_damage(self, tmp_path, data):
        sections = list(iter_sections(dxt_log()))
        index = data.draw(st.integers(0, len(sections) - 1))
        name, payload = sections[index]
        payload = bytearray(payload)
        if data.draw(st.booleans()):
            del payload[data.draw(st.integers(0, len(payload))) :]
        else:
            bit = data.draw(st.integers(0, len(payload) * 8 - 1))
            payload[bit // 8] ^= 1 << (bit % 8)
        sections[index] = (name, bytes(payload))
        self._read_or_format_error(tmp_path, frame(sections))

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(count=st.integers(0, 2**32 - 1))
    def test_dxt2_count_never_mismatches_silently(self, tmp_path, count):
        log = dxt_log()
        payload = bytearray(dxt2_payload(log))
        payload[0:4] = struct.pack("<I", count)
        path = tmp_path / "count.darshan"
        path.write_bytes(with_payload(log, "dxt2", bytes(payload)))
        if count == len(log.dxt):
            assert read_log(path) == log
        else:
            with pytest.raises(DarshanFormatError):
                read_log(path)

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cut=st.integers(0, 10_000))
    def test_truncation_at_any_byte(self, tmp_path, cut):
        raw = frame(list(iter_sections(dxt_log())))
        path = tmp_path / "cut.darshan"
        path.write_bytes(raw[: cut % len(raw)])
        with pytest.raises(DarshanFormatError):
            read_log(path)
