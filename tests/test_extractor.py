"""Tests for the ION Extractor."""

from __future__ import annotations

import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.darshan.log import DarshanLog
from repro.darshan.records import (
    DxtSegment,
    DxtTable,
    JobRecord,
    ModuleRecord,
    NameRecord,
)
from repro.ion.extractor import DXT_COLUMNS, Extractor
from repro.util.csvio import read_rows, write_rows
from repro.util.errors import ExtractionError
from repro.util.units import MIB


class TestExtraction:
    def test_csv_per_module(self, easy_2k_bundle, tmp_path):
        result = Extractor().extract(easy_2k_bundle.log, tmp_path)
        assert set(result.csv_paths) == {"POSIX", "LUSTRE", "DXT"}
        for path in result.csv_paths.values():
            assert path.exists()

    def test_posix_rows_one_per_file_rank(self, easy_extraction, easy_2k_bundle):
        rows = read_rows(easy_extraction.path_for("POSIX"))
        assert len(rows) == len(easy_2k_bundle.log.records_for("POSIX")) == 4
        assert rows[0]["file"] == "/lustre/ior-easy/ior_file_easy"
        assert "POSIX_FILE_NOT_ALIGNED" in rows[0]

    def test_counter_values_survive(self, easy_extraction, easy_2k_bundle):
        rows = read_rows(easy_extraction.path_for("POSIX"))
        total_writes = sum(int(row["POSIX_WRITES"]) for row in rows)
        expected = sum(
            r.counters["POSIX_WRITES"]
            for r in easy_2k_bundle.log.records_for("POSIX")
        )
        assert total_writes == expected == 4096

    def test_dxt_rows_one_per_op(self, easy_extraction, easy_2k_bundle):
        assert easy_extraction.row_counts["DXT"] == len(
            easy_2k_bundle.log.dxt_segments
        )
        rows = read_rows(easy_extraction.path_for("DXT"))
        assert rows[0]["operation"] in ("read", "write")
        assert int(rows[0]["segment"]) == 0

    def test_dxt_segment_numbering_per_stream(self, easy_extraction):
        rows = read_rows(easy_extraction.path_for("DXT"))
        first_rank0 = [r for r in rows if r["rank"] == "0"][:3]
        assert [int(r["segment"]) for r in first_rank0] == [0, 1, 2]

    def test_system_parameters(self, easy_extraction):
        system = easy_extraction.system
        assert system["nprocs"] == 4
        assert system["rpc_size"] == 4 * MIB
        assert system["lustre_stripe_size"] == MIB
        assert system["lustre_stripe_width"] == 4
        assert system["run_time_seconds"] > 0

    def test_columns_recorded(self, easy_extraction):
        assert easy_extraction.columns["POSIX"][:3] == ["file_id", "rank", "file"]
        assert "POSIX_F_READ_TIME" in easy_extraction.columns["POSIX"]

    def test_has_module_and_path_for(self, easy_extraction):
        assert easy_extraction.has_module("POSIX")
        assert not easy_extraction.has_module("MPI-IO")
        with pytest.raises(ExtractionError):
            easy_extraction.path_for("MPI-IO")

    def test_empty_log_rejected(self, tmp_path):
        log = DarshanLog(
            job=JobRecord(job_id=1, uid=1, nprocs=1, start_time=0, end_time=1)
        )
        with pytest.raises(ExtractionError):
            Extractor().extract(log, tmp_path)

    def test_extract_file_round_trip(self, easy_2k_bundle, tmp_path):
        from repro.darshan.binformat import write_log

        log_path = write_log(easy_2k_bundle.log, tmp_path / "trace.darshan")
        result = Extractor().extract_file(log_path, tmp_path / "out")
        assert result.row_counts["POSIX"] == 4

    def test_custom_rpc_size(self, easy_2k_bundle, tmp_path):
        result = Extractor(rpc_size=16 * MIB).extract(
            easy_2k_bundle.log, tmp_path
        )
        assert result.system["rpc_size"] == 16 * MIB

    def test_mpiio_trace_extracts_mpiio_csv(self, tmp_path):
        from repro.workloads.openpmd import OpenPmdOptimized

        bundle = OpenPmdOptimized().run(scale=0.025)
        result = Extractor().extract(bundle.log, tmp_path)
        assert result.has_module("MPI-IO")
        rows = read_rows(result.path_for("MPI-IO"))
        assert any(int(r["MPIIO_COLL_WRITES"]) > 0 for r in rows)


def dict_writer_dxt_csv(log, path):
    """DXT.csv as csv.DictWriter writes it, one dict per segment."""
    index: Counter = Counter()
    rows = []
    for seg in log.dxt_segments:
        key = (seg.module, seg.record_id, seg.rank)
        rows.append(
            {
                "module": seg.module,
                "rank": seg.rank,
                "operation": seg.operation,
                "segment": index[key],
                "offset": seg.offset,
                "length": seg.length,
                "start": f"{seg.start_time:.9f}",
                "end": f"{seg.end_time:.9f}",
                "file_id": seg.record_id,
                "file": log.path_for(seg.record_id),
            }
        )
        index[key] += 1
    write_rows(path, DXT_COLUMNS, rows)
    return path.read_bytes()


def traced_log(paths, hosts=("node0",)):
    log = DarshanLog(
        job=JobRecord(job_id=1, uid=1, nprocs=2, start_time=0.0, end_time=9.0)
    )
    for record_id, path in enumerate(paths, start=1):
        log.add_name(NameRecord(record_id, path))
        log.add_record(ModuleRecord(module="POSIX", record_id=record_id, rank=0))
    now = 0.0
    for step in range(3):
        for record_id in range(1, len(paths) + 1):
            for rank in (0, 1):
                for module in ("X_MPIIO", "X_POSIX"):
                    log.add_dxt(
                        DxtSegment(
                            module, record_id, rank, ("read", "write")[step % 2],
                            step * 4096 + rank, 4096 - rank, now, now + 1 / 3,
                            hosts[(step + rank) % len(hosts)],
                        )
                    )
                    now += 0.0625
    return log


class TestDxtCsvBytes:
    """DXT.csv is byte-identical to what csv.DictWriter writes."""

    @pytest.mark.parametrize(
        "path",
        [
            "/lustre/a,b",
            '/lustre/say "hi"',
            "/lustre/two\nlines",
            "/lustre/cr\rhere",
            "/lustre/résumé/数据",
            "",
            " /lustre/padded ",
        ],
    )
    def test_awkward_paths(self, tmp_path, path):
        log = traced_log([path, "/lustre/plain"])
        result = Extractor().extract(log, tmp_path / "new")
        assert result.csv_paths["DXT"].read_bytes() == dict_writer_dxt_csv(
            log, tmp_path / "old.csv"
        )

    def test_interleaved_modules_and_hosts(self, tmp_path):
        log = traced_log(["/lustre/x", "/lustre/y"], hosts=("n0", "n1", "n2"))
        assert len(log.dxt.hostnames) == 3
        result = Extractor().extract(log, tmp_path / "new")
        assert result.row_counts["DXT"] == len(log.dxt) == 24
        assert result.csv_paths["DXT"].read_bytes() == dict_writer_dxt_csv(
            log, tmp_path / "old.csv"
        )

    @settings(max_examples=40, deadline=None)
    @given(paths=st.lists(st.text(max_size=12), min_size=1, max_size=3))
    def test_any_path_text(self, paths):
        log = traced_log(paths)
        with tempfile.TemporaryDirectory() as out:
            out = Path(out)
            result = Extractor().extract(log, out / "new")
            assert result.csv_paths["DXT"].read_bytes() == dict_writer_dxt_csv(
                log, out / "old.csv"
            )

    def test_segment_counts_per_stream(self, tmp_path):
        """``segment`` numbers each (module, file, rank) stream apart."""
        log = traced_log(["/lustre/x"])
        table = DxtTable()
        for module, rank in [("X_POSIX", 0), ("X_MPIIO", 0), ("X_POSIX", 0), ("X_POSIX", 1)]:
            table.append(module, 1, rank, "write", 0, 10, 0.0, 1.0)
        log.set_dxt(table)
        result = Extractor().extract(log, tmp_path / "new")
        rows = read_rows(result.path_for("DXT"))
        assert [int(row["segment"]) for row in rows] == [0, 0, 1, 0]

    def test_registry_trace(self, hard_bundle, tmp_path):
        log = hard_bundle.log
        result = Extractor().extract(log, tmp_path / "new")
        assert result.csv_paths["DXT"].read_bytes() == dict_writer_dxt_csv(
            log, tmp_path / "old.csv"
        )
