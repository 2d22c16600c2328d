"""Tests running the expert's generated analysis code in the sandbox.

These exercise the actual information path of the reproduction: the
code the "model" writes must compute correct metrics from real CSV
extractions.
"""

from __future__ import annotations

import json

import pytest

from repro.llm.expert import codegen
from repro.llm.interpreter import CodeInterpreter
from repro.util.units import MIB


def run_code(extraction, code):
    interpreter = CodeInterpreter(extraction.directory)
    stdout = interpreter.run_or_raise(code)
    lines = [l for l in stdout.splitlines() if l.startswith("{")]
    assert len(lines) == 1
    return json.loads(lines[0])


class TestSmallIoCode:
    def test_easy_trace_metrics(self, easy_extraction):
        metrics = run_code(
            easy_extraction,
            codegen.small_io_code(
                easy_extraction.path_for("POSIX"), 4 * MIB, MIB
            ),
        )
        assert metrics["total_ops"] == 8192
        assert metrics["small_fraction"] == 1.0
        assert metrics["tiny_fraction"] == 1.0
        assert metrics["consec_fraction"] > 0.99
        assert metrics["common_access_sizes"][0][0] == 2048
        assert metrics["ranks"] == 4
        assert metrics["files"] == 1

    def test_rpc_size_threshold_respected(self, easy_extraction):
        metrics = run_code(
            easy_extraction,
            codegen.small_io_code(
                easy_extraction.path_for("POSIX"), 1024, 1024
            ),
        )
        # With a 1 KiB "RPC", the 2 KiB ops are not small.
        assert metrics["small_fraction"] == 0.0


class TestMisalignedCode:
    def test_easy_trace_misalignment(self, easy_extraction):
        metrics = run_code(
            easy_extraction,
            codegen.misaligned_code(
                easy_extraction.path_for("POSIX"),
                easy_extraction.path_for("LUSTRE"),
                MIB,
            ),
        )
        assert metrics["misaligned_fraction"] == pytest.approx(0.998, abs=1e-3)
        assert metrics["stripe_sizes"] == [MIB]
        assert metrics["worst_file"].endswith("ior_file_easy")

    def test_works_without_lustre_csv(self, easy_extraction):
        metrics = run_code(
            easy_extraction,
            codegen.misaligned_code(
                easy_extraction.path_for("POSIX"), None, MIB
            ),
        )
        assert metrics["stripe_sizes"] == [MIB]


class TestRandomCode:
    def test_easy_trace_is_consecutive(self, easy_extraction):
        metrics = run_code(
            easy_extraction,
            codegen.random_access_code(
                easy_extraction.path_for("POSIX"),
                easy_extraction.path_for("DXT"),
            ),
        )
        assert metrics["source"] == "dxt"
        assert metrics["consecutive_fraction"] > 0.99
        assert metrics["random_fraction"] < 0.01

    def test_random_trace_detected(self, random_extraction):
        metrics = run_code(
            random_extraction,
            codegen.random_access_code(
                random_extraction.path_for("POSIX"),
                random_extraction.path_for("DXT"),
            ),
        )
        assert metrics["random_fraction"] > 0.3
        assert metrics["random_bytes_fraction"] > 0.3
        assert metrics["repeat_fraction"] < 0.2

    def test_counters_fallback(self, random_extraction):
        metrics = run_code(
            random_extraction,
            codegen.random_access_code(
                random_extraction.path_for("POSIX"), None
            ),
        )
        assert metrics["source"] == "counters"
        assert metrics["random_fraction"] > 0.3


class TestSharedFileCode:
    def test_easy_trace_not_contended(self, easy_extraction):
        metrics = run_code(
            easy_extraction,
            codegen.shared_file_code(
                easy_extraction.path_for("POSIX"),
                easy_extraction.path_for("LUSTRE"),
                easy_extraction.path_for("DXT"),
                MIB,
            ),
        )
        assert metrics["shared_files"] == 1
        assert metrics["max_ranks_per_file"] == 4
        assert metrics["contended_stripes"] == 0

    def test_random_trace_contended(self, random_extraction):
        metrics = run_code(
            random_extraction,
            codegen.shared_file_code(
                random_extraction.path_for("POSIX"),
                random_extraction.path_for("LUSTRE"),
                random_extraction.path_for("DXT"),
                MIB,
            ),
        )
        assert metrics["contended_stripes"] > 0
        assert metrics["contended_fraction"] > 0.5
        assert metrics["max_ranks_per_stripe"] >= 3

    def test_fallback_without_dxt(self, random_extraction):
        metrics = run_code(
            random_extraction,
            codegen.shared_file_code(
                random_extraction.path_for("POSIX"),
                random_extraction.path_for("LUSTRE"),
                None,
                MIB,
            ),
        )
        assert metrics["shared_files"] == 1
        assert not metrics["dxt_available"]


#: A path that a comma-splitting parser would cut into three cells.
_AWKWARD_PATH = '/scratch/run,1/"out".h5'


@pytest.fixture()
def hand_built_dxt(tmp_path):
    """A DXT.csv whose columns are out of extractor order.

    One file, shared by ranks 0 and 1; rank 0 writes two consecutive
    blocks then reads back inside them, rank 1 writes one block inside
    rank 0's first stripe (256 bytes) while rank 0 writes, then one
    strided block.  The MPI-IO row must be ignored.
    """
    quoted = '"' + _AWKWARD_PATH.replace('"', '""') + '"'
    (tmp_path / "POSIX.csv").write_text(
        f"file_id,rank,file\r\n7,0,{quoted}\r\n7,1,{quoted}\r\n"
    )
    rows = [
        ("X_POSIX", 0, "write", 0, 100, 0.0, 1.0),
        ("X_POSIX", 0, "write", 100, 100, 1.0, 2.0),
        ("X_POSIX", 0, "read", 50, 10, 2.0, 2.5),
        ("X_POSIX", 1, "write", 200, 100, 0.5, 1.5),
        ("X_POSIX", 1, "write", 600, 100, 1.5, 2.5),
        ("X_MPIIO", 0, "write", 0, 1000, 0.0, 3.0),
    ]
    lines = ["file,end,length,rank,segment,file_id,start,offset,operation,module"]
    for index, (module, rank, op, offset, length, start, end) in enumerate(rows):
        lines.append(
            f"{quoted},{end:.9f},{length},{rank},{index},7,{start:.9f},"
            f"{offset},{op},{module}"
        )
    (tmp_path / "DXT.csv").write_text("\r\n".join(lines) + "\r\n")
    return tmp_path


class TestHandBuiltDxt:
    """The two DXT snippets find columns by header name, not position."""

    def test_random_access_snippet(self, hand_built_dxt):
        code = codegen.random_access_code(
            hand_built_dxt / "POSIX.csv", hand_built_dxt / "DXT.csv"
        )
        stdout = CodeInterpreter(hand_built_dxt).run_or_raise(code)
        assert json.loads(stdout) == {
            "source": "dxt",
            "classified_ops": 3,
            "consecutive_fraction": 0.333333,
            "strided_fraction": 0.333333,
            "random_fraction": 0.333333,
            "random_ops": 1,
            "repeat_ops": 0,
            "repeat_fraction": 0.0,
            "random_reads": 1,
            "random_writes": 0,
            "total_reads": 1,
            "total_writes": 4,
            "random_read_fraction": 1.0,
            "random_write_fraction": 0.0,
            "random_bytes": 10,
            "total_bytes": 410,
            "random_bytes_fraction": 0.02439,
            "ranks_with_random": 1,
            "max_random_per_rank": 1,
            "mean_random_per_rank": 1.0,
        }

    def test_shared_file_snippet(self, hand_built_dxt):
        code = codegen.shared_file_code(
            hand_built_dxt / "POSIX.csv", None, hand_built_dxt / "DXT.csv", 256
        )
        stdout = CodeInterpreter(hand_built_dxt).run_or_raise(code)
        assert json.loads(stdout) == {
            "shared_files": 1,
            "shared_file_names": [_AWKWARD_PATH],
            "max_ranks_per_file": 2,
            "dxt_available": True,
            "shared_ops": 5,
            "contended_stripes": 1,
            "contended_ops": 4,
            "contended_fraction": 0.8,
            "max_ranks_per_stripe": 2,
            "boundary_only": True,
        }


class TestLoadAndRankZeroCode:
    def test_balanced_trace(self, easy_extraction):
        metrics = run_code(
            easy_extraction,
            codegen.load_imbalance_code(easy_extraction.path_for("POSIX")),
        )
        assert metrics["ranks"] == 4
        assert metrics["byte_imbalance"] < 0.01

    def test_rank_zero_clean(self, easy_extraction):
        metrics = run_code(
            easy_extraction,
            codegen.rank_zero_code(easy_extraction.path_for("POSIX")),
        )
        assert metrics["rank0_bytes_share"] == pytest.approx(0.25, abs=0.01)
        assert metrics["rank0_byte_ratio"] == pytest.approx(1.0, abs=0.05)


class TestInterfaceCode:
    def test_no_mpiio_detected(self, easy_extraction):
        metrics = run_code(
            easy_extraction,
            codegen.no_mpiio_code(easy_extraction.path_for("POSIX"), None, 4),
        )
        assert metrics["posix_ranks"] == 4
        assert not metrics["uses_mpiio"]

    def test_no_collective_without_mpiio_csv(self, easy_extraction):
        metrics = run_code(
            easy_extraction, codegen.no_collective_code(None, 4)
        )
        assert not metrics["mpiio_present"]

    def test_metadata_quiet_on_easy(self, easy_extraction):
        metrics = run_code(
            easy_extraction,
            codegen.metadata_code(easy_extraction.path_for("POSIX"), None),
        )
        assert metrics["meta_ratio"] < 0.01
        assert metrics["opens_per_file"] == pytest.approx(1.0)
