"""Tests for the ion, ion-batch and drishti-repro command-line interfaces."""

from __future__ import annotations

import json

import pytest

from repro.darshan.binformat import write_log
from repro.drishti import cli as drishti_cli
from repro.ion import cli as ion_cli
from repro.journey import cli as journey_cli
from repro.service import cli as batch_cli


@pytest.fixture(scope="module")
def trace_path(easy_2k_bundle, tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-traces")
    return str(write_log(easy_2k_bundle.log, directory / "easy.darshan"))


#: Flag dest -> (default, choices), the same on every pipeline CLI.
SHARED_FLAGS = {
    "strategy": ("divide", ("divide", "monolithic")),
    "max_attempts": (None, None),
    "query_deadline": (None, None),
    "inject_faults": (None, None),
    "guard": ("enforce", ("off", "warn", "enforce")),
    "trace_out": (None, None),
    "metrics_out": (None, None),
}


@pytest.mark.parametrize(
    "cli", [ion_cli, batch_cli, journey_cli], ids=["ion", "batch", "journey"]
)
def test_shared_pipeline_flags(cli):
    actions = {action.dest: action for action in cli.build_parser()._actions}
    shared = {
        dest: (actions[dest].default, actions[dest].choices)
        for dest in SHARED_FLAGS
    }
    assert shared == SHARED_FLAGS


class TestIonCli:
    def test_basic_run(self, trace_path, capsys):
        assert ion_cli.main([trace_path]) == 0
        out = capsys.readouterr().out
        assert "ION diagnosis report" in out
        assert "Misaligned I/O" in out
        assert "Global summary" in out

    def test_show_code(self, trace_path, capsys):
        assert ion_cli.main([trace_path, "--show-code"]) == 0
        assert "import csv" in capsys.readouterr().out

    def test_ask_question(self, trace_path, capsys):
        assert ion_cli.main(
            [trace_path, "--ask", "how many misaligned operations?"]
        ) == 0
        out = capsys.readouterr().out
        assert "Q: how many misaligned operations?" in out
        assert "A:" in out

    def test_no_context_flag(self, trace_path, capsys):
        assert ion_cli.main([trace_path, "--no-context"]) == 0
        out = capsys.readouterr().out
        assert "no specific diagnosis" in out

    def test_monolithic_strategy(self, trace_path, capsys):
        assert ion_cli.main([trace_path, "--strategy", "monolithic"]) == 0
        assert "ION diagnosis report" in capsys.readouterr().out

    def test_missing_file_errors(self, capsys, tmp_path):
        assert ion_cli.main([str(tmp_path / "nope.darshan")]) == 1
        assert "error" in capsys.readouterr().err

    def test_workdir_option(self, trace_path, tmp_path, capsys):
        workdir = tmp_path / "csvs"
        assert ion_cli.main([trace_path, "--workdir", str(workdir)]) == 0
        assert (workdir / "easy" / "POSIX.csv").exists()


class TestIonBatchCli:
    def test_multi_trace_campaign_with_cache(self, trace_path, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = [trace_path, trace_path, "--workers", "2",
                "--cache-dir", cache_dir]
        assert batch_cli.main(argv) == 0
        first = capsys.readouterr().out
        assert "Campaign summary" in first
        assert "2/2 traces diagnosed" in first

        # Second invocation over the same cache dir: all hits.
        assert batch_cli.main(argv) == 0
        second = capsys.readouterr().out
        assert "cache hit rate 100%" in second
        assert "2 hit(s)" in second

    def test_workload_traces_and_json_summary(self, tmp_path, capsys):
        out_json = tmp_path / "summary.json"
        assert batch_cli.main(
            ["--workload", "ior-easy-2k-shared", "--scale", "1.0",
             "--workers", "1", "--json", str(out_json)]
        ) == 0
        assert "1/1 traces diagnosed" in capsys.readouterr().out
        payload = json.loads(out_json.read_text())
        assert payload["traces"][0]["ok"]
        assert payload["traces"][0]["issue_count"] >= 1
        assert payload["traces"][0]["report"]["trace_name"] == (
            "ior-easy-2k-shared"
        )
        assert payload["metrics"]["extractor.extractions"] == 1

    def test_reports_flag_prints_full_reports(self, trace_path, capsys):
        assert batch_cli.main([trace_path, "--reports"]) == 0
        assert "ION diagnosis report" in capsys.readouterr().out

    def test_no_traces_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            batch_cli.main([])
        assert "no traces" in capsys.readouterr().err

    def test_cache_size_without_dir_is_a_usage_error(self, trace_path, capsys):
        with pytest.raises(SystemExit):
            batch_cli.main([trace_path, "--cache-size", "1M"])
        assert "--cache-dir" in capsys.readouterr().err

    def test_failed_trace_yields_exit_code_1(self, trace_path, tmp_path, capsys):
        missing = str(tmp_path / "missing.darshan")
        assert batch_cli.main([trace_path, missing]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "1/2 traces diagnosed" in out


class TestDrishtiCli:
    def test_basic_run(self, trace_path, capsys):
        assert drishti_cli.main([trace_path]) == 0
        out = capsys.readouterr().out
        assert "DRISHTI report" in out
        assert "[HIGH]" in out

    def test_threshold_options(self, trace_path, capsys):
        assert drishti_cli.main(
            [trace_path, "--small-size", "1k", "--small-ratio", "0.5"]
        ) == 0
        out = capsys.readouterr().out
        # With a 1 KiB small-size threshold, 2 KiB ops are not small.
        assert "small write requests" not in out.split("[WARN]")[0]

    def test_missing_file_errors(self, capsys, tmp_path):
        assert drishti_cli.main([str(tmp_path / "nope.darshan")]) == 1
        assert "error" in capsys.readouterr().err
