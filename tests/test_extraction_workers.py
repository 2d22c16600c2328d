"""Extraction workers: a cache miss on a log file is parsed and
extracted in a pre-started worker process, not in the caller.

Pins what the move keeps: the ``extractor.extract`` span, nested in
``cache.lookup`` and carrying the worker's CPU, queue wait and read
time; the batch outcome of a bad log; a killed worker failing only its
job; a forked child starting workers of its own; no extraction worker
for work without a cache; a boot that imports only what the worker
uses; and no worker left once ``ion-batch`` exits.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.darshan.binformat import LogFile, write_log
from repro.ion.extractor import Extractor
from repro.ion.pipeline import IoNavigator
from repro.journey.executor import JourneyConfig, JourneyNavigator
from repro.obs.export import load_spans
from repro.service import cache as cache_module
from repro.service import cli as batch_cli
from repro.service.batch import BatchConfig, BatchNavigator
from repro.service.cache import ExtractionCache
from repro.workloads import make_workload

from tests.test_batch_service import broken_log, make_fleet

POOL = cache_module._EXTRACTORS
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def log_paths(tmp_path_factory):
    """Three small distinct log files."""
    directory = tmp_path_factory.mktemp("worker-logs")
    return [
        write_log(bundle.log, directory / f"{bundle.name}.darshan")
        for bundle in make_fleet(3)
    ]


def worker_pids() -> set[int]:
    return {worker.process.pid for worker in POOL._workers}


def campaign(paths, cache=None, workers=1):
    with BatchNavigator(
        config=BatchConfig(max_workers=workers), cache=cache
    ) as batch:
        return batch.run_files(paths)


class TestErrors:
    @pytest.fixture()
    def bad_logs(self, tmp_path, log_paths):
        truncated = tmp_path / "truncated.darshan"
        truncated.write_bytes(log_paths[0].read_bytes()[:200])
        empty = write_log(broken_log(), tmp_path / "no-modules.darshan")
        return [truncated, empty]

    def test_a_workers_error_reads_as_in_process(self, tmp_path, bad_logs):
        in_process = campaign(bad_logs)
        cached = campaign(bad_logs, ExtractionCache(tmp_path / "cache"))
        errors = [outcome.error for outcome in cached.outcomes]
        assert errors == [outcome.error for outcome in in_process.outcomes]
        assert errors[0].startswith("DarshanFormatError: ")
        assert errors[1] == (
            "ExtractionError: log contains no module records to extract"
        )

    def test_an_error_keeps_its_worker(self, tmp_path, bad_logs, log_paths):
        campaign(log_paths[:1], ExtractionCache(tmp_path / "warm"))
        before = worker_pids()
        campaign(bad_logs, ExtractionCache(tmp_path / "cache"))
        assert worker_pids() == before

    def test_a_killed_worker_fails_only_its_job(self, tmp_path, log_paths):
        POOL.shutdown()
        POOL._start()
        assert all(worker.boot() for worker in POOL._workers)
        # Idle workers queue first in, first out: this one serves next.
        victim = POOL._workers[0]
        victim.process.kill()
        victim.process.wait()
        summary = campaign(log_paths[:2], ExtractionCache(tmp_path / "cache"))
        assert [outcome.error for outcome in summary.outcomes] == [
            "ChildProcessError: the extraction worker died (exit code -9)",
            None,
        ]
        assert victim not in POOL._workers
        assert len(POOL._workers) == len(os.sched_getaffinity(0))
        again = campaign(log_paths[:1], ExtractionCache(tmp_path / "cache"))
        assert again.outcomes[0].ok and not again.outcomes[0].cache_hit


class TestPoolScope:
    def test_a_forked_child_starts_its_own_workers(self, tmp_path, log_paths):
        cache = ExtractionCache(tmp_path / "parent")
        cache.get_or_extract(LogFile(log_paths[0]), Extractor())
        parents = worker_pids()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # the child: report through the exit code only
            code = 1
            try:
                child = ExtractionCache(tmp_path / "child")
                _, hit = child.get_or_extract(LogFile(log_paths[1]), Extractor())
                mine = worker_pids()
                code = 0 if not hit and mine and not mine & parents else 2
                POOL.shutdown()
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert worker_pids() == parents
        _, hit = cache.get_or_extract(LogFile(log_paths[1]), Extractor())
        assert not hit

    def test_work_without_a_file_miss_starts_no_worker(
        self, tmp_path, log_paths, monkeypatch
    ):
        class Refusing:
            def lease(self):
                raise AssertionError("an extraction worker was asked for")

        monkeypatch.setattr(cache_module, "_EXTRACTORS", Refusing())
        with IoNavigator() as navigator:
            assert navigator.diagnose(log_paths[0]).report.diagnoses
        bundle = make_fleet(1)[0]
        with IoNavigator(cache=ExtractionCache(tmp_path / "cache")) as navigator:
            assert not navigator.diagnose(bundle.log).cache_hit
        with JourneyNavigator(journey_config=JourneyConfig(max_steps=1)) as navigator:
            report = navigator.navigate(make_workload("ior-easy-2k-shared"))
        assert report.steps


class TestCli:
    def test_a_cached_batch_nests_each_extraction_in_its_lookup(
        self, tmp_path, log_paths, capsys
    ):
        trace = tmp_path / "trace.json"
        argv = [*map(str, log_paths), "--workers", "2",
                "--cache-dir", str(tmp_path / "cache"), "--trace-out", str(trace)]
        assert batch_cli.main(argv) == 0
        capsys.readouterr()
        spans = load_spans(trace)
        by_id = {span.span_id: span for span in spans}
        assert all(s.parent_id is None or s.parent_id in by_id for s in spans)
        extractions = [s for s in spans if s.name == "extractor.extract"]
        assert len(extractions) == len(log_paths)
        for span in extractions:
            assert by_id[span.parent_id].name == "cache.lookup"
            assert span.attributes["rows"] > 0
            assert span.attributes["worker_cpu_s"] > 0
            assert span.attributes["read_log_s"] > 0
            assert span.attributes["queue_wait_s"] >= 0
            assert [e.name for e in span.events] == ["csv.emit"] * (
                span.attributes["modules"]
            )

    def test_a_workers_boot_imports_only_what_it_uses(self):
        # The package __init__s import their names lazily, so booting a
        # worker does not import the analyzer, the batch service or the
        # expert model.
        script = (
            "import sys, repro.service.cache, repro.llm.interpreter; "
            "print(' '.join(sorted(sys.modules)))"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        imported = set(done.stdout.split())
        assert "repro.service.cache" in imported
        for heavy in ("repro.ion.analyzer", "repro.service.batch",
                      "repro.llm.expert.model", "repro.drishti.analyzer"):
            assert heavy not in imported, heavy

    def test_ion_batch_leaves_no_worker_behind(self, tmp_path, log_paths):
        # The child prints its workers' pids at the end of main; they
        # must all be gone once it has exited.
        script = (
            "import sys; from repro.service import cli, cache; "
            "from repro.llm import interpreter; "
            "code = cli.main(sys.argv[1:]); "
            "pools = cache._EXTRACTORS._workers + interpreter._POOL._workers; "
            "print([w.process.pid for w in pools]); sys.exit(code)"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, *map(str, log_paths), "--workers",
             "2", "--cache-dir", str(tmp_path / "cache")],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        pids = json.loads(done.stdout.strip().splitlines()[-1])
        assert len(pids) == 2 * len(os.sched_getaffinity(0))
        for pid in pids:
            assert not Path(f"/proc/{pid}").exists(), pid
