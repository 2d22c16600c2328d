"""The run memo: clean sandbox runs in sealed directories execute once.

Every test counts dispatches to the worker pool by wrapping
``_POOL.run``, so "executed" means a worker really ran the snippet.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import sys
import threading

import pytest

from repro.evaluation.experiments import DEFAULT_SCALES
from repro.ion.extractor import Extractor
from repro.ion.pipeline import IoNavigator
from repro.ion.serialize import report_to_dict
from repro.llm import interpreter as interpreter_module
from repro.llm.faults import FaultKind, FaultPlan, FaultyCodeInterpreter
from repro.llm.interpreter import (
    CodeInterpreter,
    seal_directory,
    unseal_directories,
)
from repro.sca.policy import SANDBOX_POLICY
from repro.service.batch import BatchConfig, BatchNavigator
from repro.service.cache import ExtractionCache
from repro.util.metrics import MetricsRegistry
from repro.workloads.registry import make_workload

READ = "print(open('data.csv').read().count('\\n'))"

#: Passes CodeGuard and runs for seconds: a tiny wall budget kills it.
SLOW = "total = 0\nfor i in range(int('3' * 8)):\n    total += i\nprint(total)"


@pytest.fixture()
def dispatches(monkeypatch):
    """The jobs sent to the worker pool during the test."""
    jobs = []
    real = interpreter_module._POOL.run

    def counting(job, policy):
        jobs.append(job)
        return real(job, policy)

    monkeypatch.setattr(interpreter_module._POOL, "run", counting)
    return jobs


@pytest.fixture()
def sealed(tmp_path):
    """A sealed directory holding ``data.csv``."""
    (tmp_path / "data.csv").write_text("a,b\n1,2\n3,4\n")
    seal_directory(tmp_path)
    yield tmp_path
    unseal_directories([tmp_path])


class TestRunMemo:
    def test_repeat_in_a_sealed_dir_dispatches_nothing(self, sealed, dispatches):
        metrics = MetricsRegistry()
        interpreter = CodeInterpreter(sealed, metrics=metrics)
        first = interpreter.run(READ)
        second = interpreter.run(READ)
        assert first.ok and first.stdout == "3\n"
        assert second == first
        assert len(dispatches) == 1
        assert metrics.counter_value("sandbox.memo.hits") == 1
        # Another interpreter over the same sealed dir shares the memo.
        assert CodeInterpreter(sealed).run(READ) == first
        assert len(dispatches) == 1

    def test_key_covers_code_workdir_and_output_limit(self, sealed, dispatches):
        CodeInterpreter(sealed).run(READ)
        CodeInterpreter(sealed).run(READ + "\n")
        CodeInterpreter(sealed, output_limit=10).run(READ)
        CodeInterpreter(os.path.relpath(sealed)).run(READ)
        assert len(dispatches) == 4

    def test_a_symlinked_workdir_executes_every_time(
        self, sealed, dispatches, tmp_path_factory
    ):
        # Seals are held under resolved paths and the memo looks runs up
        # by the absolute path, so a symlink misses the memo and runs.
        link = tmp_path_factory.mktemp("links") / "entry"
        link.symlink_to(sealed)
        for _ in range(2):
            assert CodeInterpreter(link).run(READ).stdout == "3\n"
        assert len(dispatches) == 2

    def test_unsealed_dir_runs_every_time(self, tmp_path, dispatches):
        (tmp_path / "data.csv").write_text("a,b\n1,2\n")
        interpreter = CodeInterpreter(tmp_path)
        assert interpreter.run(READ).stdout == "2\n"
        (tmp_path / "data.csv").write_text("a,b\n1,2\n3,4\n5,6\n")
        assert interpreter.run(READ).stdout == "4\n"
        assert len(dispatches) == 2

    def test_failing_snippet_reexecutes(self, sealed, dispatches):
        interpreter = CodeInterpreter(sealed)
        for _ in range(2):
            result = interpreter.run("print('x')\n1 / 0")
            assert result.error.splitlines()[-1].startswith("ZeroDivisionError")
        assert len(dispatches) == 2

    def test_killed_snippet_reexecutes(self, sealed, dispatches, monkeypatch):
        monkeypatch.setattr(
            interpreter_module,
            "SANDBOX_POLICY",
            dataclasses.replace(SANDBOX_POLICY, run_wall_seconds=0.05),
        )
        interpreter = CodeInterpreter(sealed)
        for _ in range(2):
            result = interpreter.run(SLOW)
            assert "TimeoutError" in result.error
        assert len(dispatches) == 2

    def test_blocked_snippet_is_vetted_on_every_call(self, sealed, dispatches):
        metrics = MetricsRegistry()
        interpreter = CodeInterpreter(sealed, metrics=metrics)
        for _ in range(3):
            result = interpreter.run("import os\nprint(os.getcwd())")
            assert result.guard_blocked
        assert not dispatches
        assert metrics.counter_value("sca.vet.checks") == 3
        assert metrics.counter_value("sca.vet.rejected") == 3
        assert metrics.counter_value("sandbox.memo.hits") == 0

    def test_vetting_precedes_a_memo_hit(self, sealed, dispatches):
        metrics = MetricsRegistry()
        interpreter = CodeInterpreter(sealed, metrics=metrics)
        interpreter.run(READ)
        interpreter.run(READ)
        assert metrics.counter_value("sca.vet.checks") == 2
        assert metrics.counter_value("sandbox.memo.hits") == 1

    def test_guard_off_run_is_not_served_to_an_enforcing_guard(
        self, sealed, dispatches
    ):
        # Blocked by the static range cap, but clean at run time.
        code = "for i in range(10 ** 12):\n    break\nprint('ran')"
        assert CodeInterpreter(sealed, guard="off").run(code).stdout == "ran\n"
        enforcing = CodeInterpreter(sealed).run(code)
        assert enforcing.guard_blocked
        assert len(dispatches) == 1

    def test_fault_shim_injects_on_a_memo_hit(self, sealed, dispatches):
        inner = CodeInterpreter(sealed)
        assert inner.run(READ).ok
        shim = FaultyCodeInterpreter(
            inner, FaultPlan.script([FaultKind.TRANSIENT, None])
        )
        faulted = shim.run(READ)
        assert faulted.error == "[injected fault] execution backend unavailable"
        assert shim.run(READ).stdout == "3\n"
        assert len(dispatches) == 1

    def test_run_finishing_after_unseal_is_not_stored(self, sealed, monkeypatch):
        real = interpreter_module._POOL.run

        def unsealing(job, policy):
            unseal_directories([sealed])
            return real(job, policy)

        monkeypatch.setattr(interpreter_module._POOL, "run", unsealing)
        assert CodeInterpreter(sealed).run(READ).ok
        root = str(sealed.resolve())
        assert not any(key[0] == root for key in interpreter_module._MEMO._runs)

    def test_unsealing_forgets_the_runs(self, sealed, dispatches):
        interpreter = CodeInterpreter(sealed)
        interpreter.run(READ)
        unseal_directories([sealed])
        (sealed / "data.csv").write_text("a,b\n")
        assert interpreter.run(READ).stdout == "1\n"
        seal_directory(sealed)
        assert interpreter.run(READ).stdout == "1\n"
        assert interpreter.run(READ).stdout == "1\n"
        assert len(dispatches) == 3

    def test_eviction_unseals_and_a_resealed_entry_executes_again(
        self, tmp_path, dispatches, easy_2k_bundle, random_bundle
    ):
        extractor = Extractor()
        # A one-byte budget holds only the newest entry.
        cache = ExtractionCache(tmp_path / "cache", max_bytes=1)
        code = "print(WORKDIR[-8:])"
        first, _ = cache.get_or_extract(easy_2k_bundle.log, extractor)
        CodeInterpreter(first.directory).run(code)
        CodeInterpreter(first.directory).run(code)
        assert len(dispatches) == 1

        cache.get_or_extract(random_bundle.log, extractor)
        assert cache.stats.evictions == 1
        root = str(first.directory.resolve())
        assert not any(key[0] == root for key in interpreter_module._MEMO._runs)
        again, hit = cache.get_or_extract(easy_2k_bundle.log, extractor)
        assert not hit and again.directory == first.directory
        CodeInterpreter(again.directory).run(code)
        CodeInterpreter(again.directory).run(code)
        assert len(dispatches) == 2

    def test_clear_unseals(self, tmp_path, dispatches, easy_2k_bundle):
        extractor = Extractor()
        cache = ExtractionCache(tmp_path / "cache")
        extraction, _ = cache.get_or_extract(easy_2k_bundle.log, extractor)
        CodeInterpreter(extraction.directory).run("print(1)")
        cache.clear()
        extraction.directory.mkdir(parents=True)
        CodeInterpreter(extraction.directory).run("print(1)")
        assert len(dispatches) == 2

    def test_collecting_the_cache_unseals(self, tmp_path, dispatches, easy_2k_bundle):
        cache = ExtractionCache(tmp_path / "cache")
        extraction, _ = cache.get_or_extract(easy_2k_bundle.log, Extractor())
        CodeInterpreter(extraction.directory).run("print(1)")
        del cache
        gc.collect()
        CodeInterpreter(extraction.directory).run("print(1)")
        assert len(dispatches) == 2

    def test_memo_is_bounded_by_stdout_bytes(self, sealed, dispatches, monkeypatch):
        memo = interpreter_module._RunMemo(max_bytes=10)
        monkeypatch.setattr(interpreter_module, "_MEMO", memo)
        memo.seal(str(sealed.resolve()))
        interpreter = CodeInterpreter(sealed)
        interpreter.run("print('a' * 5)")  # 6 bytes
        interpreter.run("print('b' * 5)")  # 12 bytes: drops the 'a' run
        interpreter.run("print('b' * 5)")
        interpreter.run("print('a' * 5)")
        assert len(dispatches) == 3

    def test_concurrent_use_keeps_the_byte_count(self):
        """Threads sealing, storing, reading and unsealing lose no update."""
        memo = interpreter_module._RunMemo(max_bytes=64)
        roots = [f"/sealed/{index}" for index in range(3)]
        errors = []

        def worker(seed: int) -> None:
            try:
                for step in range(2000):
                    root = roots[(seed + step) % len(roots)]
                    if step % 50 == seed:
                        memo.unseal({root})
                    memo.seal(root)
                    code = f"print({step % 40})"
                    key = memo.key(code, root, root, 100)
                    if key is None:
                        continue
                    stored = memo.get(key)
                    if stored is None:
                        memo.put(key, f"{root}:{code}\n")
                    elif stored != f"{root}:{code}\n":
                        errors.append((key, stored))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,)) for seed in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        sizes = [size for _, size in memo._runs.values()]
        assert memo._bytes == sum(sizes) <= 64


#: Registry traces for the end-to-end check: each carries DXT.
CAMPAIGN = ("ior-hard", "ior-rnd4k", "md-workbench")


def _normalized(report, directory) -> dict:
    """``report_to_dict`` with the extraction dir (quoted in code) masked.

    The encoding carries no timing fields, so nothing else differs.
    """
    text = json.dumps(report_to_dict(report), sort_keys=True)
    return json.loads(text.replace(str(directory), "<dir>"))


class TestCachedCampaign:
    def test_second_submissions_execute_no_snippet(self, tmp_path, dispatches):
        bundles = [
            make_workload(name).run(scale=DEFAULT_SCALES[name]) for name in CAMPAIGN
        ]
        traces = [(bundle.name, bundle.log) for bundle in bundles]
        metrics = MetricsRegistry()
        cache = ExtractionCache(tmp_path / "cache", metrics=metrics)
        with BatchNavigator(
            config=BatchConfig(max_workers=2), cache=cache, metrics=metrics
        ) as batch:
            first = batch.run(traces)
            first_runs = len(dispatches)
            second = batch.run(traces)
        assert first_runs > 0
        assert len(dispatches) == first_runs
        assert metrics.counter_value("sandbox.memo.hits") == first_runs
        assert all(outcome.cache_hit for outcome in second.outcomes)

        expected = {}
        with IoNavigator() as navigator:
            for name, log in traces:
                result = navigator.diagnose(log, name)
                expected[name] = _normalized(
                    result.report, result.extraction.directory
                )
        for outcome in first.outcomes + second.outcomes:
            assert outcome.ok, outcome.error
            assert (
                _normalized(outcome.report, outcome.extraction.directory)
                == expected[outcome.name]
            )
