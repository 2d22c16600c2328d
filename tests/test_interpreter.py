"""Tests for the sandboxed code interpreter."""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from pathlib import Path

import pytest

from repro.llm import interpreter as interpreter_module
from repro.llm.interpreter import (
    CodeInterpreter,
    seal_directory,
    unseal_directories,
)
from repro.obs.trace import Tracer
from repro.sca.policy import SANDBOX_POLICY
from repro.util.errors import CodeInterpreterError

#: Passes CodeGuard (the bound is not a literal) and would run for hours.
RUNAWAY = "for i in range(int('9' * 12)):\n    pass"


def shrink_budgets(monkeypatch, **budgets) -> None:
    """Run the sandbox under a policy with smaller per-run budgets."""
    monkeypatch.setattr(
        interpreter_module,
        "SANDBOX_POLICY",
        dataclasses.replace(SANDBOX_POLICY, **budgets),
    )


def last_line(result) -> str:
    return result.error.splitlines()[-1]


@pytest.fixture()
def interpreter(tmp_path):
    (tmp_path / "data.csv").write_text("a,b\n1,2\n3,4\n")
    return CodeInterpreter(tmp_path)


@pytest.fixture()
def runtime_only(tmp_path):
    """An interpreter with static vetting off.

    The runtime-sandbox tests target the *second* containment layer
    (guarded import/open/builtins); with the default enforce guard the
    static layer would reject these snippets before execution.
    """
    (tmp_path / "data.csv").write_text("a,b\n1,2\n3,4\n")
    return CodeInterpreter(tmp_path, guard="off")


class TestExecution:
    def test_print_captured(self, interpreter):
        result = interpreter.run("print('hello', 42)")
        assert result.ok
        assert result.stdout == "hello 42\n"

    def test_csv_and_json_available(self, interpreter):
        code = (
            "import csv, json\n"
            "with open('data.csv') as fh:\n"
            "    rows = list(csv.DictReader(fh))\n"
            "print(json.dumps({'count': len(rows)}))\n"
        )
        result = interpreter.run(code)
        assert result.ok
        assert '"count": 2' in result.stdout

    def test_relative_paths_resolve_to_workdir(self, interpreter):
        result = interpreter.run("print(open('data.csv').readline().strip())")
        assert result.stdout == "a,b\n"

    def test_runtime_error_reported_as_traceback(self, interpreter):
        result = interpreter.run("x = 1 / 0")
        assert not result.ok
        assert "ZeroDivisionError" in result.error

    def test_syntax_error_reported(self, interpreter):
        result = interpreter.run("def broken(:")
        assert not result.ok
        assert "SyntaxError" in result.error

    def test_run_or_raise(self, interpreter):
        assert interpreter.run_or_raise("print('x')") == "x\n"
        with pytest.raises(CodeInterpreterError):
            interpreter.run_or_raise("raise ValueError('boom')")

    def test_output_clipped(self, tmp_path):
        interpreter = CodeInterpreter(tmp_path, output_limit=100)
        result = interpreter.run("print('y' * 1000)")
        assert result.ok
        assert len(result.stdout) < 200
        assert "truncated" in result.stdout


class TestSandboxing:
    """The runtime containment layer, with static vetting disabled."""

    def test_disallowed_import_blocked(self, runtime_only):
        result = runtime_only.run("import os")
        assert not result.ok
        assert "ImportError" in result.error

    def test_subimport_blocked(self, runtime_only):
        result = runtime_only.run("import os.path")
        assert not result.ok

    def test_allowed_imports_work(self, runtime_only):
        result = runtime_only.run(
            "import math, statistics, itertools, re\nprint(math.pi > 3)"
        )
        assert result.ok

    def test_write_mode_blocked(self, runtime_only):
        result = runtime_only.run("open('data.csv', 'w')")
        assert not result.ok
        assert "PermissionError" in result.error

    def test_append_mode_blocked(self, runtime_only):
        assert not runtime_only.run("open('x', 'a')").ok

    def test_path_escape_blocked(self, runtime_only):
        result = runtime_only.run("open('../outside.txt')")
        assert not result.ok
        assert "PermissionError" in result.error

    def test_absolute_escape_blocked(self, runtime_only):
        result = runtime_only.run("open('/etc/hostname')")
        assert not result.ok

    def test_eval_exec_removed(self, runtime_only):
        assert not runtime_only.run("eval('1+1')").ok
        assert not runtime_only.run("exec('x=1')").ok

    def test_dunder_import_removed(self, runtime_only):
        assert not runtime_only.run("__import__('os')").ok


class TestWorkdirSpelling:
    """The worker resolves the working directory; the caller never does."""

    @pytest.fixture(params=["symlink", "relative"])
    def spelled(self, request, tmp_path, monkeypatch):
        """``(workdir as the caller spells it, its real directory)``."""
        real = tmp_path / "real"
        real.mkdir()
        (real / "data.csv").write_text("a,b\n1,2\n")
        (tmp_path / "x").write_text("outside\n")
        if request.param == "symlink":
            (tmp_path / "link").symlink_to(real)
            return str(tmp_path / "link"), real
        monkeypatch.chdir(tmp_path)
        return "real", real

    def test_the_snippet_reads_its_csvs_and_sees_workdir_as_spelled(
        self, spelled
    ):
        workdir, _ = spelled
        result = CodeInterpreter(workdir).run(
            "print(open('data.csv').readline().strip(), WORKDIR)"
        )
        assert result.stdout == f"a,b {workdir}\n"

    def test_paths_outside_the_root_are_refused(self, spelled, tmp_path):
        workdir, _ = spelled
        interpreter = CodeInterpreter(workdir, guard="off")
        for target in ("../x", str(tmp_path / "x")):
            result = interpreter.run(f"print(open({target!r}).read())")
            assert last_line(result).startswith("PermissionError"), target

    def test_a_run_resolves_no_path_in_the_caller(self, spelled, monkeypatch):
        workdir, real = spelled
        seal_directory(real)
        interpreter = CodeInterpreter(real)
        resolved = []
        resolve = Path.resolve

        def counting(path, *args, **kwargs):
            resolved.append(path)
            return resolve(path, *args, **kwargs)

        monkeypatch.setattr(Path, "resolve", counting)
        try:
            for directory in (workdir, real, real):  # the last is a memo hit
                result = CodeInterpreter(directory).run("print(1)")
                assert result.stdout == "1\n"
        finally:
            monkeypatch.undo()
            unseal_directories([real])
        assert resolved == []


class TestUndecodableSnippets:
    """A lone surrogate is an error the model sees, never a crash."""

    SNIPPET = "text = '\udc80'\nprint(1)"

    @staticmethod
    def worker_pids() -> set[int]:
        return {w.process.pid for w in interpreter_module._POOL._workers}

    @pytest.mark.parametrize("sealed", [False, True])
    def test_is_a_traceback_and_the_worker_survives(self, tmp_path, sealed):
        interpreter = CodeInterpreter(tmp_path)
        interpreter.run("print(0)")  # the pool is up
        before = self.worker_pids()
        if sealed:
            seal_directory(tmp_path)
        try:
            for _ in range(2):
                result = interpreter.run(self.SNIPPET)
                assert result.error.startswith("Traceback")
                assert last_line(result).startswith("UnicodeEncodeError")
            assert interpreter.run("print(2)").stdout == "2\n"
        finally:
            unseal_directories([tmp_path])
        assert self.worker_pids() == before

    def test_printed_surrogates_come_back_and_are_memoized(self, tmp_path):
        seal_directory(tmp_path)
        try:
            interpreter = CodeInterpreter(tmp_path)
            runs = [interpreter.run("print(chr(0xDC80))") for _ in range(2)]
        finally:
            unseal_directories([tmp_path])
        assert [run.stdout for run in runs] == ["\udc80\n"] * 2
        assert all(run.ok for run in runs)


class TestRuntimeHardening:
    """Defense in depth behind the static guard (satellite 2)."""

    def test_getattr_cannot_reach_underscore_attributes(self, runtime_only):
        result = runtime_only.run("print(getattr((), '__class__'))")
        assert not result.ok
        assert "AttributeError" in result.error

    def test_getattr_cannot_reach_blocked_builtin_names(self, runtime_only):
        result = runtime_only.run(
            "import json\nprint(getattr(json, 'eval', None))"
        )
        assert not result.ok
        assert "AttributeError" in result.error

    def test_getattr_with_default_still_guards(self, runtime_only):
        result = runtime_only.run("print(getattr({}, '_secret', 'd'))")
        assert not result.ok

    def test_getattr_on_public_attributes_works(self, runtime_only):
        result = runtime_only.run("print(getattr(dict(a=1), 'get')('a'))")
        assert result.ok
        assert result.stdout == "1\n"

    def test_open_rejects_file_descriptors(self, runtime_only):
        result = runtime_only.run("open(0)")
        assert not result.ok
        assert "PermissionError" in result.error

    def test_open_rejects_dynamic_escape_path(self, runtime_only):
        result = runtime_only.run(
            "p = '/' + 'etc' + '/hostname'\nopen(p)"
        )
        assert not result.ok
        assert "PermissionError" in result.error


class TestGuardWiring:
    """The static layer in front of execution (enforce by default)."""

    def test_enforce_is_the_default(self, tmp_path):
        from repro.sca.policy import GuardPolicy

        assert CodeInterpreter(tmp_path).guard is GuardPolicy.ENFORCE

    def test_enforce_blocks_before_execution(self, interpreter):
        result = interpreter.run("import os\nprint('leaked')")
        assert not result.ok
        assert result.guard_blocked
        assert "GuardViolation" in result.error
        assert "[sca.import]" in result.error
        assert result.stdout == ""

    def test_warn_mode_executes_despite_block_verdict(self, tmp_path):
        from repro.util.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        interpreter = CodeInterpreter(tmp_path, guard="warn", metrics=metrics)
        result = interpreter.run("import os")
        # Execution proceeded and the *runtime* layer refused the import.
        assert not result.guard_blocked
        assert "ImportError" in result.error
        assert metrics.counter_value("sca.vet.blocked") == 1
        assert metrics.counter_value("sca.vet.rejected") == 0

    def test_enforce_counts_rejections(self, tmp_path):
        from repro.util.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        interpreter = CodeInterpreter(tmp_path, metrics=metrics)
        interpreter.run("print('fine')")
        interpreter.run("x = eval")
        assert metrics.counter_value("sca.vet.checks") == 2
        assert metrics.counter_value("sca.vet.blocked") == 1
        assert metrics.counter_value("sca.vet.rejected") == 1

    def test_vet_emits_span(self, tmp_path):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        interpreter = CodeInterpreter(tmp_path, tracer=tracer)
        interpreter.run("import subprocess")
        spans = [s for s in tracer.spans() if s.name == "sca.vet"]
        assert len(spans) == 1
        assert spans[0].attributes["blocked"] is True
        assert any(e.name == "violation" for e in spans[0].events)


class TestConcurrency:
    def test_parallel_runs_do_not_mix_output(self, tmp_path):
        interpreter = CodeInterpreter(tmp_path)
        outputs: dict[int, str] = {}

        def work(tag: int) -> None:
            code = f"for _ in range(200):\n    print('tag-{tag}')"
            outputs[tag] = interpreter.run(code).stdout

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for tag, stdout in outputs.items():
            lines = set(stdout.strip().splitlines())
            assert lines == {f"tag-{tag}"}


class TestWorkerBudgets:
    """The process layer: budgets preempt a run, and the pool heals."""

    def test_runaway_snippet_is_killed_within_its_wall_budget(
        self, interpreter, monkeypatch
    ):
        shrink_budgets(monkeypatch, run_wall_seconds=0.5)
        assert interpreter.run("print('warm')").ok  # workers booted
        started = time.perf_counter()
        result = interpreter.run(RUNAWAY)
        elapsed = time.perf_counter() - started
        assert last_line(result) == (
            "TimeoutError: analysis run exceeded its 0.5 s budget"
        )
        assert result.error.startswith("Traceback (most recent call last):")
        assert result.stdout == ""
        assert elapsed < 0.5 + 2.0

    def test_cpu_budget_ends_a_runaway_snippet(self, interpreter, monkeypatch):
        shrink_budgets(monkeypatch, run_cpu_seconds=1, run_wall_seconds=30.0)
        result = interpreter.run(RUNAWAY)
        assert last_line(result) == (
            "TimeoutError: analysis run exceeded its 1 s CPU budget"
        )

    def test_huge_allocation_is_a_memory_error(self, interpreter):
        result = interpreter.run("x = 'x' * (1 << 40)")
        assert last_line(result) == "MemoryError"
        assert '"<analysis>", line 1' in result.error

    def test_memory_budget_comes_from_the_policy(self, interpreter, monkeypatch):
        # 300 MiB is far below any host's memory, so only RLIMIT_AS at
        # the policy's 256 MiB can refuse it.
        shrink_budgets(monkeypatch, run_memory_bytes=256 << 20)
        assert last_line(interpreter.run("x = 'x' * (300 << 20)")) == "MemoryError"
        assert interpreter.run("x = 'x' * (16 << 20)\nprint(len(x))").stdout == (
            f"{16 << 20}\n"
        )

    def test_next_run_succeeds_on_a_respawned_worker(
        self, interpreter, monkeypatch
    ):
        shrink_budgets(monkeypatch, run_wall_seconds=0.3)
        # One kill more than there are workers: every worker the pool
        # held has been killed and replaced at least once.
        for _ in range(len(os.sched_getaffinity(0)) + 1):
            assert last_line(interpreter.run(RUNAWAY)).startswith("TimeoutError")
        result = interpreter.run("print('respawned')")
        assert result.ok, result.error
        assert result.stdout == "respawned\n"

    def test_exec_span_reports_the_worker(self, tmp_path, monkeypatch):
        shrink_budgets(monkeypatch, run_wall_seconds=0.5)
        tracer = Tracer()
        interpreter = CodeInterpreter(tmp_path, tracer=tracer)
        interpreter.run("total = sum(range(100000))")
        interpreter.run(RUNAWAY)
        interpreter.run("import os")  # refused by the guard: never dispatched
        spans = [s for s in tracer.spans() if s.name == "sandbox.exec"]
        assert len(spans) == 2
        finished, killed = (span.attributes for span in spans)
        assert finished["killed"] is False and killed["killed"] is True
        assert finished["worker_cpu_s"] > 0
        assert finished["worker_max_rss_mb"] > 1
        assert finished["queue_wait_s"] >= 0 and killed["queue_wait_s"] >= 0

    def test_kills_amid_concurrent_runs_keep_outputs_apart(
        self, tmp_path, monkeypatch
    ):
        # More threads than cores share the pool while some of their
        # runs are killed: every other run still gets its own output,
        # and the pool ends at full strength.
        shrink_budgets(monkeypatch, run_wall_seconds=0.3)
        interpreter = CodeInterpreter(tmp_path)
        results: dict[int, list] = {}

        def work(tag: int) -> None:
            code = f"for _ in range(50):\n    print('tag-{tag}')"
            results[tag] = [
                interpreter.run(RUNAWAY if tag % 3 == 0 else code)
                for _ in range(3)
            ]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        for tag, runs in results.items():
            for result in runs:
                if tag % 3 == 0:
                    assert last_line(result).startswith("TimeoutError")
                else:
                    assert set(result.stdout.split()) == {f"tag-{tag}"}
        assert len(results) == 6
        assert len(interpreter_module._POOL._workers) == len(
            os.sched_getaffinity(0)
        )
