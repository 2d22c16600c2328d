"""Sandboxed code interpreter for model-generated analysis code.

The Assistants API gives GPT-4 a Python sandbox; ION relies on it to
"write/run analysis code, and reason over the results".  This is the
local equivalent: it executes one code string at a time in a restricted
namespace, captures stdout, and renders exceptions as the traceback
text the model sees on a failed run (driving the debug-retry loop).

Containment is layered (DESIGN.md §10):

1. **Static** — :class:`repro.sca.guard.CodeGuard` vets every snippet
   in the calling process before dispatch; with the default
   ``enforce`` policy, BLOCK verdicts refuse execution and return
   traceback-style feedback the model can repair against.
2. **Runtime** — dangerous builtins are stripped (including
   ``getattr`` reachability), imports are allow-listed, and file
   access is read-only and confined to the working directory.
3. **Process** — ``exec`` runs in one of a small pool of pre-started
   worker processes (one per usable CPU), under per-run budgets: a
   wall-clock kill, ``RLIMIT_CPU`` and ``RLIMIT_AS``.  A runaway or
   memory-hungry snippet ends as a traceback-shaped ``TimeoutError``
   or ``MemoryError``; a killed worker is replaced.  Because the
   snippets leave the calling process, the analyzer's prompt threads
   and the batch workers run them on all cores instead of taking
   turns on one interpreter lock.

All three layers read the same :data:`repro.sca.policy.SANDBOX_POLICY`,
so the static, runtime and budget views of the sandbox cannot drift.
The pool is process-wide: it starts on the first run, and its workers
are stopped at interpreter exit.  The first two layers are
containment against accidents, not a security boundary; the third
bounds what an accident can cost.

A directory can be *sealed* (:func:`seal_directory`): its files do not
change while it stays sealed, as the entries of
:class:`repro.service.cache.ExtractionCache` do not.  A clean run in a
sealed directory is remembered, keyed by the directory, the sha256 of
the code, the ``WORKDIR`` string and the output limit, and a repeat
of it returns the stored stdout without dispatching to a worker.
Every call is still vetted first, so a blocked snippet never reaches
the memo.  Failed and killed runs are never stored, and unsealing a
directory (:func:`unseal_directories`) forgets its runs.  Unsealed
directories, such as navigator scratch dirs, always execute.

The calling process resolves no path per run: it sends the absolute
working directory (``os.path.abspath``), and the worker resolves it
into the root that confines ``open``.  Seals are held under resolved
paths and the memo looks runs up by the absolute path, so a working
directory reached through a symlink executes every time.
"""

from __future__ import annotations

import atexit
import builtins
import importlib
import io
import math
import os
import queue
import resource
import signal
import subprocess
import sys
import threading
import time
import traceback
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.connection import Connection, Pipe
from pathlib import Path

from repro.llm.resilience import time_left
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sca.guard import CodeGuard, code_digest
from repro.sca.policy import GuardPolicy, SANDBOX_POLICY
from repro.sca.violations import GuardVerdict
from repro.util.errors import CodeInterpreterError
from repro.util.metrics import MetricsRegistry

#: Modules generated analysis code may import — derived from the
#: shared sandbox policy so CodeGuard's static import rule and this
#: runtime allow-list can never disagree.
ALLOWED_MODULES = {
    name: importlib.import_module(name)
    for name in sorted(SANDBOX_POLICY.allowed_modules)
}

#: Builtins stripped from the sandbox namespace — same source of truth.
_BLOCKED_BUILTINS = frozenset(SANDBOX_POLICY.blocked_builtins)

_csv = ALLOWED_MODULES["csv"]
_json = ALLOWED_MODULES["json"]
_math = ALLOWED_MODULES["math"]
_statistics = ALLOWED_MODULES["statistics"]
_collections = ALLOWED_MODULES["collections"]

#: One stateless guard shared by every interpreter instance.
_GUARD = CodeGuard(SANDBOX_POLICY)


@dataclass
class ExecutionResult:
    """Outcome of one sandbox run."""

    stdout: str
    error: str = ""
    #: True when CodeGuard refused the snippet before execution.
    guard_blocked: bool = False

    @property
    def ok(self) -> bool:
        return not self.error


class CodeInterpreter:
    """Executes model-generated Python over files in one directory."""

    def __init__(
        self,
        workdir: str | Path,
        output_limit: int = 200_000,
        guard: GuardPolicy | str = GuardPolicy.ENFORCE,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.workdir = Path(workdir)
        self._output_limit = output_limit
        self.guard = GuardPolicy.parse(guard)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def _vet(self, code: str, digest: bytes) -> GuardVerdict | None:
        """Run CodeGuard per policy; returns None when the guard is off."""
        if self.guard is GuardPolicy.OFF:
            return None
        with self.tracer.span(
            "sca.vet", attributes={"mode": self.guard.value}
        ) as span:
            verdict = _GUARD.vet(code, digest)
            span.set_attribute("violations", len(verdict.violations))
            span.set_attribute("blocked", verdict.blocked)
            for violation in verdict.blocking:
                span.add_event(
                    "violation", rule=violation.rule, line=violation.line
                )
        self.metrics.counter("sca.vet.checks").inc()
        if verdict.blocked:
            self.metrics.counter("sca.vet.blocked").inc()
        if verdict.warnings:
            self.metrics.counter("sca.vet.warnings").inc(len(verdict.warnings))
        return verdict

    def run(self, code: str) -> ExecutionResult:
        """Execute ``code`` in a sandbox worker; never raises for in-code errors.

        A repeat of a clean run in a sealed directory is vetted, then
        served from the memo without executing.
        """
        digest = code_digest(code)
        verdict = self._vet(code, digest)
        if verdict is not None and verdict.blocked and self.guard is GuardPolicy.ENFORCE:
            self.metrics.counter("sca.vet.rejected").inc()
            return ExecutionResult(
                stdout="", error=verdict.render_feedback(), guard_blocked=True
            )
        workdir = str(self.workdir)
        root = os.path.abspath(workdir)
        job = (code, workdir, root, self._output_limit)
        key = _MEMO.key(digest, workdir, root, self._output_limit)
        if key is not None:
            stdout = _MEMO.get(key)
            if stdout is not None:
                self.metrics.counter("sandbox.memo.hits").inc()
                return ExecutionResult(stdout=stdout)
        with self.tracer.span("sandbox.exec") as span:
            reply = _POOL.run(job, SANDBOX_POLICY)
            span.set_attribute("queue_wait_s", round(reply.queue_wait_s, 6))
            span.set_attribute("worker_cpu_s", round(reply.cpu_s, 6))
            span.set_attribute("worker_max_rss_mb", round(reply.max_rss_kb / 1024, 1))
            span.set_attribute("killed", reply.killed)
        if key is not None and not reply.error and not reply.killed:
            _MEMO.put(key, reply.stdout)
        return ExecutionResult(stdout=reply.stdout, error=reply.error)

    def run_or_raise(self, code: str) -> str:
        """Execute ``code`` and return stdout; raise on failure."""
        result = self.run(code)
        if not result.ok:
            raise CodeInterpreterError(result.error)
        return result.stdout


# -- memoized runs in sealed directories ----------------------------------


#: Bytes of stdout the run memo keeps before it forgets its least
#: recently used runs.  A registry campaign's distinct runs print
#: about 63 KB in all.
MEMO_MAX_BYTES = 4 * 1024 * 1024


class _RunMemo:
    """Stdout of clean runs in sealed directories, least recently used first.

    A key is ``(root, seal, code digest, workdir, output limit)``:
    ``seal`` numbers each sealing of ``root``, so a run that finishes
    after its directory was unsealed (or unsealed and sealed again) is
    not stored.
    """

    def __init__(self, max_bytes: int) -> None:
        self._max_bytes = max_bytes
        self._lock = threading.Lock()
        self._seals: dict[str, int] = {}
        self._sealings = 0
        self._runs: OrderedDict[tuple, tuple[str, int]] = OrderedDict()
        self._bytes = 0

    def seal(self, root: str) -> None:
        with self._lock:
            if root not in self._seals:
                self._sealings += 1
                self._seals[root] = self._sealings

    def unseal(self, roots: set[str]) -> None:
        with self._lock:
            for root in roots:
                self._seals.pop(root, None)
            for key in [key for key in self._runs if key[0] in roots]:
                self._bytes -= self._runs.pop(key)[1]

    def key(
        self, digest: bytes, workdir: str, root: str, output_limit: int
    ) -> tuple | None:
        """The memo key of a run, or None when ``root`` is not sealed."""
        with self._lock:
            seal = self._seals.get(root)
        if seal is None:
            return None
        return (root, seal, digest, workdir, output_limit)

    def get(self, key: tuple) -> str | None:
        with self._lock:
            stored = self._runs.get(key)
            if stored is None:
                return None
            self._runs.move_to_end(key)
            return stored[0]

    def put(self, key: tuple, stdout: str) -> None:
        size = len(stdout.encode("utf-8", "surrogatepass"))
        with self._lock:
            if self._seals.get(key[0]) != key[1] or key in self._runs:
                return
            self._runs[key] = (stdout, size)
            self._bytes += size
            while self._bytes > self._max_bytes:
                _, (_, dropped) = self._runs.popitem(last=False)
                self._bytes -= dropped


_MEMO = _RunMemo(MEMO_MAX_BYTES)


def seal_directory(path: str | Path) -> None:
    """Promise that the files under ``path`` do not change until unsealed.

    Runs in a sealed directory are memoized; the caller must unseal it
    (:func:`unseal_directories`) before its files change or go away.
    """
    _MEMO.seal(str(Path(path).resolve()))


def unseal_directories(paths) -> None:
    """Withdraw the seals of ``paths`` and forget the runs made in them."""
    _MEMO.unseal({str(Path(path).resolve()) for path in paths})


# -- the restricted namespace (built inside the worker) -----------------


def _guarded_import(name, globals=None, locals=None, fromlist=(), level=0):
    root = name.split(".")[0]
    if root not in ALLOWED_MODULES:
        raise ImportError(
            f"module {name!r} is not available in the analysis sandbox"
        )
    return ALLOWED_MODULES[root]


def _guarded_getattr(obj, name, *default):
    # Defense in depth behind CodeGuard's static sca.dunder /
    # sca.builtin rules: even a dynamically-built name cannot reach
    # sandbox internals or stripped builtins.
    if isinstance(name, str) and (name.startswith("_") or name in _BLOCKED_BUILTINS):
        raise AttributeError(
            f"attribute {name!r} is not reachable in the analysis sandbox"
        )
    return getattr(obj, name, *default)


def _namespace(workdir: str, root: Path, stdout: io.StringIO) -> dict[str, object]:
    """Stripped builtins, guarded import/getattr/open and a buffer-bound print.

    ``root`` is the resolved working directory: relative paths resolve
    against it and no opened path may leave it.  ``WORKDIR`` is
    ``workdir``, as the caller spelled it.
    """

    def guarded_open(file, mode="r", *args, **kwargs):
        if any(flag in mode for flag in ("w", "a", "+", "x")):
            raise PermissionError("the analysis sandbox is read-only")
        if not isinstance(file, (str, os.PathLike)):
            # open(0) would read the process's stdin/raw descriptors.
            raise PermissionError(
                "the analysis sandbox only opens paths, not file descriptors"
            )
        path = Path(file)
        if not path.is_absolute():
            path = root / path
        resolved = path.resolve()
        if not resolved.is_relative_to(root):
            raise PermissionError(
                f"{file!r} is outside the analysis working directory"
            )
        return open(resolved, mode, *args, **kwargs)

    # Output goes to the run's buffer: the worker's own stdout is the
    # caller's terminal.
    def sandbox_print(*args, sep=" ", end="\n", file=None, flush=False):
        target = file if file is not None else stdout
        target.write(sep.join(str(a) for a in args) + end)

    safe_builtins = {
        name: getattr(builtins, name)
        for name in dir(builtins)
        if not name.startswith("_") and name not in _BLOCKED_BUILTINS
    }
    safe_builtins["open"] = guarded_open
    safe_builtins["getattr"] = _guarded_getattr
    safe_builtins["__import__"] = _guarded_import
    safe_builtins["print"] = sandbox_print
    return {
        "__builtins__": safe_builtins,
        "__name__": "__analysis__",
        "csv": _csv,
        "json": _json,
        "math": _math,
        "statistics": _statistics,
        "Counter": _collections.Counter,
        "defaultdict": _collections.defaultdict,
        "WORKDIR": workdir,
    }


def _clip(text: str, limit: int) -> str:
    if len(text) <= limit:
        return text
    return text[:limit] + "\n... [output truncated]"


def _execute(code: str, workdir: str, root: str, output_limit: int) -> tuple[str, str]:
    """Run one snippet in this process: ``(stdout, error traceback)``.

    ``root`` is the absolute working directory; it is resolved here.
    """
    stdout = io.StringIO()
    namespace = _namespace(workdir, Path(root).resolve(), stdout)
    try:
        compiled = compile(code, "<analysis>", "exec")
    except SyntaxError:
        return "", traceback.format_exc(limit=1)
    except ValueError as exc:  # a null byte or a lone surrogate
        return "", _traceback_text(type(exc).__name__, str(exc))
    try:
        exec(compiled, namespace)  # noqa: S102 - that is the point
    except BaseException:
        trace = traceback.format_exc(limit=8)
        return _clip(stdout.getvalue(), output_limit), trace
    finally:
        # Functions the snippet defines keep the namespace as their
        # globals: a cycle that would hold every row the snippet read
        # until the cyclic collector next runs.
        namespace.clear()
    return _clip(stdout.getvalue(), output_limit), ""


# -- the worker process ---------------------------------------------------


def _worker_main(fd: int) -> None:
    """A sandbox worker: serve run requests on pipe ``fd`` until it closes.

    Each request is ``(code, workdir, root, output_limit, cpu_seconds,
    memory_bytes)``; each reply is ``(stdout, error, cpu seconds, max
    RSS KiB)``.
    """
    # SIGXCPU (the CPU budget) must not leave core files behind.
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
    conn = Connection(fd)
    try:
        conn.send("ready")
        while (request := conn.recv()) is not None:
            *job, cpu_seconds, memory_bytes = request
            started = time.process_time()
            with _budgets(cpu_seconds, memory_bytes):
                stdout, error = _execute(*job)
            usage = resource.getrusage(resource.RUSAGE_SELF)
            conn.send((stdout, error, time.process_time() - started, usage.ru_maxrss))
    except (EOFError, OSError):
        pass  # the parent went away


@contextmanager
def _budgets(cpu_seconds: int, memory_bytes: int):
    """Soft ``RLIMIT_CPU``/``RLIMIT_AS`` for one run, lifted afterwards.

    The hard limits stay where they were, so the next run can raise
    the soft ones again.  Past the CPU limit the kernel sends SIGXCPU,
    whose default action ends the worker.
    """
    soft = {
        resource.RLIMIT_CPU: math.ceil(time.process_time()) + cpu_seconds,
        resource.RLIMIT_AS: memory_bytes,
    }
    saved = {kind: resource.getrlimit(kind) for kind in soft}
    for kind, (_, hard) in saved.items():
        if hard != resource.RLIM_INFINITY:
            soft[kind] = min(soft[kind], hard)
        resource.setrlimit(kind, (soft[kind], hard))
    try:
        yield
    finally:
        for kind, limits in saved.items():
            resource.setrlimit(kind, limits)


# -- the parent side of the pool ------------------------------------------


@dataclass
class _Reply:
    """One run as the parent saw it."""

    stdout: str
    error: str
    queue_wait_s: float
    cpu_s: float = 0.0
    max_rss_kb: int = 0
    killed: bool = False


def _traceback_text(kind: str, message: str) -> str:
    """A traceback-shaped error for a run that raised no traceback of its own."""
    return (
        "Traceback (most recent call last):\n"
        '  File "<analysis>", in <module>\n'
        f"{kind}: {message}\n"
    )


def _death_error(exitcode: int | None, policy) -> str:
    if exitcode == -signal.SIGXCPU:
        return _traceback_text(
            "TimeoutError",
            f"analysis run exceeded its {policy.run_cpu_seconds} s CPU budget",
        )
    return _traceback_text(
        "ChildProcessError", f"the analysis worker died (exit code {exitcode})"
    )


#: Seconds a fresh worker may take to import the sandbox and report in.
_BOOT_SECONDS = 120.0

#: Where ``repro`` is imported from, so a worker imports the same code.
_PACKAGE_ROOT = Path(__file__).resolve().parents[2]

_WORKER_BOOT = (
    "import sys; sys.path.insert(0, {path!r}); "
    "from repro.llm.interpreter import _worker_main; _worker_main({fd})"
)


class _Worker:
    """One sandbox process and the parent's end of its pipe.

    The worker is a fresh interpreter (fork plus exec, as ``spawn``
    starts one), so it copies none of this process's threads or locks.
    Unlike ``multiprocessing``'s ``spawn`` it does not re-run the
    caller's ``__main__``, which may be a script without a main guard
    or no file at all.  It runs in its own session, so a Ctrl-C at the
    terminal reaches only the parent, which stops the pool.
    """

    def __init__(self) -> None:
        self.conn, child = Pipe()
        self.process = subprocess.Popen(
            [sys.executable, "-c", _WORKER_BOOT.format(
                path=str(_PACKAGE_ROOT), fd=child.fileno()
            )],
            stdin=subprocess.DEVNULL,
            pass_fds=(child.fileno(),),
            start_new_session=True,
        )
        child.close()
        self.ready = False

    def boot(self) -> bool:
        """Wait for the worker's hello; False if it died first."""
        if not self.ready:
            try:
                self.ready = (
                    self.conn.poll(_BOOT_SECONDS) and self.conn.recv() == "ready"
                )
            except (EOFError, OSError):
                return False
        return self.ready

    def stop(self, timeout: float = 1.0) -> int | None:
        """Close the pipe, kill the worker after ``timeout``; its exit code."""
        self.conn.close()
        try:
            return self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            return self.process.wait()


class _WorkerPool:
    """Pre-started sandbox workers behind an idle queue.

    A run takes an idle worker (waiting while all are busy), sends it
    the request and waits up to the wall-clock budget for the reply.
    A worker that misses its budget is killed; one that dies is
    reaped; either way a fresh worker takes its place.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: queue.SimpleQueue[_Worker] = queue.SimpleQueue()
        self._workers: list[_Worker] = []
        self._pid: int | None = None
        atexit.register(self.shutdown)

    def _start(self) -> None:
        with self._lock:
            if self._pid == os.getpid():
                return
            # Never reuse the workers of an earlier start: they were
            # stopped, or belong to the process this one forked from.
            self._idle = queue.SimpleQueue()
            self._workers = []
            for _ in range(len(os.sched_getaffinity(0))):
                self._add()
            self._pid = os.getpid()

    def _add(self) -> None:
        worker = _Worker()
        self._workers.append(worker)
        self._idle.put(worker)

    def _replace(self, worker: _Worker, timeout: float = 0.0) -> int | None:
        """Stop ``worker`` (killing it after ``timeout``); start its successor."""
        exitcode = worker.stop(timeout)
        with self._lock:
            if worker in self._workers:  # not since a shutdown or restart
                self._workers.remove(worker)
                self._add()
        return exitcode

    def run(self, job: tuple, policy) -> _Reply:
        """Run ``job`` under ``policy``'s budgets on the next idle worker.

        The wall-clock budget shrinks to what is left of the calling
        query's deadline (:func:`repro.llm.resilience.time_left`); with
        none left the run does not start.
        """
        if self._pid != os.getpid():
            self._start()
        waited = time.perf_counter()
        worker = self._idle.get()
        booted = worker.boot()
        queue_wait = time.perf_counter() - waited
        if not booted:
            self._replace(worker)
            error = _traceback_text(
                "ChildProcessError", "the analysis worker failed to start"
            )
            return _Reply("", error, queue_wait, killed=True)
        wall = policy.run_wall_seconds
        left = time_left()
        if left is not None and left < wall:
            wall = left
            if wall <= 0:
                self._idle.put(worker)
                error = _traceback_text(
                    "TimeoutError", "the query deadline passed first"
                )
                return _Reply("", error, queue_wait)
        try:
            worker.conn.send((*job, policy.run_cpu_seconds, policy.run_memory_bytes))
            if worker.conn.poll(wall):
                stdout, error, cpu_s, max_rss_kb = worker.conn.recv()
                self._idle.put(worker)
                return _Reply(stdout, error, queue_wait, cpu_s, max_rss_kb)
        except (EOFError, OSError):
            # The worker died mid-run: past its CPU budget, or a crash.
            exitcode = self._replace(worker, timeout=5.0)
            return _Reply("", _death_error(exitcode, policy), queue_wait, killed=True)
        except BaseException:
            self._replace(worker)  # interrupted mid-run: its state is unknown
            raise
        self._replace(worker)
        error = _traceback_text(
            "TimeoutError",
            f"analysis run exceeded its {wall:g} s budget",
        )
        return _Reply("", error, queue_wait, killed=True)

    def shutdown(self) -> None:
        """Stop every worker; idle ones exit when their pipe closes."""
        with self._lock:
            if self._pid != os.getpid():
                return
            workers, self._workers = self._workers, []
            self._pid = None
        for worker in workers:
            worker.stop()


#: The process-wide pool every :class:`CodeInterpreter` dispatches to.
_POOL = _WorkerPool()
