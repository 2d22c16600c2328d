"""Sandboxed code interpreter for model-generated analysis code.

The Assistants API gives GPT-4 a Python sandbox; ION relies on it to
"write/run analysis code, and reason over the results".  This is the
local equivalent: it executes one code string at a time in a restricted
namespace, captures stdout, and renders exceptions as the traceback
text the model sees on a failed run (driving the debug-retry loop).

Containment is layered (DESIGN.md §10):

1. **Static** — :class:`repro.sca.guard.CodeGuard` vets every snippet
   before ``compile()``; with the default ``enforce`` policy, BLOCK
   verdicts refuse execution and return traceback-style feedback the
   model can repair against.
2. **Runtime** — dangerous builtins are stripped (including
   ``getattr`` reachability), imports are allow-listed, and file
   access is confined to the working directory.

Both layers read the same :data:`repro.sca.policy.SANDBOX_POLICY`, so
the static and runtime views of the sandbox cannot drift.  This is
*containment against accidents*, not a security boundary.
"""

from __future__ import annotations

import builtins
import importlib
import io
import os
import traceback
from dataclasses import dataclass
from pathlib import Path

from repro.obs.trace import NULL_TRACER, Tracer
from repro.sca.guard import CodeGuard
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

    def _guarded_import(self, name, globals=None, locals=None, fromlist=(), level=0):
        root = name.split(".")[0]
        if root not in ALLOWED_MODULES:
            raise ImportError(
                f"module {name!r} is not available in the analysis sandbox"
            )
        return ALLOWED_MODULES[root]

    def _guarded_open(self, file, mode="r", *args, **kwargs):
        if any(flag in mode for flag in ("w", "a", "+", "x")):
            raise PermissionError("the analysis sandbox is read-only")
        if not isinstance(file, (str, os.PathLike)):
            # open(0) would read the process's stdin/raw descriptors.
            raise PermissionError(
                "the analysis sandbox only opens paths, not file descriptors"
            )
        path = Path(file)
        if not path.is_absolute():
            path = self.workdir / path
        resolved = path.resolve()
        if not resolved.is_relative_to(self.workdir.resolve()):
            raise PermissionError(
                f"{file!r} is outside the analysis working directory"
            )
        return open(resolved, mode, *args, **kwargs)

    def _guarded_getattr(self, obj, name, *default):
        # Defense in depth behind CodeGuard's static sca.dunder /
        # sca.builtin rules: even a dynamically-built name cannot
        # reach sandbox internals or stripped builtins.
        if isinstance(name, str) and (name.startswith("_") or name in _BLOCKED_BUILTINS):
            raise AttributeError(
                f"attribute {name!r} is not reachable in the analysis sandbox"
            )
        return getattr(obj, name, *default)

    def _namespace(self, stdout: io.StringIO) -> dict[str, object]:
        safe_builtins = {
            name: getattr(builtins, name)
            for name in dir(builtins)
            if not name.startswith("_") and name not in _BLOCKED_BUILTINS
        }
        safe_builtins["open"] = self._guarded_open
        safe_builtins["getattr"] = self._guarded_getattr
        safe_builtins["__import__"] = self._guarded_import

        # A buffer-bound print keeps concurrent interpreter runs isolated
        # (redirecting the process-wide sys.stdout would race across the
        # analyzer's parallel prompt threads).
        def sandbox_print(*args, sep=" ", end="\n", file=None, flush=False):
            target = file if file is not None else stdout
            target.write(sep.join(str(a) for a in args) + end)

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
            "WORKDIR": str(self.workdir),
        }

    def _vet(self, code: str) -> GuardVerdict | None:
        """Run CodeGuard per policy; returns None when the guard is off."""
        if self.guard is GuardPolicy.OFF:
            return None
        with self.tracer.span(
            "sca.vet", attributes={"mode": self.guard.value}
        ) as span:
            verdict = _GUARD.vet(code)
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
        """Execute ``code``; never raises for in-code errors."""
        verdict = self._vet(code)
        if verdict is not None and verdict.blocked and self.guard is GuardPolicy.ENFORCE:
            self.metrics.counter("sca.vet.rejected").inc()
            return ExecutionResult(
                stdout="", error=verdict.render_feedback(), guard_blocked=True
            )
        stdout = io.StringIO()
        namespace = self._namespace(stdout)
        try:
            compiled = compile(code, "<analysis>", "exec")
        except SyntaxError:
            return ExecutionResult(stdout="", error=traceback.format_exc(limit=1))
        try:
            exec(compiled, namespace)  # noqa: S102 - that is the point
        except BaseException:
            trace = traceback.format_exc(limit=8)
            return ExecutionResult(stdout=self._clip(stdout.getvalue()), error=trace)
        finally:
            # Functions the snippet defines keep the namespace as their
            # globals: a cycle that would hold every row the snippet read
            # until the cyclic collector next runs.
            namespace.clear()
        return ExecutionResult(stdout=self._clip(stdout.getvalue()))

    def run_or_raise(self, code: str) -> str:
        """Execute ``code`` and return stdout; raise on failure."""
        result = self.run(code)
        if not result.ok:
            raise CodeInterpreterError(result.error)
        return result.stdout

    def _clip(self, text: str) -> str:
        if len(text) <= self._output_limit:
            return text
        return text[: self._output_limit] + "\n... [output truncated]"
