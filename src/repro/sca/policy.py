"""The sandbox policy: one source of truth for two enforcement layers.

:data:`SANDBOX_POLICY` describes the complete attack/containment
surface of the analysis sandbox — which modules generated code may
import, which builtins are stripped from its namespace, which dunder
attributes walk out of the object graph, and how large a literal
``range`` may be before it is considered a runaway loop.

Both enforcement layers consume this object:

- :class:`repro.sca.guard.CodeGuard` rejects violations *statically*,
  before ``compile()`` ever runs;
- :class:`repro.llm.interpreter.CodeInterpreter` derives its runtime
  namespace stripping and import allow-list from the same frozen sets,
  and its worker processes take their per-run budgets from it.

Because both read the same frozen dataclass, the static and runtime
views of the sandbox cannot drift apart (a test pins the identity).
This module must stay dependency-free (stdlib only): it is imported
by both the LLM substrate and the SCA layer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class GuardPolicy(enum.Enum):
    """How strictly the interpreter applies CodeGuard verdicts.

    ``OFF``     — no static vetting at all (pre-guard behaviour).
    ``WARN``    — vet and count violations, but execute regardless.
    ``ENFORCE`` — BLOCK-severity verdicts refuse execution and are
    rendered back as traceback-style feedback (the default).
    """

    OFF = "off"
    WARN = "warn"
    ENFORCE = "enforce"

    @classmethod
    def parse(cls, value: "GuardPolicy | str") -> "GuardPolicy":
        """Coerce a CLI/config string into a policy, with a clear error."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            modes = ", ".join(mode.value for mode in cls)
            raise ValueError(
                f"unknown guard policy {value!r} (expected one of: {modes})"
            ) from None


@dataclass(frozen=True)
class SandboxPolicy:
    """Everything the analysis sandbox allows or forbids."""

    #: Top-level modules generated analysis code may import.
    allowed_modules: frozenset[str]
    #: Builtins stripped from the sandbox namespace (and statically
    #: rejected wherever referenced, aliased, or reached via getattr).
    blocked_builtins: frozenset[str]
    #: Canonical dunder-walk escape hatches, named in remediation
    #: hints.  The static rule is stricter: *any* underscore-prefixed
    #: attribute access is rejected, so novel walks are caught too.
    escape_dunders: frozenset[str]
    #: Largest literal ``range`` the guard accepts (iterations).
    max_literal_range: int
    #: Per-run budgets of a sandbox worker process: a wall-clock kill,
    #: counted from when a worker takes the run, then ``RLIMIT_CPU``
    #: seconds and ``RLIMIT_AS`` bytes.  The heaviest snippets of a
    #: full-scale ``ior-hard`` diagnosis (800k DXT rows) use about a
    #: tenth of the wall budget, an eighth of the CPU budget and a
    #: quarter of the memory budget.
    run_wall_seconds: float
    run_cpu_seconds: int
    run_memory_bytes: int

    def describe_allowed_modules(self) -> str:
        """The allow-list as a stable, human-readable string."""
        return ", ".join(sorted(self.allowed_modules))


#: The one policy instance both enforcement layers share.
SANDBOX_POLICY = SandboxPolicy(
    allowed_modules=frozenset(
        {"csv", "json", "math", "statistics", "collections", "itertools", "re"}
    ),
    blocked_builtins=frozenset(
        {
            "eval",
            "exec",
            "compile",
            "input",
            "exit",
            "quit",
            "breakpoint",
            "globals",
            "locals",
            "vars",
            "memoryview",
            "__import__",
        }
    ),
    escape_dunders=frozenset(
        {
            "__class__",
            "__subclasses__",
            "__globals__",
            "__bases__",
            "__mro__",
            "__dict__",
            "__builtins__",
            "__getattribute__",
            "__code__",
            "__closure__",
            "__reduce__",
            "__reduce_ex__",
        }
    ),
    max_literal_range=10_000_000,
    run_wall_seconds=60.0,
    run_cpu_seconds=40,
    run_memory_bytes=1 << 30,
)
