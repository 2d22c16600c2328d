"""Structured findings produced by the SCA walkers.

Both faces of :mod:`repro.sca` — the pre-execution :class:`CodeGuard`
and the repo-wide ``ion-lint`` checker — emit the same
:class:`Violation` record: a stable rule id, a severity, a precise
source location, a one-line message, and a remediation hint.  The
guard wraps its findings in a :class:`GuardVerdict`, whose
:meth:`~GuardVerdict.render_feedback` output is deliberately shaped
like a Python traceback so the model's existing ``[execution error]``
debug-retry loop can consume it unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class GuardSeverity(enum.Enum):
    """Severity of a single finding.

    ``WARN`` findings are counted (near-misses) but never stop
    execution; ``BLOCK`` findings refuse execution when the guard
    policy is ``enforce``.
    """

    WARN = "warn"
    BLOCK = "block"


@dataclass(frozen=True)
class Violation:
    """One rule hit at one source location."""

    rule: str
    severity: GuardSeverity
    line: int
    col: int
    message: str
    hint: str = ""
    #: Repo-relative file path; empty for in-memory snippets vetted
    #: by the guard.
    path: str = ""

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        """One-line, location-first rendering used by ``ion-lint``."""
        where = f"{self.path}:{self.line}:{self.col}" if self.path else f"line {self.line}"
        return f"{where}  {self.rule}  {self.message}"


@dataclass
class GuardVerdict:
    """The guard's answer for one snippet."""

    violations: list[Violation] = field(default_factory=list)
    #: True when the findings came from the guard's cache, not a walk.
    cached: bool = field(default=False, compare=False)

    @property
    def blocked(self) -> bool:
        """True when at least one finding carries BLOCK severity."""
        return any(v.severity is GuardSeverity.BLOCK for v in self.violations)

    @property
    def blocking(self) -> list[Violation]:
        return [v for v in self.violations if v.severity is GuardSeverity.BLOCK]

    @property
    def warnings(self) -> list[Violation]:
        return [v for v in self.violations if v.severity is GuardSeverity.WARN]

    def render_feedback(self) -> str:
        """Traceback-style text fed back to the model on rejection.

        The ``[sca.<rule>] line N:`` shape is load-bearing: the
        deterministic expert parses it to repair import violations,
        and tests grep for rule ids in this exact form.
        """
        blocking = sorted(self.blocking, key=Violation.sort_key)
        lines = [
            "Traceback (most recent call last):",
            '  File "<analysis>", line 1, in <module>',
            f"GuardViolation: analysis code rejected by the sandbox policy "
            f"({len(blocking)} violation{'s' if len(blocking) != 1 else ''})",
        ]
        for violation in blocking:
            lines.append(f"  [{violation.rule}] line {violation.line}: {violation.message}")
            if violation.hint:
                lines.append(f"      hint: {violation.hint}")
        return "\n".join(lines)
