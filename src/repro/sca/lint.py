"""``ion-lint`` rules: project invariants the seed code implies.

These run on the same single-walk infrastructure as CodeGuard
(:mod:`repro.sca.walker`) but over the repo's own ``src/`` tree, not
over generated snippets.  Each rule encodes an invariant the pipeline
already relies on implicitly; ``ion-lint`` makes them enforceable:

``lint.span-name``
    Spans must be opened with a string literal registered in
    :data:`repro.sca.registry.SPAN_NAMES` — dynamic or misspelled
    names would silently fork the trace summary and dashboards.
``lint.metric-name``
    Same contract for ``metrics.counter/gauge/histogram`` and
    :data:`repro.sca.registry.METRIC_NAMES`.  Stage durations are no
    metric kind: the exporter derives them from span names.
``lint.raw-open``
    No bare ``open()`` / ``Path.write_text`` / ``Path.write_bytes``
    in pipeline layers outside the sanctioned helpers — pipeline I/O
    must flow through scratch-dir/CSV machinery so batch isolation
    and leak checks stay meaningful.  Pre-existing sites are carried
    in the committed baseline.
``lint.mutable-default``
    No mutable default arguments (``def f(x=[])``).
``lint.silent-except``
    No ``except Exception`` (or bare ``except``) that swallows the
    error without re-raising or recording it to metrics/health.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.sca.registry import METRIC_NAMES, SPAN_NAMES
from repro.sca.violations import GuardSeverity, Violation
from repro.sca.walker import Rule, WalkContext, run_rules

LINT_SPAN_NAME = "lint.span-name"
LINT_METRIC_NAME = "lint.metric-name"
LINT_RAW_OPEN = "lint.raw-open"
LINT_MUTABLE_DEFAULT = "lint.mutable-default"
LINT_SILENT_EXCEPT = "lint.silent-except"

#: Packages whose file I/O must flow through sanctioned helpers.
PIPELINE_PACKAGES = (
    "repro/ion/",
    "repro/llm/",
    "repro/service/",
    "repro/journey/",
    "repro/obs/",
)

#: Files allowed to perform raw file I/O inside pipeline packages
#: (the sandbox interpreter wraps ``open`` itself).
SANCTIONED_IO_FILES = frozenset({"repro/llm/interpreter.py"})

_METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram"})

#: Handler-body markers that count as "recording" a swallowed error.
_RECORDING_MARKERS = ("metrics", "health", "record", "set_status")


def _receiver_text(node: ast.Call) -> str:
    if not isinstance(node.func, ast.Attribute):
        return ""
    try:
        return ast.unparse(node.func.value)
    except ValueError:  # pragma: no cover - unparse failure on exotic nodes
        return ""


def _first_arg_literal(node: ast.Call) -> "str | None":
    if node.args and isinstance(node.args[0], ast.Constant):
        value = node.args[0].value
        if isinstance(value, str):
            return value
    return None


@dataclass
class RegisteredNameRule(Rule):
    """Span or metric names must be registered string literals.

    A call ``<receiver>.<method>(name, ...)`` is checked when ``method``
    is in ``methods`` and the receiver's source text contains
    ``receiver``; ``name`` must be a literal in ``registry``, the set
    importable as ``registry_name``.
    """

    rule_id: str = field()  # no default: the base class's "" is not one
    kind: str
    receiver: str
    methods: frozenset[str]
    registry: frozenset[str]
    registry_name: str

    def visit_Call(self, node: ast.Call, ctx: WalkContext) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr not in self.methods:
            return
        if self.receiver not in _receiver_text(node):
            return
        literal = _first_arg_literal(node)
        if literal is None:
            self.report(
                ctx,
                node,
                f"{self.kind} name passed to .{node.func.attr}() must be a "
                "string literal",
                hint=f"register the literal in {self.registry_name}",
            )
        elif literal not in self.registry:
            self.report(
                ctx,
                node,
                f"{self.kind} name {literal!r} is not registered",
                hint=f"add it to {self.registry_name}",
            )


class RawOpenRule(Rule):
    """Raw file I/O in pipeline layers outside sanctioned helpers."""

    rule_id = LINT_RAW_OPEN

    def _in_scope(self, ctx: WalkContext) -> bool:
        path = ctx.path
        if any(path.endswith(sanctioned) for sanctioned in SANCTIONED_IO_FILES):
            return False
        return any(package in path for package in PIPELINE_PACKAGES)

    def visit_Call(self, node: ast.Call, ctx: WalkContext) -> None:
        if not self._in_scope(ctx):
            return
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            self.report(
                ctx,
                node,
                "direct open() in a pipeline layer",
                hint="route file I/O through the scratch-dir/CSV helpers, "
                "or add an ion-lint baseline exemption",
            )
        elif isinstance(node.func, ast.Attribute) and node.func.attr in (
            "write_text",
            "write_bytes",
        ):
            self.report(
                ctx,
                node,
                f"direct Path.{node.func.attr}() in a pipeline layer",
                hint="route file I/O through the scratch-dir/CSV helpers, "
                "or add an ion-lint baseline exemption",
            )


class MutableDefaultRule(Rule):
    """``def f(x=[])`` — the shared-state footgun."""

    rule_id = LINT_MUTABLE_DEFAULT

    _MUTABLE_NODES = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "deque"})

    def _is_mutable(self, node: "ast.expr | None") -> bool:
        if node is None:
            return False
        if isinstance(node, self._MUTABLE_NODES):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._MUTABLE_CALLS
        )

    def _check(self, node: ast.AST, args: ast.arguments, ctx: WalkContext) -> None:
        for default in list(args.defaults) + list(args.kw_defaults):
            if self._is_mutable(default):
                self.report(
                    ctx,
                    default,
                    "mutable default argument",
                    hint="default to None and build the container inside the function",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef, ctx: WalkContext) -> None:
        self._check(node, node.args, ctx)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef, ctx: WalkContext) -> None:
        self._check(node, node.args, ctx)

    def visit_Lambda(self, node: ast.Lambda, ctx: WalkContext) -> None:
        self._check(node, node.args, ctx)


class SilentExceptRule(Rule):
    """``except Exception`` must re-raise or record what it swallowed."""

    rule_id = LINT_SILENT_EXCEPT

    def _is_broad(self, node: ast.ExceptHandler) -> bool:
        if node.type is None:
            return True
        return isinstance(node.type, ast.Name) and node.type.id in (
            "Exception",
            "BaseException",
        )

    def visit_ExceptHandler(self, node: ast.ExceptHandler, ctx: WalkContext) -> None:
        if not self._is_broad(node):
            return
        if any(isinstance(child, ast.Raise) for stmt in node.body for child in ast.walk(stmt)):
            return
        try:
            body_text = "\n".join(ast.unparse(stmt) for stmt in node.body)
        except ValueError:  # pragma: no cover - unparse failure on exotic nodes
            body_text = ""
        if any(marker in body_text for marker in _RECORDING_MARKERS):
            return
        self.report(
            ctx,
            node,
            "broad except swallows the error without recording it",
            hint="re-raise, narrow the exception type, or record to "
            "ReportHealth/metrics before continuing",
        )


def lint_rules() -> list[Rule]:
    return [
        RegisteredNameRule(
            LINT_SPAN_NAME, "span", "tracer", frozenset({"span"}), SPAN_NAMES,
            "repro.sca.registry.SPAN_NAMES",
        ),
        RegisteredNameRule(
            LINT_METRIC_NAME, "metric", "metrics", _METRIC_FACTORIES,
            METRIC_NAMES, "repro.sca.registry.METRIC_NAMES",
        ),
        RawOpenRule(),
        MutableDefaultRule(),
        SilentExceptRule(),
    ]


def lint_source(source: str, path: str) -> list[Violation]:
    """Lint one file's source; syntax errors become a violation."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Violation(
                rule="lint.syntax",
                severity=GuardSeverity.BLOCK,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                message=f"file does not parse: {exc.msg}",
                path=path,
            )
        ]
    return run_rules(tree, lint_rules(), path=path, source=source)


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: set[Path] = set()
    for path in paths:
        if path.is_dir():
            found.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            found.add(path)
    return sorted(found)


def lint_paths(paths: Iterable[Path], root: Path) -> list[Violation]:
    """Lint every Python file under ``paths``; deterministic order.

    Violation paths are recorded relative to ``root`` with POSIX
    separators so baselines and golden output are machine-independent.
    """
    violations: list[Violation] = []
    for file_path in iter_python_files(paths):
        try:
            rel = file_path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = file_path.as_posix()
        violations.extend(lint_source(file_path.read_text(encoding="utf-8"), rel))
    return sorted(violations, key=Violation.sort_key)
