"""CodeGuard: static pre-execution vetting of generated snippets.

The runtime sandbox in :mod:`repro.llm.interpreter` contains damage
*after* execution starts; CodeGuard refuses the damage before
``compile()`` ever runs, and — unlike a bare ``ImportError`` — can
explain each refusal with a rule id and a remediation hint the model
can act on.  All rules read :data:`repro.sca.policy.SANDBOX_POLICY`,
the same object the interpreter derives its runtime stripping from.

Rule catalog (see DESIGN.md §10):

==================  =====  ==================================================
rule id             sev    what it catches
==================  =====  ==================================================
``sca.import``      BLOCK  import of a module outside the sandbox allow-list
``sca.builtin``     BLOCK  reference to a stripped builtin, including
                           aliasing (``e = eval``) and literal ``getattr``
                           indirection (``getattr(x, "eval")``)
``sca.dunder``      BLOCK  underscore-prefixed attribute access (object-graph
                           walks such as ``().__class__.__subclasses__()``),
                           dunder names, and dunder ``getattr`` literals
``sca.path``        BLOCK  literal ``open()`` path that is absolute or
                           contains ``..`` (escapes the working directory)
``sca.loop``        BLOCK  ``while True`` / ``while 1`` with no ``break``,
                           ``return`` or ``raise`` that can exit it
``sca.range``       BLOCK  literal ``range`` larger than the policy cap
``sca.open-dynamic``  WARN   non-literal ``open()`` path — executed, but
                           counted as a near-miss (runtime still confines it)
==================  =====  ==================================================
"""

from __future__ import annotations

import ast
import hashlib
import threading
from collections import OrderedDict
from pathlib import PurePosixPath

from repro.sca.policy import SANDBOX_POLICY, SandboxPolicy
from repro.sca.violations import GuardSeverity, GuardVerdict, Violation
from repro.sca.walker import Rule, WalkContext, run_rules

# CPython 3.11's AST-object conversion keeps its recursion counter in
# interpreter-global module state; concurrent ast.parse calls from the
# analyzer's prompt threads can interleave (a GC mid-conversion runs
# Python code and allows a thread switch) and die with "SystemError:
# AST constructor recursion depth mismatch".  Parsing is fast, so every
# parse of analysis code goes through :func:`parse_source` and is
# serialized.
_PARSE_LOCK = threading.Lock()


def parse_source(code: str) -> ast.Module:
    """``ast.parse(code)``, serialized with every other caller's parse."""
    with _PARSE_LOCK:
        return ast.parse(code)


def code_digest(code: str) -> bytes:
    """SHA-256 of a snippet's text; lone surrogates hash, never raise."""
    return hashlib.sha256(code.encode("utf-8", "surrogatepass")).digest()


RULE_IMPORT = "sca.import"
RULE_BUILTIN = "sca.builtin"
RULE_DUNDER = "sca.dunder"
RULE_PATH = "sca.path"
RULE_LOOP = "sca.loop"
RULE_RANGE = "sca.range"
RULE_OPEN_DYNAMIC = "sca.open-dynamic"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _call_name(node: ast.Call) -> str:
    """The bare function name of a call, or "" when not a Name."""
    return node.func.id if isinstance(node.func, ast.Name) else ""


def _literal_str_arg(node: ast.Call, index: int, keyword: str) -> "str | None":
    """The string value of arg ``index`` (or ``keyword=``), if literal."""
    candidates: list[ast.expr] = []
    if len(node.args) > index:
        candidates.append(node.args[index])
    for kw in node.keywords:
        if kw.arg == keyword:
            candidates.append(kw.value)
    for candidate in candidates:
        if isinstance(candidate, ast.Constant) and isinstance(candidate.value, str):
            return candidate.value
    return None


class ImportRule(Rule):
    """Disallowed imports, including dotted and aliased smuggling."""

    rule_id = RULE_IMPORT

    def __init__(self, policy: SandboxPolicy) -> None:
        self.policy = policy

    def _check_root(self, node: ast.AST, ctx: WalkContext, root: str) -> None:
        if root not in self.policy.allowed_modules:
            self.report(
                ctx,
                node,
                f"module {root!r} is not importable in the analysis sandbox",
                hint=f"allowed modules: {self.policy.describe_allowed_modules()}",
            )

    def visit_Import(self, node: ast.Import, ctx: WalkContext) -> None:
        for alias in node.names:
            self._check_root(node, ctx, alias.name.split(".")[0])

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx: WalkContext) -> None:
        if node.level:
            self.report(
                ctx,
                node,
                "relative imports are not available in the analysis sandbox",
                hint=f"allowed modules: {self.policy.describe_allowed_modules()}",
            )
            return
        self._check_root(node, ctx, (node.module or "").split(".")[0])


class BuiltinRule(Rule):
    """Any reference to a stripped builtin — call, alias, or getattr."""

    rule_id = RULE_BUILTIN

    def __init__(self, policy: SandboxPolicy) -> None:
        self.policy = policy

    def visit_Name(self, node: ast.Name, ctx: WalkContext) -> None:
        if node.id in self.policy.blocked_builtins:
            self.report(
                ctx,
                node,
                f"builtin {node.id!r} is stripped from the analysis sandbox",
                hint="restrict the analysis to plain data processing over the CSV files",
            )

    def visit_Call(self, node: ast.Call, ctx: WalkContext) -> None:
        if _call_name(node) != "getattr":
            return
        target = _literal_str_arg(node, 1, "name")
        if target in self.policy.blocked_builtins:
            self.report(
                ctx,
                node,
                f"getattr indirection reaches stripped builtin {target!r}",
                hint="call functions directly; indirection through getattr is rejected",
            )


class DunderRule(Rule):
    """Underscore attribute walks out of the sandboxed object graph."""

    rule_id = RULE_DUNDER

    def __init__(self, policy: SandboxPolicy) -> None:
        self.policy = policy
        self._hint = (
            "object-graph walks (e.g. "
            + "/".join(sorted(self.policy.escape_dunders)[:3])
            + ") are rejected; operate on the CSV data only"
        )

    def visit_Attribute(self, node: ast.Attribute, ctx: WalkContext) -> None:
        if node.attr.startswith("_"):
            self.report(
                ctx,
                node,
                f"underscore attribute {node.attr!r} walks sandbox internals",
                hint=self._hint,
            )

    def visit_Name(self, node: ast.Name, ctx: WalkContext) -> None:
        if _is_dunder(node.id):
            self.report(
                ctx,
                node,
                f"dunder name {node.id!r} is not available in the analysis sandbox",
                hint=self._hint,
            )

    def visit_Call(self, node: ast.Call, ctx: WalkContext) -> None:
        if _call_name(node) != "getattr":
            return
        target = _literal_str_arg(node, 1, "name")
        if target is not None and target.startswith("_"):
            self.report(
                ctx,
                node,
                f"getattr indirection reaches underscore attribute {target!r}",
                hint=self._hint,
            )


class PathRule(Rule):
    """Literal ``open()`` paths must stay inside the working directory."""

    rule_id = RULE_PATH

    def visit_Call(self, node: ast.Call, ctx: WalkContext) -> None:
        if _call_name(node) != "open":
            return
        literal = _literal_str_arg(node, 0, "file")
        if literal is None:
            ctx.report(
                RULE_OPEN_DYNAMIC,
                GuardSeverity.WARN,
                node,
                "open() path is not a string literal; the runtime sandbox will confine it",
                hint="prefer opening extraction CSVs by their provided literal paths",
            )
            return
        parts = PurePosixPath(literal).parts
        if literal.startswith("/") or ".." in parts:
            self.report(
                ctx,
                node,
                f"path {literal!r} escapes the analysis working directory",
                hint="only files inside the working directory may be opened",
            )


def _loop_can_exit(stmts: "list[ast.stmt]", *, breakable: bool) -> bool:
    """Whether any statement can exit the enclosing ``while`` loop.

    ``breakable`` tracks whether a ``break`` at this nesting level
    still binds to the loop under scrutiny (it stops binding inside
    nested ``for``/``while`` bodies, where only ``return``/``raise``
    escape).  Nested function bodies are skipped entirely: a
    ``return`` in them does not exit the loop.
    """
    for stmt in stmts:
        if isinstance(stmt, (ast.Return, ast.Raise)):
            return True
        if isinstance(stmt, ast.Break) and breakable:
            return True
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            if _loop_can_exit(stmt.body + stmt.orelse, breakable=False):
                return True
            continue
        for field_value in ast.iter_fields(stmt):
            _, value = field_value
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                if _loop_can_exit(value, breakable=breakable):
                    return True
    return False


class LoopRule(Rule):
    """``while True`` with no reachable exit is refused outright."""

    rule_id = RULE_LOOP

    def visit_While(self, node: ast.While, ctx: WalkContext) -> None:
        test = node.test
        if not (isinstance(test, ast.Constant) and bool(test.value)):
            return
        if _loop_can_exit(node.body, breakable=True):
            return
        self.report(
            ctx,
            node,
            "while loop over a constant-true condition has no break/return/raise",
            hint="bound the loop or add a break condition",
        )


def _const_int(node: ast.expr) -> "int | None":
    """Fold small constant integer expressions (e.g. ``10 ** 9``)."""
    if isinstance(node, ast.Constant):
        return node.value if isinstance(node.value, int) and not isinstance(node.value, bool) else None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _const_int(node.operand)
        return None if inner is None else -inner
    if isinstance(node, ast.BinOp):
        left, right = _const_int(node.left), _const_int(node.right)
        if left is None or right is None:
            return None
        try:
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.FloorDiv):
                return left // right if right else None
            if isinstance(node.op, ast.Pow):
                # Refuse pathological exponents rather than folding them.
                return left**right if abs(right) <= 64 and abs(left) <= 10**6 else None
        except (OverflowError, ValueError):
            return None
    return None


class RangeRule(Rule):
    """Oversized literal ranges are runaway loops in disguise."""

    rule_id = RULE_RANGE

    def __init__(self, policy: SandboxPolicy) -> None:
        self.policy = policy

    def visit_Call(self, node: ast.Call, ctx: WalkContext) -> None:
        if _call_name(node) != "range" or node.keywords or not 1 <= len(node.args) <= 3:
            return
        folded = [_const_int(arg) for arg in node.args]
        if any(value is None for value in folded):
            return
        if len(folded) == 1:
            start, stop, step = 0, folded[0], 1
        elif len(folded) == 2:
            (start, stop), step = folded, 1
        else:
            start, stop, step = folded
        if step == 0:
            return  # runtime ValueError; not this rule's business
        iterations = max(0, -(-(stop - start) // step) if step > 0 else -((stop - start) // -step))
        if iterations > self.policy.max_literal_range:
            self.report(
                ctx,
                node,
                f"literal range of {iterations} iterations exceeds the sandbox cap "
                f"of {self.policy.max_literal_range}",
                hint="iterate over the extracted CSV rows instead of literal ranges",
            )


class CodeGuard:
    """Vets one snippet per call; thread-safe.

    Findings are memoized in a bounded LRU cache keyed by the SHA-256
    of the code text: the expert re-sends the same snippets for every
    trace, and a verdict is a pure function of the text and the policy.
    Keying by digest keeps the snippets themselves out of the cache.
    Each call returns a fresh :class:`GuardVerdict` over the cached,
    immutable findings.
    """

    #: Distinct snippets whose findings are kept.
    CACHE_SIZE = 256

    def __init__(self, policy: SandboxPolicy = SANDBOX_POLICY) -> None:
        self.policy = policy
        self._findings: OrderedDict[bytes, tuple[Violation, ...]] = OrderedDict()
        self._cache_lock = threading.Lock()

    def _rules(self) -> list[Rule]:
        return [
            ImportRule(self.policy),
            BuiltinRule(self.policy),
            DunderRule(self.policy),
            PathRule(),
            LoopRule(),
            RangeRule(self.policy),
        ]

    def vet(self, code: str, digest: bytes | None = None) -> GuardVerdict:
        """Statically vet ``code``; never raises.

        ``digest`` is :func:`code_digest` of ``code`` when the caller
        has it already.  Snippets that do not parse get an *empty*
        verdict: the interpreter's ``compile()`` step already reports
        syntax errors with the traceback the model expects.
        """
        key = digest if digest is not None else code_digest(code)
        with self._cache_lock:
            findings = self._findings.get(key)
            if findings is not None:
                self._findings.move_to_end(key)
        if findings is None:
            findings = self._walk(code)
            with self._cache_lock:
                self._findings[key] = findings
                if len(self._findings) > self.CACHE_SIZE:
                    self._findings.popitem(last=False)
        return GuardVerdict(violations=list(findings))

    def _walk(self, code: str) -> tuple[Violation, ...]:
        try:
            tree = parse_source(code)
        except (SyntaxError, ValueError):
            return ()
        except (RecursionError, SystemError):
            # Pathological nesting (or a CPython parser fault) — fail
            # open: the runtime sandbox still contains execution.
            return ()
        return tuple(run_rules(tree, self._rules(), source=code))
