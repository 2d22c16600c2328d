"""CodeGuard: adversarial corpus, policy drift, and pipeline acceptance."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.expert.codegen import strip_imports
from repro.llm.interpreter import (
    ALLOWED_MODULES,
    _BLOCKED_BUILTINS,
    CodeInterpreter,
    _namespace,
)
from repro.obs.trace import Tracer
from repro.sca import CodeGuard, GuardPolicy, SANDBOX_POLICY
from repro.sca import guard as guard_module
from repro.sca.guard import (
    RULE_BUILTIN,
    RULE_DUNDER,
    RULE_IMPORT,
    RULE_LOOP,
    RULE_OPEN_DYNAMIC,
    RULE_PATH,
    RULE_RANGE,
)
from repro.sca.violations import GuardSeverity
from repro.util.metrics import MetricsRegistry

GUARD = CodeGuard()


#: The adversarial corpus: (snippet, rule id that must fire).
ADVERSARIAL_CORPUS = [
    # -- import smuggling ---------------------------------------------
    ("import os", RULE_IMPORT),
    ("import os.path", RULE_IMPORT),
    ("import socket", RULE_IMPORT),
    ("from subprocess import run", RULE_IMPORT),
    ("from os import path", RULE_IMPORT),
    ("import csv, os", RULE_IMPORT),
    ("import os as harmless_name", RULE_IMPORT),
    ("from . import secrets", RULE_IMPORT),
    # -- blocked builtins, aliasing, getattr indirection --------------
    ("eval('1+1')", RULE_BUILTIN),
    ("e = eval\ne('1+1')", RULE_BUILTIN),
    ("exec('x = 1')", RULE_BUILTIN),
    ("compile('1', '<s>', 'eval')", RULE_BUILTIN),
    ("__import__('os')", RULE_BUILTIN),
    ("g = globals()", RULE_BUILTIN),
    ("print(vars())", RULE_BUILTIN),
    ("breakpoint()", RULE_BUILTIN),
    ("f = getattr(json, 'eval')", RULE_BUILTIN),
    # -- dunder walks out of the object graph -------------------------
    ("().__class__", RULE_DUNDER),
    ("[].__class__.__bases__[0].__subclasses__()", RULE_DUNDER),
    ("(lambda: 0).__globals__", RULE_DUNDER),
    ("getattr([], '__class__')", RULE_DUNDER),
    ("x = __builtins__", RULE_DUNDER),
    ("print(open.__self__)", RULE_DUNDER),
    # -- path escapes -------------------------------------------------
    ("open('/etc/passwd')", RULE_PATH),
    ("open('../outside.csv')", RULE_PATH),
    ("open('data/../../escape.csv')", RULE_PATH),
    ("open(file='/etc/hostname')", RULE_PATH),
    # -- unbounded loops ----------------------------------------------
    ("while True:\n    x = 1", RULE_LOOP),
    ("while 1:\n    pass", RULE_LOOP),
    ("while True:\n    for i in [1, 2]:\n        break", RULE_LOOP),
    # -- oversized literal ranges -------------------------------------
    ("for i in range(10**9):\n    pass", RULE_RANGE),
    ("total = sum(range(1000000000))", RULE_RANGE),
    ("list(range(0, 2 * 10**10, 3))", RULE_RANGE),
]


class TestAdversarialCorpus:
    def test_corpus_is_large_enough(self):
        assert len(ADVERSARIAL_CORPUS) >= 20

    @pytest.mark.parametrize(
        "snippet,rule", ADVERSARIAL_CORPUS, ids=[s for s, _ in ADVERSARIAL_CORPUS]
    )
    def test_snippet_blocked_with_expected_rule(self, snippet, rule):
        verdict = GUARD.vet(snippet)
        assert verdict.blocked
        assert rule in {v.rule for v in verdict.blocking}

    @pytest.mark.parametrize(
        "snippet,rule", ADVERSARIAL_CORPUS, ids=[s for s, _ in ADVERSARIAL_CORPUS]
    )
    def test_snippet_rejected_pre_execution(self, snippet, rule, tmp_path):
        """Enforce mode refuses every corpus snippet before running it."""
        marker = tmp_path / "executed.marker"
        interpreter = CodeInterpreter(tmp_path)
        result = interpreter.run(snippet)
        assert result.guard_blocked
        assert f"[{rule}]" in result.error
        assert not marker.exists()

    def test_violations_carry_location_and_hint(self):
        verdict = GUARD.vet("x = 1\nimport os\n")
        (violation,) = verdict.blocking
        assert violation.line == 2
        assert violation.rule == RULE_IMPORT
        assert "allowed modules" in violation.hint
        assert violation.severity is GuardSeverity.BLOCK


class TestCleanAndWarnVerdicts:
    def test_expert_style_snippet_is_clean(self):
        code = (
            "import csv, json, statistics\n"
            "POSIX_PATH = '/tmp/workdir/posix.csv'\n"
            "rows = []\n"
            "with open(POSIX_PATH) as fh:\n"
            "    for row in csv.DictReader(fh):\n"
            "        rows.append(row)\n"
            "print(json.dumps({'rows': len(rows)}))\n"
        )
        verdict = GUARD.vet(code)
        assert not verdict.blocked
        # The dynamic open() is counted as a near-miss, nothing more.
        assert {v.rule for v in verdict.warnings} == {RULE_OPEN_DYNAMIC}

    def test_bounded_while_loop_is_clean(self):
        assert not GUARD.vet("while True:\n    break").blocked
        assert not GUARD.vet(
            "while True:\n    if x:\n        break\n    x = True"
        ).blocked
        assert not GUARD.vet(
            "def f():\n    while True:\n        return 1"
        ).blocked

    def test_nested_break_does_not_save_outer_loop(self):
        code = "while True:\n    while x:\n        break"
        assert GUARD.vet(code).blocked

    def test_reasonable_literal_range_is_clean(self):
        assert not GUARD.vet("for i in range(100):\n    pass").blocked
        assert not GUARD.vet("list(range(1, 1000, 2))").blocked

    def test_syntax_errors_left_to_the_interpreter(self):
        verdict = GUARD.vet("def broken(:")
        assert not verdict.blocked
        assert verdict.violations == []

    def test_relative_open_is_literal_and_clean(self):
        assert not GUARD.vet("open('posix.csv')").blocked


class TestVerdictCache:
    """Verdicts are memoized by code text; the accounting is per run."""

    def test_same_code_walks_the_ast_once(self, monkeypatch):
        walks = []
        real_run_rules = guard_module.run_rules

        def counting_run_rules(*args, **kwargs):
            walks.append(1)
            return real_run_rules(*args, **kwargs)

        monkeypatch.setattr(guard_module, "run_rules", counting_run_rules)
        guard = CodeGuard()
        code = "import os\nrows = open(name)"
        first = guard.vet(code)
        second = guard.vet(code)
        assert len(walks) == 1
        assert first == second
        assert first.blocked and first.warnings

    def test_text_that_is_not_utf8_still_vets(self):
        guard = CodeGuard()
        code = "x = '\ud800'"
        assert guard.vet(code) == guard.vet(code)

    def test_each_call_gets_its_own_verdict(self):
        guard = CodeGuard()
        first = guard.vet("import os")
        first.violations.clear()
        assert guard.vet("import os").blocked

    def test_vet_span_and_metrics_fire_on_every_run(self, tmp_path):
        metrics = MetricsRegistry()
        tracer = Tracer()
        interpreter = CodeInterpreter(tmp_path, metrics=metrics, tracer=tracer)
        for _ in range(3):
            assert interpreter.run("import os\nrows = open(name)").guard_blocked
        assert metrics.counter_value("sca.vet.checks") == 3
        assert metrics.counter_value("sca.vet.blocked") == 3
        assert metrics.counter_value("sca.vet.warnings") == 3
        assert [span.name for span in tracer.spans()].count("sca.vet") == 3


class TestPolicyDrift:
    """Satellite 1: one SANDBOX_POLICY, two consumers, zero drift."""

    def test_interpreter_allowlist_matches_policy(self):
        assert set(ALLOWED_MODULES) == set(SANDBOX_POLICY.allowed_modules)

    def test_interpreter_blocked_builtins_match_policy(self):
        assert set(_BLOCKED_BUILTINS) == set(SANDBOX_POLICY.blocked_builtins)

    def test_guard_reads_the_same_policy_object(self):
        from repro.llm import interpreter as interpreter_module

        assert interpreter_module.SANDBOX_POLICY is SANDBOX_POLICY
        assert CodeGuard().policy is SANDBOX_POLICY

    def test_runtime_namespace_strips_every_policy_builtin(self, tmp_path):
        import io

        # The namespace a sandbox worker builds for each run.
        namespace = _namespace(str(tmp_path), tmp_path.resolve(), io.StringIO())
        safe_builtins = namespace["__builtins__"]
        for name in SANDBOX_POLICY.blocked_builtins:
            if name == "__import__":
                continue  # replaced by the guarded import, not exposed raw
            assert name not in safe_builtins

    def test_every_allowed_module_actually_imports(self, tmp_path):
        interpreter = CodeInterpreter(tmp_path)
        modules = ", ".join(sorted(SANDBOX_POLICY.allowed_modules))
        result = interpreter.run(f"import {modules}\nprint('ok')")
        assert result.ok, result.error
        assert result.stdout == "ok\n"


@st.composite
def clean_snippets(draw):
    """Small guard-clean programs with deterministic printed output."""
    count = draw(st.integers(min_value=1, max_value=4))
    lines = []
    for index in range(count):
        a = draw(st.integers(min_value=-1000, max_value=1000))
        b = draw(st.integers(min_value=1, max_value=1000))
        op = draw(st.sampled_from(["+", "-", "*", "%", "//"]))
        lines.append(f"v{index} = {a} {op} {b}")
        lines.append(f"print('v{index}', v{index})")
    return "\n".join(lines)


class TestGuardCleanExecutionUnchanged:
    @settings(max_examples=60, deadline=None)
    @given(snippet=clean_snippets())
    def test_enforce_and_off_agree_on_clean_code(self, tmp_path_factory, snippet):
        workdir = tmp_path_factory.mktemp("sca-prop")
        verdict = GUARD.vet(snippet)
        assert not verdict.blocked
        enforcing = CodeInterpreter(workdir, guard="enforce").run(snippet)
        unguarded = CodeInterpreter(workdir, guard="off").run(snippet)
        assert enforcing.ok and unguarded.ok
        assert enforcing.stdout == unguarded.stdout
        assert enforcing.error == unguarded.error


class TestStripImports:
    def test_drops_banned_import(self):
        code = "import os\nprint(1)\n"
        assert strip_imports(code, {"os"}) == "print(1)\n"

    def test_keeps_surviving_names_in_multi_import(self):
        code = "import csv, os, json\nprint(1)\n"
        assert strip_imports(code, {"os"}) == "import csv, json\nprint(1)\n"

    def test_preserves_aliases(self):
        code = "import json as j, os as o\nprint(j)\n"
        assert strip_imports(code, {"os"}) == "import json as j\nprint(j)\n"

    def test_drops_from_import_of_banned_root(self):
        code = "from os import path\nprint(1)\n"
        assert strip_imports(code, {"os"}) == "print(1)\n"

    def test_dotted_root_matches(self):
        code = "import os.path\nprint(1)\n"
        assert strip_imports(code, {"os"}) == "print(1)\n"

    def test_unrelated_code_untouched(self):
        code = "import csv\nrows = [1, 2]\nprint(len(rows))\n"
        assert strip_imports(code, {"os"}) == code

    def test_unparseable_code_returned_unchanged(self):
        assert strip_imports("def broken(:", {"os"}) == "def broken(:"


class TestExpertGuardRepair:
    """The deterministic expert repairs sca.import rejections."""

    def _guard_feedback(self, module: str) -> str:
        return (
            "[execution error]\n"
            "Traceback (most recent call last):\n"
            '  File "<analysis>", line 1, in <module>\n'
            "GuardViolation: analysis code rejected by the sandbox policy "
            "(1 violation)\n"
            f"  [sca.import] line 1: module '{module}' is not importable "
            "in the analysis sandbox\n"
            "      hint: allowed modules: csv, json"
        )

    def test_repair_regenerates_code_without_banned_import(
        self, easy_extraction
    ):
        from repro.ion.issues import IssueType
        from repro.ion.prompts import build_issue_prompt
        from repro.ion.specs import spec_for
        from repro.llm.expert.model import SimulatedExpertLLM
        from repro.llm.messages import Message

        prompt = build_issue_prompt(
            "trace", spec_for(IssueType.SMALL_IO), easy_extraction
        )
        expert = SimulatedExpertLLM()
        first = expert.complete([Message.user(prompt)])
        assert first.code_call is not None
        repair = expert.complete(
            [
                Message.user(prompt),
                Message.assistant(first.content),
                Message.tool(self._guard_feedback("os")),
            ]
        )
        assert repair.code_call is not None
        assert repair.metadata.get("guard_repair") == ["os"]
        assert "sandbox guard rejected" in repair.content
        assert "import os" not in repair.code_call.code
        # The repaired code is guard-clean and still runs.
        assert not GUARD.vet(repair.code_call.code).blocked

    def test_non_guard_errors_still_use_defensive_fallback(
        self, easy_extraction
    ):
        from repro.ion.issues import IssueType
        from repro.ion.prompts import build_issue_prompt
        from repro.ion.specs import spec_for
        from repro.llm.expert.model import SimulatedExpertLLM
        from repro.llm.messages import Message

        prompt = build_issue_prompt(
            "trace", spec_for(IssueType.SMALL_IO), easy_extraction
        )
        expert = SimulatedExpertLLM()
        first = expert.complete([Message.user(prompt)])
        retry = expert.complete(
            [
                Message.user(prompt),
                Message.assistant(first.content),
                Message.tool("[execution error]\nZeroDivisionError: boom"),
            ]
        )
        assert retry.metadata.get("debug_retry") is True
        assert "guard_repair" not in retry.metadata


class TestPipelineAcceptance:
    """Every expert-generated snippet passes the guard in enforce mode."""

    def test_full_diagnosis_zero_block_verdicts(self, easy_2k_bundle, tmp_path):
        from repro.ion.analyzer import Analyzer, AnalyzerConfig
        from repro.ion.extractor import Extractor
        from repro.ion.report import render_report
        from repro.util.metrics import MetricsRegistry

        extraction = Extractor().extract(
            easy_2k_bundle.log, tmp_path / "extract"
        )
        reports = {}
        counters = {}
        for mode in ("off", "enforce"):
            metrics = MetricsRegistry()
            analyzer = Analyzer(
                config=AnalyzerConfig(guard=mode, parallel_prompts=1),
                metrics=metrics,
            )
            report = analyzer.analyze(extraction, "accept", log=easy_2k_bundle.log)
            reports[mode] = render_report(report)
            counters[mode] = metrics
        assert counters["enforce"].counter_value("sca.vet.checks") > 0
        assert counters["enforce"].counter_value("sca.vet.blocked") == 0
        assert counters["enforce"].counter_value("sca.vet.rejected") == 0
        assert counters["off"].counter_value("sca.vet.checks") == 0
        # Byte-identical diagnosis whether or not the guard is enforcing.
        assert reports["enforce"] == reports["off"]

    def test_config_default_is_enforce(self):
        from repro.ion.analyzer import AnalyzerConfig

        assert AnalyzerConfig().guard is GuardPolicy.ENFORCE

    def test_config_rejects_unknown_guard_mode(self):
        from repro.ion.analyzer import AnalyzerConfig
        from repro.util.errors import AnalysisError

        with pytest.raises(AnalysisError):
            AnalyzerConfig(guard="paranoid")
