"""CodeGuard: adversarial corpus, policy drift, and pipeline acceptance."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.expert.codegen import no_mpiio_code, small_io_code, strip_imports
from repro.llm.expert.model import ISSUE_MARKER
from repro.llm.interpreter import (
    ALLOWED_MODULES,
    _BLOCKED_BUILTINS,
    CodeInterpreter,
    _namespace,
)
from repro.obs.trace import NullTracer, Tracer
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
    """Verdicts are memoized by code shape; the accounting is per run."""

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

    def test_vet_span_and_metrics_fire_on_every_run(self, tmp_path, monkeypatch):
        from repro.llm import interpreter as interpreter_module

        monkeypatch.setattr(interpreter_module, "_GUARD", CodeGuard())
        metrics = MetricsRegistry()
        tracer = Tracer()
        interpreter = CodeInterpreter(tmp_path, metrics=metrics, tracer=tracer)
        for path in ("a.csv", "b.csv", "a.csv"):
            code = f"CSV_PATH = {path!r}\nimport os\nrows = open(CSV_PATH)"
            assert interpreter.run(code).guard_blocked
        assert metrics.counter_value("sca.vet.checks") == 3
        assert metrics.counter_value("sca.vet.walks") == 1
        assert metrics.counter_value("sca.vet.blocked") == 3
        assert metrics.counter_value("sca.vet.warnings") == 3
        vets = [span for span in tracer.spans() if span.name == "sca.vet"]
        assert [span.attributes["cached"] for span in vets] == [False, True, True]


def _guard_key(code: str) -> bytes:
    """The key CodeGuard files ``code``'s findings under."""
    return guard_module.shape_key(code) or guard_module.code_digest(code)


#: Paths as the expert quotes them: absolute or relative, with ``..``,
#: spaces and non-ASCII parts.
_paths = st.builds(
    lambda lead, parts: lead + "/".join(parts),
    st.sampled_from(["", "/"]),
    st.lists(
        st.sampled_from(
            ["..", ".", "objects", "0f", "POSIX.csv", "a b", "café", "日本", "x" * 40]
        ),
        max_size=6,
    ),
)
#: Int literal text of any length: past the 640-digit cap, and past
#: CPython's default 4300-digit parse limit.
_int_literals = st.one_of(
    st.integers().map(str),
    st.builds(
        lambda sign, lead, count: sign + lead + "9" * count,
        st.sampled_from(["", "-"]),
        st.sampled_from("123456789"),
        st.integers(min_value=0, max_value=5000),
    ),
    st.sampled_from(["0", "-0", "00", "007"]),
)
#: Raw text rich in what can end a literal early or fail its parse.
_raw_text = st.one_of(
    st.text(max_size=12),
    st.lists(
        st.sampled_from(
            ["a", "/", " ", "é", "\\", "\\x", "\\N", "\\u12", "'", '"', "\n", "\r", "\x00", "\ud800"]
        ),
        max_size=4,
    ).map("".join),
)
#: Any value a header line might hold: quoted the way the expert quotes
#: it, or pasted raw between quotes, where it may break the line.
_header_values = st.one_of(
    _int_literals,
    _paths.map(repr),
    _paths.map(lambda path: f'"{path}"'),
    _raw_text.map(repr),
    _raw_text.map(lambda text: f"'{text}'"),
)
_header_names = st.from_regex(r"[A-Z][A-Z0-9_]{0,8}", fullmatch=True)

#: Bodies that follow a header: the corpus, an expert snippet's
#: analysis, and text that does not start a fresh statement.
_SHAPE_BODIES = [snippet for snippet, _ in ADVERSARIAL_CORPUS] + [
    small_io_code(Path("POSIX.csv"), 1, 1).split("\n", 3)[3],
    "    import os",
    ")\nimport os",
    "'''\nX = 1\n'''\nimport os",
    "",
]


@st.composite
def header_siblings(draw):
    """Two snippets with one banner, names and body, but other values."""
    names = draw(st.lists(_header_names, min_size=1, max_size=4))
    banner = draw(st.sampled_from(["", f'print("{ISSUE_MARKER} small_io")\n']))
    body = draw(st.sampled_from(_SHAPE_BODIES))

    def snippet() -> str:
        lines = [f"{name} = {draw(_header_values)}\n" for name in names]
        return banner + "".join(lines) + body

    return snippet(), snippet()


def _check_cached_findings_equal_a_walk(siblings) -> None:
    warm, snippet = siblings
    guard = CodeGuard()
    guard.vet(warm)
    verdict = guard.vet(snippet)
    assert tuple(verdict.violations) == guard._walk(snippet)
    assert verdict.cached == (_guard_key(warm) == _guard_key(snippet))


#: Raw values may hold invalid escapes, which ``ast.parse`` warns about.
_quiet_escapes = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning", "ignore::SyntaxWarning"
)


class TestShapeKey:
    """Snippets that differ only in header values share one walk."""

    @_quiet_escapes
    @settings(max_examples=300, deadline=None)
    @given(siblings=header_siblings())
    def test_findings_after_a_sibling_equal_an_uncached_walk(self, siblings):
        _check_cached_findings_equal_a_walk(siblings)

    @pytest.mark.slow
    @_quiet_escapes
    @settings(max_examples=3000, deadline=None)
    @given(siblings=header_siblings())
    def test_findings_after_a_sibling_many_examples(self, siblings):
        _check_cached_findings_equal_a_walk(siblings)

    @pytest.mark.parametrize(
        "snippet,rule", ADVERSARIAL_CORPUS, ids=[s for s, _ in ADVERSARIAL_CORPUS]
    )
    def test_corpus_blocks_alike_under_every_header(self, snippet, rule):
        guard = CodeGuard()
        headers = [
            f'print("{ISSUE_MARKER} small_io")\nPOSIX_PATH = {path!r}\nNPROCS = {n}\n'
            for path, n in [
                ("/tmp/objects/0f/0fee/POSIX.csv", 64),
                ("../a b/café.csv", -1),
                ("POSIX.csv", 10**50),
            ]
        ]
        verdicts = [guard.vet(header + snippet) for header in headers]
        assert [verdict.cached for verdict in verdicts] == [False, True, True]
        bare = GUARD.vet(snippet)
        for header, verdict in zip(headers, verdicts):
            assert tuple(verdict.violations) == guard._walk(header + snippet)
            assert rule in {v.rule for v in verdict.blocking}
            # The bare snippet's findings, three lines down.
            assert [(v.rule, v.line) for v in verdict.violations] == [
                (v.rule, v.line + 3) for v in bare.violations
            ]

    @pytest.mark.parametrize(
        "first,second",
        [
            ("P = \"it's\"\n", 'P = "its"\n'),
            ("P = 'a\\b'\n", "P = 'ab'\n"),
            ("P = 'a\x00b'\n", "P = 'ab'\n"),
            ("P = '\ud800'\n", "P = 'a'\n"),
            ("f(\nP = 1\n)\n", "f(\nP = 2\n)\n"),
            ('P = """\nQ = 1\n"""\n', 'P = """\nQ = 2\n"""\n'),
            ("P = 1\r\n", "P = 2\r\n"),
            ("P = 07\n", "P = 7\n"),
            ("P = " + "9" * 641 + "\n", "P = 1\n"),
            ("print('x')\n", "print('y')\n"),
        ],
        ids=[
            "quote",
            "backslash",
            "nul",
            "surrogate",
            "open-bracket",
            "triple-quoted",
            "crlf",
            "leading-zero",
            "641-digits",
            "banner-quotes",
        ],
    )
    def test_lines_that_are_not_headers_share_no_key(self, first, second):
        body = "import os\n"
        assert _guard_key(first + body) != _guard_key(second + body)

    def test_header_values_are_dropped_and_names_kept(self):
        body = "rows = open(POSIX_PATH)\n"
        key = _guard_key("POSIX_PATH = '/a/POSIX.csv'\nN = 8\n" + body)
        longest = "-9" + "0" * 639
        assert key == _guard_key(f'POSIX_PATH = "../b c.csv"\nN = {longest}\n' + body)
        assert key != _guard_key("DXT_PATH = '/a/POSIX.csv'\nN = 8\n" + body)
        assert key != _guard_key("POSIX_PATH = '/a/POSIX.csv'\n" + body)
        assert key != _guard_key("POSIX_PATH = '/a/POSIX.csv'\nN = 8\n\n" + body)
        # Dropping the values cannot make a header equal a header-less text.
        assert key != _guard_key("POSIX_PATH =\nN =\n" + body)
        assert guard_module.shape_key(body) is None

    def test_two_snippets_of_one_issue_walk_once(self, monkeypatch):
        walks = []
        real_walk = CodeGuard._walk

        def counting_walk(self, code):
            walks.append(code)
            return real_walk(self, code)

        monkeypatch.setattr(CodeGuard, "_walk", counting_walk)
        guard = CodeGuard()
        banner = f'print("{ISSUE_MARKER} small_io")\n'
        first = banner + small_io_code(Path("/x/objects/0f/POSIX.csv"), 1048576, 65536)
        second = banner + small_io_code(Path("/y/a b/POSIX.csv"), 4096, 1048576)
        assert first != second
        assert guard.vet(first) == guard.vet(second)
        assert len(walks) == 1
        # Another issue's snippets are another shape.
        guard.vet(no_mpiio_code(Path("/x/POSIX.csv"), Path("/x/MPIIO.csv"), 64))
        guard.vet(no_mpiio_code(Path("/y/POSIX.csv"), None, 8))
        assert len(walks) == 2


class TestLaterSections:
    """Each banner-plus-header section drops its values, where sound."""

    @staticmethod
    def _monolithic(root: str) -> str:
        return "\n\n".join([
            f'print("{ISSUE_MARKER} small_io")\n'
            + small_io_code(Path(f"{root}/POSIX.csv"), 1048576, 65536),
            f'print("{ISSUE_MARKER} no_mpiio")\n'
            + no_mpiio_code(Path(f"{root}/POSIX.csv"), Path(f"{root}/MPIIO.csv"), 8),
        ])

    def test_every_section_of_a_combined_snippet_drops_its_values(self):
        first, second = self._monolithic("/x/a"), self._monolithic("/y/b c")
        assert first != second
        assert _guard_key(first) == _guard_key(second)
        guard = CodeGuard()
        assert not guard.vet(first).cached
        verdict = guard.vet(second)
        assert verdict.cached
        assert tuple(verdict.violations) == guard._walk(second)

    @pytest.mark.parametrize(
        "opening,closing",
        [
            ('open("""\n', '""")\n'),
            ("open(\n'''\n", "''')\n"),
            ('x = 1\ropen("""\n', '""")\n'),
        ],
        ids=["string", "string-in-brackets", "lone-cr"],
    )
    def test_an_unverified_banner_shares_no_findings(self, opening, closing):
        # The section's value is part of the opened path.  In the
        # lone-cr case a line count by "\n" alone would place the banner
        # on the line where ``open(`` starts a statement.
        banner = f'print("{ISSUE_MARKER} small_io")\n'
        benign = opening + banner + "P = 'a'\n" + closing
        escaping = opening + banner + "P = '../../etc/passwd'\n" + closing
        assert _guard_key(benign) == _guard_key(escaping)
        guard = CodeGuard()
        assert not guard.vet(benign).blocked
        verdict = guard.vet(escaping)
        assert not verdict.cached
        assert verdict.blocked
        assert tuple(verdict.violations) == guard._walk(escaping)

    def test_monolithic_diagnoses_walk_once(self, monkeypatch, hard_bundle):
        from repro.ion.analyzer import AnalyzerConfig
        from repro.ion.pipeline import IoNavigator
        from repro.llm import interpreter as interpreter_module

        walks = []
        real_walk = CodeGuard._walk

        def counting_walk(self, code):
            walks.append(code)
            return real_walk(self, code)

        monkeypatch.setattr(CodeGuard, "_walk", counting_walk)
        monkeypatch.setattr(interpreter_module, "_GUARD", CodeGuard())
        counts = []
        config = AnalyzerConfig(strategy="monolithic")
        with IoNavigator(config=config) as navigator:
            for _ in range(3):
                before = len(walks)
                navigator.diagnose(hard_bundle.log, hard_bundle.name)
                counts.append(len(walks) - before)
        assert counts == [1, 0, 0]


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
            tracer = NullTracer()
            tracer.fold_into(metrics)
            analyzer = Analyzer(
                config=AnalyzerConfig(guard=mode, parallel_prompts=1),
                tracer=tracer,
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
