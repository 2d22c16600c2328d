"""ion-lint: rule units, baseline semantics, CLI, and repo cleanliness."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sca.baseline import (
    compare,
    load_baseline,
    render_baseline,
    violation_counts,
    violation_key,
)
from repro.sca.cli import main as lint_main
from repro.sca.lint import (
    LINT_METRIC_NAME,
    LINT_MUTABLE_DEFAULT,
    LINT_RAW_OPEN,
    LINT_SILENT_EXCEPT,
    LINT_SPAN_NAME,
    lint_paths,
    lint_source,
)
from repro.sca.registry import METRIC_NAMES, SPAN_NAMES

REPO_ROOT = Path(__file__).resolve().parent.parent

PIPELINE_PATH = "repro/ion/example.py"


def rules_in(source: str, path: str = PIPELINE_PATH) -> list[str]:
    return [v.rule for v in lint_source(source, path)]


class TestSpanNameRule:
    def test_registered_literal_is_clean(self):
        source = "with self.tracer.span('pipeline.diagnose'):\n    pass\n"
        assert rules_in(source) == []

    def test_unregistered_literal_flagged(self):
        source = "with self.tracer.span('pipeline.renamed'):\n    pass\n"
        assert rules_in(source) == [LINT_SPAN_NAME]

    def test_dynamic_name_flagged(self):
        source = "with tracer.span(f'span.{x}'):\n    pass\n"
        assert rules_in(source) == [LINT_SPAN_NAME]

    def test_non_tracer_span_call_ignored(self):
        source = "widget.span('whatever')\n"
        assert rules_in(source) == []


class TestMetricNameRule:
    def test_registered_literal_is_clean(self):
        source = "self.metrics.counter('sca.vet.checks').inc()\n"
        assert rules_in(source) == []

    def test_unregistered_literal_flagged(self):
        source = "self.metrics.counter('sca.vet.typo').inc()\n"
        assert rules_in(source) == [LINT_METRIC_NAME]

    def test_dynamic_name_flagged(self):
        source = "metrics.gauge('x.' + name).set(1)\n"
        assert rules_in(source) == [LINT_METRIC_NAME]


class TestRawOpenRule:
    def test_open_in_pipeline_layer_flagged(self):
        source = "handle = open('out.json', 'w')\n"
        assert rules_in(source) == [LINT_RAW_OPEN]

    def test_write_text_in_pipeline_layer_flagged(self):
        source = "Path('x').write_text('data')\n"
        assert rules_in(source) == [LINT_RAW_OPEN]

    def test_outside_pipeline_layers_ignored(self):
        source = "handle = open('out.json', 'w')\n"
        assert rules_in(source, path="repro/util/example.py") == []

    def test_sanctioned_interpreter_file_exempt(self):
        source = "handle = open('out.json')\n"
        assert rules_in(source, path="repro/llm/interpreter.py") == []


class TestMutableDefaultRule:
    def test_list_default_flagged(self):
        assert rules_in("def f(x=[]):\n    pass\n") == [LINT_MUTABLE_DEFAULT]

    def test_dict_call_default_flagged(self):
        assert rules_in("def f(*, x=dict()):\n    pass\n") == [LINT_MUTABLE_DEFAULT]

    def test_lambda_default_flagged(self):
        assert rules_in("g = lambda x={1}: x\n") == [LINT_MUTABLE_DEFAULT]

    def test_none_and_scalar_defaults_clean(self):
        assert rules_in("def f(x=None, y=0, z=('a',)):\n    pass\n") == []


class TestSilentExceptRule:
    def test_swallowing_handler_flagged(self):
        source = "try:\n    work()\nexcept Exception:\n    pass\n"
        assert rules_in(source) == [LINT_SILENT_EXCEPT]

    def test_bare_except_flagged(self):
        source = "try:\n    work()\nexcept:\n    result = None\n"
        assert rules_in(source) == [LINT_SILENT_EXCEPT]

    def test_reraise_is_clean(self):
        source = "try:\n    work()\nexcept Exception:\n    raise\n"
        assert rules_in(source) == []

    def test_recording_to_metrics_is_clean(self):
        source = (
            "try:\n"
            "    work()\n"
            "except Exception as exc:\n"
            "    self.metrics.counter('sca.vet.checks').inc()\n"
        )
        assert rules_in(source) == []

    def test_narrow_exception_ignored(self):
        source = "try:\n    work()\nexcept ValueError:\n    pass\n"
        assert rules_in(source) == []


class TestLintPaths:
    def test_syntax_error_reported_not_raised(self):
        assert rules_in("def broken(:\n") == ["lint.syntax"]

    def test_deterministic_sorted_output(self, tmp_path):
        pkg = tmp_path / "repro" / "ion"
        pkg.mkdir(parents=True)
        (pkg / "b.py").write_text("open('x')\n")
        (pkg / "a.py").write_text("def f(x=[]):\n    open('y')\n")
        first = lint_paths([tmp_path], tmp_path)
        second = lint_paths([tmp_path], tmp_path)
        assert [v.render() for v in first] == [v.render() for v in second]
        assert [(v.path, v.rule) for v in first] == [
            ("repro/ion/a.py", LINT_MUTABLE_DEFAULT),
            ("repro/ion/a.py", LINT_RAW_OPEN),
            ("repro/ion/b.py", LINT_RAW_OPEN),
        ]


class TestBaseline:
    def _violations(self, tmp_path, source="open('x')\nopen('y')\n"):
        pkg = tmp_path / "repro" / "ion"
        pkg.mkdir(parents=True, exist_ok=True)
        (pkg / "mod.py").write_text(source)
        return lint_paths([tmp_path], tmp_path)

    def test_exact_baseline_exempts_everything(self, tmp_path):
        violations = self._violations(tmp_path)
        baseline = violation_counts(violations)
        diff = compare(violations, baseline)
        assert diff.clean
        assert len(diff.exempted) == 2
        assert diff.stale == {}

    def test_excess_over_baseline_is_new(self, tmp_path):
        violations = self._violations(tmp_path)
        key = violation_key(violations[0])
        diff = compare(violations, {key: 1})
        assert not diff.clean
        # The whole key's findings are surfaced, not a guessed line.
        assert len(diff.new) == 2

    def test_fixed_violations_leave_stale_entries(self, tmp_path):
        violations = self._violations(tmp_path, source="open('x')\n")
        key = violation_key(violations[0])
        diff = compare(violations, {key: 3})
        assert diff.clean
        assert diff.stale == {key: 2}

    def test_round_trip_through_render_and_load(self, tmp_path):
        violations = self._violations(tmp_path)
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(render_baseline(violations))
        assert load_baseline(baseline_file) == violation_counts(violations)

    def test_missing_baseline_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}

    def test_version_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"version": 99, "entries": {}}')
        with pytest.raises(ValueError):
            load_baseline(bad)


@pytest.fixture()
def lint_tree(tmp_path):
    pkg = tmp_path / "repro" / "ion"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text("open('x')\n")
    return tmp_path


class TestCli:
    def _run(self, capsys, *argv):
        status = lint_main(list(argv))
        return status, capsys.readouterr().out

    def test_violations_exit_nonzero(self, lint_tree, capsys):
        status, out = self._run(
            capsys, str(lint_tree), "--root", str(lint_tree)
        )
        assert status == 1
        assert "NEW  repro/ion/mod.py:1:" in out
        assert "1 new, 0 exempted" in out

    def test_baseline_makes_run_clean(self, lint_tree, capsys):
        baseline = lint_tree / "baseline.json"
        assert (
            lint_main(
                [
                    str(lint_tree),
                    "--root",
                    str(lint_tree),
                    "--baseline",
                    str(baseline),
                    "--write-baseline",
                ]
            )
            == 0
        )
        capsys.readouterr()
        status, out = self._run(
            capsys,
            str(lint_tree),
            "--root",
            str(lint_tree),
            "--baseline",
            str(baseline),
        )
        assert status == 0
        assert "0 new, 1 exempted" in out
        assert "NEW" not in out

    def test_write_baseline_requires_baseline_path(self, lint_tree, capsys):
        assert lint_main([str(lint_tree), "--write-baseline"]) == 2

    def test_json_output_deterministic(self, lint_tree, capsys):
        _, first = self._run(
            capsys, str(lint_tree), "--root", str(lint_tree), "--format", "json"
        )
        _, second = self._run(
            capsys, str(lint_tree), "--root", str(lint_tree), "--format", "json"
        )
        assert first == second
        payload = json.loads(first)
        assert payload["summary"] == {
            "exempted": 0,
            "new": 1,
            "stale_baseline": {},
            "total": 1,
        }
        (violation,) = payload["violations"]
        assert violation["rule"] == LINT_RAW_OPEN
        assert violation["new"] is True
        assert violation["path"] == "repro/ion/mod.py"

    def test_text_output_deterministic(self, lint_tree, capsys):
        _, first = self._run(capsys, str(lint_tree), "--root", str(lint_tree))
        _, second = self._run(capsys, str(lint_tree), "--root", str(lint_tree))
        assert first == second


class TestRepoInvariants:
    """The committed tree is clean modulo the committed baseline."""

    def test_src_clean_against_committed_baseline(self):
        violations = lint_paths([REPO_ROOT / "src"], REPO_ROOT)
        baseline = load_baseline(REPO_ROOT / "ion-lint.baseline.json")
        diff = compare(violations, baseline)
        new = "\n".join(v.render() for v in diff.new)
        assert diff.clean, f"new ion-lint violations:\n{new}"

    def test_committed_baseline_is_tight(self):
        """No stale exemptions: the baseline matches reality exactly."""
        violations = lint_paths([REPO_ROOT / "src"], REPO_ROOT)
        baseline = load_baseline(REPO_ROOT / "ion-lint.baseline.json")
        assert compare(violations, baseline).stale == {}

    def test_registries_have_no_unknown_entries(self):
        """Every registered span/metric literal appears somewhere in src.

        Guards the registry against rot: a renamed span must update
        the registry, and a registry entry with no call-site left is
        dead weight.
        """
        sources = "\n".join(
            path.read_text(encoding="utf-8")
            for path in sorted((REPO_ROOT / "src").rglob("*.py"))
            if "repro/sca/" not in path.as_posix()
        )
        for name in sorted(SPAN_NAMES | METRIC_NAMES):
            assert f'"{name}"' in sources or f"'{name}'" in sources, (
                f"registry entry {name!r} has no call-site in src/"
            )

    def test_span_latency_names_are_not_metric_names(self):
        """``--metrics-out`` derives ``<span>.seconds`` per span name.

        A registered metric of the same name would make the exporter
        raise, so the two registries must never meet.
        """
        derived = {f"{name}.seconds" for name in SPAN_NAMES}
        assert derived.isdisjoint(METRIC_NAMES)
