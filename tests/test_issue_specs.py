"""The issue registry: its invariants, and that it is the only place
per-issue knowledge lives in the ION and LLM layers."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.darshan.counters import known_modules
from repro.evaluation.experiments import DEFAULT_SCALES
from repro.ion.issues import IssueType, Severity
from repro.ion.pipeline import IoNavigator
from repro.ion.specs import SPECS, IssueSpec, Verdict, all_specs
from repro.llm.expert.model import SimulatedExpertLLM
from repro.llm.messages import Role
from repro.workloads.registry import make_workload

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
SPEC_MODULE = SRC / "ion" / "specs.py"


class TestRegistryInvariants:
    def test_one_spec_per_issue_type(self):
        assert list(SPECS) == list(IssueType)
        assert all(issue is SPECS[issue].issue for issue in IssueType)

    def test_values_and_titles_are_unique(self):
        specs = all_specs()
        assert len({spec.issue.value for spec in specs}) == len(specs)
        assert len({spec.title for spec in specs}) == len(specs)

    def test_titles_carry_no_comma(self):
        # The monolithic prompt's "Target Issues:" header is split on
        # commas when parsed back.
        assert not [spec.title for spec in all_specs() if "," in spec.title]

    def test_modules_are_extracted_modules(self):
        extracted = set(known_modules())
        for spec in all_specs():
            assert spec.modules and set(spec.modules) <= extracted, spec.title

    def test_each_context_carries_one_of_its_markers(self):
        # Otherwise the expert treats the issue's own context as
        # ungrounded and answers vacuously.
        for spec in all_specs():
            lowered = spec.context.lower()
            assert any(m.lower() in lowered for m in spec.markers), spec.title


def test_no_module_outside_the_registry_names_an_issue_member():
    offenders = []
    for package in ("ion", "llm"):
        for path in sorted((SRC / package).rglob("*.py")):
            if path == SPEC_MODULE:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "IssueType"
                    and node.attr in IssueType.__members__
                ):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, offenders


class _RecordingExpert(SimulatedExpertLLM):
    def __init__(self) -> None:
        super().__init__()
        self.prompts: list[str] = []

    def complete(self, messages):
        self.prompts.extend(m.content for m in messages if m.role == Role.USER)
        return super().complete(messages)


def _toy_spec(issue: IssueType) -> IssueSpec:
    return IssueSpec(
        issue=issue,
        title="Toy Burst Writes",
        context="Toy bursts show up as TOY_BURST_COUNT spikes.",
        modules=("POSIX",),
        steps=lambda spec: ["Count the toy bursts."],
        code=lambda spec: 'import json\nprint(json.dumps({"toy_bursts": 42}))',
        verdict=lambda metrics, spec: Verdict(
            Severity.CRITICAL, f"Found {metrics['toy_bursts']} toy bursts."
        ),
        markers=("TOY_BURST_COUNT",),
        recommendation="spread the toy bursts out",
        keywords=("zebra",),
    )


def test_changing_one_spec_changes_every_layer(monkeypatch):
    issue = IssueType.SMALL_IO
    monkeypatch.setitem(SPECS, issue, _toy_spec(issue))
    name = "ior-easy-2k-shared"
    bundle = make_workload(name).run(scale=DEFAULT_SCALES[name])
    client = _RecordingExpert()
    with IoNavigator(client=client) as navigator:
        result = navigator.diagnose(bundle.log, bundle.name)
        lookup = result.session.ask("Is there a zebra here?")
        fix = result.session.ask("How do I fix the zebra problem?")

    prompts = [p for p in client.prompts if "## Target Issue: Toy Burst Writes" in p]
    assert prompts
    assert (
        "## Issue Context: Toy Burst Writes\n"
        "Toy bursts show up as TOY_BURST_COUNT spikes." in prompts[0]
    )
    diagnosis = result.report.diagnosis_for(issue)
    assert diagnosis.evidence == {"toy_bursts": 42}
    assert diagnosis.conclusion == "Found 42 toy bursts."
    assert diagnosis.severity is Severity.CRITICAL
    assert diagnosis.steps == ["Count the toy bursts."]
    assert "Most impactful recommendation: spread the toy bursts out." in (
        result.report.summary
    )
    # Only the toy keyword can route a question without fix intent.
    assert lookup.startswith("Found 42 toy bursts.")
    assert fix.startswith("Found 42 toy bursts.")
    assert "Recommendation: spread the toy bursts out." in fix
