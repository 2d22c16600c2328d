"""Byte-identity of every registry trace's diagnosis across refactors.

``tests/golden/registry-report-digests.json`` pins, for each of the 12
registry traces at its ``DEFAULT_SCALES`` scale, the sha256 of
``render_report(show_code=True)`` and of the ``report_to_dict`` JSON,
and the same two with the generated analysis code masked
(``render_report(show_code=False)``, and the JSON with every
diagnosis's ``code`` blanked), under the default analyzer
configuration and four variants: the
monolithic strategy, retrieval-built contexts, counters-only prompts
(no DXT) and context-free prompts.  It also pins every prompt ION sends
for one trace, which fixes each issue's context text byte for byte.

A deliberate change to the generated code changes only the ``json`` and
``report`` digests; the ``masked_*`` digests must stay as they are.

Scratch-directory paths (``<tmp>/ion-*/<trace>-*/``) are replaced by
``<dir>/`` before hashing: they are the only bytes that differ between
two processes.

The default run checks the default configuration and the prompts; the
``slow`` run checks the four variants.  If a change is *intentional*,
regenerate the file::

    ION_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_report_digests.py
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from repro.ion.analyzer import AnalyzerConfig
from repro.ion.issues import IssueType
from repro.ion.pipeline import IoNavigator
from repro.ion.report import render_report
from repro.ion.serialize import report_to_dict
from repro.llm.expert.model import SimulatedExpertLLM
from repro.llm.messages import Role
from repro.workloads.registry import workload_names

GOLDEN = Path(__file__).parent / "golden" / "registry-report-digests.json"

#: Analyzer configurations whose reports are pinned, by digest-file key.
MODES: dict[str, dict[str, object]] = {
    "default": {},
    "monolithic": {"strategy": "monolithic"},
    "retrieval": {"context_source": "retrieval"},
    "no-dxt": {"include_dxt": False},
    "no-context": {"include_context": False},
}
SLOW_MODES = ("monolithic", "retrieval", "no-dxt", "no-context")

#: The trace whose prompts are pinned (it has DXT, so DXT listings too).
PROMPT_TRACE = "ior-hard"


def _sha(text: str, trace_name: str) -> str:
    scratch = (
        re.escape(tempfile.gettempdir())
        + r"/ion-[^/]+/"
        + re.escape(trace_name)
        + r"-[^/]+/"
    )
    normalized = re.sub(scratch, "<dir>/", text)
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()


def _mode_digests(mode: str, registry_bundle) -> dict[str, dict[str, str]]:
    digests = {}
    with IoNavigator(config=AnalyzerConfig(**MODES[mode])) as navigator:
        for name in workload_names():
            bundle = registry_bundle(name)
            report = navigator.diagnose(bundle.log, bundle.name).report
            payload = report_to_dict(report)
            digests[name] = {
                "json": _sha(json.dumps(payload, sort_keys=True), bundle.name),
                "report": _sha(render_report(report, show_code=True), bundle.name),
            }
            for diagnosis in payload["diagnoses"]:
                diagnosis["code"] = ""
            digests[name]["masked_json"] = _sha(
                json.dumps(payload, sort_keys=True), bundle.name
            )
            digests[name]["masked_report"] = _sha(
                render_report(report, show_code=False), bundle.name
            )
    return digests


class _RecordingExpert(SimulatedExpertLLM):
    """The simulated expert, remembering every distinct user prompt."""

    def __init__(self) -> None:
        super().__init__()
        self.prompts: list[str] = []

    def complete(self, messages):
        for message in messages:
            if message.role == Role.USER and message.content not in self.prompts:
                self.prompts.append(message.content)
        return super().complete(messages)


def _recorded_prompts(strategy: str, registry_bundle) -> list[str]:
    client = _RecordingExpert()
    config = AnalyzerConfig(strategy=strategy, parallel_prompts=1)
    bundle = registry_bundle(PROMPT_TRACE)
    with IoNavigator(client=client, config=config) as navigator:
        navigator.diagnose(bundle.log, bundle.name)
    return client.prompts


def _prompt_digests(registry_bundle) -> dict[str, str]:
    # Serial dispatch: one prompt per issue in taxonomy order, then the
    # summary prompt.
    divide = _recorded_prompts("divide", registry_bundle)
    keys = [f"divide/{issue.value}" for issue in IssueType] + ["divide/summary"]
    assert len(divide) == len(keys)
    digests = {key: _sha(prompt, PROMPT_TRACE) for key, prompt in zip(keys, divide)}
    monolithic, _summary = _recorded_prompts("monolithic", registry_bundle)
    digests["monolithic"] = _sha(monolithic, PROMPT_TRACE)
    return digests


def _regenerate(registry_bundle) -> None:
    pinned: dict[str, object] = {
        mode: _mode_digests(mode, registry_bundle) for mode in MODES
    }
    pinned["prompts"] = _prompt_digests(registry_bundle)
    GOLDEN.write_text(
        json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _expected(registry_bundle) -> dict:
    if os.environ.get("ION_REGEN_GOLDEN"):
        _regenerate(registry_bundle)
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _drifted(digests: dict, expected: dict) -> list[str]:
    """``trace/kind`` (or prompt key) of every digest that differs."""
    drifted = []
    for key, want in expected.items():
        got = digests.get(key)
        if isinstance(want, dict):
            got = got or {}
            drifted += [f"{key}/{kind}" for kind in want if got.get(kind) != want[kind]]
        elif got != want:
            drifted.append(key)
    return sorted(drifted)


def _check(section: str, digests: dict, expected: dict) -> None:
    drifted = _drifted(digests, expected[section])
    assert not drifted, (
        f"{section}: diagnoses drifted from {GOLDEN.name}: {drifted}; if the "
        "change is intentional rerun with ION_REGEN_GOLDEN=1"
    )


def test_pinned_digests_cover_every_registry_trace():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for mode in MODES:
        assert sorted(expected[mode]) == sorted(workload_names())
        for digests in expected[mode].values():
            assert sorted(digests) == ["json", "masked_json", "masked_report", "report"]
    assert len(expected["prompts"]) == len(IssueType) + 2


def test_default_reports_match_pinned_digests(registry_bundle):
    expected = _expected(registry_bundle)
    _check("default", _mode_digests("default", registry_bundle), expected)


def test_prompts_match_pinned_digests(registry_bundle):
    expected = _expected(registry_bundle)
    _check("prompts", _prompt_digests(registry_bundle), expected)


@pytest.mark.slow
@pytest.mark.parametrize("mode", SLOW_MODES)
def test_variant_reports_match_pinned_digests(mode, registry_bundle):
    expected = _expected(registry_bundle)
    _check(mode, _mode_digests(mode, registry_bundle), expected)
