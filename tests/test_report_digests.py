"""Byte-identity of every registry trace's diagnosis across refactors.

``tests/golden/registry-report-digests.json`` pins, for each of the 12
registry traces at its ``DEFAULT_SCALES`` scale, the sha256 of
``render_report(show_code=True)`` and of the ``report_to_dict`` JSON,
under the default analyzer configuration and four variants: the
monolithic strategy, retrieval-built contexts, counters-only prompts
(no DXT) and context-free prompts.  It also pins every prompt ION sends
for one trace, which fixes each issue's context text byte for byte.

Scratch-directory paths (``<tmp>/ion-*/<trace>-*/``) are replaced by
``<dir>/`` before hashing: they are the only bytes that differ between
two processes.

The default run checks the default configuration and the prompts; the
``slow`` run checks the four variants.  If a change is *intentional*,
regenerate the file::

    ION_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_report_digests.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from repro.evaluation.experiments import DEFAULT_SCALES
from repro.ion.analyzer import AnalyzerConfig
from repro.ion.issues import IssueType
from repro.ion.pipeline import IoNavigator
from repro.ion.report import render_report
from repro.ion.serialize import report_to_dict
from repro.llm.expert.model import SimulatedExpertLLM
from repro.llm.messages import Role
from repro.workloads.registry import make_workload, workload_names

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


@functools.lru_cache(maxsize=None)
def _bundle(name: str):
    return make_workload(name).run(scale=DEFAULT_SCALES[name])


def _sha(text: str, trace_name: str) -> str:
    scratch = (
        re.escape(tempfile.gettempdir())
        + r"/ion-[^/]+/"
        + re.escape(trace_name)
        + r"-[^/]+/"
    )
    normalized = re.sub(scratch, "<dir>/", text)
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()


def _mode_digests(mode: str) -> dict[str, dict[str, str]]:
    digests = {}
    with IoNavigator(config=AnalyzerConfig(**MODES[mode])) as navigator:
        for name in workload_names():
            bundle = _bundle(name)
            report = navigator.diagnose(bundle.log, bundle.name).report
            digests[name] = {
                "json": _sha(
                    json.dumps(report_to_dict(report), sort_keys=True), bundle.name
                ),
                "report": _sha(render_report(report, show_code=True), bundle.name),
            }
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


def _recorded_prompts(strategy: str) -> list[str]:
    client = _RecordingExpert()
    config = AnalyzerConfig(strategy=strategy, parallel_prompts=1)
    bundle = _bundle(PROMPT_TRACE)
    with IoNavigator(client=client, config=config) as navigator:
        navigator.diagnose(bundle.log, bundle.name)
    return client.prompts


def _prompt_digests() -> dict[str, str]:
    # Serial dispatch: one prompt per issue in taxonomy order, then the
    # summary prompt.
    divide = _recorded_prompts("divide")
    keys = [f"divide/{issue.value}" for issue in IssueType] + ["divide/summary"]
    assert len(divide) == len(keys)
    digests = {key: _sha(prompt, PROMPT_TRACE) for key, prompt in zip(keys, divide)}
    monolithic, _summary = _recorded_prompts("monolithic")
    digests["monolithic"] = _sha(monolithic, PROMPT_TRACE)
    return digests


def _regenerate() -> None:
    pinned: dict[str, object] = {mode: _mode_digests(mode) for mode in MODES}
    pinned["prompts"] = _prompt_digests()
    GOLDEN.write_text(
        json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _expected() -> dict:
    if os.environ.get("ION_REGEN_GOLDEN"):
        _regenerate()
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _check(section: str, digests: dict, expected: dict) -> None:
    drifted = sorted(
        key for key in expected[section] if digests.get(key) != expected[section][key]
    )
    assert not drifted, (
        f"{section}: diagnoses drifted from {GOLDEN.name}: {drifted}; if the "
        "change is intentional rerun with ION_REGEN_GOLDEN=1"
    )


def test_pinned_digests_cover_every_registry_trace():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for mode in MODES:
        assert sorted(expected[mode]) == sorted(workload_names())
    assert len(expected["prompts"]) == len(IssueType) + 2


def test_default_reports_match_pinned_digests():
    expected = _expected()
    _check("default", _mode_digests("default"), expected)


def test_prompts_match_pinned_digests():
    expected = _expected()
    _check("prompts", _prompt_digests(), expected)


@pytest.mark.slow
@pytest.mark.parametrize("mode", SLOW_MODES)
def test_variant_reports_match_pinned_digests(mode):
    expected = _expected()
    _check(mode, _mode_digests(mode), expected)
