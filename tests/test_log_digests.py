"""Byte-identity of simulated logs across simulator refactors.

``tests/golden/simulated-log-digests.json`` pins the sha256 of the
``write_log`` bytes of every registry trace at its ``DEFAULT_SCALES``
scale, for input seeds 0-7 on workloads with a ``seed`` knob, and of
the four configurations the paper-scale ``ior-easy-2k-shared`` journey
simulates.  Any change to the simulator's cost, lock or counter
arithmetic — or to their float order — changes a digest.

The default run checks seed 0 plus the journey configurations; the
``slow`` run checks every seed.  Unseeded registry traces come from the
session's shared ``registry_bundle`` fixture, which the report and
Drishti digest suites also read.  If a change is *intentional*,
regenerate the file::

    ION_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_log_digests.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Callable

import pytest

from repro.darshan.binformat import write_log
from repro.evaluation.experiments import DEFAULT_SCALES
from repro.util.units import MIB
from repro.workloads.registry import make_workload, workload_knobs, workload_names

GOLDEN = Path(__file__).parent / "golden" / "simulated-log-digests.json"
SEEDS = range(8)

#: The configurations the paper-scale journey over ior-easy-2k-shared
#: simulates: the baseline, each remediation alone, and both applied.
JOURNEY_CONFIGS: dict[str, dict[str, object]] = {
    "baseline": {},
    "aligned": {"transfer_size": MIB},
    "collective": {"api": "MPIIO", "collective": True},
    "aligned+collective": {
        "transfer_size": MIB, "api": "MPIIO", "collective": True,
    },
}


#: A case simulates (or fetches) the log it pins.
Case = Callable[[], object]


def _simulate(name: str, overrides: dict[str, object], scale: float):
    return make_workload(name, overrides).run(scale=scale).log


def _shared(registry_bundle, name: str):
    return registry_bundle(name).log


def _digest(log, tmp_path: Path) -> str:
    path = write_log(log, tmp_path / "trace.darshan")
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _registry_cases(seeds, registry_bundle) -> dict[str, Case]:
    cases: dict[str, Case] = {}
    for name in workload_names():
        if "seed" not in workload_knobs(name):
            cases[name] = functools.partial(_shared, registry_bundle, name)
            continue
        for seed in seeds:
            cases[f"{name}@seed={seed}"] = functools.partial(
                _simulate, name, {"seed": seed}, DEFAULT_SCALES[name]
            )
    return cases


def _journey_cases() -> dict[str, Case]:
    return {
        f"journey/{label}": functools.partial(
            _simulate, "ior-easy-2k-shared", overrides, 1.0
        )
        for label, overrides in JOURNEY_CONFIGS.items()
    }


def _check(cases: dict[str, Case], tmp_path: Path, registry_bundle) -> None:
    digests = {key: _digest(case(), tmp_path) for key, case in cases.items()}
    if os.environ.get("ION_REGEN_GOLDEN"):
        everything = {**_registry_cases(SEEDS, registry_bundle), **_journey_cases()}
        pinned = {
            key: digests.get(key) or _digest(case(), tmp_path)
            for key, case in everything.items()
        }
        GOLDEN.write_text(
            json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    drifted = sorted(key for key in digests if digests[key] != expected.get(key))
    assert not drifted, (
        f"simulated logs drifted from {GOLDEN.name}: {drifted}; if the change "
        "is intentional rerun with ION_REGEN_GOLDEN=1"
    )


def test_registry_and_journey_logs_match_pinned_digests(
    tmp_path, registry_bundle
):
    cases = {**_registry_cases([0], registry_bundle), **_journey_cases()}
    _check(cases, tmp_path, registry_bundle)


@pytest.mark.slow
def test_every_seeded_registry_log_matches_pinned_digests(
    tmp_path, registry_bundle
):
    _check(_registry_cases(SEEDS, registry_bundle), tmp_path, registry_bundle)
