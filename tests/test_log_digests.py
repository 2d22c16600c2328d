"""Byte-identity of simulated logs across simulator refactors.

``tests/golden/simulated-log-digests.json`` pins the sha256 of the
``write_log`` bytes of every registry trace at its ``DEFAULT_SCALES``
scale, for input seeds 0-7 on workloads with a ``seed`` knob, and of
the four configurations the paper-scale ``ior-easy-2k-shared`` journey
simulates.  Any change to the simulator's cost, lock or counter
arithmetic — or to their float order — changes a digest.

The default run checks seed 0 plus the journey configurations; the
``slow`` run checks every seed.  If a change is *intentional*,
regenerate the file::

    ION_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_log_digests.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

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


def _digest(workload, scale: float, tmp_path: Path) -> str:
    path = write_log(workload.run(scale=scale).log, tmp_path / "trace.darshan")
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _registry_cases(seeds) -> dict[str, tuple[object, float]]:
    cases = {}
    for name in workload_names():
        seeded = "seed" in workload_knobs(name)
        for seed in seeds if seeded else (None,):
            key = name if seed is None else f"{name}@seed={seed}"
            overrides = None if seed is None else {"seed": seed}
            cases[key] = (make_workload(name, overrides), DEFAULT_SCALES[name])
    return cases


def _journey_cases() -> dict[str, tuple[object, float]]:
    return {
        f"journey/{label}": (make_workload("ior-easy-2k-shared", overrides), 1.0)
        for label, overrides in JOURNEY_CONFIGS.items()
    }


def _check(cases: dict[str, tuple[object, float]], tmp_path: Path) -> None:
    digests = {
        key: _digest(workload, scale, tmp_path)
        for key, (workload, scale) in cases.items()
    }
    if os.environ.get("ION_REGEN_GOLDEN"):
        everything = {**_registry_cases(SEEDS), **_journey_cases()}
        pinned = {
            key: digests.get(key) or _digest(workload, scale, tmp_path)
            for key, (workload, scale) in everything.items()
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


def test_registry_and_journey_logs_match_pinned_digests(tmp_path):
    _check({**_registry_cases([0]), **_journey_cases()}, tmp_path)


@pytest.mark.slow
def test_every_seeded_registry_log_matches_pinned_digests(tmp_path):
    _check(_registry_cases(SEEDS), tmp_path)
