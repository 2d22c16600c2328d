"""The diagnosis pipeline runs without importing numpy."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PIPELINE = textwrap.dedent(
    """
    import sys
    import tempfile
    from pathlib import Path

    from repro import BatchNavigator, IoNavigator
    from repro.darshan.binformat import write_log
    from repro.journey import JourneyConfig, JourneyNavigator
    from repro.workloads.registry import make_workload

    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name in ("ior-hard", "stdio-logger"):
            log = make_workload(name).run(scale=0.005).log
            paths.append(write_log(log, Path(tmp) / f"{name}.darshan"))
        with IoNavigator() as navigator:
            navigator.diagnose_file(paths[0])
        with BatchNavigator() as batch:
            assert not batch.run_files(paths).failed
        with JourneyNavigator(journey_config=JourneyConfig(scale=0.05)) as nav:
            nav.navigate(make_workload("ior-easy-2k-shared"))
    print("numpy" in sys.modules)
    """
)


def test_pipeline_never_imports_numpy():
    """Diagnose, batch and journey runs leave numpy unloaded.

    numpy is a declared dependency but nothing on the pipeline's path
    needs it, and importing it costs about 11.5 MiB of resident memory
    (25.0 -> 36.6 MiB measured): enough on its own to break the
    benchmark's 0.15 ``peak_rss_mb`` bound on a ~42 MiB journey run.
    """
    completed = subprocess.run(
        [sys.executable, "-c", PIPELINE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip().splitlines()[-1] == "False"
