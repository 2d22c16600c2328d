"""Shared fixtures: tiny workload traces and extractions, built once.

Trace generation is the expensive part of most integration tests, so
session-scoped fixtures build each tiny trace exactly once and tests
treat them as read-only.
"""

from __future__ import annotations

import functools
import tempfile
from pathlib import Path

import pytest

from repro.evaluation.experiments import DEFAULT_SCALES
from repro.ion.extractor import Extractor
from repro.lustre.filesystem import LustreConfig, LustreFilesystem
from repro.util.units import KIB, MIB
from repro.workloads.ior import IorConfig, IorWorkload
from repro.workloads.registry import make_workload


@pytest.fixture(scope="session", autouse=True)
def private_tempdir(tmp_path_factory):
    """Point ``tempfile`` at a directory only this test session uses.

    Other processes sharing the system temp dir (a second pytest, a
    benchmark run) then cannot put ``ion-*`` directories where
    :func:`no_leaked_scratch_dirs` looks.
    """
    saved = tempfile.tempdir
    tempfile.tempdir = str(tmp_path_factory.mktemp("tmp"))
    yield Path(tempfile.tempdir)
    tempfile.tempdir = saved


@pytest.fixture(autouse=True)
def no_leaked_scratch_dirs(private_tempdir):
    """Fail a test that leaves a new ``ion-*`` directory in the temp dir.

    ``IoNavigator`` makes one such scratch directory and removes it on
    ``close()``; a test must use ``with IoNavigator() as navigator``.
    """
    root = private_tempdir
    before = set(root.glob("ion-*"))
    yield
    leaked = sorted(str(path) for path in set(root.glob("ion-*")) - before)
    if leaked:
        pytest.fail(f"test leaked scratch directories: {leaked}")


@pytest.fixture(scope="session")
def registry_bundle():
    """``registry_bundle(name)``: the registry trace ``name`` at its
    ``DEFAULT_SCALES`` scale, simulated at most once per session.

    The log, report and Drishti digest suites share it.  None of them
    mutates a bundle's log (its ``write_log`` bytes and its pickle are
    the same after every diagnosis mode and Drishti ran over it).
    """

    @functools.lru_cache(maxsize=None)
    def bundle(name: str):
        return make_workload(name).run(scale=DEFAULT_SCALES[name])

    return bundle


@pytest.fixture(scope="session")
def easy_2k_bundle():
    """Full-scale ior-easy 2 KiB shared-file trace (cheap: 8192 ops)."""
    workload = IorWorkload(
        config=IorConfig(
            mode="easy", api="POSIX", nprocs=4, transfer_size=2 * KIB,
            segments=1024, file_per_process=False,
            file_name="/lustre/ior-easy/ior_file_easy",
        ),
        name="ior-easy-2k-shared",
    )
    return workload.run(scale=1.0)


@pytest.fixture(scope="session")
def hard_bundle():
    """Reduced ior-hard trace (strided, misaligned, contended)."""
    workload = IorWorkload(
        config=IorConfig(
            mode="hard", api="POSIX", nprocs=4, transfer_size=47008,
            segments=100_000, file_name="/lustre/ior-hard/IOR_file",
        ),
        name="ior-hard",
    )
    return workload.run(scale=0.005)


@pytest.fixture(scope="session")
def random_bundle():
    """Reduced ior-rnd4k trace (random, shared)."""
    workload = IorWorkload(
        config=IorConfig(
            mode="random", api="POSIX", nprocs=4, transfer_size=4 * KIB,
            segments=35_900, file_name="/lustre/ior-rnd/IOR_file_random",
        ),
        name="ior-rnd4k",
    )
    return workload.run(scale=0.01)


@pytest.fixture(scope="session")
def easy_extraction(easy_2k_bundle, tmp_path_factory):
    """CSV extraction of the easy trace."""
    out = tmp_path_factory.mktemp("extract-easy")
    return Extractor().extract(easy_2k_bundle.log, out)


@pytest.fixture(scope="session")
def random_extraction(random_bundle, tmp_path_factory):
    """CSV extraction of the random trace."""
    out = tmp_path_factory.mktemp("extract-random")
    return Extractor().extract(random_bundle.log, out)


@pytest.fixture()
def small_fs():
    """A fresh small Lustre filesystem."""
    return LustreFilesystem(
        LustreConfig(ost_count=4, default_stripe_size=MIB, default_stripe_count=2)
    )
