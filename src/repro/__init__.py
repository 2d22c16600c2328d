"""Reproduction of "ION: Navigating the HPC I/O Optimization Journey
using Large Language Models" (HotStorage 2024).

Subpackages:

- :mod:`repro.darshan` — Darshan trace substrate (counters, binary log
  format, parsers, DXT).
- :mod:`repro.lustre` — Lustre filesystem model (striping, locks, OST
  and MDS cost models).
- :mod:`repro.iosim` — simulated MPI job with instrumented POSIX /
  STDIO / MPI-IO layers.
- :mod:`repro.workloads` — IO500-style benchmarks and real-application
  replays with ground-truth issue labels.
- :mod:`repro.llm` — LLM substrate: Assistants-style orchestration,
  sandboxed code interpreter, and the simulated GPT-4 I/O expert.
- :mod:`repro.ion` — the paper's contribution: extractor, issue
  contexts, analyzer, reports, interactive Q&A.
- :mod:`repro.drishti` — the trigger-based baseline tool.
- :mod:`repro.evaluation` — ground-truth scoring and regeneration of
  the paper's figures.
- :mod:`repro.service` — batch diagnosis: the content-addressed
  extraction cache and the bounded-concurrency campaign scheduler.

Quickstart::

    from repro.workloads import make_workload
    from repro.ion import IoNavigator, render_report

    bundle = make_workload("ior-hard").run(scale=0.02)
    result = IoNavigator().diagnose(bundle.log, bundle.name)
    print(render_report(result.report))
"""

from repro.util.lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "repro.ion.pipeline": ("IoNavigator",),
        "repro.service.batch": ("BatchNavigator",),
        "repro.service.cache": ("ExtractionCache",),
    },
)

__version__ = "1.0.0"

__all__ = ["BatchNavigator", "ExtractionCache", "IoNavigator", "__version__"]
