"""``ion-batch`` command-line interface.

Diagnose a whole campaign of traces in one invocation::

    ion-batch trace1.darshan trace2.darshan ... [--workers N]
              [--cache-dir DIR] [--cache-size 256M] [--strategy ...]
    ion-batch --workload ior-hard --workload ior-rnd4k --scale 0.01

Traces come either from binary Darshan log files or from the named
synthetic workloads of the evaluation suite (``--workload``, repeatable
— handy for demos and smoke tests on machines without real logs).
Attaching ``--cache-dir`` makes repeated campaigns reuse extractions
through the content-addressed cache.

The command diagnoses ``--workers`` traces at a time, on threads of
one process, and starts worker processes as it needs them, one per
usable CPU of each kind: sandbox workers run the analysis snippets,
from the first snippet on.  With ``--cache-dir``, a log file the cache
has no entry for is parsed and extracted in an extraction worker,
started by the first such miss; without a cache, and for
``--workload`` traces (already in memory), extraction runs in the
command's own process.  Every worker stops when the command exits.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.ion.cli import (
    add_pipeline_args,
    analyzer_config_from_args,
    client_from_args,
)
from repro.ion.report import render_report
from repro.ion.serialize import report_to_dict
from repro.obs.cli import emit_telemetry, tracer_from_args
from repro.service.batch import BatchConfig, BatchNavigator
from repro.service.cache import ExtractionCache
from repro.util.console import suppress_broken_pipe
from repro.util.errors import ReproError
from repro.util.units import parse_size


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ion-batch",
        description=(
            "Diagnose many Darshan traces concurrently with the ION "
            "pipeline (reproduction)."
        ),
    )
    parser.add_argument(
        "traces", nargs="*", help="paths to binary Darshan logs"
    )
    parser.add_argument(
        "--workload",
        action="append",
        default=[],
        metavar="NAME",
        help="generate and diagnose a named synthetic workload "
        "(repeatable; see `iogen list` for names)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.01,
        help="scale factor for --workload traces (default: 0.01)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker pool size (default: 4)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed extraction cache root (persists "
        "across runs; omit for uncached scratch extraction)",
    )
    parser.add_argument(
        "--cache-size",
        default=None,
        metavar="SIZE",
        help="cache eviction budget, e.g. 256M (default: unbounded)",
    )
    parser.add_argument(
        "--reports",
        action="store_true",
        help="print every per-trace report, not just the campaign table",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the campaign summary (and reports) as JSON",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort the campaign on the first per-trace failure",
    )
    parser.add_argument(
        "--journey",
        action="store_true",
        help="run the full optimization journey (recommend -> apply -> "
        "verify) over each --workload instead of a one-shot diagnosis",
    )
    parser.add_argument(
        "--journey-steps",
        type=int,
        default=3,
        metavar="N",
        help="remediation budget per journey (default: 3; with --journey)",
    )
    add_pipeline_args(parser)
    return parser


def _gather_traces(args: argparse.Namespace) -> list:
    traces: list = list(args.traces)
    if args.workload:
        from repro.workloads import make_workload

        for name in args.workload:
            traces.append(make_workload(name).run(scale=args.scale))
    return traces


@suppress_broken_pipe
def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.traces and not args.workload:
        parser.error("no traces given (pass log paths and/or --workload)")
    if args.cache_size is not None and args.cache_dir is None:
        parser.error("--cache-size requires --cache-dir")
    if args.journey and args.traces:
        parser.error("--journey drives --workload entries, not trace paths")
    if args.journey and not args.workload:
        parser.error("--journey requires at least one --workload")
    try:
        cache = None
        if args.cache_dir is not None:
            max_bytes = parse_size(args.cache_size) if args.cache_size else None
            cache = ExtractionCache(args.cache_dir, max_bytes=max_bytes)
        config = BatchConfig(
            max_workers=args.workers,
            analyzer=analyzer_config_from_args(args),
            fail_fast=args.fail_fast,
        )
        client, interpreter_factory = client_from_args(args)
        tracer = tracer_from_args(args)
        with BatchNavigator(
            client=client,
            config=config,
            cache=cache,
            interpreter_factory=interpreter_factory,
            tracer=tracer,
        ) as navigator:
            if args.journey:
                from repro.journey.executor import JourneyConfig

                summary = navigator.run_journeys(
                    list(args.workload),
                    journey_config=JourneyConfig(
                        max_steps=args.journey_steps, scale=args.scale
                    ),
                )
                status = _emit_journeys(args, summary)
                emit_telemetry(args, tracer, navigator.metrics)
                return status
            summary = navigator.run(_gather_traces(args))
            emit_telemetry(args, tracer, navigator.metrics)
    except (ReproError, OSError, ValueError) as exc:
        print(f"ion-batch: error: {exc}", file=sys.stderr)
        return 1
    if args.reports:
        for outcome in summary.succeeded:
            print(render_report(outcome.report))
            print()
    print("--- Campaign summary ---")
    print(summary.render())
    if summary.cache is not None:
        print(
            f"cache: {summary.cache.hits} hit(s), "
            f"{summary.cache.misses} miss(es), "
            f"{summary.cache.evictions} eviction(s), "
            f"{summary.cache.entries} entr(ies), "
            f"{summary.cache.total_bytes} bytes"
        )
    if args.json:
        payload = {
            "elapsed_seconds": summary.elapsed_seconds,
            "cache_hit_rate": summary.cache_hit_rate,
            "metrics": summary.metrics,
            "health": summary.health_summary(),
            "traces": [
                {
                    "name": o.name,
                    "ok": o.ok,
                    "error": o.error,
                    "traceback": o.traceback,
                    "duration_seconds": o.duration_seconds,
                    "cache_hit": o.cache_hit,
                    "issue_count": o.issue_count,
                    "degraded_count": o.degraded_count,
                    "report": report_to_dict(o.report) if o.report else None,
                }
                for o in summary.outcomes
            ],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"JSON summary written to {args.json}")
    return 0 if not summary.failed else 1


def _emit_journeys(args: argparse.Namespace, summary) -> int:
    from repro.journey.render import render_journey
    from repro.journey.serialize import journey_to_dict

    if args.reports:
        for outcome in summary.succeeded:
            print(render_journey(outcome.report))
            print()
    print("--- Journey campaign summary ---")
    print(summary.render())
    if args.json:
        payload = {
            "elapsed_seconds": summary.elapsed_seconds,
            "metrics": summary.metrics,
            "breaker_state": summary.breaker_state,
            "journeys": [
                {
                    "name": o.name,
                    "ok": o.ok,
                    "status": o.status,
                    "error": o.error,
                    "traceback": o.traceback,
                    "duration_seconds": o.duration_seconds,
                    "applied_count": o.applied_count,
                    "report": journey_to_dict(o.report) if o.report else None,
                }
                for o in summary.outcomes
            ],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"JSON summary written to {args.json}")
    return 0 if not summary.failed else 1


if __name__ == "__main__":
    raise SystemExit(main())
