"""``ion-journey`` command-line interface.

Usage::

    ion-journey ior-easy-2k-shared [--scale 1.0] [--max-steps 3]
                [--set KEY=VALUE ...] [--json PATH] [--html PATH]

Runs the full closed loop over a registered workload: diagnose, plan
remediations, re-simulate each candidate, verify the winners, and
repeat until the trace is clean or the step budget runs out.  The
resilience flags mirror the ``ion`` CLI, so journeys can be driven
through injected faults and still finish on Drishti-heuristic
recommendations.
"""

from __future__ import annotations

import argparse
import sys

from repro.ion.cli import (
    add_pipeline_args,
    analyzer_config_from_args,
    client_from_args,
)
from repro.journey.executor import JourneyConfig, JourneyNavigator
from repro.journey.render import render_journey
from repro.obs.cli import emit_telemetry, tracer_from_args
from repro.util.console import suppress_broken_pipe
from repro.util.errors import ReproError
from repro.workloads.cli import _parse_overrides
from repro.workloads.registry import make_workload, workload_names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ion-journey",
        description=(
            "Drive a workload through the ION optimization journey: "
            "recommend -> apply -> re-simulate -> verify."
        ),
    )
    parser.add_argument(
        "workload", choices=workload_names(),
        help="registered workload name (see `iogen --list`)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="operation-count scale factor for every simulation "
        "(default 1.0 = paper scale)",
    )
    parser.add_argument(
        "--max-steps", type=int, default=3, metavar="N",
        help="maximum remediations applied along the journey (default: 3)",
    )
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="KEY=VALUE",
        help="override a starting config knob (repeatable)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the journey report as JSON",
    )
    parser.add_argument(
        "--html", default=None, metavar="PATH",
        help="also write the journey report as a self-contained HTML file",
    )
    add_pipeline_args(parser)
    return parser


@suppress_broken_pipe
def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        analyzer_config = analyzer_config_from_args(args)
        journey_config = JourneyConfig(
            max_steps=args.max_steps, scale=args.scale
        )
        client, interpreter_factory = client_from_args(args)
        workload = make_workload(
            args.workload, overrides=_parse_overrides(args.overrides)
        )
    except ReproError as exc:
        print(f"ion-journey: error: {exc}", file=sys.stderr)
        return 1
    tracer = tracer_from_args(args)
    with JourneyNavigator(
        client=client,
        analyzer_config=analyzer_config,
        journey_config=journey_config,
        interpreter_factory=interpreter_factory,
        tracer=tracer,
    ) as navigator:
        try:
            report = navigator.navigate(workload)
        except (ReproError, OSError) as exc:
            print(f"ion-journey: error: {exc}", file=sys.stderr)
            return 1
        metrics = navigator.metrics
    print(render_journey(report))
    if args.json:
        from repro.journey.serialize import dump_journey

        path = dump_journey(report, args.json)
        print(f"JSON journey written to {path}")
    if args.html:
        from repro.journey.htmlreport import write_journey_html
        from repro.obs.summary import stage_rows

        timings = stage_rows(tracer.spans()) if tracer.enabled else None
        path = write_journey_html(report, args.html, timings=timings)
        print(f"HTML journey written to {path}")
    emit_telemetry(args, tracer, metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
