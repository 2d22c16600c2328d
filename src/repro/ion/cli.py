"""``ion`` command-line interface.

Usage::

    ion TRACE.darshan [--strategy divide|monolithic] [--no-context]
                      [--show-code] [--ask QUESTION ...] [--workdir DIR]
"""

from __future__ import annotations

import argparse
import sys

from repro.ion.analyzer import AnalyzerConfig, ResilienceConfig
from repro.ion.pipeline import IoNavigator
from repro.ion.report import render_report
from repro.obs.cli import add_tracing_args, emit_telemetry, tracer_from_args
from repro.util.console import suppress_broken_pipe
from repro.util.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ion",
        description=(
            "ION: diagnose HPC I/O issues from a Darshan trace using an "
            "LLM analysis pipeline (reproduction)."
        ),
    )
    parser.add_argument("trace", help="path to a binary Darshan log")
    parser.add_argument(
        "--no-context",
        action="store_true",
        help="omit issue contexts from prompts (ablation)",
    )
    parser.add_argument(
        "--show-code",
        action="store_true",
        help="include generated analysis code in the report",
    )
    parser.add_argument(
        "--ask",
        action="append",
        default=[],
        metavar="QUESTION",
        help="ask a follow-up question after the diagnosis (repeatable)",
    )
    parser.add_argument(
        "--workdir", default=None, help="directory for extracted CSVs"
    )
    parser.add_argument(
        "--html", default=None, metavar="PATH",
        help="also write the report as a self-contained HTML file",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the report as JSON",
    )
    parser.add_argument(
        "--consistency", action="store_true",
        help="cross-check the diagnosis through counters-only and "
             "monolithic variants and report disagreements",
    )
    add_pipeline_args(parser)
    return parser


def add_pipeline_args(parser: argparse.ArgumentParser) -> None:
    """Add the flags ``ion``, ``ion-batch`` and ``ion-journey`` share.

    Prompting strategy, the per-query retry budget and deadline, fault
    injection, the static code guard, and the tracing flags.
    """
    parser.add_argument(
        "--strategy",
        choices=("divide", "monolithic"),
        default="divide",
        help="prompting strategy (default: divide-and-conquer)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="retry budget per LLM query (default: 3)",
    )
    parser.add_argument(
        "--query-deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per LLM query including retries "
             "(default: 30)",
    )
    parser.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="chaos-testing aid: inject deterministic LLM/interpreter "
             "faults, e.g. 'transient', 'timeout:0.3', "
             "'malformed:0.5:seed=7', 'interpreter_crash', 'guard_reject' "
             "(failed queries degrade to Drishti heuristics)",
    )
    parser.add_argument(
        "--guard",
        choices=("off", "warn", "enforce"),
        default="enforce",
        help="static vetting of model-generated code before execution "
             "(default: enforce; 'warn' counts violations but executes, "
             "'off' disables the guard)",
    )
    add_tracing_args(parser)


def analyzer_config_from_args(
    args: argparse.Namespace, **extra
) -> AnalyzerConfig:
    """The AnalyzerConfig the shared flags describe, plus ``extra``."""
    overrides = {}
    if args.max_attempts is not None:
        overrides["max_attempts"] = args.max_attempts
    if args.query_deadline is not None:
        overrides["query_deadline"] = args.query_deadline
    return AnalyzerConfig(
        strategy=args.strategy,
        resilience=ResilienceConfig(**overrides),
        guard=args.guard,
        **extra,
    )


def client_from_args(args: argparse.Namespace):
    """``(client, interpreter_factory)`` for ``--inject-faults``.

    The client is the simulated expert, wrapped when LLM faults are
    asked for; the factory is None unless interpreter faults are.
    """
    from repro.llm.expert.model import SimulatedExpertLLM

    client = SimulatedExpertLLM()
    if args.inject_faults is None:
        return client, None
    from repro.llm.faults import (
        INTERPRETER_FAULT_KINDS,
        FaultPlan,
        FaultyCodeInterpreter,
        FaultyLLMClient,
        parse_fault_kind,
    )
    from repro.llm.interpreter import CodeInterpreter

    plan = FaultPlan.parse(args.inject_faults)
    if parse_fault_kind(args.inject_faults) in INTERPRETER_FAULT_KINDS:
        return client, lambda workdir: FaultyCodeInterpreter(
            CodeInterpreter(workdir, guard=args.guard), plan
        )
    return FaultyLLMClient(client, plan), None


@suppress_broken_pipe
def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = analyzer_config_from_args(
            args, include_context=not args.no_context
        )
        client, interpreter_factory = client_from_args(args)
    except ReproError as exc:
        print(f"ion: error: {exc}", file=sys.stderr)
        return 1
    tracer = tracer_from_args(args)
    with IoNavigator(
        client=client,
        config=config,
        workdir=args.workdir,
        interpreter_factory=interpreter_factory,
        tracer=tracer,
    ) as navigator:
        try:
            result = navigator.diagnose_file(args.trace)
        except (ReproError, OSError) as exc:
            print(f"ion: error: {exc}", file=sys.stderr)
            return 1
        status = _emit(args, result, tracer=tracer)
        emit_telemetry(args, tracer, navigator.metrics)
        return status


def _emit(args: argparse.Namespace, result, tracer=None) -> int:
    print(render_report(result.report, show_code=args.show_code))
    for question in args.ask:
        print(f"Q: {question}")
        print(f"A: {result.session.ask(question)}")
        print()
    if args.consistency:
        from repro.ion.consistency import ConsistencyChecker

        checker = ConsistencyChecker(
            variants=("standard", "counters-only", "monolithic")
        )
        consistency = checker.check(result.extraction, result.report.trace_name)
        print("--- Consistency check ---")
        print(
            f"agreement: {consistency.agreement_rate:.2f} "
            f"(detection: {consistency.detection_agreement_rate:.2f})"
        )
        for item in consistency.inconsistent_issues:
            votes = ", ".join(
                f"{variant}={severity.value}"
                for variant, severity in sorted(item.severities.items())
            )
            print(f"  {item.issue.title}: {votes} -> voted {item.voted.value}")
    if args.html:
        from repro.ion.htmlreport import write_html
        from repro.obs.summary import stage_rows

        timings = None
        if tracer is not None and tracer.enabled:
            timings = stage_rows(tracer.spans())
        path = write_html(
            result.report, args.html, session=result.session, timings=timings
        )
        print(f"HTML report written to {path}")
    if args.json:
        from repro.ion.serialize import dump_report

        path = dump_report(result.report, args.json)
        print(f"JSON report written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
