"""Pipeline benchmark: end-to-end and per-layer timing of the ION pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload diagnose-hard --seed 1 --seconds 20 --trace 0

``--trace 0`` sets up the workload several times, then runs untraced
iterations for ``--seconds`` (at least :data:`MIN_SAMPLES`) and reports
the end-to-end metrics.  ``--trace 1`` sets up once with the input
generation traced, then alternates untraced and traced iterations and
reports the per-layer metrics.  While an iteration runs, a thread
times a fixed loop every 50 ms, and ``wall_cal`` gives the
iteration's time in units of that loop, so that the shared host's
changing speed cancels out.  Every operation is checked against
``reference.json``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--single-threaded`` runs with one prompt thread and one batch worker
(a reference measurement, not a benchmark workload).
``--write-reference`` records the current outputs as the reference.
``--trace-out PATH`` writes the traced run's spans for ``ion-trace``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

#: Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 3
#: Fewest timed iterations in an untraced run.
MIN_SAMPLES = 3
#: Seconds between two samples of the host's speed during an iteration.
HOST_SAMPLE_PERIOD = 0.05
#: Steps of the loop one host-speed sample times (about 1.2 ms on a
#: 2 GHz vCPU: short enough to finish before Python's 5 ms GIL switch
#: interval hands the lock back to the program).
HOST_SAMPLE_STEPS = 5000
#: Share of the slowest host-speed samples left out of their mean.  A
#: sample during which the host takes the CPU away for a few
#: milliseconds reads 5-20x its usual time, and a few of those swing a
#: plain mean more than the program's iterations move.
HOST_SAMPLE_TRIM = 0.1

END_TO_END = {
    "setup_s": "s",
    "wall_cal": "cal",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--single-threaded", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--write-reference", action="store_true")
    return parser


# -- run hygiene -------------------------------------------------------


def host_fingerprint() -> dict:
    """Where the numbers came from, so numbers from two hosts are not compared."""
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def scratch_count(tmp: Path) -> int:
    """The program's scratch dirs (``ion-*``) currently under ``tmp``."""
    return sum(1 for _ in tmp.glob("ion-*"))


def reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS mark, so set-up does not count."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
        return True
    except OSError:
        return False


def peak_rss_mib() -> float:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- host speed --------------------------------------------------------


@contextmanager
def host_speed_samples(samples: list[float]):
    """Time a fixed loop every :data:`HOST_SAMPLE_PERIOD` seconds, on a thread.

    The loop runs no program code, so a change to the program cannot
    move its time, but on a shared host the CPU speed this process gets
    changes by up to 2x within seconds, and the loop slows down with it.
    Sampled all through an iteration, it measures the speed the
    iteration ran at.  Each sample holds the GIL for about 2% of the
    period.  At least one sample is taken.
    """
    stop = threading.Event()

    def sample() -> None:
        clock = time.perf_counter
        while True:
            started = clock()
            total = digest = 0
            for i in range(HOST_SAMPLE_STEPS):
                total += i * i
                digest = (digest * 31 + (i & 255)) & 0xFFFFFFFF
            samples.append(clock() - started)
            if stop.wait(HOST_SAMPLE_PERIOD):
                return

    thread = threading.Thread(target=sample, name="perfbench-host-speed", daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


def host_sample_seconds(samples: list[float]) -> float:
    """Mean seconds of one host-speed sample, the slowest tenth left out."""
    kept = sorted(samples)[: max(1, round(len(samples) * (1 - HOST_SAMPLE_TRIM)))]
    return statistics.fmean(kept)


# -- the run -----------------------------------------------------------


class Ledger:
    """Operations attempted and failed, with the reasons."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ops, leaked: int) -> None:
        from scenarios import check

        for op in ops:
            self.attempted += 1
            reason = check(op, self.reference)
            if reason is None and leaked:
                reason = f"{op.key}: iteration leaked {leaked} scratch dir(s)"
            if reason is not None:
                self.failed += 1
                self.problems.append(reason)

    def problem(self, reason: str) -> None:
        self.problems.append(reason)

    @property
    def correct(self) -> bool:
        return not self.problems


def timed_iteration(scenario, probe, tmp: Path, host_samples: list[float]):
    """One iteration: (wall seconds, ops, scratch dirs leaked).

    The host's speed is sampled into ``host_samples`` while it runs.
    """
    from scenarios import Op

    before = scratch_count(tmp)
    gc.collect()
    with probe.patched(), host_speed_samples(host_samples):
        started = time.perf_counter()
        try:
            with probe.span("iteration"):
                ops = scenario.iterate(probe)
        except Exception as exc:  # noqa: BLE001 - a raising iteration is one failed op
            traceback.print_exc(file=sys.stderr)
            ops = [Op(scenario.name, None, error=f"{type(exc).__name__}: {exc}")]
        wall = time.perf_counter() - started
    return wall, ops, scratch_count(tmp) - before


def run(args, scenario, tmp: Path, reference: dict) -> tuple[Ledger, dict, list]:
    from layers import Traced, Untraced, layer_metrics, pass_metrics, span_ids

    ids = span_ids()
    ledger = Ledger(reference)
    passes: list[dict] = []
    spans: list = []

    def traced_pass(probe) -> None:
        recorded = probe.tracer.spans()
        spans.extend(recorded)
        passes.append(pass_metrics(recorded))

    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        probe = Traced(ids) if args.trace else Untraced()
        started = time.perf_counter()
        with probe.patched(), probe.span("setup"):
            scenario.generate(probe)
        scenario.warm_up()
        setup_times.append(time.perf_counter() - started)
        if args.trace:
            traced_pass(probe)

    walls: dict[bool, list[float]] = {False: [], True: []}
    # Per untraced iteration, the host-speed samples taken while it ran.
    host: list[list[float]] = []
    first_untraced = None
    rss_reset = reset_peak_rss()
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls[True]) < len(walls[False])
        probe = Traced(ids) if traced else Untraced()
        sampled: list[float] = []
        wall, ops, leaked = timed_iteration(scenario, probe, tmp, sampled)
        walls[traced].append(wall)
        if not traced:
            host.append(sampled)
        ledger.record(ops, leaked)
        if leaked:
            ledger.problem(f"iteration leaked {leaked} scratch dir(s)")
        outputs = [(op.key, op.output) for op in ops]
        if first_untraced is None:
            first_untraced = outputs
        elif outputs != first_untraced:
            kind = "traced" if traced else "untraced"
            ledger.problem(f"a {kind} iteration's outputs differ from the first")
        if traced:
            traced_pass(probe)
            vetted = passes[-1].get("sca.vet.calls", 0)
            executed = passes[-1].get("sandbox.run.calls", 0)
            if vetted != executed:
                ledger.problem(
                    f"traced run vetted {vetted} snippets but ran {executed}: "
                    "the timing interpreter skipped CodeGuard"
                )
        elapsed = time.perf_counter() - started
        if args.trace:
            if traced and elapsed >= args.seconds:
                break
        elif elapsed >= args.seconds and len(walls[False]) >= MIN_SAMPLES:
            break
    peak = peak_rss_mib()
    untraced_samples = [t for sampled in host for t in sampled]

    if args.trace:
        metrics = layer_metrics(
            passes, walls[True], walls[False], host_sample_seconds(untraced_samples)
        )
        samples = {"traced passes": len(passes), "traced": len(walls[True]),
                   "untraced": len(walls[False])}
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_cal": statistics.median(
                wall / host_sample_seconds(sampled)
                for wall, sampled in zip(walls[False], host)
            ),
            "peak_rss_mb": peak,
            "ok_frac": 1 - ledger.failed / ledger.attempted,
        }
        samples = {
            "setup_s": len(setup_times),
            "wall_cal": f"{len(walls[False])} iterations, "
            f"{len(untraced_samples)} host-speed samples",
            "peak_rss_mb": f"{len(walls[False])} iterations"
            + ("" if rss_reset else " and set-up"),
            "ok_frac": ledger.attempted,
        }
    return ledger, {"metrics": metrics, "samples": samples, "walls": walls,
                    "host": untraced_samples}, spans


def write_reference(scenarios, tmp_root: Path) -> int:
    """Record every scenario's outputs for every input seed."""
    from layers import Untraced
    from scenarios import SEED_CLASSES

    reference: dict[str, dict] = {name: {} for name in scenarios}
    for seed in range(SEED_CLASSES):
        for name, cls in scenarios.items():
            workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
            scenario = cls(seed, workdir)
            probe = Untraced()
            scenario.generate(probe)
            entries: dict[str, dict] = {}
            for op in scenario.iterate(probe):
                if op.error or op.degraded:
                    print(f"perfbench: {name} seed {seed}: {op.key} failed: "
                          f"{op.error or 'degraded'}", file=sys.stderr)
                    return 1
                if entries.setdefault(op.key, op.output) != op.output:
                    print(f"perfbench: {op.key} gave two outputs", file=sys.stderr)
                    return 1
            reference[name][str(seed)] = entries
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    REFERENCE.write_text(_dump_reference(reference))
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def _dump_reference(reference: dict) -> str:
    """JSON with one line per operation, so a changed output is a one-line diff."""
    blocks = []
    for name, by_seed in sorted(reference.items()):
        seeds = []
        for seed, entries in sorted(by_seed.items()):
            ops = ",\n".join(
                f"   {json.dumps(key)}: {json.dumps(output, sort_keys=True)}"
                for key, output in sorted(entries.items())
            )
            seeds.append(f"  {json.dumps(seed)}: {{\n{ops}\n  }}")
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(seeds) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from scenarios import SCENARIOS, SEED_CLASSES

    if not args.write_reference and args.workload not in SCENARIOS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(SCENARIOS)}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    # The program's scratch dirs land here, inside the checkout, where
    # the leak check counts them.
    tempfile.tempdir = str(tmp)
    try:
        if args.write_reference:
            return write_reference(SCENARIOS, tmp)
        input_seed = args.seed % SEED_CLASSES
        reference = json.loads(REFERENCE.read_text())[args.workload][str(input_seed)]
        workdir = run_dir / "inputs"
        workdir.mkdir()
        scenario = SCENARIOS[args.workload](input_seed, workdir, args.single_threaded)
        ledger, result, spans = run(args, scenario, tmp, reference)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass
    if args.trace_out and spans:
        from repro.obs.export import write_trace

        write_trace(spans, args.trace_out)
    report(args, ledger, result)
    return 0


def report(args, ledger: Ledger, result: dict) -> None:
    from layers import PER_LAYER

    units = PER_LAYER if args.trace else END_TO_END
    mode = "traced" if args.trace else "untraced"
    threads = ", single-threaded" if args.single_threaded else ""
    print(f"perfbench {args.workload} seed={args.seed} {mode}{threads}")
    for name, value in result["metrics"].items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    print("  samples: " + ", ".join(f"{k}={v}" for k, v in result["samples"].items()))
    print("  iteration walls: " + ", ".join(
        f"{'traced' if traced else 'untraced'}=" + " ".join(f"{w:.3f}" for w in walls)
        for traced, walls in result["walls"].items() if walls
    ))
    untraced, host = result["walls"][False], result["host"]
    print(f"  untraced iteration: median {statistics.median(untraced):.4f} s, "
          f"mean {statistics.fmean(untraced):.4f} s; host-speed sample: "
          f"{1e3 * host_sample_seconds(host):.4f} ms (trimmed mean of {len(host)}, "
          f"plain mean {1e3 * statistics.fmean(host):.4f} ms)")
    for problem in ledger.problems[:20]:
        print(f"  FAILED {problem}")
    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))


if __name__ == "__main__":
    raise SystemExit(main())
