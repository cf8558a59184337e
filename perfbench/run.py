"""Run one tauc benchmark workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload day --seed 0 --seconds 20 --trace 0

The benchmark makes the workload's inputs from the seed, checks that
``tauc reproduce-example`` exits 0, then runs the workload's command through
``tauc.cli.main`` in this process, one command at a time (a closed loop with
one caller), until the commands have taken ``--seconds`` in total; the last
command may end later. A workload with several inputs (``day``) takes the
next one for each command. Every output is checked against the reference in
``check.py``.

--trace 0 reports the end-to-end metrics with no wrappers installed.
--trace 1 alternates plain and traced commands and reports the per-layer
metrics from the traced ones, with both wall times so the tracing overhead
shows. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Scratch files go to .perfbench/.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBE = Path(__file__).with_name("setup_probe.py")
SETUP_RUNS = 5


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "limits": "measured without CPU pinning, frequency control or cache dropping",
    }


def run_cli(main, argv, recorder=None, op=0):
    """One command through tauc.cli.main; returns (exit code, seconds, output)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = recorder.operation(op, main, argv) if recorder else main(argv)
        except Exception:  # a crash fails the operation; keep measuring the rest
            code = -1
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return code, seconds, sink.getvalue()


def setup_seconds(config: Path) -> tuple[list[float], list[str]]:
    """Wall time of fresh interpreters that do the set-up of a command.

    The first run is not timed: it fills the page cache with the modules, as
    every command after the first one in a session finds them there.
    """
    times = []
    problems = []
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(SETUP_PROBE), str(config)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        if i:
            times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            problems.append(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return times, problems


class Tally:
    """Attempted and failed operations, and what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


def warm_up(main, fixture, reference, out: Path, tally: Tally) -> None:
    """One untimed, checked command on input 0 before timing starts.

    The first command in a process runs noticeably slower than the next ones
    (lazy imports, allocator and cache warm-up); timing starts after it.
    """
    from perfbench import check

    shutil.rmtree(out, ignore_errors=True)
    code, _, _ = run_cli(main, fixture.argv(0, out))
    tally.add(*check.check(fixture, reference(0), out, code))


def measure_plain(main, fixture, reference, work: Path, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics, with no wrappers installed.

    ``wall_s`` is the mean command time. The host switches between a fast and
    a slow state; a median snaps to one of them, while the mean follows the
    share of the run spent in each, and it spreads less from run to run. On
    ``day`` the median would also depend on which days the run holds.
    """
    from perfbench import check

    setup, problems = setup_seconds(fixture.config(0))
    tally.add(len(problems), len(problems), problems)
    out = work / "out"
    warm_up(main, fixture, reference, out, tally)
    times: list[float] = []
    while sum(times) < seconds:
        i = len(times) % fixture.inputs
        expected = reference(i)
        shutil.rmtree(out, ignore_errors=True)
        code, elapsed, _ = run_cli(main, fixture.argv(i, out))
        tally.add(*check.check(fixture, expected, out, code))
        times.append(elapsed)
    print(
        f"commands: {len(times)}; median {statistics.median(times):.3f} s; "
        f"seconds each: {' '.join(f'{t:.3f}' for t in times)}"
    )
    print(f"set-up runs: {len(setup)}; seconds each: {' '.join(f'{t:.3f}' for t in setup)}")
    wall = statistics.fmean(times)
    return {
        "wall_s": (wall, "s"),
        "day_s": (wall / fixture.days, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def measure_traced(main, fixture, reference, work: Path, seconds: float, tally: Tally) -> dict:
    """Per-layer metrics from traced commands, alternated with plain ones."""
    from perfbench import check, spans

    recorder = spans.Recorder()
    out = work / "out"
    warm_up(main, fixture, reference, out, tally)
    plain: list[float] = []
    traced: list[float] = []
    while sum(plain) + sum(traced) < seconds:
        op = len(traced)
        i = op % fixture.inputs
        expected = reference(i)
        shutil.rmtree(out, ignore_errors=True)
        code, elapsed, _ = run_cli(main, fixture.argv(i, out))
        tally.add(*check.check(fixture, expected, out, code))
        plain.append(elapsed)
        shutil.rmtree(out, ignore_errors=True)
        first_objective = len(recorder.objectives)
        with recorder.installed():
            code, elapsed, _ = run_cli(main, fixture.argv(i, out), recorder, op)
        traced.append(elapsed)
        attempted, failed, problems = check.check(fixture, expected, out, code)
        bad = check.check_objectives(expected, recorder.objectives[first_objective:])
        if bad and not failed:
            failed = attempted
        tally.add(attempted, failed, problems + bad)
    if any(recorder.counts[op] != recorder.counts[op % fixture.inputs] for op in range(len(traced))):
        tally.add(0, 0, ["counters differ between traced commands on the same input"])
    layer = spans.layer_metrics(recorder.spans, recorder.counts)
    untraced = statistics.fmean(plain)
    layer["trace.untraced_wall_s"] = untraced
    layer["trace.overhead_pct"] = 100.0 * (layer["trace.wall_s"] - untraced) / untraced
    (work / "spans.json").write_text(
        json.dumps(
            {
                "spans": recorder.to_json(),
                "counts": {str(k): v for k, v in recorder.counts.items()},
                "da_objectives": recorder.objectives,
            }
        )
    )
    print(
        f"traced commands: {len(traced)}; plain {untraced:.4f} s, traced {layer['trace.wall_s']:.4f} s, "
        f"overhead {layer['trace.overhead_pct']:.2f}%"
    )
    print(f"layer self times add up to {layer['trace.layer_sum_s']:.6f} s of {layer['trace.wall_s']:.6f} s")
    for obj_op, label, mode, objective in recorder.objectives[:14]:
        print(f"day-ahead objective command={obj_op} {label} {mode} {objective:.2f}")
    return {name: (value, _unit(name)) for name, value in layer.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tauc" / "__init__.py").is_file():
        print(f"error: no tauc sources at {SRC / 'tauc'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import tauc
    from tauc import cli

    if Path(tauc.__file__).resolve().parent != (SRC / "tauc").resolve():
        print(f"error: imported tauc from {tauc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import check, fixtures

    if args.workload not in fixtures.WORKLOADS:
        print(f"error: workload must be one of {fixtures.WORKLOADS}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    fixture = fixtures.generate(args.workload, args.seed, work / "inputs")
    machine = machine_record()
    print("machine " + json.dumps(machine, sort_keys=True))
    print(
        f"fixture workload={args.workload} seed={args.seed} "
        f"recipe={fixtures.recipe_digest(args.workload)} {json.dumps(fixture.recipe, sort_keys=True)}"
    )

    tally = Tally()
    code, _, text = run_cli(cli.main, ["reproduce-example"])
    if code != 0:
        tally.add(1, 1, [f"reproduce-example exited {code}: {text.strip()[-300:]}"])
    references = check.stored_references(fixture)
    source = "stored" if all(references) else "library"

    def reference(i: int) -> dict:
        if references[i] is None:
            references[i] = check.library_reference(fixture, i)
        return references[i]

    if args.trace:
        metrics = measure_traced(cli.main, fixture, reference, work, args.seconds, tally)
    else:
        metrics = measure_plain(cli.main, fixture, reference, work, args.seconds, tally)

    fail_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"reference: {source}; attempted {tally.attempted}, failed {tally.failed}, fail_frac {fail_frac:.4f}")
    for problem in tally.problems[:20]:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (work / "result.json").write_text(
        json.dumps({"machine": machine, "recipe": fixture.recipe, "seed": args.seed,
                    "reference": source, "result": result}, indent=2)
    )
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name in ("solver.gap_max", "simulation.solve_overlap"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
