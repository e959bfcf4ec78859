"""Set-up, measurement loop, metrics and reporting for the benchmark.

Run ``python3 perfbench/run.py --help`` from the repository root.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
full human-readable report.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS, LAYERS, SpanRecorder, installed
from workloads import WORKLOADS, Item, Library, Tally

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_REPS = 5
MIN_TAIL_SAMPLES = 100  # a p90 needs at least ten samples beyond it
HARD_CAP_S = 120.0  # a pass over the inputs never runs longer than this
# Median time of calibration_work() on a 2-core x86-64 machine, Python 3.11.
CALIBRATION_NOMINAL_S = 0.0025
CALIBRATION_WINDOW = 5  # inputs on each side whose calibration sets a local speed


def use_checkout() -> None:
    """Import the library and the test corpus from this checkout's sources."""
    for path in (str(TESTS), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def import_library(fresh: bool = False) -> Library:
    """Import the six layers and the corpus helpers, optionally from scratch."""
    if fresh:
        for name in [m for m in sys.modules if m.split(".")[0] in ("indexcode", "corpusgen")]:
            del sys.modules[name]
    modules = {layer: importlib.import_module(f"indexcode.{layer}") for layer in LAYERS}
    origin = Path(modules["problem"].__file__).resolve().parent
    if origin != SRC / "indexcode":
        raise ImportError(f"indexcode was imported from {origin}, not from {SRC / 'indexcode'}")
    return Library(**modules, corpusgen=importlib.import_module("corpusgen"))


def run_length(workload, seconds: float) -> int:
    """Inputs an untraced run measures: ``seconds`` of work at the workload's
    nominal rate, in whole rounds, and enough rounds that the primary
    operation (once per input) has ``MIN_TAIL_SAMPLES`` samples.

    The amount of work is fixed rather than the time, so every run of a
    seed measures the same inputs and a cut near one slow oracle search
    cannot move the figures.
    """
    rounds = max(
        round(seconds * workload.nominal_rate / workload.round_size),
        math.ceil(MIN_TAIL_SAMPLES / workload.round_size),
    )
    return rounds * workload.round_size


def set_up(workload, seed: int, count: int, reps: int = SETUP_REPS) -> tuple[Library, list[Item], list[float]]:
    """Import the library and build ``count`` inputs ``reps`` times; keep the last."""
    times, items = [], []
    for _ in range(reps):
        items.clear()
        start = time.perf_counter()
        lib = import_library(fresh=True)
        items = workload.generate(lib, seed, count)
        times.append(time.perf_counter() - start)
    return lib, items, times


def calibration_work() -> int:
    """Fixed interpreter work with no library call: set, tuple and integer
    operations of the kind the library spends its time on."""
    seen = set()
    total = 0
    for i in range(3000):
        t = (i * 7919) % 1009
        seen.add(frozenset((t, t + 1, i % 13)))
        total += t * t % 97
    return total + len(seen)


def run_items(workload, lib: Library, items: list[Item], tally: Tally) -> list[float]:
    """Closed loop over ``items``, stopping early only past ``HARD_CAP_S``.

    After each input it times ``calibration_work()``, outside every
    operation; returns those times, which track the machine's speed.
    """
    calibration = []
    cap = time.perf_counter() + HARD_CAP_S
    for index, item in enumerate(items):
        workload.run_item(lib, item, index, tally)
        tally.items += 1
        start = time.perf_counter()
        calibration_work()
        calibration.append(time.perf_counter() - start)
        if time.perf_counter() > cap:
            print(f"warning: stopped after {index + 1} of {len(items)} inputs at the {HARD_CAP_S:.0f} s cap",
                  file=sys.stderr)
            break
    return calibration


def trace_items(workload, lib: Library, items: list[Item], tally: Tally) -> tuple[SpanRecorder, float, float]:
    """Run every input untraced and traced, alternating which goes first so
    that drift in machine speed cancels; returns the recorder and the
    operation seconds of the untraced and the traced runs."""
    recorder = SpanRecorder()
    seconds = {False: 0.0, True: 0.0}
    for index, item in enumerate(items):
        for traced in (False, True) if index % 2 == 0 else (True, False):
            before = busy_seconds(tally)
            if traced:
                with installed(recorder):
                    workload.run_item(lib, item, index, tally)
            else:
                workload.run_item(lib, item, index, tally)
            seconds[traced] += busy_seconds(tally) - before
            tally.items += 1
    return recorder, seconds[False], seconds[True]


def busy_seconds(tally: Tally) -> float:
    return sum(sum(v) for v in tally.samples.values())


def nearest_rank(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[math.ceil(fraction * len(ordered)) - 1]


def op_metrics(op: str, samples: list[float]) -> list[tuple[str, float | None, str, int]]:
    """Throughput, median and p90 of one operation; p90 is withheld (None)
    below ``MIN_TAIL_SAMPLES`` samples."""
    n = len(samples)
    if not n:
        return []
    p90 = nearest_rank(samples, 0.9) * 1000.0 if n >= MIN_TAIL_SAMPLES else None
    return [
        (f"{op}_per_s", n / sum(samples), "op/s", n),
        (f"{op}_p50_ms", statistics.median(samples) * 1000.0, "ms", n),
        (f"{op}_p90_ms", p90, "ms", n),
    ]


def local_speeds(calibration: list[float]) -> list[float]:
    """Machine-speed factor at each input: the median calibration time of
    the inputs within ``CALIBRATION_WINDOW`` of it, over the nominal time."""
    w = CALIBRATION_WINDOW
    return [
        statistics.median(calibration[max(0, i - w) : i + w + 1]) / CALIBRATION_NOMINAL_S
        for i in range(len(calibration))
    ]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def git_commit() -> str:
    """HEAD of the checkout read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args: argparse.Namespace, tally: Tally) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": {op: len(v) for op, v in sorted(tally.samples.items())},
    }


def end_to_end(workload, tally: Tally, setup_times: list[float], calibration: list[float]) -> list:
    """Every end-to-end metric of an untraced run, named as in README.md.

    Each operation time is divided by the machine-speed factor around its
    input, and ``setup_s`` by the run's median factor (``speed_factor``),
    so a machine that is momentarily slower reads the same; ``raw_*`` rows
    repeat ``setup_s`` and ``op_*`` as timed.  ``op_*``
    repeat the primary operation's figures under names every workload
    shares; ``mix_per_s`` counts inputs taken through all of the workload's
    operations per second spent in them.
    """
    speeds = local_speeds(calibration)
    run_speed = statistics.median(calibration) / CALIBRATION_NOMINAL_S
    scaled = {
        op: [t / speeds[i] for t, i in zip(tally.samples[op], tally.sample_inputs[op])] for op in tally.samples
    }
    rows = [
        ("speed_factor", run_speed, "ratio", len(calibration)),
        ("setup_s", statistics.median(setup_times) / run_speed, "s", len(setup_times)),
        ("peak_rss_mb", peak_rss_mb(), "MB", 1),
        ("failed_ratio", tally.failed / tally.attempted, "ratio", tally.attempted),
    ]
    for op in workload.ops:
        rows += op_metrics(op, scaled.get(op, []))
    for name, value, unit, n in op_metrics(workload.primary, scaled.get(workload.primary, [])):
        suffix = name[len(workload.primary) + 1 :]
        rows.append((f"op_{suffix}", value, "1/s" if suffix == "per_s" else unit, n))
    rows.append(("mix_per_s", tally.items / sum(map(sum, scaled.values())), "1/s", tally.items))
    rows.append(("raw_setup_s", statistics.median(setup_times), "s", len(setup_times)))
    for name, value, unit, n in op_metrics(workload.primary, tally.samples[workload.primary]):
        suffix = name[len(workload.primary) + 1 :]
        rows.append((f"raw_op_{suffix}", value, "1/s" if suffix == "per_s" else unit, n))
    return rows


def per_layer(recorder: SpanRecorder, plain_wall: float, traced_wall: float, n: int) -> tuple[list, list[str]]:
    """Named per-layer metrics of a traced pass; unmeasurable ones are missing.

    ``plain_wall`` and ``traced_wall`` are the operation seconds of the same
    inputs run without and with tracing.
    """
    rows, missing = [], []
    for name, unit, _ in LAYER_METRICS:
        if name == "trace.overhead_ratio":
            value = traced_wall / plain_wall
        elif name == "trace.coverage":
            value = recorder.top_level_s / traced_wall
        else:
            value = recorder.metric(name)
        if value is None:
            missing.append(name)
        else:
            rows.append((name, value, unit, n))
    return rows, missing


def print_rows(rows) -> None:
    for name, value, unit, n in rows:
        shown = "withheld (fewer than %d samples)" % MIN_TAIL_SAMPLES if value is None else f"{value:.6g}"
        print(f"  {name:<48} {shown:>14} {unit:<6} n={n}")


def print_failures(tally: Tally, limit: int = 20) -> None:
    print(f"failures: {tally.failed} of {tally.attempted} operations")
    for line in tally.failures[:limit]:
        print(f"  FAIL {line}")
    if len(tally.failures) > limit:
        print(f"  ... and {len(tally.failures) - limit} more")


def result_line(tally: Tally, rows, wanted: list[str]) -> str:
    values = {name: (value, unit) for name, value, unit, _ in rows if value is not None}
    metrics = {name: {"value": values[name][0], "unit": values[name][1]} for name in wanted if name in values}
    return json.dumps(
        {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    )


def benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]()
    wanted = [m["name"] for m in benchmark_json()["per_layer" if args.trace else "end_to_end"]]
    count = workload.trace_items if args.trace else run_length(workload, args.seconds)
    lib, items, setup_times = set_up(workload, args.seed, count)
    print(f"== perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    tally = Tally(args.workload, args.seed)
    if not args.trace:
        calibration = run_items(workload, lib, items, tally)
        rows = end_to_end(workload, tally, setup_times, calibration)
    else:
        recorder, plain_wall, traced_wall = trace_items(workload, lib, items, tally)
        rows, missing = per_layer(recorder, plain_wall, traced_wall, len(items))
        for name in missing:
            print(f"warning: per-layer metric {name} is missing: its function is gone", file=sys.stderr)
        for message in recorder.warnings:
            print(f"warning: {message}", file=sys.stderr)
        print(f"ran {len(items)} inputs untraced and traced; "
              f"setup_s median {statistics.median(setup_times):.6g} s")
        print("spans (calls, self ms) of every traced function:")
        for name in sorted(recorder.calls):
            print(f"  {name:<48} {recorder.calls[name]:>10} {recorder.self_s[name] * 1000.0:>12.3f}")
    print("provenance " + json.dumps(provenance(args, tally), sort_keys=True))
    print("metrics:")
    print_rows(rows)
    print_failures(tally)
    print(result_line(tally, rows, wanted))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, one after another."""
    ok = True
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(command, capture_output=True, text=True, timeout=300)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        ok = ok and child.returncode == 0 and bool(lines) and json.loads(lines[-1]).get("correct") is True
    return 0 if ok else 1


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Seeded indexcode benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed; {HELD_OUT_SEED} is the held-out seed")
    parser.add_argument("--seconds", type=int, default=20,
                        help="measured work of an untraced run, in seconds at the nominal rate")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: per-layer metrics from a traced pass instead of end-to-end metrics")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    use_checkout()
    try:
        return run_workload(args)
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}; run from a full checkout of the repository", file=sys.stderr)
        return 2
