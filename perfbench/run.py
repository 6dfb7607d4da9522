"""schemeflow benchmark: both analyzer paths, end to end and layer by layer.

One workload, as the benchmark contract runs it:

    python3 perfbench/run.py --workload corpus-matrix --seed 1 --seconds 35 --trace 0

prints the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) of that workload; the last line of stdout is the JSON result.

Every workload, as a person runs it:

    python3 perfbench/run.py --all --label baseline

runs each workload untraced and twice traced, prints one row per workload,
checks that the traced counts repeat exactly, and writes
``perfbench/results/BENCH_<label>.json``.

Each run measures in a fresh worker process (worker.py).  Before it,
``setup_s`` is measured in SETUP_PROBES worker processes that stop where
timing would start, each between two runs of a reference process (see
``setup_seconds``).  The benchmark writes only under ``.perfbench_work/``
in the checkout; it removes each run's directory before it exits and keeps
only the traced run's spans file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKER = HERE / "worker.py"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 8
# The reference process for set-up: interpreter start and standard-library
# imports like the worker's, no schemeflow; it prints when it is ready, as the
# worker does.  REFERENCE_SECONDS is its time on an unloaded core of the
# machine the baseline was measured on.
REFERENCE = (
    "-c",
    "import argparse, contextlib, dataclasses, hashlib, json, pathlib, random, statistics, time;"
    " print(json.dumps({'ready': time.monotonic()}))",
)
REFERENCE_SECONDS = 0.055
RUN_BUDGET_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def _python(args: list[str], timeout: float) -> dict:
    """Run a Python process to completion, killing it on timeout, and return
    the JSON object on the last line of its output."""
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, timeout),
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} exceeded {timeout:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args[0]} exited {proc.returncode}")
    return json.loads(lines[-1])


def _ready_seconds(args: list[str]) -> float:
    """Seconds from spawning a Python process to the moment it reports ready."""
    t0 = time.monotonic()
    return _python(args, PROBE_TIMEOUT_S)["ready"] - t0


def setup_seconds(common: list[str], work: Path) -> float:
    """The median over SETUP_PROBES worker processes of the time from spawning
    one to its first timed job, each divided by the mean of the reference
    process runs just before and after it, times REFERENCE_SECONDS.

    The machine's speed drifts over seconds; a process start and imports a
    moment apart drift together, so the ratio stays steady where raw times
    do not."""
    ratios = []
    before = _ready_seconds(list(REFERENCE))
    for i in range(SETUP_PROBES):
        probe = _ready_seconds([str(WORKER), *common, "--work", str(work / f"setup-{i}"), "--setup-only"])
        after = _ready_seconds(list(REFERENCE))
        ratios.append(probe / ((before + after) / 2))
        before = after
    return statistics.median(ratios) * REFERENCE_SECONDS


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not (ROOT / "src" / "schemeflow" / "cli.py").is_file():
        raise BenchError(f"no schemeflow sources under {ROOT / 'src'}")
    started = time.monotonic()
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        setup = setup_seconds(common, work) if trace == 0 else None  # reported untraced only
        spans_file = WORK / f"spans-{workload}-seed{seed}.json"
        extra = ["--trace", "1", "--spans", str(spans_file)] if trace else []
        budget = RUN_BUDGET_S - (time.monotonic() - started)
        res = _python([str(WORKER), *common, "--work", str(work / "run"), *extra], budget)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if setup is not None:
        res["metrics"]["setup_s"] = setup
    wanted = metrics.PER_LAYER if trace else metrics.END_TO_END
    if set(res["metrics"]) != set(wanted):
        raise BenchError(f"metrics {sorted(res['metrics'])} do not match {sorted(wanted)}")
    res["metrics"] = {
        name: {"value": res["metrics"][name], "unit": unit} for name, unit in wanted.items()
    }
    return res


def _fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.0f}"


def print_report(workload: str, res: dict) -> None:
    print(
        f"== {workload}: {res['attempted']} jobs in {res['rounds']} rounds, {res['failed']} failed,"
        f" machine slowdown {res['slowdown']:.3f} (timings below are divided by it)"
    )
    for msg in res["failures"]:
        print(f"   failure: {msg}")
    for name, m in res["metrics"].items():
        print(f"   {name:24} {_fmt(m['value']):>12} {m['unit']}")
    for key, row in sorted(res.get("table", {}).items()):
        if not isinstance(row, dict):
            print(f"   {key:24} {_fmt(row):>12} ratio")
            continue
        cells = ", ".join(f"{k} {_fmt(v)}" for k, v in row.items())
        print(f"   {key + ' jobs':24} {cells}")


def result_line(res: dict) -> str:
    return json.dumps(
        {
            "correct": res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": res["metrics"],
        }
    )


def run_all(seed: int, seconds: float, label: str) -> int:
    """Every workload: one untraced run and two traced runs with the same
    seed, whose counts must repeat exactly."""
    bench = {
        "label": label,
        "seed": seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "workloads": {},
    }
    status = 0
    for workload in workloads.WORKLOADS:
        e2e = run_workload(workload, seed, seconds, 0)
        traced = [run_workload(workload, seed, seconds, 1) for _ in range(2)]
        print_report(workload, e2e)
        print_report(workload + " (traced)", traced[0])
        drift = [
            name
            for name in metrics.COUNTS
            if traced[0]["metrics"][name]["value"] != traced[1]["metrics"][name]["value"]
        ]
        if drift:
            print(f"   NOT DETERMINISTIC: {', '.join(drift)} differ between two runs")
            status = 1
        if e2e["failed"] or any(t["failed"] for t in traced):
            status = 1
        bench["workloads"][workload] = {
            "attempted": e2e["attempted"],
            "failed": e2e["failed"],
            "end_to_end": e2e["metrics"],
            "percentiles": e2e["table"],
            "slowdown": e2e["slowdown"],
            "per_layer": traced[0]["metrics"],
            "counts_repeat": not drift,
        }
    names = list(metrics.END_TO_END)
    print("\n" + " | ".join(["workload"] + [f"{n} ({metrics.END_TO_END[n]})" for n in names]
                             + ["failed_ratio"]))
    for workload, w in bench["workloads"].items():
        row = [_fmt(w["end_to_end"][n]["value"]) for n in names]
        print(" | ".join([workload, *row, _fmt(w["percentiles"]["failed_ratio"])]))
    out = HERE / "results" / f"BENCH_{label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return status


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload and write a BENCH file")
    p.add_argument("--label", default="run", help="BENCH_<label>.json name for --all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 < args.seconds <= 60:
        p.error("--seconds must be in (0, 60]")
    try:
        if args.all:
            return run_all(args.seed, args.seconds, args.label)
        if args.workload is None:
            p.error("give --workload NAME or --all")
        res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 2
    print_report(args.workload, res)
    print(result_line(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
