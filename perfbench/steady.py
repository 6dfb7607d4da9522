"""Run-to-run steadiness of the end-to-end metrics.

    python3 perfbench/steady.py --workload NAME [--runs 10]

runs the workload once per seed 1..runs for BENCHMARK.json's run_seconds,
each run in its own process as the benchmark contract runs it, and prints
for every end-to-end metric its median, its quartile spread (Q3 - Q1 as a
share of the median) and its bound from BENCHMARK.json.  A metric whose
spread is above its bound would make two sets of runs of one commit
disagree; fewer runs (five) give a cheaper first look.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in range(1, args.runs + 1):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        started = time.monotonic()
        proc = subprocess.run([sys.executable, *cmd[1:]], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} jobs failed")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        wall = time.monotonic() - started
        print(f"seed {seed} ({wall:.1f}s): "
              + ", ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
    status = 0
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        spread = metrics.quartile_spread(values[name])
        flag = "" if spread < bound / 3 else "  <- above a third of the bound"
        if spread > bound:
            flag, status = "  <- ABOVE THE BOUND", 1
        print(f"{args.workload:18} {name:20} median {statistics.median(values[name]):12.5g}"
              f"  spread {spread:6.3f}  bound {bound}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
