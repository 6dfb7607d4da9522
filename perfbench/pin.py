"""Regenerate pins.json: the expected run-report counts, derived fact count
and output digest of every input any seed can draw.

    python3 perfbench/pin.py [--workload NAME ...]

Each input is run through the CLI on each of its workload's paths.  A pin is
written only when those outputs are byte-identical and ``recheck`` accepts
the oracle's result, so a pin never records a result the two analyzers
disagree on.  Re-pin only when the analysis is meant to change its output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import workloads
from worker import PINS, ROOT, digest_dir, import_program, rederive

# ROADMAP's baseline table: derived facts of a termgen cell, as a cross-check.
BASELINE_FACTS = {"mcfa n=16 k=1 p=0 m=0 t=both-branches tsv": 9_908}


def pin_input(cli, inp, paths, work: Path) -> dict:
    prog = work / "prog.scm"
    prog.write_text(inp.text)
    seen = {}
    for path in paths:
        out = work / f"out-{path}"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(workloads.Job(inp, path).argv(prog, out))
        if rc != 0:
            raise SystemExit(f"{inp.key}: {path} exited {rc}")
        seen[path] = (json.loads(buf.getvalue())["counts"], digest_dir(out)[0])
        shutil.rmtree(out)
    if len(set(json.dumps(v, sort_keys=True) for v in seen.values())) != 1:
        raise SystemExit(f"{inp.key}: the paths disagree: {seen}")
    _, derived = rederive(inp)
    counts, digest = seen[paths[0]]
    expected = BASELINE_FACTS.get(inp.key)
    if expected is not None and derived != expected:
        raise SystemExit(f"{inp.key}: {derived} derived facts, ROADMAP baseline has {expected}")
    return {"counts": counts, "derived": derived, "digest": digest}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = p.parse_args(argv)
    cli = import_program()
    from schemeflow.termgen import GenSpec, gen_mcfa_worst

    gen = lambda n, k, pad: gen_mcfa_worst(GenSpec(n, k, pad))
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    work = ROOT / ".perfbench_work" / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for workload in args.workload or workloads.WORKLOADS:
            for inp, paths in workloads.all_inputs(workload, ROOT, gen):
                pins[inp.key] = pin_input(cli, inp, paths, work)
                print(f"{inp.key}: {pins[inp.key]['derived']} derived facts", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
