"""Command-line driver.

Subcommands: ``facts`` (emit the extracted fact base), ``analyze`` (rule
engine path), ``oracle`` (worklist machine path), ``diff`` (run both and
compare), ``gen-term`` (emit a generated program), ``bench`` (analyze a
generated program and report sizes/timing).

Exit codes: 0 success; 1 usage, parse or validation error, unreadable input,
unwritable output, or a program nested too deeply; 2 fact-ceiling exceeded
(likely divergence); 3 diff mismatch.  Output directories contain
only relation files and are byte-deterministic; the run report goes to
stdout as JSON (its duration field varies run to run).
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
import time
from pathlib import Path

from schemeflow.analysis import TRUTHINESS_MODES, AnalysisConfig, AnalysisResult, analyze
from schemeflow.errors import FactCeilingExceeded, ParseError, ValidationError
from schemeflow.frontend import LabeledProgram, extract_facts, read_program
from schemeflow.machine import run_fixpoint
from schemeflow.serialize import DIFF_RELATIONS, OUTPUT_RELATIONS, render_row, report_json, write_result_dir
from schemeflow.termgen import GenSpec, gen_mcfa_worst, gen_vanhorn

DEFAULT_FACT_CEILING = 5_000_000


def _fact_ceiling() -> int:
    raw = os.environ.get("SCHEMEFLOW_FACT_CEILING", "")
    try:
        return int(raw) if raw else DEFAULT_FACT_CEILING
    except ValueError:
        raise ValidationError(f"SCHEMEFLOW_FACT_CEILING must be an integer, got {raw!r}") from None


def _widen_depth(text: str) -> int | None:
    if text.lower() in ("unlimited", "none"):
        return None
    try:
        depth = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'unlimited', got {text!r}")
    if depth < 1:
        raise argparse.ArgumentTypeError("widen depth must be >= 1 or 'unlimited'")
    return depth


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, default=0, help="context depth (default 0)")
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--widen-depth",
        type=_widen_depth,
        default=2,
        metavar="D",
        help="primitive-result widening depth, or 'unlimited' (default 2)",
    )
    group.add_argument(
        "--strict-appendix",
        action="store_true",
        help="reference behavior exactly: unlimited widening, appendix-exact truthiness",
    )
    p.add_argument(
        "--truthiness",
        choices=TRUTHINESS_MODES,
        help="how opaque guard values (PrimVal/NumTop) branch (default both-branches)",
    )


def _config(args: argparse.Namespace) -> AnalysisConfig:
    widen_depth, truthiness = args.widen_depth, args.truthiness or "both-branches"
    if args.strict_appendix:
        if args.truthiness is not None:
            raise ValidationError("--strict-appendix sets appendix-exact truthiness; omit --truthiness")
        widen_depth, truthiness = None, "appendix-exact"
    return AnalysisConfig(
        m=args.m,
        widen_depth=widen_depth,
        primval_truthiness=truthiness,
        fact_ceiling=_fact_ceiling(),
    )


def _load(args: argparse.Namespace) -> LabeledProgram:
    path = Path(args.program)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as ex:
        raise ValidationError(f"cannot read {path}: {ex.strerror}") from None
    except UnicodeDecodeError as ex:
        raise ValidationError(f"cannot read {path}: not UTF-8 text ({ex.reason})") from None
    return read_program(text)


def _report(
    mode: str, program: str, cfg: AnalysisConfig, result: AnalysisResult, duration_ms: float
) -> dict[str, object]:
    """What a run did: its configuration, sizes and effort.  The counts
    match the written relations; the duration varies run to run."""
    return {
        "mode": mode,  # "analyze" | "oracle" | "bench"
        "program": program,
        "m": cfg.m,
        "widen_depth": cfg.widen_depth,
        "truthiness": cfg.primval_truthiness,
        "engine": result.engine,  # "seminaive" | "naive" | "worklist"
        "counts": {name: len(result.relations[name]) for name in OUTPUT_RELATIONS},
        "rounds": result.rounds,
        "peak_facts": result.peak_facts,
        "duration_ms": round(duration_ms, 3),
    }


def _run_and_emit(args: argparse.Namespace, mode: str) -> int:
    program = _load(args)
    cfg = _config(args)
    start = time.perf_counter()
    if mode == "analyze":
        result = analyze(program, cfg)
    else:
        trace = None
        if getattr(args, "trace", False):
            # UTF-8 whatever the locale, as the result files are.
            err = sys.stderr.buffer
            trace = lambda line: err.write(line.encode("utf-8") + b"\n")
        result = run_fixpoint(program, cfg, trace=trace)
        sys.stderr.flush()
    duration_ms = (time.perf_counter() - start) * 1000.0
    try:
        write_result_dir(result.relations, args.out, format=args.format)
    except OSError as ex:
        raise ValidationError(f"cannot write {ex.filename or args.out}: {ex.strerror}") from None
    sys.stdout.write(report_json(_report(mode, args.program, cfg, result, duration_ms)))
    return 0


def cmd_facts(args: argparse.Namespace) -> int:
    program = _load(args)
    try:
        extract_facts(program).to_dir(args.out)
    except OSError as ex:
        raise ValidationError(f"cannot write {ex.filename or args.out}: {ex.strerror}") from None
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    program = _load(args)
    cfg = _config(args)
    left = analyze(program, cfg)
    right = run_fixpoint(program, cfg)
    relations = OUTPUT_RELATIONS if args.diff_flows else DIFF_RELATIONS
    for name in relations:
        a, b = left.relations[name], right.relations[name]
        if a == b:
            continue
        row = min(a ^ b, key=render_row)
        side = "engine-only" if row in a else "oracle-only"
        print(f"{name}\t{side}\t" + "\t".join(render_row(row)))
        return 3
    print(f"identical across {', '.join(relations)}")
    return 0


def _generated_text(args: argparse.Namespace) -> str:
    """The program text that ``--family``/``--n``/``--k``/``--padding`` name."""
    if args.family == "vanhorn":
        return gen_vanhorn()
    if args.n is None:
        raise ValidationError("--n is required for --family mcfa")
    return gen_mcfa_worst(GenSpec(n_bindings=args.n, n_plus=args.k, padding=args.padding))


def cmd_gen_term(args: argparse.Namespace) -> int:
    print(_generated_text(args))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    program = read_program(_generated_text(args))
    cfg = _config(args)
    start = time.perf_counter()
    result = analyze(program, cfg)
    duration_ms = (time.perf_counter() - start) * 1000.0
    name = f"<{args.family} n={args.n} k={args.k} p={args.padding}>"
    sys.stdout.write(report_json(_report("bench", name, cfg, result, duration_ms)))
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error; here 2 means the fact ceiling."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process.  Parsing leaves it as it was, and a
    parser is a cycle of a few hundred objects that only the cycle
    collector frees, which ``main`` keeps off."""
    parser = _Parser(prog="schemeflow", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_program_cmd(name: str, func, help_text: str, *, config: bool, out: bool):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("program", help="input .scm file")
        if config:
            _add_config_args(p)
        if out:
            p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=func)
        return p

    add_program_cmd("facts", cmd_facts, "extract and emit the fact base", config=False, out=True)
    for name in ("analyze", "oracle"):
        run = functools.partial(_run_and_emit, mode=name)
        p = add_program_cmd(name, run, f"run the {name} path", config=True, out=True)
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")
        if name == "oracle":
            p.add_argument(
                "--trace", action="store_true", help="log one line per applied rule to stderr"
            )
    p = add_program_cmd("diff", cmd_diff, "run both paths and compare", config=True, out=False)
    p.add_argument("--diff-flows", action="store_true", help="also compare flow relations")

    for name, func in (("gen-term", cmd_gen_term), ("bench", cmd_bench)):
        p = sub.add_parser(name, help=f"{name} over a generated family")
        p.add_argument("--family", choices=("mcfa", "vanhorn"), default="mcfa")
        p.add_argument("--n", type=int, default=None, help="calls to f")
        p.add_argument("--k", type=int, default=1, help="nested additions")
        p.add_argument("--padding", type=int, default=0, help="padding layers")
        if name == "bench":
            _add_config_args(p)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # A run creates no reference cycles, so reference counting frees all of
    # it; the cycle collector would only rescan the growing fact store.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ParseError as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        return 1
    except ValidationError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except FactCeilingExceeded as ex:
        print(f"fact ceiling exceeded: {ex}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: program nested too deeply", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
