"""The measured process of one benchmark run.

Set-up (import, writing the inputs to files) ends at the first timed job.
Then whole rounds of the workload's job list run until the run's seconds
are used.  Each job is one in-process ``schemeflow.cli.main(argv)`` call,
timed from argv to files on disk.  The first round is a warm-up: it fills the
process-global intern pools, and its job times are reported apart as cold
times.  With ``--trace 1`` every second round after it runs with the layer
calls wrapped in spans.  After the timed rounds every
job's output is checked.  The last line of stdout is a JSON object that
``run.py`` turns into the benchmark's result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import metrics
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "pins.json"

# Span name -> the per-layer metric that receives its self time.
SELF_TIME_METRIC = {
    "cli": "cli.self_s",
    "frontend.read": "frontend.read_s",
    "frontend.extract": "frontend.extract_s",
    "analysis": "analysis.self_s",
    "analysis.ruleset": "analysis.ruleset_s",
    "engine.saturate": "engine.saturate_s",
    "machine": "machine.self_s",
    "machine.start": "machine.start_s",
    "machine.drain": "machine.drain_s",
    "serialize.write": "serialize.write_s",
}
# Job seconds between two calibration samples.
CALIBRATE_EVERY_S = 0.1
# Spans every successful job of a path must contain; a wrapped call that is
# no longer reached would otherwise report its layer as zero.
REQUIRED_SPANS = {
    "analyze": {"frontend.read", "frontend.extract", "analysis", "analysis.ruleset",
                "engine.saturate", "serialize.write"},
    "oracle": {"frontend.read", "frontend.extract", "machine", "machine.start",
               "machine.drain", "serialize.write"},
}


def import_program():
    src = ROOT / "src"
    if not (src / "schemeflow" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no schemeflow sources under {src}")
    if not workloads.corpus_dir(ROOT).is_dir():
        raise SystemExit(f"perfbench: no corpus at {workloads.corpus_dir(ROOT)}")
    sys.path.insert(0, str(src))
    import schemeflow.cli
    return schemeflow.cli


def digest_dir(path: Path) -> tuple[str, int]:
    """SHA-256 over every file name and its bytes, and the total size."""
    h = hashlib.sha256()
    size = 0
    for f in sorted(path.iterdir()):
        data = f.read_bytes()
        size += len(data)
        h.update(f.name.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
    return h.hexdigest(), size


def rederive(inp: workloads.Input, tracer: spans.Tracer | None = None) -> tuple[dict, int]:
    """Re-derive an input on the oracle in-process and ``recheck`` the result,
    which raises when it rejects it.  Returns the relations and the derived
    fact count.  With a tracer, ``recheck`` is recorded as a span."""
    from schemeflow.analysis import IDB_SCHEMA, AnalysisConfig
    from schemeflow.frontend import read_program
    from schemeflow.machine import recheck, run_fixpoint

    program = read_program(inp.text)
    cfg = AnalysisConfig(m=inp.m, primval_truthiness=inp.truthiness)
    relations = run_fixpoint(program, cfg).relations
    span = tracer.begin("machine.recheck") if tracer else None
    try:
        recheck(program, cfg, relations)
    finally:
        if span:
            tracer.end(span)
    return relations, sum(len(relations[name]) for name in IDB_SCHEMA)


def install_tracing(tracer: spans.Tracer) -> None:
    from schemeflow import analysis, cli, machine, serialize

    idb = tuple(analysis.IDB_SCHEMA)
    published = serialize.OUTPUT_RELATIONS

    def nodes(c, program, args):
        c["frontend.nodes"] += len(program.nodes)

    def edb_facts(c, edb, args):
        c["frontend.edb_facts"] += sum(len(rows) for rows in edb.facts.values())

    def ruleset(c, rs, args):
        c["analysis.rules"] += len(rs.rules)
        c["analysis.strata"] += len(rs.strata)

    def saturation(c, result, args):
        store, stats = result
        c["engine.rounds"] += stats.rounds
        c["engine.peak_facts"] += stats.peak_facts
        c["engine.derived_facts"] += sum(len(store.tuples(name)) for name in idb)

    def steps(c, result, args):
        c["machine.steps"] += args[0].steps

    def rows(c, result, args):
        c["serialize.rows"] += sum(len(args[0].get(name, ())) for name in published)

    tracer.wrap(cli, "read_program", "frontend.read", nodes)
    tracer.wrap(analysis, "extract_facts", "frontend.extract", edb_facts)
    tracer.wrap(machine, "extract_facts", "frontend.extract", edb_facts)
    tracer.wrap(cli, "analyze", "analysis")
    tracer.wrap(analysis, "build_analysis_ruleset", "analysis.ruleset", ruleset)
    tracer.wrap(analysis, "saturate", "engine.saturate", saturation)
    tracer.wrap(cli, "run_fixpoint", "machine")
    tracer.wrap(machine.Machine, "start", "machine.start")
    tracer.wrap(machine.Machine, "drain", "machine.drain", steps)
    tracer.wrap(cli, "write_result_dir", "serialize.write", rows)


class Run:
    def __init__(self, args, cli, pins: dict) -> None:
        from schemeflow.termgen import GenSpec, gen_mcfa_worst

        self.args = args
        self.cli = cli
        self.pins = pins
        self.work = Path(args.work)
        self.jobs = workloads.jobs(
            args.workload, args.seed, ROOT, lambda n, k, p: gen_mcfa_worst(GenSpec(n, k, p))
        )
        self.inputs = {j.input.key: j.input for j in self.jobs}
        self.files: dict[str, Path] = {}
        inputs_dir = self.work / "in"
        inputs_dir.mkdir(parents=True)
        for i, key in enumerate(self.inputs):
            self.files[key] = inputs_dir / f"{i}.scm"
            self.files[key].write_text(self.inputs[key].text)
        # Every job writes into this one directory, which is emptied after
        # each job is checked.  Files deleted before the file system writes
        # them back cost no disk traffic.  A directory per job (its block is
        # freed and discarded on removal) or overwriting the files of an
        # earlier job (ext4 then writes each file back at once) made the disk
        # traffic stall later jobs.
        self.out = self.work / "out"
        self.out.mkdir()
        # Bookkeeping stays small and grows by a few bytes a job, so that the
        # number of rounds a run fits in does not show in its peak RSS.
        self.attempted = 0
        self.rounds = 0
        self.failures: dict[tuple[int, int], str] = {}  # (round, job index) -> reason
        self.times: dict[int, array] = defaultdict(lambda: array("d"))  # warm, untraced, per job index
        self.cold: dict[int, float] = {}  # warm-up round, per job index
        self.round_seconds: dict[int, float] = defaultdict(float)
        self.round_bytes: dict[int, int] = defaultdict(int)
        self.round_digests: dict[str, str] = {}
        self.tracer = spans.Tracer()
        self.calibration = metrics.Calibration()
        self.layer_rounds: list[dict[str, float]] = []
        self.pool_terms = 0

    def run_job(self, rnd: int, idx: int, traced: bool) -> float:
        job = self.jobs[idx]
        out = self.out
        buf = io.StringIO()
        rc: object = None
        with contextlib.redirect_stdout(buf):
            if traced:
                root = self.tracer.begin("cli")
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(job.argv(self.files[job.input.key], out))
            except SystemExit as ex:
                rc = ex.code
            except Exception as ex:  # a crash fails this job; the run goes on
                rc = f"{type(ex).__name__}: {ex}"
            t1 = time.perf_counter()
            if traced:
                self.tracer.end(root)
        dt = t1 - t0
        self.attempted += 1
        self.round_seconds[rnd] += dt
        if rnd == 0:
            self.cold[idx] = dt
        elif not traced:
            self.times[idx].append(dt)
        failure = self.check_job(rnd, job, rc, buf.getvalue(), out)
        if failure is not None:
            self.failures[(rnd, idx)] = failure
        for f in out.iterdir():
            f.unlink()
        return dt

    def check_job(self, rnd: int, job: workloads.Job, rc: object, report: str, out: Path) -> str | None:
        if rc != 0:
            return f"exit {rc!r}"
        try:
            counts = json.loads(report)["counts"]
            digest, size = digest_dir(out)
        except (ValueError, KeyError, OSError) as ex:
            return f"unreadable report or output: {ex}"
        self.round_bytes[rnd] += size
        key = job.input.key
        if self.round_digests.setdefault(key, digest) != digest:
            return "engine and oracle outputs differ"
        pin = self.pins.get(key)
        if pin is None:
            return "no pinned counts and digest for this input"
        if counts != pin["counts"]:
            return "run report counts differ from the pinned counts"
        if digest != pin["digest"]:
            return "output differs from the pinned digest"
        return None

    def timed_rounds(self) -> None:
        deadline = time.monotonic() + self.args.seconds
        self.calibration.sample()
        since_sample = 0.0
        while True:
            rnd = self.rounds
            # Rounds after the warm-up alternate untraced and traced.
            traced = self.args.trace and rnd > 0 and rnd % 2 == 0
            started = time.monotonic()
            self.round_digests = {}
            if traced:
                install_tracing(self.tracer)
                self.tracer.counts.clear()
                first_span = len(self.tracer.spans)
            try:
                for idx in range(len(self.jobs)):
                    if traced:
                        self.tracer.job = rnd * len(self.jobs) + idx
                    since_sample += self.run_job(rnd, idx, traced)
                    if since_sample >= CALIBRATE_EVERY_S:
                        self.calibration.sample()
                        since_sample = 0.0
            finally:
                self.tracer.unwrap_all()
            if traced:
                self.layer_rounds.append(self.round_layers(rnd, self.tracer.spans[first_span:]))
            self.rounds += 1
            now = time.monotonic()
            if rnd == 0 or (self.args.trace and not traced):
                continue  # at least one measured round; a traced one after each untraced
            if now + 0.5 * (now - started) >= deadline:
                break
        self.calibration.sample()

    def round_layers(self, rnd: int, round_spans: list[spans.Span]) -> dict[str, float]:
        spans.check_self_times_add_up(round_spans, "cli")
        names_per_job: dict[int, set[str]] = defaultdict(set)
        for s in round_spans:
            names_per_job[s.job].add(s.name)
        for idx, job in enumerate(self.jobs):
            if (rnd, idx) in self.failures:
                continue
            missing = REQUIRED_SPANS[job.path] - names_per_job[rnd * len(self.jobs) + idx]
            if missing:
                raise SystemExit(
                    f"trace: {job.path} job recorded no span for {sorted(missing)}; "
                    "a wrapped call is no longer reached"
                )
        out = {metric: 0.0 for metric in SELF_TIME_METRIC.values()}
        for name, seconds in spans.self_time_by_name(round_spans).items():
            out[SELF_TIME_METRIC[name]] += seconds
        out.update(self.tracer.counts)
        out["serialize.bytes"] = self.round_bytes[rnd]
        return out

    def check_inputs(self) -> dict[str, int]:
        """Re-derive each input once on the oracle, ``recheck`` the result and
        compare it with the pins; every job of an input that fails this fails
        too.  Returns the derived fact count per input."""
        from schemeflow.serialize import write_result_dir

        derived: dict[str, int] = {}
        for key, inp in self.inputs.items():
            pin = self.pins.get(key)
            if pin is None:
                self.fail_input(key, "no pinned counts and digest for this input")
                continue
            self.tracer.job = None
            try:
                relations, derived[key] = rederive(inp, self.tracer)
            except Exception as ex:  # recheck's ValidationError, or any crash of the program
                self.fail_input(key, f"re-derivation failed: {type(ex).__name__}: {ex}")
                continue
            check_dir = self.work / "check"
            write_result_dir(relations, check_dir, format=inp.fmt)
            digest, _ = digest_dir(check_dir)
            shutil.rmtree(check_dir)
            if derived[key] != pin["derived"]:
                self.fail_input(key, f"derived {derived[key]} facts, pinned {pin['derived']}")
            elif digest != pin["digest"]:
                self.fail_input(key, "re-derived output differs from the pinned digest")
        return derived

    def fail_input(self, key: str, reason: str) -> None:
        for rnd in range(self.rounds):
            for idx, job in enumerate(self.jobs):
                if job.input.key == key:
                    self.failures.setdefault((rnd, idx), reason)

    def end_to_end(self, derived: dict[str, int]) -> tuple[dict[str, float], dict]:
        facts: dict[str, int] = defaultdict(int)
        seconds: dict[str, float] = defaultdict(float)
        per_path: dict[str, list[float]] = defaultdict(list)
        cold: dict[str, list[float]] = defaultdict(list)
        means: dict[str, list[float]] = defaultdict(list)
        for idx, times in self.times.items():
            job = self.jobs[idx]
            per_path[job.path].extend(times)
            cold[job.path].append(self.cold[idx])
            for scope in ("all", job.path):
                facts[scope] += derived.get(job.input.key, 0) * len(times)
                seconds[scope] += sum(times)
                # The mean, not the median, of each job's times: the machine
                # alternates between fast and slow spells of tens of seconds,
                # and a median jumps between the two where a mean moves smoothly.
                means[scope].append(statistics.fmean(times) * 1e3)
        slowdown = self.calibration.slowdown()
        # Job times are averaged over the jobs of a round, so each path and
        # input weighs in with its share of the round's time.
        values = {
            "facts_per_s": facts["all"] / seconds["all"] * slowdown,
            "oracle_facts_per_s": facts["oracle"] / seconds["oracle"] * slowdown,
            "job_ms": statistics.fmean(means["all"]) / slowdown,
            "oracle_job_ms": statistics.fmean(means["oracle"]) / slowdown,
        }
        table: dict = {}
        for path, samples in sorted(per_path.items()):
            row = {
                "jobs": len(samples),
                "p50_ms": metrics.percentile(samples, 50) * 1e3 / slowdown,
                "cold_mean_ms": statistics.fmean(cold[path]) * 1e3 / slowdown,
            }
            high = metrics.high_percentile(samples)
            if high is not None:
                row[f"p{high[0]:g}_ms"] = high[1] * 1e3 / slowdown
            table[path] = row
        return values, table

    def per_layer(self) -> dict[str, float]:
        rounds = self.layer_rounds
        for name in metrics.COUNTS:
            seen = {r.get(name, 0) for r in rounds}
            if len(seen) != 1:
                raise SystemExit(f"trace: {name} differs between rounds of one run: {sorted(seen)}")
        out = {name: statistics.median(r[name] for r in rounds) for name in SELF_TIME_METRIC.values()}
        out.update((name, rounds[0].get(name, 0)) for name in metrics.COUNTS)
        out["serialize.rows_per_s"] = statistics.median(
            r["serialize.rows"] / r["serialize.write_s"] for r in rounds
        )
        out["machine.recheck_s"] = sum(
            s.end - s.start for s in self.tracer.spans if s.name == "machine.recheck"
        )
        out["terms.pool_terms"] = self.pool_terms
        out["trace.overhead_ratio"] = statistics.median(
            self.round_seconds[r + 1] / self.round_seconds[r] for r in range(1, self.rounds, 2)
        )
        slowdown = self.calibration.slowdown()
        for name, unit in metrics.PER_LAYER.items():
            if unit == "s":
                out[name] /= slowdown
        out["serialize.rows_per_s"] *= slowdown
        return out


def read_pool_terms() -> int:
    from schemeflow.terms import TERM_TYPES

    return sum(len(cls._pool) for cls in TERM_TYPES.values())


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True, help="scratch directory inside the checkout")
    p.add_argument("--setup-only", action="store_true", help="stop where timing would start")
    p.add_argument("--spans", help="write the recorded spans to this file")
    args = p.parse_args(argv)

    cli = import_program()
    run = Run(args, cli, json.loads(PINS.read_text()))
    if args.setup_only:
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    run.timed_rounds()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.pool_terms = read_pool_terms()
    derived = run.check_inputs()
    result = {
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": sorted(set(run.failures.values()))[:10],
        "rounds": run.rounds,
        "slowdown": run.calibration.slowdown(),
    }
    if args.trace:
        result["metrics"] = run.per_layer()
        if args.spans:
            run.tracer.write(Path(args.spans))
    else:
        values, table = run.end_to_end(derived)
        values["peak_rss_mb"] = peak_rss_mb
        table["failed_ratio"] = metrics.failed_ratio(len(run.failures), run.attempted)
        result["metrics"] = values
        result["table"] = table
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
