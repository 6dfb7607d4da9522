"""Command-line driver: every subcommand, exit codes, output formats."""

from __future__ import annotations

import filecmp
import gc
import json
import os
import subprocess
import sys

import pytest

from schemeflow import cli
from schemeflow.analysis import analyze
from schemeflow.cli import main
from schemeflow.machine import run_fixpoint
from schemeflow.serialize import OUTPUT_RELATIONS, render_row
from schemeflow.termgen import VANHORN_TERM, GenSpec, gen_mcfa_worst
from schemeflow.terms import EMPTY_CONTEXT, KAddr, Label

from conftest import CORPUS_DIR, config

FACT_FILES = {
    "bool.facts",
    "call.facts",
    "call_arg_list.facts",
    "callcc.facts",
    "if.facts",
    "lambda.facts",
    "lambda_arg_list.facts",
    "let.facts",
    "let_list.facts",
    "num.facts",
    "prim.facts",
    "prim_call.facts",
    "setb.facts",
    "top_exp.facts",
    "var.facts",
}

LOOP_SOURCE = (
    "(let ((done #f))\n"
    "  ((lambda (g) (g g))\n"
    "   (lambda (g) (if done 1 (+ (set! done #t) (g g))))))\n"
)


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.scm"
    path.write_text("((lambda (x) x) 42)\n")
    return path


def read_dir(path):
    return {f.name: f.read_bytes() for f in path.iterdir()}


class TestFacts:
    def test_emits_one_file_per_relation(self, tmp_path, program_file, capsys):
        out = tmp_path / "facts"
        assert main(["facts", str(program_file), "--out", str(out)]) == 0
        assert {f.name for f in out.iterdir()} == FACT_FILES
        assert capsys.readouterr().out == ""


class TestAnalyzeAndOracle:
    def test_analyze_writes_output_relations(self, tmp_path, program_file, capsys):
        out = tmp_path / "a"
        assert main(["analyze", str(program_file), "--out", str(out)]) == 0
        assert {f.name for f in out.iterdir()} == {
            f"{name}.tsv" for name in OUTPUT_RELATIONS
        }
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "analyze"
        assert report["engine"] == "seminaive"
        assert report["m"] == 0
        assert set(report["counts"]) == set(OUTPUT_RELATIONS)
        assert report["rounds"] > 0 and report["peak_facts"] > 0

    def test_oracle_reports_worklist_engine(self, tmp_path, program_file, capsys):
        out = tmp_path / "o"
        assert main(["oracle", str(program_file), "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "oracle"
        assert report["engine"] == "worklist"

    def test_both_paths_write_identical_bytes(self, tmp_path, program_file, capsys):
        outa, outo = tmp_path / "a", tmp_path / "o"
        assert main(["analyze", str(program_file), "--out", str(outa), "--m", "1"]) == 0
        assert main(["oracle", str(program_file), "--out", str(outo), "--m", "1"]) == 0
        capsys.readouterr()
        assert read_dir(outa) == read_dir(outo)

    def test_repeated_runs_are_byte_identical(self, tmp_path, program_file, capsys):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["analyze", str(program_file), "--out", str(out1)])
        main(["analyze", str(program_file), "--out", str(out2)])
        capsys.readouterr()
        names = sorted(f.name for f in out1.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
        assert mismatch == [] and errors == []

    def test_json_format_writes_single_document(self, tmp_path, program_file, capsys):
        out = tmp_path / "j"
        assert main(
            ["analyze", str(program_file), "--out", str(out), "--format", "json"]
        ) == 0
        capsys.readouterr()
        assert [f.name for f in out.iterdir()] == ["result.json"]
        doc = json.loads((out / "result.json").read_text())
        assert set(doc) == set(OUTPUT_RELATIONS)

    def test_widen_depth_unlimited_accepted(self, tmp_path, program_file, capsys):
        out = tmp_path / "u"
        argv = ["analyze", str(program_file), "--out", str(out), "--widen-depth", "unlimited"]
        assert main(argv) == 0
        capsys.readouterr()

    def test_widen_depth_zero_rejected(self, tmp_path, program_file, capsys):
        out = tmp_path / "z"
        argv = ["analyze", str(program_file), "--out", str(out), "--widen-depth", "0"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "widen depth must be >= 1" in capsys.readouterr().err

    def test_strict_appendix_with_widen_depth_exits_1(self, tmp_path, program_file, capsys):
        # A usage error, not exit 2, which means the fact ceiling.
        out = tmp_path / "x"
        argv = ["analyze", str(program_file), "--out", str(out), "--strict-appendix"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--widen-depth", "3"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "error: argument --widen-depth: not allowed with argument --strict-appendix" in err
        assert not out.exists()

    def test_trace_logs_rules_without_changing_results(
        self, tmp_path, program_file, capsys
    ):
        quiet, traced = tmp_path / "q", tmp_path / "t"
        main(["oracle", str(program_file), "--out", str(quiet)])
        capsys.readouterr()
        main(["oracle", str(program_file), "--out", str(traced), "--trace"])
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line]
        assert lines, "expected at least one trace line"
        assert all("\t" in line for line in lines)
        rules = {line.split("\t", 1)[0] for line in lines}
        assert {"e-call", "a-call", "a-halt"} <= rules
        assert read_dir(quiet) == read_dir(traced)

    def test_result_files_are_utf8_under_an_ascii_locale(self, tmp_path, capsys):
        program = tmp_path / "lam.scm"
        program.write_text("(let ((λ 1)) λ)\n", encoding="utf-8")
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        for command in ("analyze", "oracle"):
            sub, here = tmp_path / f"{command}-sub", tmp_path / command
            proc = subprocess.run(
                [sys.executable, "-m", "schemeflow", command, str(program), "--out", str(sub)],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            assert main([command, str(program), "--out", str(here)]) == 0
            assert read_dir(sub) == read_dir(here)
            assert "λ~1".encode() in read_dir(here)["stored_val.tsv"]

    def test_trace_is_utf8_under_an_ascii_locale(self, tmp_path):
        program = tmp_path / "lam.scm"
        program.write_text("(let ((λ 1)) λ)\n", encoding="utf-8")
        ascii_env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        traces = []
        for env in (ascii_env, {**os.environ, "LC_ALL": "C.UTF-8"}):
            argv = ["oracle", str(program), "--out", str(tmp_path / str(len(traces))), "--trace"]
            proc = subprocess.run(
                [sys.executable, "-m", "schemeflow", *argv], capture_output=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            traces.append(proc.stderr)
        assert traces[0] == traces[1]
        assert "(VAddress λ~1 (Context))".encode() in traces[0]

    @pytest.mark.parametrize("name,m", [("17_vanhorn", 0), ("18_loop_widen", 1)])
    def test_trace_order_is_identical_across_processes(self, tmp_path, name, m):
        # Each process has its own string-hash seed and first interns a
        # different number of unrelated terms, which moves every later term
        # to other addresses.  Neither may change the trace (on stderr).
        argv = ["oracle", str(CORPUS_DIR / f"{name}.scm"), "--m", str(m), "--trace"]
        traces = set()
        for seed in range(4):
            code = (
                "import sys; from schemeflow.terms import Number; from schemeflow.cli import main; "
                f"pad = [Number(-1000 - i) for i in range({seed})]; sys.exit(main(sys.argv[1:]))"
            )
            proc = subprocess.run(
                [sys.executable, "-c", code, *argv, "--out", str(tmp_path / str(seed))],
                capture_output=True,
                env={**os.environ, "PYTHONHASHSEED": str(seed)},
            )
            assert proc.returncode == 0
            traces.add(proc.stderr)
        assert len(traces) == 1

class TestDiff:
    @pytest.mark.parametrize(
        "name", ["05_if_conflated.scm", "16_conflate_branches.scm", "17_vanhorn.scm"]
    )
    def test_paths_agree_on_corpus_sample(self, name, capsys):
        assert main(["diff", str(CORPUS_DIR / name), "--m", "1"]) == 0
        out = capsys.readouterr().out
        assert out == "identical across state_e, state_a, stored_val, stored_kont\n"

    def test_a_widen_depth_past_the_recursion_limit_runs(self, capsys):
        loop = str(CORPUS_DIR / "18_loop_widen.scm")
        assert main(["diff", loop, "--widen-depth", "1500"]) == 0
        assert capsys.readouterr().out.startswith("identical across ")

    def test_diff_flows_widens_the_comparison(self, program_file, capsys):
        assert main(["diff", str(program_file), "--diff-flows"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "identical across state_e, state_a, stored_val, stored_kont,"
            " flow_aa, flow_ae, flow_ea, flow_ee\n"
        )

    @pytest.mark.parametrize("oracle_extra", [False, True], ids=["engine-only", "oracle-only"])
    def test_mismatch_prints_the_first_differing_row(self, oracle_extra, tmp_path, monkeypatch, capsys):
        program = tmp_path / "mcfa.scm"
        program.write_text(gen_mcfa_worst(GenSpec(16, 1, 2)))
        extra = (Label("a0"), EMPTY_CONTEXT, KAddr(Label("a0"), EMPTY_CONTEXT))
        lines = []

        def lossy(program, cfg):
            result = run_fixpoint(program, cfg)
            rows = sorted(result.relations["state_e"], key=render_row)
            lines.extend("\t".join(render_row(r)) for r in rows)
            # The oracle loses every second row; the first one lost is rows[1].
            result.relations["state_e"].difference_update(rows[1::2])
            if oracle_extra:
                result.relations["state_e"].add(extra)
            return result

        monkeypatch.setattr(cli, "run_fixpoint", lossy)
        assert main(["diff", str(program), "--m", "3"]) == 3
        assert len(lines) > 100
        if oracle_extra:
            expect = "state_e\toracle-only\ta0\t(Context)\t(KAddress a0 (Context))"
        else:
            expect = f"state_e\tengine-only\t{lines[1]}"
        assert capsys.readouterr().out == expect + "\n"


class TestGenTermAndBench:
    def test_gen_term_mcfa(self, capsys):
        assert main(["gen-term", "--n", "2", "--k", "1", "--padding", "0"]) == 0
        assert capsys.readouterr().out == (
            "((lambda (f) (let ((m1 (f 1)) (m0 (f 0))) m0))"
            " (lambda (z) (+ z z)))\n"
        )

    def test_gen_term_vanhorn(self, capsys):
        assert main(["gen-term", "--family", "vanhorn"]) == 0
        assert capsys.readouterr().out == VANHORN_TERM + "\n"

    def test_gen_term_requires_n(self, capsys):
        for argv in (["gen-term"], ["bench"]):
            assert main(argv) == 1
            assert "--n" in capsys.readouterr().err

    def test_bench_reports_counts(self, capsys):
        assert main(["bench", "--n", "2", "--k", "1", "--m", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "bench"
        assert set(report["counts"]) == set(OUTPUT_RELATIONS)
        assert report["program"] == "<mcfa n=2 k=1 p=0>"


@pytest.fixture
def int_digits_limit():
    """A limit on the digits ``int()`` converts, restored after the test."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(limit)


class TestFailureModes:
    def test_parse_error_exits_1_with_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.scm"
        bad.write_text("(let ((x")
        assert main(["analyze", str(bad), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("parse error: 1:7:")

    def test_validation_error_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.scm"
        bad.write_text("(let () 1)")
        assert main(["analyze", str(bad), "--out", str(tmp_path / "x")]) == 1
        assert "let requires at least one binding" in capsys.readouterr().err

    def test_duplicate_let_names_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.scm"
        bad.write_text("(let ((x 1) (x 2)) x)")
        for command in ("analyze", "oracle"):
            assert main([command, str(bad), "--out", str(tmp_path / "x")]) == 1
            assert capsys.readouterr().err == "error: 1:1: duplicate let binding names\n"

    @pytest.mark.parametrize("command", ["facts", "analyze", "oracle", "diff"])
    def test_integer_literal_longer_than_int_converts_exits_1(
        self, command, int_digits_limit, tmp_path, capsys
    ):
        bad = tmp_path / "long.scm"
        bad.write_text("(+ 1\n   " + "9" * (int_digits_limit + 1) + ")")
        argv = [command, str(bad)] + ([] if command == "diff" else ["--out", str(tmp_path / "x")])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: 2:4: integer literal too long ({int_digits_limit + 1} characters)\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["facts", "analyze", "oracle", "diff"])
    def test_quote_exits_1_at_its_position(self, command, tmp_path, capsys):
        bad = tmp_path / "quote.scm"
        bad.write_text("(let ((x (quote a))) 5)")
        argv = [command, str(bad)] + ([] if command == "diff" else ["--out", str(tmp_path / "x")])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "quote is not supported: a quoted datum has no value in the analysis"
        assert captured.err == f"error: 1:10: {message}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["facts", "analyze", "oracle", "diff"])
    def test_non_integer_number_exits_1_at_its_position(self, command, tmp_path, capsys):
        bad = tmp_path / "real.scm"
        bad.write_text("(+ 1\n   1.5)")
        argv = [command, str(bad)] + ([] if command == "diff" else ["--out", str(tmp_path / "x")])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 2:4: unsupported literal '1.5'\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["facts", "analyze", "oracle", "diff"])
    def test_allow_quote_is_a_usage_error(self, command, tmp_path, program_file):
        argv = [command, str(program_file), "--allow-quote"]
        argv += [] if command == "diff" else ["--out", str(tmp_path / "x")]
        proc = subprocess.run([sys.executable, "-m", "schemeflow", *argv], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        usage, error = proc.stderr.splitlines()
        assert usage.startswith("usage: schemeflow ")
        assert error == "schemeflow: error: unrecognized arguments: --allow-quote"
        assert not (tmp_path / "x").exists()

    def test_fact_ceiling_exits_2(self, tmp_path, monkeypatch, capsys):
        loop = tmp_path / "loop.scm"
        loop.write_text(LOOP_SOURCE)
        monkeypatch.setenv("SCHEMEFLOW_FACT_CEILING", "30000")
        argv = ["analyze", str(loop), "--out", str(tmp_path / "x"), "--strict-appendix"]
        assert main(argv) == 2
        assert "fact ceiling exceeded" in capsys.readouterr().err

    def test_strict_appendix_with_truthiness_exits_1(self, tmp_path, program_file, capsys):
        for mode in ("both-branches", "appendix-exact"):
            argv = ["analyze", str(program_file), "--out", str(tmp_path / "x")]
            assert main(argv + ["--strict-appendix", "--truthiness", mode]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_bad_ceiling_env_rejected(self, tmp_path, program_file, monkeypatch, capsys):
        monkeypatch.setenv("SCHEMEFLOW_FACT_CEILING", "lots")
        assert main(["analyze", str(program_file), "--out", str(tmp_path / "x")]) == 1
        assert "SCHEMEFLOW_FACT_CEILING" in capsys.readouterr().err

    def test_negative_ceiling_env_rejected(self, tmp_path, program_file, monkeypatch, capsys):
        monkeypatch.setenv("SCHEMEFLOW_FACT_CEILING", "-5")
        for command in ("analyze", "oracle"):
            assert main([command, str(program_file), "--out", str(tmp_path / "x")]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: fact ceiling must be >= 0, got -5\n"
        assert not (tmp_path / "x").exists()

    def test_directory_as_program_exits_1(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"error: cannot read {tmp_path}: Is a directory\n"

    def test_non_utf8_program_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.scm"
        bad.write_bytes(b"(f \xff)")
        assert main(["oracle", str(bad), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: not UTF-8 text")

    def test_out_naming_a_file_exits_1(self, tmp_path, program_file, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        for command in ("analyze", "facts"):
            assert main([command, str(program_file), "--out", str(taken)]) == 1
            assert capsys.readouterr().err == f"error: cannot write {taken}: File exists\n"

    def test_deep_nesting_exits_1_without_traceback(self, tmp_path):
        deep = tmp_path / "deep.scm"
        deep.write_text("(lambda (x) " * 10_000 + "x" + ")" * 10_000)
        out = str(tmp_path / "x")
        for command in ("analyze", "oracle"):
            proc = subprocess.run(
                [sys.executable, "-m", "schemeflow", command, str(deep), "--out", out],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 1
            assert proc.stderr == "error: program nested too deeply\n"


@pytest.fixture
def restore_gc():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestCycleCollector:
    """``main`` runs each subcommand with the cycle collector off and
    restores the caller's setting, whatever the exit code."""

    @pytest.mark.parametrize("caller_enabled", [True, False], ids=["caller-on", "caller-off"])
    @pytest.mark.parametrize("code", [0, 1, 2, 3])
    def test_caller_state_restored(
        self, code, caller_enabled, tmp_path, program_file, monkeypatch, capsys, restore_gc
    ):
        argv = ["analyze", str(program_file), "--out", str(tmp_path / "x")]
        if code == 1:
            argv[1] = str(tmp_path / "missing.scm")
        elif code == 2:
            monkeypatch.setenv("SCHEMEFLOW_FACT_CEILING", "1")
        elif code == 3:

            def lossy(program, cfg):
                result = run_fixpoint(program, cfg)
                result.relations["state_a"].pop()
                return result

            monkeypatch.setattr(cli, "run_fixpoint", lossy)
            argv = ["diff", str(program_file)]
        during = []
        real_read_program = cli.read_program

        def read_program(*args, **kw):
            during.append(gc.isenabled())
            return real_read_program(*args, **kw)

        monkeypatch.setattr(cli, "read_program", read_program)
        if caller_enabled:
            gc.enable()
        else:
            gc.disable()
        assert main(argv) == code
        assert gc.isenabled() is caller_enabled
        # A missing file fails before the program is read.
        assert during == ([] if code == 1 else [False])
        capsys.readouterr()

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_runs_leave_no_cyclic_garbage(self, m, corpus_programs, restore_gc):
        """Reference counting alone frees every run of either path."""
        gc.collect()
        gc.disable()
        for name, program in corpus_programs.items():
            analyze(program, config(m=m))
            assert gc.collect() == 0, f"analyze {name}"
            run_fixpoint(program, config(m=m))
            assert gc.collect() == 0, f"run_fixpoint {name}"


    def test_a_cli_run_leaves_no_cyclic_garbage(self, tmp_path, program_file, capsys, restore_gc):
        """Neither parsing the arguments nor writing the run report leaves
        garbage for the collector: the parser is built once per process."""
        argv = [str(program_file), "--out", str(tmp_path / "x")]
        assert main(["analyze", *argv]) == 0  # builds the parser, if nothing did yet
        gc.collect()
        gc.disable()
        for command in ("analyze", "oracle"):
            for fmt in ("tsv", "json"):
                assert main([command, *argv, "--format", fmt]) == 0
                assert gc.collect() == 0, (command, fmt)
        capsys.readouterr()


class TestEntryPoints:
    def test_console_script(self):
        proc = subprocess.run(
            ["schemeflow", "gen-term", "--family", "vanhorn"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == VANHORN_TERM + "\n"

    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "schemeflow", "gen-term", "--family", "vanhorn"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == VANHORN_TERM + "\n"
