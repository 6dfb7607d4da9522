"""Differential testing: the rule engine and the worklist machine must agree
on every derived relation for every corpus program and configuration."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from schemeflow.analysis import analyze
from schemeflow.frontend import read_program
from schemeflow.machine import Machine, recheck, run_fixpoint
from schemeflow.serialize import OUTPUT_RELATIONS, relation_text
from schemeflow.termgen import GenSpec, gen_mcfa_worst
from schemeflow.terms import EMPTY_CONTEXT, KAddr, Number

from conftest import CORPUS, config, corpus_ids

DERIVED_RELATIONS = (
    "peek_ctx",
    "copy_ctx",
    "freevar",
    "state_e",
    "state_a",
    "stored_val",
    "stored_kont",
    "flow_ee",
    "flow_ea",
    "flow_ae",
    "flow_aa",
)

TRUTHINESS_MODES = ("both-branches", "appendix-exact")

SPOT_CHECK = ("05_if_conflated", "16_conflate_branches", "17_vanhorn", "18_loop_widen")


@pytest.mark.parametrize("truthiness", TRUTHINESS_MODES)
@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("path", CORPUS, ids=corpus_ids())
def test_paths_agree_on_every_relation(path, m, truthiness, corpus_programs):
    program = corpus_programs[path.stem]
    cfg = config(m=m, primval_truthiness=truthiness)
    left = analyze(program, cfg)
    right = run_fixpoint(program, cfg)
    for name in DERIVED_RELATIONS:
        assert left.relations[name] == right.relations[name], (
            f"{path.stem} m={m} {truthiness}: {name} differs"
        )


@pytest.mark.parametrize("stem", SPOT_CHECK)
def test_serialized_output_is_byte_identical(stem, corpus_programs):
    program = corpus_programs[stem]
    cfg = config(m=1)
    left = analyze(program, cfg)
    right = run_fixpoint(program, cfg)
    for name in OUTPUT_RELATIONS:
        a = relation_text(left.relations[name]).encode()
        b = relation_text(right.relations[name]).encode()
        assert a == b, f"{stem}: serialized {name} differs"


@pytest.mark.parametrize("stem", SPOT_CHECK)
def test_engine_result_is_a_true_fixpoint(stem, corpus_programs):
    """The machine-side checker validates the rule engine's output."""
    program = corpus_programs[stem]
    cfg = config(m=1)
    result = analyze(program, cfg)
    assert recheck(program, cfg, result.relations)


@pytest.mark.parametrize("truthiness", TRUTHINESS_MODES)
@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("path", CORPUS, ids=corpus_ids())
def test_recheck_accepts_both_paths(path, m, truthiness, corpus_programs):
    """Re-deriving from either path's result adds nothing."""
    program = corpus_programs[path.stem]
    cfg = config(m=m, primval_truthiness=truthiness)
    assert recheck(program, cfg, analyze(program, cfg).relations)
    assert recheck(program, cfg, run_fixpoint(program, cfg).relations)


def test_results_do_not_depend_on_hash_seed(tmp_path):
    """Byte-identical output across interpreter hash randomization seeds."""
    source = CORPUS[0].parent / "16_conflate_branches.scm"

    def run(seed: str):
        out = tmp_path / f"seed{seed}"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "schemeflow",
                "analyze",
                str(source),
                "--out",
                str(out),
                "--m",
                "1",
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return {f.name: f.read_bytes() for f in out.iterdir()}

    assert run("0") == run("1")


def test_agreement_survives_widening_choices(corpus_programs):
    program = corpus_programs["18_loop_widen"]
    for widen in (1, 2, 4):
        cfg = config(m=0, widen_depth=widen)
        left = analyze(program, cfg)
        right = run_fixpoint(program, cfg)
        for name in DERIVED_RELATIONS:
            assert left.relations[name] == right.relations[name], (
                f"widen={widen}: {name} differs"
            )


@pytest.mark.parametrize(
    "source, m",
    [
        pytest.param("(call/cc (lambda (k) (if (k 1) 2 3)))", 2, id="kont-guard-m2"),
        # A set! whose value reads a variable that its closure captures: the
        # only derivation of that freevar row is fv-set's.
        *(
            pytest.param(
                "(let ((y 1)) (let ((z 5)) (let ((f (lambda (a) (set! y z)))) (f 2))))",
                m,
                id=f"set-reads-free-m{m}",
            )
            for m in (0, 1)
        ),
        # A call/cc whose lambda reads a free variable: fv-callcc's row.
        *(
            pytest.param("(let ((z 5)) (call/cc (lambda (k) z)))", m, id=f"callcc-reads-free-m{m}")
            for m in (0, 1)
        ),
        # A frame that reaches a continuation address already holding a
        # value: the machine's stored_kont handler runs the apply, and the
        # flow edge it derives has no other derivation.  Here the Prim2
        # frame of the second call arrives after 5 (flow_aa of
        # (PrimVal + (Number 2) (Number 5))) ...
        pytest.param(
            "(let ((f (lambda (z) (+ z 5)))) (let ((a (f 1))) (f 2)))", 0, id="kont-after-value-flow-aa-m0"
        ),
        # ... and the Fn frame of the second closure arrives after 7 (flow_ae).
        pytest.param(
            "(let ((g (lambda (h) (h 7)))) (let ((a (g (lambda (x) x)))) (g (lambda (y) y))))",
            0,
            id="kont-after-value-flow-ae-m0",
        ),
        # A frame that reads only itself reaches an address that already
        # holds a value, so the stored_kont handler emits its head: the
        # inner let body's state_e ...
        pytest.param(
            "(let ((f (lambda (y) (let ((z y)) z)))) (let ((a (f 1))) (f 2)))", 0, id="kont-after-value-let-head-m0"
        ),
        # ... and the set!'s state_a((Number -42), ...).
        pytest.param(
            "(let ((f (lambda (y) (set! y 3)))) (let ((a (f 1))) (f 2)))", 0, id="kont-after-value-set-head-m0"
        ),
        # Both arguments call f, so two frames of f's body that differ only
        # in their continuation address wait at one address before its
        # first value, and the machine emits both frames' heads from one
        # group: the let body's state_e ...
        pytest.param(
            "(let ((f (lambda (y) (let ((z y)) z)))) ((lambda (a b) a) (f 1) (f 2)))", 0, id="two-frame-let-group-m0"
        ),
        # ... and the set!'s state_a((Number -42), ...).
        pytest.param(
            "(let ((f (lambda (y) (set! y 3)))) ((lambda (a b) a) (f 1) (f 2)))", 0, id="two-frame-set-group-m0"
        ),
    ],
)
def test_agreement_on_fresh_source_text(source, m):
    """Paths agree on programs built outside the corpus fixtures."""
    program = read_program(source)
    cfg = config(m=m)
    left = analyze(program, cfg)
    right = run_fixpoint(program, cfg)
    for name in DERIVED_RELATIONS:
        assert left.relations[name] == right.relations[name]


# termgen cells (n, k, p) at an m no larger than their padding p: contexts
# conflate, so the machine's frame groups have many members.  The corpus
# programs hardly have any.
@pytest.mark.parametrize("n, k, p, m", [(8, 1, 0, 0), (8, 2, 1, 0), (8, 2, 1, 1), (16, 1, 0, 0), (16, 1, 1, 1)])
def test_paths_agree_in_the_conflated_regime(n, k, p, m):
    program = read_program(gen_mcfa_worst(GenSpec(n, k, p)))
    cfg = config(m=m)
    left = analyze(program, cfg)
    machine = Machine(program, cfg)
    right = machine.run()
    assert max(len(group) for groups in machine.kstore.values() for group in groups) >= n
    for name in DERIVED_RELATIONS:
        assert left.relations[name] == right.relations[name], name
    assert recheck(program, cfg, left.relations)
    assert recheck(program, cfg, right.relations)


# ``set!`` inside a closure on a variable the closure captures; it evaluates
# to 2.
SET_IN_CLOSURE = "(let ((x 1)) (let ((f (lambda (y) (set! x 2)))) (let ((z (f 0))) x)))"


@pytest.mark.parametrize(
    "m",
    [
        0,
        pytest.param(
            1,
            marks=pytest.mark.xfail(
                strict=True,
                reason=(
                    f"known soundness gap on {SET_IN_CLOSURE}: flat closures `copy` x into"
                    " the closure's entry context, so the set! writes the copy and the"
                    " outer x never reads (Number 2)"
                ),
            ),
        ),
    ],
)
def test_assignment_in_a_closure_reaches_the_result(m):
    """Both paths agree, and each must find the value 2 at the root
    continuation; at m >= 1 neither does (a known gap, not yet fixed)."""
    program = read_program(SET_IN_CLOSURE)
    cfg = config(m=m)
    left = analyze(program, cfg)
    right = run_fixpoint(program, cfg)
    for name in DERIVED_RELATIONS:
        assert left.relations[name] == right.relations[name]
    final = (Number(2), KAddr(program.root, EMPTY_CONTEXT))
    assert final in left.relations["state_a"]
