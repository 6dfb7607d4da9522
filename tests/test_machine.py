"""The abstract-machine worklist: transitions, fixpoints, order independence, recheck."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from schemeflow.analysis import AnalysisConfig, analyze
from schemeflow.errors import FactCeilingExceeded, ValidationError
from schemeflow.frontend import read_program
from schemeflow.machine import Machine, _atomic_values, recheck, run_fixpoint
from schemeflow.terms import (
    Bool,
    Closure,
    Context,
    EMPTY_CONTEXT,
    IfK,
    KAddr,
    Label,
    LetK,
    Number,
    SetK,
    VAddr,
    render,
)

from conftest import CORPUS_DIR, config


def L(n: int) -> Label:
    return Label(f"e{n}")


def corpus(stem: str) -> str:
    return (CORPUS_DIR / f"{stem}.scm").read_text()


def fire_one(machine: Machine, rel: str, row: tuple) -> set[tuple[str, tuple]]:
    """Emit one event, process exactly that event, and return the facts it derived."""
    before = {name: set(rows) for name, rows in machine.relations.items()}
    machine.emit(rel, row)
    before[rel].add(row)
    machine.process(*machine.queue.popleft())
    return {(name, r) for name, rows in machine.relations.items() for r in rows - before[name]}


def no_store(av):
    return ()


class TestAtomicEval:
    def test_number(self):
        program = read_program("42")
        assert _atomic_values(program, L(0), EMPTY_CONTEXT, no_store) == [Number(42)]

    def test_lambda_closes_over_context(self):
        program = read_program("(lambda (x) x)")
        ctx = Context(L(0))
        assert _atomic_values(program, L(0), ctx, no_store) == [Closure(L(0), ctx)]

    def test_unbound_var_is_empty(self):
        program = read_program("x")
        assert _atomic_values(program, L(0), EMPTY_CONTEXT, no_store) == []

    def test_bound_var_reads_store(self):
        program = read_program("x")
        vstore = {VAddr("x", EMPTY_CONTEXT): {Number(3)}}
        assert _atomic_values(program, L(0), EMPTY_CONTEXT, vstore.__getitem__) == [Number(3)]


class TestStep:
    def test_eval_if_pushes_frame(self):
        machine = Machine(read_program("(if #t 1 2)"), config())
        root_ak = KAddr(L(0), EMPTY_CONTEXT)
        guard_ak = KAddr(L(1), EMPTY_CONTEXT)
        derived = fire_one(machine, "state_e", (L(0), EMPTY_CONTEXT, root_ak))
        assert derived == {
            ("state_e", (L(1), EMPTY_CONTEXT, guard_ak)),
            ("stored_kont", (guard_ak, IfK(L(2), L(3), EMPTY_CONTEXT, root_ak))),
            ("flow_ee", (L(0), L(1))),
        }
        # The frame joins the store only when its own event is processed.
        assert guard_ak not in machine.kstore

    def test_apply_fans_out_over_all_frames(self):
        machine = Machine(read_program("(if #t 1 2)"), config())
        root_ak = KAddr(L(0), EMPTY_CONTEXT)
        ak = KAddr(L(1), EMPTY_CONTEXT)
        z = VAddr("z~9", EMPTY_CONTEXT)
        machine.emit("stored_kont", (ak, IfK(L(2), L(3), EMPTY_CONTEXT, root_ak)))
        machine.emit("stored_kont", (ak, LetK(z, L(2), EMPTY_CONTEXT, root_ak)))
        machine.drain()
        derived = fire_one(machine, "state_a", (Bool("#f"), ak))
        assert {row for rel, row in derived if rel == "state_e"} == {
            (L(3), EMPTY_CONTEXT, root_ak),  # false branch
            (L(2), EMPTY_CONTEXT, root_ak),  # let body
        }
        assert ("stored_val", (z, Bool("#f"))) in derived

    def test_apply_set_joins_store_and_returns_sentinel(self):
        machine = Machine(read_program("(let ((x 1)) (set! x 2))"), config())
        root_ak = KAddr(L(0), EMPTY_CONTEXT)
        ak = KAddr(L(4), EMPTY_CONTEXT)
        x = VAddr("x~1", EMPTY_CONTEXT)
        machine.emit("stored_kont", (ak, SetK(x, root_ak)))
        machine.drain()
        derived = fire_one(machine, "state_a", (Number(2), ak))
        assert {row for rel, row in derived if rel == "state_a"} == {(Number(-42), root_ak)}
        assert ("stored_val", (x, Number(2))) in derived
        machine.drain()
        assert machine.vstore[x] == {Number(2)}

    def test_stuck_config_has_no_successors(self):
        machine = Machine(read_program("42"), config())
        derived = fire_one(machine, "state_a", (Number(1), KAddr(L(0), EMPTY_CONTEXT)))
        assert derived == set()
        assert not machine.queue


class TestRunFixpoint:
    def test_number_program_two_configs(self):
        result = run_fixpoint(read_program("42"), config())
        assert len(result.relations["state_e"]) == 1
        assert len(result.relations["state_a"]) == 1
        assert result.engine == "worklist"
        assert result.rounds > 0

    def test_matches_analysis_on_conflation_program(self):
        program = read_program(corpus("16_conflate_branches"))
        cfg = config(m=0)
        assert run_fixpoint(program, cfg).relations == analyze(program, cfg).relations

    def test_default_config_used_when_omitted(self):
        result = run_fixpoint(read_program("42"))
        assert result.config.m == 0

    def test_ceiling_trips_in_strict_mode(self):
        cfg = AnalysisConfig(widen_depth=None, primval_truthiness="appendix-exact", fact_ceiling=30_000)
        with pytest.raises(FactCeilingExceeded):
            run_fixpoint(read_program(corpus("18_loop_widen")), cfg)

    def test_trace_does_not_change_results(self):
        program = read_program(corpus("13_prim_nested"))
        cfg = config()
        lines: list[str] = []
        traced = run_fixpoint(program, cfg, trace=lines.append)
        plain = run_fixpoint(program, cfg)
        assert traced.relations == plain.relations
        assert lines and all("\t" in line for line in lines)
        rules = {line.split("\t", 1)[0] for line in lines}
        assert {"e-prim", "a-prim1", "a-prim2", "a-halt"} <= rules

    def test_set_returns_sentinel_and_stores_value(self):
        result = run_fixpoint(read_program("(let ((x 1)) (set! x 2))"), config())
        root_ak = KAddr(L(0), EMPTY_CONTEXT)
        x = VAddr("x~1", EMPTY_CONTEXT)
        assert {val for val, ak in result.relations["state_a"] if ak is root_ak} == {Number(-42)}
        assert result.relations["stored_val"] == {(x, Number(1)), (x, Number(2))}

    def test_unbound_variable_yields_no_value(self):
        result = run_fixpoint(read_program("x"), config())
        assert len(result.relations["state_e"]) == 1
        assert result.relations["state_a"] == set()
        assert result.relations["flow_ea"] == set()

    def test_one_value_fires_every_frame_at_its_address(self):
        program = read_program(corpus("17_vanhorn"))
        lines: list[str] = []
        result = run_fixpoint(program, config(m=0), trace=lines.append)
        frames: dict = {}
        for ak, frame in result.relations["stored_kont"]:
            frames.setdefault(ak, set()).add(frame)
        shared = {ak: fs for ak, fs in frames.items() if len(fs) > 1}
        assert len(shared) == 2
        meetings = [
            (val, ak, frame)
            for val, ak in result.relations["state_a"]
            for frame in shared.get(ak, ())
        ]
        assert len(meetings) == 4
        fired = Counter(line.split("\t", 1)[1] for line in lines)
        for val, ak, frame in meetings:
            assert fired[f"{render(val)} {render(ak)} {render(frame)}"] == 1


class TestOrderIndependence:
    @pytest.mark.parametrize("stem", ["16_conflate_branches", "17_vanhorn", "10_callcc_invoke"])
    def test_random_worklist_orders_agree(self, stem):
        program = read_program(corpus(stem))
        cfg = config(m=1)
        baseline = run_fixpoint(program, cfg).relations
        for seed in (1, 2, 3):
            machine = Machine(program, cfg)
            machine.start()
            rng = random.Random(seed)
            while machine.queue:
                i = rng.randrange(len(machine.queue))
                machine.queue.rotate(-i)
                rel, row = machine.queue.popleft()
                machine.queue.rotate(i)
                machine.steps += 1
                machine.process(rel, row)
            assert machine.result().relations == baseline


class TestRecheck:
    def test_fixpoint_passes(self):
        program = read_program(corpus("16_conflate_branches"))
        cfg = config(m=0)
        result = run_fixpoint(program, cfg)
        assert recheck(program, cfg, result.relations) is True

    def test_dropped_fact_detected(self):
        program = read_program(corpus("16_conflate_branches"))
        cfg = config(m=0)
        result = run_fixpoint(program, cfg)
        broken = {name: set(rows) for name, rows in result.relations.items()}
        broken["state_a"].pop()
        with pytest.raises(ValidationError):
            recheck(program, cfg, broken)
