"""The abstract-machine worklist: transitions, fixpoints, order independence, recheck."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from schemeflow import frontend
from schemeflow.analysis import AnalysisConfig, analyze
from schemeflow.errors import FactCeilingExceeded, ValidationError
from schemeflow.frontend import read_program, syntactic_free_vars
from schemeflow.machine import (
    _APPLY,
    _EVAL,
    _EVAL_RULE_NAMES,
    Machine,
    _eval_inert,
    recheck,
    run_fixpoint,
)
from schemeflow.terms import (
    Bool,
    Closure,
    Context,
    EMPTY_CONTEXT,
    IfK,
    KAddr,
    Label,
    LetK,
    MT,
    Number,
    SetK,
    TERM_TYPES,
    VAddr,
    render,
)

from conftest import CORPUS_DIR, config, corpus_ids


def L(n: int) -> Label:
    return Label(f"e{n}")


def corpus(stem: str) -> str:
    return (CORPUS_DIR / f"{stem}.scm").read_text()


def fire_one(machine: Machine, rel: str, row: tuple) -> set[tuple[str, tuple]]:
    """Emit one event, process exactly that event, and return the facts it derived."""
    before = {name: set(rows) for name, rows in machine.relations.items()}
    machine.emit(rel, row)
    before[rel].add(row)
    rel, row = machine.queue.popleft()
    Machine.HANDLERS[rel](machine, row)
    return {(name, r) for name, rows in machine.relations.items() for r in rows - before[name]}


def copies(program, relations):
    """Every (x, frm, to, value) that copy_ctx(frm, to, e) implies: x free in
    e and stored_val(VAddr(x, frm), value)."""
    stored: dict = {}
    for av, val in relations["stored_val"]:
        stored.setdefault(av, []).append(val)
    return [
        (x, frm, to, val)
        for frm, to, e in relations["copy_ctx"]
        for x in syntactic_free_vars(program, e)
        for val in stored.get(VAddr(x, frm), ())
    ]


class TestAtomicEval:
    """The eval transitions of the atomic node classes: each value arrives
    at the continuation address and flows out of the expression."""

    def test_number(self):
        machine = Machine(read_program("42"), config())
        ak = KAddr(L(0), EMPTY_CONTEXT)
        assert fire_one(machine, "state_e", (L(0), EMPTY_CONTEXT, ak)) == {
            ("state_a", (Number(42), ak)),
            ("flow_ea", (L(0), Number(42))),
        }

    def test_bool(self):
        machine = Machine(read_program("#f"), config())
        ak = KAddr(L(0), EMPTY_CONTEXT)
        assert fire_one(machine, "state_e", (L(0), EMPTY_CONTEXT, ak)) == {
            ("state_a", (Bool("#f"), ak)),
            ("flow_ea", (L(0), Bool("#f"))),
        }

    def test_lambda_closes_over_context(self):
        machine = Machine(read_program("(lambda (x) x)"), config(m=2))
        ctx = Context(L(0))
        ak = KAddr(L(0), ctx)
        assert fire_one(machine, "state_e", (L(0), ctx, ak)) == {
            ("peek_ctx", (L(0), ctx, Context(L(0), L(0)))),
            ("state_a", (Closure(L(0), ctx), ak)),
            ("flow_ea", (L(0), Closure(L(0), ctx))),
        }

    def test_unbound_var_is_empty(self):
        machine = Machine(read_program("x"), config())
        ak = KAddr(L(0), EMPTY_CONTEXT)
        assert fire_one(machine, "state_e", (L(0), EMPTY_CONTEXT, ak)) == set()

    def test_bound_var_reads_store(self):
        machine = Machine(read_program("x"), config())
        ak = KAddr(L(0), EMPTY_CONTEXT)
        machine.emit("stored_val", (VAddr("x", EMPTY_CONTEXT), Number(3)))
        machine.emit("stored_val", (VAddr("x", EMPTY_CONTEXT), Number(4)))
        machine.drain()
        assert fire_one(machine, "state_e", (L(0), EMPTY_CONTEXT, ak)) == {
            ("state_a", (Number(3), ak)),
            ("flow_ea", (L(0), Number(3))),
            ("state_a", (Number(4), ak)),
            ("flow_ea", (L(0), Number(4))),
        }


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
        assert list(machine.vstore[x]) == [Number(2)]

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
        program = read_program(corpus("16_conflate_branches"))
        default = run_fixpoint(program).relations
        assert default == run_fixpoint(program, AnalysisConfig()).relations
        assert default != run_fixpoint(program, AnalysisConfig(m=1)).relations

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

    def test_untraced_run_names_no_rule(self, monkeypatch, corpus_programs):
        def unexpected(*args):
            raise AssertionError("rule named or rendered without a trace")

        class NoRuleNames(dict):
            get = __getitem__ = unexpected

        monkeypatch.setattr("schemeflow.machine._apply_rule_name", unexpected)
        monkeypatch.setattr("schemeflow.machine._EVAL_RULE_NAMES", NoRuleNames())
        monkeypatch.setattr("schemeflow.machine.render", unexpected)
        result = run_fixpoint(read_program(corpus("13_prim_nested")), config())
        assert result.relations["state_a"]
        for name in corpus_ids():
            run_fixpoint(corpus_programs[name], config(m=1))

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


class TestTables:
    def test_every_frame_class_has_an_apply_transition(self):
        frames = {cls for cls in TERM_TYPES.values() if cls.__name__.endswith("K")} | {MT}
        assert len(frames) == 9
        assert set(_APPLY) == frames

    def test_every_node_class_has_an_eval_transition(self):
        nodes = {
            cls
            for cls in vars(frontend).values()
            if isinstance(cls, type) and issubclass(cls, frontend.Node) and cls is not frontend.Node
        }
        assert set(_EVAL) == nodes
        # The inert classes are those that no eval rule names.
        assert {cls for cls, step in _EVAL.items() if step is not _eval_inert} == set(_EVAL_RULE_NAMES)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_steps_count_the_event_rows(self, m, corpus_programs):
        for name in corpus_ids():
            machine = Machine(corpus_programs[name], config(m=m))
            relations = machine.run().relations
            assert machine.steps == sum(len(relations[rel]) for rel in Machine.HANDLERS), name


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
                Machine.HANDLERS[rel](machine, row)
            assert machine.result().relations == baseline


class CopyLog(Machine):
    """A traced machine that credits each copy of a stored value into a
    closure-entry context, keyed ``("x frm to", value)``, to the event that
    made it.  A ``stored_val`` event copies its value to the contexts already
    copied from (its ``copy`` trace lines); a ``copy_ctx`` event copies the
    values already stored."""

    def __init__(self, program, cfg) -> None:
        super().__init__(program, cfg, trace=self.line)
        self.event: tuple = ()
        self.by_stored_val: Counter = Counter()
        self.by_copy_ctx: Counter = Counter()

    def line(self, text: str) -> None:
        rule, cols = text.split("\t")
        rel, row = self.event
        if rule == "copy" and rel == "stored_val":
            self.by_stored_val[cols, row[1]] += 1

    def drain(self) -> None:
        # Each event is set before its handler runs, so each trace line is
        # credited to the event whose handler wrote it.
        while self.queue:
            rel, row = self.event = self.queue.popleft()
            if rel == "copy_ctx":
                frm, to, e = row
                for x in syntactic_free_vars(self.program, e):
                    for val in self.vstore.get(VAddr(x, frm), ()):
                        self.by_copy_ctx[f"{x} {render(frm)} {render(to)}", val] += 1
            self.HANDLERS[rel](self, row)


class TestCopyTargets:
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_each_stored_value_is_copied_once_per_target(self, m, corpus_programs):
        """Every (x, frm, to, value) with copy_ctx(frm, to, e), x free in e and
        stored_val(VAddr(x, frm), value) is copied exactly once, by one of the
        two events; none other is."""
        fired_by_stored_val = 0
        for name in corpus_ids():
            program = corpus_programs[name]
            log = CopyLog(program, config(m=m))
            relations = log.run().relations
            expected = Counter(
                (f"{x} {render(frm)} {render(to)}", val)
                for x, frm, to, val in copies(program, relations)
            )
            assert log.by_stored_val + log.by_copy_ctx == expected, name
            fired_by_stored_val += len(log.by_stored_val)
        assert fired_by_stored_val > 0


class TestRecheck:
    def test_fixpoint_passes(self):
        program = read_program(corpus("16_conflate_branches"))
        cfg = config(m=0)
        result = run_fixpoint(program, cfg)
        assert recheck(program, cfg, result.relations) is True

    @pytest.mark.parametrize("source", ["state_e", "state_a", "copy_ctx"])
    def test_dropped_fact_detected(self, source):
        """Drop a row that only one transition family re-derives; the error
        names that family.  Only eval transitions emit flow_ee and only apply
        transitions emit flow_ae.  At m=1, 17_vanhorn copies a closure into an
        entry context that no binding writes."""
        program = read_program(corpus("17_vanhorn"))
        cfg = config(m=1)
        relations = run_fixpoint(program, cfg).relations
        if source == "copy_ctx":
            rel = "stored_val"
            rows = {(VAddr(x, to), val) for x, frm, to, val in copies(program, relations)}
        else:
            rel = {"state_e": "flow_ee", "state_a": "flow_ae"}[source]
            rows = relations[rel]
        relations[rel].remove(min(rows, key=lambda row: tuple(map(render, row))))
        with pytest.raises(ValidationError, match=rf"^not a fixpoint: \('{source}', "):
            recheck(program, cfg, relations)
