"""The abstract-machine worklist: transitions, fixpoints, order independence, recheck."""

from __future__ import annotations

import random
import re
import typing
from collections import Counter

import pytest

from schemeflow import frontend
from schemeflow.analysis import TRUTHINESS_MODES, AnalysisConfig, analyze
from schemeflow.errors import FactCeilingExceeded, ValidationError
from schemeflow.frontend import free_vars, read_program
from schemeflow.machine import (
    _APPLY,
    _EVAL,
    _EVAL_RULE_NAMES,
    Machine,
    recheck,
    run_fixpoint,
)
from schemeflow.terms import (
    ArgK,
    Bool,
    Closure,
    Context,
    EMPTY_CONTEXT,
    FnK,
    IfK,
    KAddr,
    Label,
    LetK,
    MT,
    MT_FRAME,
    Number,
    SetK,
    TERM_TYPES,
    VAddr,
    make_context,
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
    fvs = free_vars(program)
    return [
        (x, frm, to, val)
        for frm, to, e in relations["copy_ctx"]
        for x in fvs[e]
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
            cls for cls in vars(frontend).values() if isinstance(cls, type) and cls.__name__.endswith("Node")
        }
        assert set(typing.get_args(frontend.Node)) == nodes
        # Operator and list-marker labels are never evaluated.
        expressions = nodes - {frontend.PrimOpNode, frontend.ListMarkerNode}
        assert set(_EVAL) == set(_EVAL_RULE_NAMES) == expressions

    def test_every_state_e_label_is_an_expression(self, corpus_results):
        """Neither path evaluates an operator or list-marker label, so
        ``_EVAL`` needs no transition for them."""
        for cell, program, cfg, relations in corpus_results:
            for e, _, _ in relations["state_e"]:
                assert type(program.nodes[e]) in _EVAL, (cell, e)

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
                for x in self.free_vars[e]:
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

    # Rows that no transition reads, added to the result for
    # ((lambda (x) x) 1): e4 labels its argument list, e5 the argument 1,
    # whose address holds the Fn frame, and e99 no node; and for
    # (call/cc (lambda (k) k)), where e1's address holds the Callcc frame.
    # Before the check, the Fn and Arg frames and the closure raised
    # KeyError or AttributeError from the transition that reads them, the
    # If frame of one field ValueError, and the Fn frame at position "a"
    # TypeError.
    @pytest.mark.parametrize(
        "source, rel, row",
        [
            ("((lambda (x) x) 1)", "state_e", (L(99), EMPTY_CONTEXT, KAddr(L(0), EMPTY_CONTEXT))),
            ("((lambda (x) x) 1)", "state_e", (L(4), EMPTY_CONTEXT, KAddr(L(0), EMPTY_CONTEXT))),
            ("((lambda (x) x) 1)", "stored_kont", (KAddr(L(0), EMPTY_CONTEXT), Number(1))),
            ("((lambda (x) x) 1)", "copy_ctx", (EMPTY_CONTEXT, EMPTY_CONTEXT, L(99))),
            (
                "((lambda (x) x) 1)",
                "stored_kont",
                (
                    KAddr(L(5), EMPTY_CONTEXT),
                    FnK(Closure(L(99), EMPTY_CONTEXT), 0, EMPTY_CONTEXT, KAddr(L(0), EMPTY_CONTEXT)),
                ),
            ),
            (
                "((lambda (x) x) 1)",
                "stored_kont",
                (KAddr(L(1), EMPTY_CONTEXT), ArgK(L(5), EMPTY_CONTEXT, EMPTY_CONTEXT, KAddr(L(0), EMPTY_CONTEXT))),
            ),
            ("(call/cc (lambda (k) k))", "state_a", (Closure(L(99), EMPTY_CONTEXT), KAddr(L(1), EMPTY_CONTEXT))),
            ("((lambda (x) x) 1)", "stored_kont", (KAddr(L(5), EMPTY_CONTEXT), IfK(L(1)))),
            (
                "((lambda (x) x) 1)",
                "stored_kont",
                (
                    KAddr(L(5), EMPTY_CONTEXT),
                    FnK(Closure(L(1), EMPTY_CONTEXT), "a", EMPTY_CONTEXT, KAddr(L(0), EMPTY_CONTEXT)),
                ),
            ),
        ],
        ids=[
            "state_e-e99",
            "state_e-list-marker",
            "stored_kont-number",
            "copy_ctx-e99",
            "stored_kont-fn-closure-e99",
            "stored_kont-arg-not-an-argument-list",
            "state_a-closure-e99",
            "stored_kont-if-of-one-field",
            "stored_kont-fn-position-not-an-int",
        ],
    )
    def test_malformed_row_is_a_validation_error(self, source, rel, row):
        program, cfg = read_program(source), config(m=0)
        relations = analyze(program, cfg).relations
        relations[rel].add(row)
        message = f"not a fixpoint: no transition reads {rel}{row}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            recheck(program, cfg, relations)

    def test_an_extra_row_that_derives_nothing_missing_is_accepted(self):
        """``recheck`` checks closure, not leastness."""
        program, cfg = read_program("((lambda (x) x) 1)"), config(m=0)
        relations = analyze(program, cfg).relations
        relations["state_a"].add((Number(7), KAddr(L(0), EMPTY_CONTEXT)))
        assert recheck(program, cfg, relations) is True


@pytest.fixture(scope="module")
def corpus_results(corpus_programs):
    """``(cell, program, cfg, relations)`` for both paths' results on every
    corpus program, m in 0..2 and truthiness mode."""
    out = []
    for stem, program in sorted(corpus_programs.items()):
        for m in (0, 1, 2):
            for truthiness in TRUTHINESS_MODES:
                cfg = config(m=m, primval_truthiness=truthiness)
                for path, run in (("engine", analyze), ("oracle", run_fixpoint)):
                    cell = f"{stem} m={m} {truthiness} {path}"
                    out.append((cell, program, cfg, run(program, cfg).relations))
    return out


def rejection(program, cfg, relations) -> str | None:
    """``recheck``'s error message, or None when it accepts ``relations``."""
    try:
        recheck(program, cfg, relations)
    except ValidationError as ex:
        return str(ex)
    return None


class TestRecheckPremises:
    """``recheck`` checks what no transition re-derives: the injected root
    facts and the ``freevar`` rows, which must equal the program's free
    variables."""

    def test_rejects_the_empty_result(self, corpus_results):
        accepted = [
            cell
            for cell, program, cfg, relations in corpus_results
            if not (rejection(program, cfg, {name: set() for name in relations}) or "").startswith(
                "not a fixpoint: start re-derives "
            )
        ]
        assert accepted == []

    @pytest.mark.parametrize("rel", ["state_e", "peek_ctx", "stored_kont"])
    def test_rejects_a_dropped_root_fact(self, rel, corpus_results):
        wrong = []
        for cell, program, cfg, relations in corpus_results:
            root, ak0 = program.root, KAddr(program.root, EMPTY_CONTEXT)
            row = {
                "state_e": (root, EMPTY_CONTEXT, ak0),
                "peek_ctx": (root, EMPTY_CONTEXT, make_context(root, EMPTY_CONTEXT, cfg.m)),
                "stored_kont": (ak0, MT_FRAME),
            }[rel]
            assert row in relations[rel], cell
            error = rejection(program, cfg, {**relations, rel: relations[rel] - {row}})
            if error != f"not a fixpoint: start re-derives {rel}{row}":
                wrong.append((cell, error))
        assert wrong == []

    def test_rejects_each_dropped_freevar_row(self, corpus_results):
        wrong = []
        dropped = 0
        for cell, program, cfg, relations in corpus_results:
            for row in relations["freevar"]:
                dropped += 1
                error = rejection(program, cfg, {**relations, "freevar": relations["freevar"] - {row}})
                if error != f"not a fixpoint: start re-derives freevar{row}":
                    wrong.append((cell, row, error))
        assert dropped > 0
        assert wrong == []

    def test_rejects_an_added_freevar_row(self, corpus_results):
        wrong = []
        for cell, program, cfg, relations in corpus_results:
            # Renaming counts from 1, so no variable is named ``v~0``.
            row = ("v~0", program.root)
            error = rejection(program, cfg, {**relations, "freevar": relations["freevar"] | {row}})
            if error != f"not a fixpoint: freevar{row} is not a premise":
                wrong.append((cell, error))
        assert wrong == []
