"""The deductive analysis: injection, rule groups, end-to-end properties."""

from __future__ import annotations

import json

import pytest

from schemeflow.analysis import (
    ALL_RELATIONS,
    AnalysisConfig,
    IDB_SCHEMA,
    TRUTHINESS_MODES,
    analyze,
    build_analysis_ruleset,
    build_rules,
    inject,
)
from schemeflow.cli import main
from schemeflow.engine import TupleStore, saturate
from schemeflow.errors import FactCeilingExceeded, ValidationError
from schemeflow.frontend import (
    CallNode,
    LambdaNode,
    VarNode,
    extract_facts,
    read_program,
)
from schemeflow.terms import (
    Bool,
    Context,
    EMPTY_CONTEXT,
    IfK,
    KAddr,
    KontRef,
    Label,
    LetK,
    MT_FRAME,
    NUM_TOP,
    Number,
    Prim1K,
    Prim2K,
    PrimVal,
    Term,
    VAddr,
    make_context,
)

from conftest import CORPUS_DIR, config


def L(n: int) -> Label:
    return Label(f"e{n}")


def corpus(stem: str) -> str:
    return (CORPUS_DIR / f"{stem}.scm").read_text()


CONFLATE = corpus("16_conflate_branches")


class TestConfig:
    def test_defaults(self):
        cfg = AnalysisConfig()
        assert (cfg.m, cfg.widen_depth, cfg.primval_truthiness) == (0, 2, "both-branches")

    def test_strict_appendix_coerces(self, tmp_path, capsys):
        program = tmp_path / "prog.scm"
        program.write_text("42\n")
        assert main(["analyze", str(program), "--out", str(tmp_path / "x"), "--strict-appendix"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["widen_depth"] is None
        assert report["truthiness"] == "appendix-exact"

    def test_invalid_m(self):
        with pytest.raises(ValidationError):
            AnalysisConfig(m=-1)

    def test_invalid_widen_depth(self):
        with pytest.raises(ValidationError):
            AnalysisConfig(widen_depth=0)

    def test_invalid_truthiness(self):
        with pytest.raises(ValidationError):
            AnalysisConfig(primval_truthiness="maybe")


class TestInject:
    def test_number_program(self):
        edb = extract_facts(read_program("42"))
        facts = dict(inject(edb, AnalysisConfig()))
        ak0 = KAddr(L(0), EMPTY_CONTEXT)
        assert set(facts["state_e"]) == {(L(0), EMPTY_CONTEXT, ak0)}
        assert set(facts["stored_kont"]) == {(ak0, MT_FRAME)}
        assert set(facts["peek_ctx"]) == {(L(0), EMPTY_CONTEXT, EMPTY_CONTEXT)}

    def test_exactly_one_mt_frame(self):
        for source in ("42", "(f 1)", CONFLATE):
            result = analyze(read_program(source), config())
            mts = [row for row in result.relations["stored_kont"] if row[1] is MT_FRAME]
            assert len(mts) == 1

    def test_initial_state_at_root_label(self):
        program = read_program(CONFLATE)
        facts = dict(inject(extract_facts(program), AnalysisConfig()))
        ((e, ctx, ak),) = facts["state_e"]
        assert e is program.root and e is L(0)

    def test_missing_top_exp_rejected(self):
        edb = extract_facts(read_program("42"))
        edb.facts["top_exp"].clear()
        with pytest.raises(ValidationError):
            inject(edb, AnalysisConfig())

    def test_duplicate_top_exp_rejected(self):
        edb = extract_facts(read_program("42"))
        edb.facts["top_exp"].add((L(99),))
        with pytest.raises(ValidationError):
            inject(edb, AnalysisConfig())


class TestContextRules:
    def test_call_peek_prepends_to_context(self):
        # The inner call runs in the let's body context <e0>; at m=2 its
        # peek produces <ecall, e0>.
        program = read_program("(let ((a 1)) ((lambda (q) q) a))")
        call = next(lab for lab, n in program.nodes.items() if isinstance(n, CallNode))
        result = analyze(program, config(m=2))
        assert (call, Context(L(0)), Context(call, L(0))) in result.relations["peek_ctx"]

    def test_every_peek_row_matches_allocator(self):
        for m in (0, 1, 2):
            result = analyze(read_program(CONFLATE), config(m=m))
            for e, ctx, out in result.relations["peek_ctx"]:
                assert out is make_context(e, ctx, m)

    def test_lambda_peek_is_replicated_even_though_unused(self):
        program = read_program("(lambda (x) x)")
        result = analyze(program, config(m=1))
        assert (L(0), EMPTY_CONTEXT, Context(L(0))) in result.relations["peek_ctx"]

    def test_copy_transports_free_variable_bindings(self):
        result = analyze(read_program(corpus("17_vanhorn")), config(m=1))
        relations = result.relations
        freevar = {}
        for x, e in relations["freevar"]:
            freevar.setdefault(e, set()).add(x)
        stored = relations["stored_val"]
        values = {}
        for av, val in stored:
            values.setdefault(av, set()).add(val)
        checked = 0
        for frm, to, e in relations["copy_ctx"]:
            for x in freevar.get(e, ()):
                for val in values.get(VAddr(x, frm), ()):
                    assert (VAddr(x, to), val) in stored
                    checked += 1
        assert checked > 0


class TestEvalRules:
    def test_if_pushes_frame_and_evaluates_guard(self):
        result = analyze(read_program("(if #t 1 2)"), config())
        guard_ak = KAddr(L(1), EMPTY_CONTEXT)
        root_ak = KAddr(L(0), EMPTY_CONTEXT)
        assert (L(1), EMPTY_CONTEXT, guard_ak) in result.relations["state_e"]
        assert (guard_ak, IfK(L(2), L(3), EMPTY_CONTEXT, root_ak)) in result.relations["stored_kont"]
        assert (L(0), L(1)) in result.relations["flow_ee"]

    def test_let_pushes_one_frame_per_binding(self):
        result = analyze(read_program("(let ((a 1) (b 2)) a)"), config())
        root_ak = KAddr(L(0), EMPTY_CONTEXT)
        frames = {row for row in result.relations["stored_kont"] if row[1].tag == "Let"}
        assert frames == {
            (KAddr(L(2), EMPTY_CONTEXT), LetK(VAddr("a~1", EMPTY_CONTEXT), L(4), EMPTY_CONTEXT, root_ak)),
            (KAddr(L(3), EMPTY_CONTEXT), LetK(VAddr("b~2", EMPTY_CONTEXT), L(4), EMPTY_CONTEXT, root_ak)),
        }

    def test_prim_pushes_prim1_then_prim2(self):
        result = analyze(read_program("(+ 1 2)"), config())
        root_ak = KAddr(L(0), EMPTY_CONTEXT)
        konts = result.relations["stored_kont"]
        assert (KAddr(L(3), EMPTY_CONTEXT), Prim1K("+", L(4), EMPTY_CONTEXT, root_ak)) in konts
        assert (KAddr(L(4), EMPTY_CONTEXT), Prim2K("+", Number(1), root_ak)) in konts


class TestAtomicRules:
    def test_number_literal(self):
        result = analyze(read_program("42"), config())
        assert (Number(42), KAddr(L(0), EMPTY_CONTEXT)) in result.relations["state_a"]
        assert (L(0), Number(42)) in result.relations["flow_ea"]

    def test_lambda_closes_over_current_context(self):
        result = analyze(read_program("(lambda (x) x)"), config(m=1))
        vals = {v for v, _ in result.relations["state_a"]}
        assert {v.tag for v in vals} == {"Closure"}
        ((lam, ctx),) = {v.args for v in vals}
        assert lam is L(0) and ctx is EMPTY_CONTEXT

    def test_var_with_two_stored_values_produces_two_states(self):
        # At m=0 the shared address of x holds both booleans, so reading x
        # yields two state_a facts at each address the body is run under.
        program = read_program(CONFLATE)
        lam = next(n for n in program.nodes.values() if isinstance(n, LambdaNode))
        body_reader = program.nodes[lam.body]
        assert isinstance(body_reader, VarNode)
        result = analyze(program, config(m=0))
        body_aks = {ak for e, _, ak in result.relations["state_e"] if e == lam.body}
        assert len(body_aks) == 2
        for ak in body_aks:
            vals = {v for v, a in result.relations["state_a"] if a == ak and v.tag == "Bool"}
            assert vals == {Bool("#t"), Bool("#f")}


class TestApplyRules:
    def test_conflation_at_m0(self):
        result = analyze(read_program(CONFLATE), config(m=0))
        xvals = {
            val
            for av, val in result.relations["stored_val"]
            if av.args[0] == "x~2"
        }
        assert xvals == {Bool("#t"), Bool("#f")}
        numbers = {v.args[0] for v, _ in result.relations["state_a"] if v.tag == "Number"}
        assert {4, 5} <= numbers

    def test_precision_at_m1(self):
        result = analyze(read_program(CONFLATE), config(m=1))
        numbers = {v.args[0] for v, _ in result.relations["state_a"] if v.tag == "Number"}
        assert 4 in numbers and 5 not in numbers

    def test_set_writes_and_returns_sentinel(self):
        result = analyze(read_program("(let ((x 1)) (set! x 2))"), config())
        stored = {(av.args[0], val) for av, val in result.relations["stored_val"]}
        assert ("x~1", Number(1)) in stored
        assert ("x~1", Number(2)) in stored
        assert Number(-42) in {v for v, _ in result.relations["state_a"]}

    def test_callcc_binds_captured_continuation(self):
        result = analyze(read_program(corpus("10_callcc_invoke")), config(m=0))
        cap = KAddr(L(5), EMPTY_CONTEXT)
        konts = {
            (av, val) for av, val in result.relations["stored_val"] if val.tag == "Kont"
        }
        assert konts == {(VAddr("k~1", EMPTY_CONTEXT), KontRef(cap))}
        # The thrown constant arrives at the capture address and nothing
        # reaches the root continuation.
        assert (Number(5), cap) in result.relations["state_a"]
        root_arrivals = {v for v, ak in result.relations["state_a"] if ak == KAddr(L(0), EMPTY_CONTEXT)}
        assert root_arrivals == set()

    def test_primval_guard_both_branches_by_default(self):
        result = analyze(read_program(corpus("14_prim_guard")), config())
        numbers = {v.args[0] for v, _ in result.relations["state_a"] if v.tag == "Number"}
        assert {10, 20} <= numbers

    def test_primval_guard_no_branch_in_appendix_mode(self):
        result = analyze(
            read_program(corpus("14_prim_guard")),
            config(primval_truthiness="appendix-exact"),
        )
        numbers = {v.args[0] for v, _ in result.relations["state_a"] if v.tag == "Number"}
        assert numbers.isdisjoint({10, 20})

    def test_one_rule_per_branch_in_both_truthiness_modes(self):
        names = [
            [r.name for r in build_rules(config(primval_truthiness=mode))]
            for mode in TRUTHINESS_MODES
        ]
        assert names[0] == names[1]
        assert [n for n in names[0] if n.startswith("a-if")] == ["a-if-true", "a-if-false"]

    def test_branch_flow_edges_use_constant_booleans(self):
        result = analyze(read_program("(if #t 1 2)"), config())
        assert (Bool("#t"), L(2)) in result.relations["flow_ae"]


class TestAnalyze:
    def test_number_program_counts(self):
        result = analyze(read_program("42"), config())
        assert len(result.relations["state_e"]) == 1
        assert len(result.relations["state_a"]) == 1
        assert len(result.relations["stored_val"]) == 0

    def test_deterministic(self):
        a = analyze(read_program(CONFLATE), config(m=1))
        b = analyze(read_program(CONFLATE), config(m=1))
        assert a.relations == b.relations
        assert a.rounds == b.rounds and a.peak_facts == b.peak_facts

    def test_naive_engine_agrees(self):
        cfg = config(m=1)
        program = read_program(CONFLATE)
        assert analyze(program, cfg).relations == analyze(program, cfg, naive=True).relations

    def test_resaturation_is_noop(self):
        program = read_program(CONFLATE)
        cfg = config(m=1)
        result = analyze(program, cfg)
        ruleset = build_analysis_ruleset(cfg)
        seed = TupleStore(ALL_RELATIONS)
        for name, rows in extract_facts(program).facts.items():
            seed.bulk_add(name, rows)
        for name, rows in result.relations.items():
            seed.bulk_add(name, rows)
        again, _ = saturate(ruleset, seed)
        for name in IDB_SCHEMA:
            assert again.tuples(name) == result.relations[name]

    def test_fact_ceiling_raises(self):
        with pytest.raises(FactCeilingExceeded):
            analyze(read_program(CONFLATE), AnalysisConfig(m=0, fact_ceiling=20))


def _contexts_in(term: object):
    if isinstance(term, Term):
        if term.tag == "Context":
            yield term
        for arg in term.args:
            yield from _contexts_in(arg)


class TestInvariants:
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_context_bound(self, m):
        result = analyze(read_program(CONFLATE), config(m=m))
        for rows in result.relations.values():
            for row in rows:
                for col in row:
                    for ctx in _contexts_in(col):
                        assert len(ctx.args) <= m

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_address_discipline(self, m):
        result = analyze(read_program(CONFLATE), config(m=m))
        kdomain = {ak for ak, _ in result.relations["stored_kont"]}
        for _, ak in result.relations["state_a"]:
            assert ak in kdomain

    def test_widening_caps_primval_depth(self):
        source = corpus("18_loop_widen")
        result = analyze(read_program(source), config(widen_depth=2))
        vals = {v for v, _ in result.relations["state_a"]}
        assert any(NUM_TOP in getattr(v, "args", ()) or v is NUM_TOP for v in vals) or any(
            v._depth == 2 for v in vals
        )
        assert all(v._depth <= 2 for v in vals)

    def test_m_monotone_on_binding_addresses(self):
        # Generated-family claim, spot-checked here on the conflation
        # program's let-bound names: growing m only shrinks value sets.
        program = read_program(CONFLATE)
        per_m = {}
        for m in (0, 1, 2):
            result = analyze(program, config(m=m))
            sets = {}
            for av, val in result.relations["stored_val"]:
                if val.tag in ("Number", "Bool"):
                    sets.setdefault(av.args[0], set()).add(val)
            per_m[m] = sets
        for m in (0, 1):
            for var, bigger in per_m[m].items():
                smaller = per_m[m + 1].get(var, set())
                assert smaller <= bigger
