"""The deductive engine: validation, stratification, saturation."""

from __future__ import annotations

import dataclasses
import gc
import io
import keyword
import operator
import random
import re
import tokenize
import weakref

import pytest

from schemeflow import analysis, engine
from schemeflow.analysis import AnalysisConfig, build_analysis_ruleset
from schemeflow.engine import (
    A,
    PVar,
    T,
    TupleStore,
    WILD,
    atom,
    build_ruleset,
    rule,
    saturate,
    v,
)
from schemeflow.errors import FactCeilingExceeded, RuleError
from schemeflow.machine import run_fixpoint
from schemeflow.serialize import render_row
from schemeflow.terms import Bool, Context, Label, Number, VAddr

from conftest import config

ANCESTOR_RELATIONS = {"parent": 2, "ancestor": 2}
ANCESTOR_RULES = [
    rule("base", [atom("ancestor", v.p, v.a)], [atom("parent", v.p, v.a)]),
    rule(
        "step",
        [atom("ancestor", v.p, v.a)],
        [atom("parent", v.p, v.x), atom("ancestor", v.x, v.a)],
    ),
]


def ancestor_store(pairs) -> TupleStore:
    store = TupleStore(ANCESTOR_RELATIONS)
    store.bulk_add("parent", set(pairs))
    return store


class TestBuildRuleset:
    def test_ancestor_is_a_single_recursive_stratum(self):
        rs = build_ruleset(ANCESTOR_RELATIONS, ANCESTOR_RULES)
        assert rs.stratum_of["parent"] < rs.stratum_of["ancestor"]
        ancestor_stratum = rs.strata[rs.stratum_of["ancestor"]]
        assert ancestor_stratum == ["ancestor"]

    def test_dependent_of_a_recursive_relation_sits_in_a_later_stratum(self):
        # a_reached sorts before path and reaches as many other relations
        # (path, edge); only counting itself puts it after path.
        relations = {"edge": 2, "path": 2, "a_reached": 1}
        rules = [
            rule("base", [atom("path", v.x, v.y)], [atom("edge", v.x, v.y)]),
            rule(
                "step",
                [atom("path", v.x, v.z)],
                [atom("path", v.x, v.y), atom("edge", v.y, v.z)],
            ),
            rule("reached", [atom("a_reached", v.y)], [atom("path", WILD, v.y)]),
        ]
        rs = build_ruleset(relations, rules)
        assert rs.stratum_of["edge"] < rs.stratum_of["path"] < rs.stratum_of["a_reached"]
        assert rs.strata == [["edge"], ["path"], ["a_reached"]]
        store = TupleStore(relations)
        store.bulk_add("edge", {("a", "b"), ("b", "c")})
        out, _ = saturate(rs, store)
        assert out.tuples("a_reached") == {("b",), ("c",)}

    def test_unknown_body_relation(self):
        bad = rule("r", [atom("ancestor", v.p, v.a)], [atom("nope", v.p, v.a)])
        with pytest.raises(RuleError):
            build_ruleset(ANCESTOR_RELATIONS, [bad])

    def test_unknown_head_relation(self):
        bad = rule("r", [atom("nope", v.p)], [atom("parent", v.p, v.a)])
        with pytest.raises(RuleError):
            build_ruleset(ANCESTOR_RELATIONS, [bad])

    def test_arity_mismatch(self):
        bad = rule("r", [atom("ancestor", v.p)], [atom("parent", v.p, v.a)])
        with pytest.raises(RuleError):
            build_ruleset(ANCESTOR_RELATIONS, [bad])

    def test_range_restriction_unbound_head_var(self):
        bad = rule("r", [atom("ancestor", v.p, v.q)], [atom("parent", v.p, WILD)])
        with pytest.raises(RuleError):
            build_ruleset(ANCESTOR_RELATIONS, [bad])

    def test_guard_variables_must_be_bound(self):
        bad = rule(
            "r",
            [atom("ancestor", v.p, v.p)],
            [atom("parent", v.p, WILD)],
            [A(operator.ne, v.p, v.unbound)],
        )
        with pytest.raises(RuleError):
            build_ruleset(ANCESTOR_RELATIONS, [bad])

    @pytest.mark.parametrize("guard", [v.p, T("Number", v.p), operator.ne, True])
    def test_guard_must_be_a_builder_call(self, guard):
        bad = rule("r", [atom("ancestor", v.p, v.p)], [atom("parent", v.p, WILD)], [guard])
        with pytest.raises(RuleError, match="not a builder call"):
            build_ruleset(ANCESTOR_RELATIONS, [bad])

    def test_analysis_freevar_stratum_precedes_state_stratum(self):
        from schemeflow.analysis import AnalysisConfig

        rs = build_analysis_ruleset(AnalysisConfig())
        assert rs.stratum_of["freevar"] < rs.stratum_of["state_e"]
        # The state/store/flow relations are one mutually recursive stratum.
        state_stratum = set(rs.strata[rs.stratum_of["state_e"]])
        assert {"state_e", "state_a", "stored_val", "stored_kont", "copy_ctx"} <= state_stratum


class TestSaturate:
    def test_transitive_closure(self):
        store, _ = saturate(
            build_ruleset(ANCESTOR_RELATIONS, ANCESTOR_RULES),
            ancestor_store([("a", "b"), ("b", "c")]),
        )
        assert store.tuples("ancestor") == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_empty_edb_empty_idb(self):
        store, stats = saturate(
            build_ruleset(ANCESTOR_RELATIONS, ANCESTOR_RULES), ancestor_store([])
        )
        assert store.tuples("ancestor") == set()
        assert stats.peak_facts == 0

    def test_edb_not_mutated(self):
        edb = ancestor_store([("a", "b"), ("b", "c")])
        saturate(build_ruleset(ANCESTOR_RELATIONS, ANCESTOR_RULES), edb)
        assert edb.tuples("ancestor") == set()

    def test_naive_equals_semi_naive(self):
        rs = build_ruleset(ANCESTOR_RELATIONS, ANCESTOR_RULES)
        edb = ancestor_store([("a", "b"), ("b", "c"), ("c", "d"), ("x", "a")])
        fast, _ = saturate(rs, edb)
        slow, _ = saturate(rs, edb, naive=True)
        assert fast.relations == slow.relations

    def test_monotone_in_the_edb(self):
        rs = build_ruleset(ANCESTOR_RELATIONS, ANCESTOR_RULES)
        e1 = [("a", "b"), ("b", "c")]
        e2 = [("c", "d")]
        small, _ = saturate(rs, ancestor_store(e1))
        union, _ = saturate(rs, ancestor_store(e1 + e2))
        for name in rs.relations:
            assert small.tuples(name) <= union.tuples(name)

    def test_fixpoint_reapplication_is_noop(self):
        rs = build_ruleset(ANCESTOR_RELATIONS, ANCESTOR_RULES)
        first, _ = saturate(rs, ancestor_store([("a", "b"), ("b", "c")]))
        again, _ = saturate(rs, first)
        assert again.relations == first.relations

    def test_fact_ceiling_trips(self):
        rs = build_ruleset(ANCESTOR_RELATIONS, ANCESTOR_RULES)
        chain = [(f"n{i}", f"n{i+1}") for i in range(40)]
        with pytest.raises(FactCeilingExceeded):
            saturate(rs, ancestor_store(chain), fact_ceiling=100)

    def test_insertion_order_is_irrelevant(self):
        rs = build_ruleset(ANCESTOR_RELATIONS, ANCESTOR_RULES)
        pairs = [(f"n{i}", f"n{(i * 7 + 3) % 12}") for i in range(12)]
        texts = set()
        for seed in range(4):
            shuffled = pairs[:]
            random.Random(seed).shuffle(shuffled)
            store = TupleStore(ANCESTOR_RELATIONS)
            for pair in shuffled:
                store.bulk_add("parent", [pair])
            result, _ = saturate(rs, store)
            texts.add("\n".join("\t".join(render_row(r)) for r in sorted(result.tuples("ancestor"))))
        assert len(texts) == 1


class TestTermPatterns:
    RELATIONS = {"box": 1, "unboxed": 1, "doubled": 1, "rebox": 1}

    def rules(self):
        from schemeflow.terms import Number

        return [
            rule("unbox", [atom("unboxed", v.n)], [atom("box", T("Number", v.n))]),
            rule(
                "double",
                [atom("doubled", A(lambda n: n * 2, v.n, label="twice"))],
                [atom("unboxed", v.n)],
            ),
            rule("rebox", [atom("rebox", T("Number", v.n))], [atom("unboxed", v.n)]),
        ]

    def test_destructure_build_and_apply(self):
        from schemeflow.terms import Number

        store = TupleStore(self.RELATIONS)
        store.bulk_add("box", {(Number(3),), (Number(5),)})
        out, _ = saturate(build_ruleset(self.RELATIONS, self.rules()), store)
        assert out.tuples("unboxed") == {(3,), (5,)}
        assert out.tuples("doubled") == {(6,), (10,)}
        assert out.tuples("rebox") == {(Number(3),), (Number(5),)}

    def test_multi_head_rule_derives_all_heads(self):
        relations = {"src": 1, "left": 1, "right": 1}
        rules = [
            rule(
                "both",
                [atom("left", v.x), atom("right", v.x)],
                [atom("src", v.x)],
            )
        ]
        store = TupleStore(relations)
        store.bulk_add("src", [(1,)])
        out, _ = saturate(build_ruleset(relations, rules), store)
        assert out.tuples("left") == out.tuples("right") == {(1,)}

    def test_disequality_guard(self):
        relations = {"pairs": 2, "diff": 2}
        rules = [
            rule(
                "keep",
                [atom("diff", v.a, v.b)],
                [atom("pairs", v.a, v.b)],
                [A(operator.ne, v.a, v.b)],
            )
        ]
        store = TupleStore(relations)
        store.bulk_add("pairs", {(1, 1), (1, 2), (2, 2), (3, 1)})
        out, _ = saturate(build_ruleset(relations, rules), store)
        assert out.tuples("diff") == {(1, 2), (3, 1)}

    def test_guard_over_a_struct_and_a_constant(self):
        def below(box, limit):
            return box.args[0] < limit

        relations = {"num": 1, "small": 1}
        rules = [
            # The recursive rule stops once its guard fails: 0, 1, 2, 3.
            rule(
                "succ",
                [atom("num", A(lambda n: n + 1, v.n, label="succ"))],
                [atom("num", v.n)],
                [A(below, T("Number", v.n), 3)],
            ),
            rule("small", [atom("small", v.n)], [atom("num", v.n)], [A(below, T("Number", v.n), 2)]),
        ]
        out = saturate_both_ways(relations, rules, {"num": {(0,)}})
        assert out.tuples("num") == {(0,), (1,), (2,), (3,)}
        assert out.tuples("small") == {(0,), (1,)}


@pytest.fixture
def fresh_rulesets():
    """Analysis rule sets are built anew while the fixture is active and
    forgotten after it, so no other test runs rules built here."""
    analysis._ruleset.cache_clear()
    yield
    analysis._ruleset.cache_clear()


class TestBodyOrder:
    @pytest.mark.parametrize("m", [0, 1])
    def test_reversed_rule_bodies_derive_the_same_relations(
        self, m, monkeypatch, corpus_programs, fresh_rulesets
    ):
        build_rules = analysis.build_rules
        monkeypatch.setattr(
            analysis,
            "build_rules",
            lambda cfg: [dataclasses.replace(r, body=r.body[::-1]) for r in build_rules(cfg)],
        )
        cfg = config(m=m)
        bodies = [repr(r.body) for r in build_analysis_ruleset(cfg).rules]
        assert bodies == [repr(r.body[::-1]) for r in build_rules(cfg)]
        assert bodies != [repr(r.body) for r in build_rules(cfg)]
        for stem, program in corpus_programs.items():
            expected = run_fixpoint(program, cfg).relations
            assert analysis.analyze(program, cfg).relations == expected, stem


def saturate_both_ways(relations, rules, facts):
    """The semi-naive result, after checking that naive mode agrees."""
    rs = build_ruleset(relations, rules)
    store = TupleStore(relations)
    for name, rows in facts.items():
        store.bulk_add(name, rows)
    fast, _ = saturate(rs, store)
    slow, _ = saturate(rs, store, naive=True)
    assert fast.relations == slow.relations
    return fast


# Identifiers the plan compiler writes itself; every other name in a plan's
# source must be a generated ``v0``/``t0`` variable or ``K0``-style value.
PLAN_WORDS = {"make", "join", "delta", "get", "args", "type", "len", "_"}


def plan_names(text: str) -> set[str]:
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    assert not [t for t in tokens if t.type == tokenize.STRING], text
    return {t.string for t in tokens if t.type == tokenize.NAME and not keyword.iskeyword(t.string)}


@pytest.fixture
def plan_texts(monkeypatch, fresh_rulesets):
    """Every join-plan source text compiled while the fixture is active."""
    texts: list[str] = []
    make_function = engine._make_function

    def record(text):
        texts.append(text)
        return make_function(text)

    monkeypatch.setattr(engine, "_make_function", record)
    return texts


class TestJoinOrder:
    def test_a_var_joins_var_before_state_e_on_a_stored_val_delta(self):
        (a_var,) = [r for r in build_analysis_ruleset(config(m=0)).rules if r.name == "a-var"]
        first = [a.rel for a in a_var.body].index("stored_val")
        steps = engine._plan(a_var, first)
        assert [s.rel for s in steps] == ["stored_val", "var", "state_e"]
        # var is keyed on x, then state_e on both e and ctx.
        assert [s.key_cols for s in steps] == [(), (1,), (0, 1)]

    def test_most_ground_columns_then_fewest_new_variables(self):
        r = rule(
            "r",
            [atom("out", v.a, v.d)],
            [
                atom("wide", v.a, v.b, v.c, v.d),
                atom("narrow", v.a, v.b),
                atom("keyed", v.a, 7),
            ],
        )
        assert [s.rel for s in engine._plan(r, None)] == ["keyed", "narrow", "wide"]
        assert [s.rel for s in engine._plan(r, 0)] == ["wide", "narrow", "keyed"]


class TestCompiledPatterns:
    def test_repeated_variable_in_one_atom_and_in_one_struct(self):
        relations = {"pair": 2, "boxed": 1, "seed": 1, "same": 1, "twin": 1, "seeded": 1}
        rules = [
            rule("same", [atom("same", v.x)], [atom("pair", v.x, v.x)]),
            rule("twin", [atom("twin", v.x)], [atom("boxed", T("VAddress", v.x, v.x))]),
            # pair(y, y) is joined after seed with y unbound on neither
            # column: the repeat is checked inside the loop, not keyed.
            rule(
                "seeded",
                [atom("seeded", v.y)],
                [atom("seed", v.s), atom("boxed", T("VAddress", v.s, v.y)), atom("pair", v.y, v.y)],
            ),
        ]
        out = saturate_both_ways(
            relations,
            rules,
            {
                "pair": {(1, 1), (1, 2), (2, 3), (3, 3)},
                "boxed": {(VAddr(1, 1),), (VAddr(1, 2),), (VAddr(2, 3),)},
                "seed": {(2,)},
            },
        )
        assert out.tuples("same") == {(1,), (3,)}
        assert out.tuples("twin") == {(1,)}
        assert out.tuples("seeded") == {(3,)}

    def test_constant_inside_a_struct(self):
        relations = {"state": 2, "truthy": 1, "at_zero": 2}
        rules = [
            # A ground struct is an index key; one with a variable is
            # destructured and its constant field compared.
            rule("truthy", [atom("truthy", v.k)], [atom("state", T("Bool", "#t"), v.k)]),
            rule("at-zero", [atom("at_zero", v.x, v.k)], [atom("state", T("VAddress", v.x, 0), v.k)]),
        ]
        out = saturate_both_ways(
            relations,
            rules,
            {
                "state": {
                    (Bool("#t"), 1),
                    (Bool("#f"), 2),
                    (VAddr("a", 0), 3),
                    (VAddr("b", 1), 4),
                    (Number(0), 5),
                }
            },
        )
        assert out.tuples("truthy") == {(1,)}
        assert out.tuples("at_zero") == {("a", 3)}

    def test_step_with_every_column_ground_is_a_membership_test(self):
        relations = {"left": 2, "right": 2, "flag": 1, "both": 2}
        rules = [
            rule(
                "both",
                [atom("both", v.x, v.y)],
                [atom("left", v.x, v.y), atom("right", v.x, v.y), atom("flag", 1)],
            )
        ]
        (r,) = rules
        # right(x, y) and flag(1) are both fully ground once left binds x, y.
        assert [s.key_cols for s in engine._plan(r, 0)] == [(), (0, 1), (0,)]
        facts = {"left": {(1, 2), (2, 3), (3, 4)}, "right": {(1, 2), (3, 4), (3, 5)}}
        out = saturate_both_ways(relations, rules, {**facts, "flag": {(1,)}})
        assert out.tuples("both") == {(1, 2), (3, 4)}
        out = saturate_both_ways(relations, rules, {**facts, "flag": {(2,)}})
        assert out.tuples("both") == set()

    def test_first_step_keyed_only_on_constants(self):
        relations = {"arg": 3, "flag": 2, "zeroes": 2, "yes": 1}
        rules = [
            rule("zeroes", [atom("zeroes", v.x, v.y)], [atom("arg", v.x, 0, v.y)]),
            rule("yes", [atom("yes", 1)], [atom("flag", 1, "on")]),
        ]
        zeroes, yes = rules
        assert engine._plan(zeroes, None)[0].key_cols == (1,)
        assert engine._plan(yes, None)[0].key_cols == (0, 1)
        facts = {"arg": {("a", 0, "p"), ("a", 1, "q"), ("b", 0, "r")}}
        out = saturate_both_ways(relations, rules, {**facts, "flag": {(1, "on")}})
        assert out.tuples("zeroes") == {("a", "p"), ("b", "r")}
        assert out.tuples("yes") == {(1,)}
        out = saturate_both_ways(relations, rules, {**facts, "flag": {(1, "off"), (2, "on")}})
        assert out.tuples("yes") == set()

    def test_struct_pattern_against_a_context_of_another_arity(self):
        e1, e2 = Label("e1"), Label("e2")
        relations = {"at": 2, "one": 2, "flat": 1}
        rules = [
            rule("one", [atom("one", v.k, v.e)], [atom("at", v.k, T("Context", v.e))]),
            rule("flat", [atom("flat", v.k)], [atom("at", v.k, T("Context"))]),
        ]
        out = saturate_both_ways(
            relations,
            rules,
            {"at": {(1, Context()), (2, Context(e1)), (3, Context(e1, e2)), (4, Number(1))}},
        )
        assert out.tuples("one") == {(2, e1)}
        assert out.tuples("flat") == {(1,)}

    def test_names_that_are_not_identifiers_stay_out_of_the_source(self, plan_texts):
        x = PVar("x-1")
        relations = {"a'b": 2, "out rel": 1, "seed": 1}
        rules = [
            rule("r 1 'quoted'", [atom("out rel", x)], [atom("seed", x), atom("a'b", x, x)]),
            rule("copy\n", [atom("a'b", x, "k'")], [atom("seed", x)], [A(lambda s: s != "t", x)]),
        ]
        out = saturate_both_ways(relations, rules, {"seed": {("s",), ("t",)}, "a'b": {("s", "s")}})
        assert out.tuples("out rel") == {("s",)}
        assert out.tuples("a'b") == {("s", "s"), ("s", "k'")}
        assert plan_texts
        for text in plan_texts:
            for name in plan_names(text) - PLAN_WORDS:
                assert re.fullmatch(r"[vtKCFRIO][0-9]+", name), (name, text)

    def test_analysis_plans_hold_only_generated_names(self, plan_texts, corpus_programs):
        for naive in (False, True):
            analysis.analyze(corpus_programs["17_vanhorn"], config(m=1), naive=naive)
        assert len(plan_texts) > 50
        for text in plan_texts:
            for name in plan_names(text) - PLAN_WORDS:
                assert re.fullmatch(r"[vtKCFRIO][0-9]+", name), (name, text)


class TestNoPerRunState:
    def test_saturate_leaves_nothing_alive(self):
        def twice(n):
            return n * 2

        rs = build_ruleset(
            {"num": 1, "doubled": 1},
            [rule("double", [atom("doubled", A(twice, v.n))], [atom("num", v.n)])],
        )
        store = TupleStore(rs.relations)
        store.bulk_add("num", {(1,), (2,)})
        refs = [weakref.ref(rs), weakref.ref(twice)]
        # Without the cycle collector, only reference counts free the plans:
        # nothing of the run may be cached or caught in a cycle.
        gc.disable()
        try:
            out, _ = saturate(rs, store)
            del rs, twice
            assert [ref() for ref in refs] == [None, None]
            out_ref = weakref.ref(out)
            del out
            assert out_ref() is None
        finally:
            gc.enable()


class TestCompileOnce:
    def test_analysis_rule_set_is_built_once_per_config(self):
        assert build_analysis_ruleset(config(m=1)) is build_analysis_ruleset(config(m=1))
        assert build_analysis_ruleset(config(m=1)) is not build_analysis_ruleset(config(m=2))

    def test_configs_differing_only_in_the_ceiling_share_one_rule_set(self):
        ruleset = build_analysis_ruleset(AnalysisConfig(m=0))
        assert build_analysis_ruleset(AnalysisConfig(m=0, fact_ceiling=10)) is ruleset

    def test_a_second_analyze_generates_no_join_source(self, plan_texts, corpus_programs):
        program, cfg = corpus_programs["17_vanhorn"], config(m=1)
        for naive in (False, True):
            first = analysis.analyze(program, cfg, naive=naive)
            assert plan_texts
            plan_texts.clear()
            assert analysis.analyze(program, cfg, naive=naive).relations == first.relations
            assert plan_texts == []

    def test_join_text_memo_never_evicts(self, corpus_programs, fresh_rulesets):
        engine._make_function.cache_clear()
        for program in corpus_programs.values():
            for m in (0, 1, 2):
                for mode in ("both-branches", "appendix-exact"):
                    for naive in (False, True):
                        analysis.analyze(program, config(m=m, primval_truthiness=mode), naive=naive)
        info = engine._make_function.cache_info()
        assert 0 < info.currsize < info.maxsize

    def test_cached_rule_set_keeps_no_store_alive(self, monkeypatch, corpus_programs):
        refs = []
        bind = engine._Join.bind

        def recording(ruleset, edb, **kwargs):
            store, stats = saturate(ruleset, edb, **kwargs)
            refs.append(weakref.ref(store))
            refs.extend(weakref.ref(rows) for rows in store.relations.values())
            return store, stats

        def recording_bind(join, store, buffers):
            bound = bind(join, store, buffers)
            refs.append(weakref.ref(bound))
            return bound

        monkeypatch.setattr(analysis, "saturate", recording)
        monkeypatch.setattr(engine._Join, "bind", recording_bind)
        cfg = config(m=1)
        # Without the cycle collector, only reference counts free the store:
        # the rule set keeps its compiled joins, never one bound to a run.
        gc.disable()
        try:
            result = analysis.analyze(corpus_programs["17_vanhorn"], cfg)
            assert build_analysis_ruleset(cfg).compiled
            del result
            assert len(refs) > 1 and [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()


class TestRounds:
    """Each round inserts its rows with one set difference per relation."""

    @pytest.mark.parametrize("naive", [False, True])
    def test_rows_emitted_twice_or_already_held_are_not_new(self, naive):
        fired = []

        def seen(x, y):
            fired.append((x, y))
            return True

        relations = {"edge": 2, "reach": 1}
        rules = [
            rule(
                "step",
                [atom("reach", v.y)],
                [atom("reach", v.x), atom("edge", v.x, v.y)],
                [A(seen, v.x, v.y)],
            )
        ]
        # Round 1 derives b and c, round 2 derives d twice, round 3 derives
        # z, which the EDB holds: three rounds, each edge joined once.
        edges = {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "z")}
        store = TupleStore(relations)
        store.bulk_add("edge", edges)
        store.bulk_add("reach", [("a",), ("z",)])
        out, stats = saturate(build_ruleset(relations, rules), store, naive=naive)
        assert out.tuples("reach") == {("a",), ("b",), ("c",), ("d",), ("z",)}
        assert stats.rounds == 3
        if not naive:
            assert sorted(fired) == sorted(edges)

    @pytest.mark.parametrize("naive", [False, True])
    def test_index_sees_rows_of_later_rounds(self, naive):
        # path(y, z) is looked up through an index on path's first column,
        # built when the stratum starts: rows of every later round must
        # reach it, or the doubling closure misses paths.
        relations = {"path": 2}
        rules = [
            rule(
                "join",
                [atom("path", v.x, v.z)],
                [atom("path", v.x, v.y), atom("path", v.y, v.z)],
            )
        ]
        (r,) = rules
        assert [s.key_cols for s in engine._plan(r, 0)] == [(), (0,)]
        store = TupleStore(relations)
        store.bulk_add("path", [(i, i + 1) for i in range(8)])
        out, _ = saturate(build_ruleset(relations, rules), store, naive=naive)
        assert out.tuples("path") == {(i, j) for i in range(9) for j in range(i + 1, 9)}

    def test_bulk_add_returns_only_new_rows_and_maintains_indexes(self):
        store = TupleStore({"pair": 2})
        store.bulk_add("pair", [(1, "a")])
        index = store.index("pair", (0,))
        assert store.bulk_add("pair", [(1, "a"), (1, "b"), (1, "b"), (2, "c")]) == {(1, "b"), (2, "c")}
        assert store.bulk_add("pair", [(2, "c")]) == set()
        assert sorted(index[1]) == [(1, "a"), (1, "b")]
        assert index[2] == [(2, "c")]
