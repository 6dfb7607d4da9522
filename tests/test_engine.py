"""The deductive engine: validation, stratification, saturation."""

from __future__ import annotations

import collections
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
from schemeflow.frontend import read_program
from schemeflow.machine import run_fixpoint
from schemeflow.serialize import render_row
from schemeflow.termgen import GenSpec, gen_mcfa_worst
from schemeflow.terms import Bool, Context, Label, Number, VAddr

from conftest import config, store_of

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

    def test_rule_without_body(self):
        bad = rule("r", [atom("ancestor", "a", "b")], [])
        with pytest.raises(RuleError, match="no body"):
            build_ruleset(ANCESTOR_RELATIONS, [bad])

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

    def test_saturate_extends_its_store(self):
        store = ancestor_store([("a", "b"), ("b", "c")])
        out, _ = saturate(build_ruleset(ANCESTOR_RELATIONS, ANCESTOR_RULES), store)
        assert out is store
        assert store.tuples("ancestor") == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_naive_equals_semi_naive(self):
        rs = build_ruleset(ANCESTOR_RELATIONS, ANCESTOR_RULES)
        pairs = [("a", "b"), ("b", "c"), ("c", "d"), ("x", "a")]
        fast, _ = saturate(rs, ancestor_store(pairs))
        slow, _ = saturate(rs, ancestor_store(pairs), naive=True)
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
        again, _ = saturate(rs, store_of(ANCESTOR_RELATIONS, first.relations))
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
                [atom("doubled", A(lambda n: n * 2, v.n))],
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
                [atom("num", A(lambda n: n + 1, v.n))],
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
            lambda cfg: [r._replace(body=r.body[::-1]) for r in build_rules(cfg)],
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
    fast, _ = saturate(rs, store_of(relations, facts))
    slow, _ = saturate(rs, store_of(relations, facts), naive=True)
    assert fast.relations == slow.relations
    return fast


# Identifiers the plan compiler writes itself; every other name in a plan's
# source must be a generated ``t0`` variable or ``K0``-style value.
PLAN_WORDS = {"make", "join", "rows", "get", "args", "type", "len", "_"}


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

    def test_step_with_every_column_ground_is_an_index_lookup(self):
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
        # Ranked first, flag(1) is the relation its join is handed.
        assert [(s.rel, s.key_cols) for s in engine._plan(r, None)] == [
            ("flag", ()),
            ("left", ()),
            ("right", (0, 1)),
        ]
        for naive in (False, True):
            rs = build_ruleset(relations, rules)
            (join,) = [j for s in engine._program(rs, naive) for j in s.once + s.joins]
            assert join.rel == "flag"
            assert [b for b in join.bindings if b.kind == "I"] == [("I", "right", (0, 1))]
        facts = {"left": {(1, 2), (2, 3), (3, 4)}, "right": {(1, 2), (3, 4), (3, 5)}}
        out = saturate_both_ways(relations, rules, {**facts, "flag": {(1,)}})
        assert out.tuples("both") == {(1, 2), (3, 4)}
        out = saturate_both_ways(relations, rules, {**facts, "flag": {(2,)}})
        assert out.tuples("both") == set()

    def test_first_step_keyed_only_on_constants(self):
        # A first step is scanned whole and checked, never looked up: the
        # rows its join is handed are the step.
        relations = {"arg": 3, "flag": 2, "zeroes": 2, "yes": 1}
        rules = [
            rule("zeroes", [atom("zeroes", v.x, v.y)], [atom("arg", v.x, 0, v.y)]),
            rule("yes", [atom("yes", 1)], [atom("flag", 1, "on")]),
        ]
        zeroes, yes = rules
        assert engine._plan(zeroes, None)[0].key_cols == ()
        assert engine._plan(yes, None)[0].key_cols == ()
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
                assert re.fullmatch(r"[tKCFRIO][0-9]+", name), (name, text)

    def test_analysis_plans_hold_only_generated_names(self, plan_texts, corpus_programs):
        for naive in (False, True):
            analysis.analyze(corpus_programs["17_vanhorn"], config(m=1), naive=naive)
        # 17_vanhorn at m=1: 8 semi-naive joins, then one naive join per rule.
        assert len(plan_texts) == 8 + 40
        for text in plan_texts:
            for name in plan_names(text) - PLAN_WORDS:
                assert re.fullmatch(r"[tKCFRIO][0-9]+", name), (name, text)

    def test_every_check_nests_and_nothing_skips(self, plan_texts, corpus_programs):
        program = corpus_programs["17_vanhorn"]
        for mode in ("both-branches", "appendix-exact"):
            for naive in (False, True):
                analysis.analyze(program, config(m=1, primval_truthiness=mode), naive=naive)
        assert plan_texts
        for text in plan_texts:
            for line in map(str.strip, text.splitlines()):
                assert not line.startswith(("continue", "return")) or line == "return join", text
                assert not line.startswith("if ") or line.endswith(":") and ": " not in line[3:], text

    def test_analysis_joins_build_every_head_term_by_subscript(self, plan_texts, corpus_programs):
        """Every term a join builds, for a head or an index key, is looked
        up in its class's intern pool, as in ``C3[(t0, t1)]``, and never
        built by calling its class.  Any other ``C`` value is a class that
        a check compares a type with."""
        program = corpus_programs["17_vanhorn"]
        for m in (0, 1, 2):
            for mode in analysis.TRUTHINESS_MODES:
                for naive in (False, True):
                    analysis.analyze(program, config(m=m, primval_truthiness=mode), naive=naive)
        assert len(set(plan_texts)) == 38
        heads = 0
        for text in set(plan_texts):
            assert not re.search(r"\bC[0-9]+\(", text), text
            for line in map(str.strip, text.splitlines()[1:]):
                checks = re.findall(r"\bis (C[0-9]+) and ", line)
                builds = re.findall(r"\b(C[0-9]+)\[\(", line)
                assert sorted(re.findall(r"\bC[0-9]+\b", line)) == sorted(checks + builds), line
                if line.startswith("O"):
                    assert checks == [], line
                    heads += len(builds)
        assert heads > 0


class TestSharedPrefix:
    """Plans of one join whose second steps are the same index lookup share
    its loop, then each rule's block in order."""

    RELATIONS = {"ev": 2, "frame": 2, "hit": 3}

    def rules(self):
        return [
            # Rejects Number frames (struct) and VAddress(_, 1) (constant).
            rule(
                "addr",
                [atom("hit", "addr", v.k, v.x)],
                [atom("ev", v.val, v.k), atom("frame", v.k, T("VAddress", v.x, 0))],
            ),
            # Rejects Number(8) (guard) and every VAddress (struct).
            rule(
                "small",
                [atom("hit", "small", v.k, v.n)],
                [atom("ev", v.val, v.k), atom("frame", v.k, T("Number", v.n))],
                [A(operator.lt, v.n, 5)],
            ),
            # A struct on the delta atom: accepts every frame of a Number.
            rule(
                "boxed",
                [atom("hit", "boxed", v.n, v.f)],
                [atom("ev", T("Number", v.n), v.k), atom("frame", v.k, v.f)],
            ),
            # Derives nothing, but ties hit to ev, so ev rows are a delta.
            rule("echo", [atom("ev", v.b, v.a)], [atom("hit", "echo", v.a, v.b)]),
        ]

    def test_a_mismatch_in_one_rule_leaves_the_later_rules_their_rows(self):
        a0, b1, c0 = VAddr("a", 0), VAddr("b", 1), VAddr("c", 0)
        facts = {
            "ev": {(Number(2), 1), (Bool("#t"), 1), (Number(9), 2)},
            "frame": {(1, a0), (1, b1), (1, Number(3)), (1, Number(8)), (2, Number(4)), (2, c0)},
        }
        rs = build_ruleset(self.RELATIONS, self.rules())
        (fused,) = [j for s in engine._program(rs, False) for j in s.joins if j.rel == "ev"]
        assert [b for b in fused.bindings if b.kind == "I"] == [("I", "frame", (0,))]
        out = saturate_both_ways(self.RELATIONS, self.rules(), facts)
        assert out.tuples("hit") == {
            ("addr", 1, "a"),
            ("addr", 2, "c"),
            ("small", 1, 3),
            ("small", 2, 4),
            ("boxed", 2, a0),
            ("boxed", 2, b1),
            ("boxed", 2, Number(3)),
            ("boxed", 2, Number(8)),
            ("boxed", 9, Number(4)),
            ("boxed", 9, c0),
        }
        assert out.tuples("ev") == facts["ev"]

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_frame_rules_share_one_pass_over_the_state_a_delta(self, m):
        ruleset = build_analysis_ruleset(config(m=m))
        frame_rules = [r for r in ruleset.rules if [a.rel for a in r.body[:2]] == ["state_a", "stored_kont"]]
        assert len(frame_rules) == 11
        joins = [j for s in engine._program(ruleset, False) for j in s.joins if j.rel == "state_a"]
        (fused,) = [j for j in joins if ("I", "stored_kont", (0,)) in j.bindings]
        # One appender per head of each of the eleven rules.
        assert sum(b.kind == "O" for b in fused.bindings) == sum(len(r.heads) for r in frame_rules)

    @pytest.mark.parametrize("naive", [False, True])
    def test_a_builder_repeated_across_heads_runs_once_per_firing(self, naive):
        calls = []

        def pair(x, y):
            calls.append("pair")
            return (x, y)

        def neg(y):
            calls.append("neg")
            return -y

        relations = {"edge": 2, "left": 1, "right": 2}
        built = A(pair, v.x, A(neg, v.y))
        rules = [rule("both", [atom("left", built), atom("right", v.x, built)], [atom("edge", v.x, v.y)])]
        store = TupleStore(relations)
        store.bulk_add("edge", {(1, 2), (3, 4)})
        out, stats = saturate(build_ruleset(relations, rules), store, naive=naive)
        assert out.tuples("left") == {((1, -2),), ((3, -4),)}
        assert out.tuples("right") == {(1, (1, -2)), (3, (3, -4))}
        firings = 2 * (stats.rounds if naive else 1)
        assert sorted(calls) == ["neg"] * firings + ["pair"] * firings

    def test_a_term_repeated_across_heads_is_built_once_and_a_ground_one_never(self, plan_texts):
        relations = {"edge": 2, "left": 1, "right": 2, "five": 2}
        addr = T("VAddress", v.x, v.y)
        rules = [
            rule(
                "both",
                [atom("left", addr), atom("right", v.x, addr), atom("five", v.y, T("Number", 5))],
                [atom("edge", v.x, v.y)],
            )
        ]
        out = saturate_both_ways(relations, rules, {"edge": {("a", 1), ("b", 2)}})
        assert out.tuples("right") == {("a", VAddr("a", 1)), ("b", VAddr("b", 2))}
        assert out.tuples("five") == {(1, Number(5)), (2, Number(5))}
        assert plan_texts
        for text in plan_texts:
            assert len(re.findall(r"\bC[0-9]+\[", text)) == 1, text


class TestOneJoinPerRelation:
    """A stratum compiles one join per relation that its plans start with,
    one loop over the rows it is handed; naive mode one join per rule."""

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("mode", ["both-branches", "appendix-exact"])
    def test_semi_naive_loops_once_over_each_first_relation(self, m, mode, plan_texts):
        rs = build_analysis_ruleset(config(m=m, primval_truthiness=mode))
        program = engine._program(rs, False)
        for s in program:
            rules = [r for r in rs.rules if r.heads[0].rel in s.rels]
            looped = {a.rel for r in rules for a in r.body if a.rel in s.rels}
            once = {engine._plan(r, None)[0].rel for r in rules if not {a.rel for a in r.body} & set(s.rels)}
            assert sorted(j.rel for j in s.joins) == sorted(looped)
            assert sorted(j.rel for j in s.once) == sorted(once)
        assert sum(len(s.once) + len(s.joins) for s in program) == len(plan_texts) == 8
        for text in plan_texts:
            assert sum(re.fullmatch(r" *for .* in rows:", line) is not None for line in text.splitlines()) == 1

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("mode", ["both-branches", "appendix-exact"])
    def test_naive_compiles_one_join_per_rule(self, m, mode):
        rs = build_analysis_ruleset(config(m=m, primval_truthiness=mode))
        program = engine._program(rs, True)
        assert [s.once for s in program] == [()] * len(program)
        assert sum(len(s.joins) for s in program) == len(rs.rules) == 40

    def test_no_struct_unpack_binds_nothing(self, plan_texts):
        for m in (0, 1, 2):
            for mode in ("both-branches", "appendix-exact"):
                for naive in (False, True):
                    engine._program(build_analysis_ruleset(config(m=m, primval_truthiness=mode)), naive)
        assert plan_texts
        for text in plan_texts:
            assert not re.search(r"^ *\(_(, _)*,?\) = ", text, re.M), text

    def test_rules_whose_second_steps_differ_share_the_delta_loop(self):
        relations = {"reach": 1, "edge": 2, "label": 2, "named": 2}
        rules = [
            # Rejects every Bool row (struct) and Number(2) (no label) ...
            rule("named", [atom("named", v.n, v.c)], [atom("reach", T("Number", v.n)), atom("label", v.n, v.c)]),
            # ... which the later rule still follows.
            rule("step", [atom("reach", v.y)], [atom("reach", v.x), atom("edge", v.x, v.y)]),
            # Derives nothing new, but ties named to reach.
            rule("echo", [atom("reach", T("Number", v.n))], [atom("named", v.n, WILD)]),
        ]
        rs = build_ruleset(relations, rules)
        (join,) = [j for s in engine._program(rs, False) for j in s.joins if j.rel == "reach"]
        assert [b for b in join.bindings if b.kind == "I"] == [("I", "label", (0,)), ("I", "edge", (0,))]
        n1, n2, n3, yes = Number(1), Number(2), Number(3), Bool("#t")
        facts = {
            "reach": {(n1,)},
            "edge": {(n1, yes), (yes, n2), (n2, n3)},
            "label": {(1, "one"), (3, "three")},
        }
        out = saturate_both_ways(relations, rules, facts)
        assert out.tuples("reach") == {(n1,), (yes,), (n2,), (n3,)}
        assert out.tuples("named") == {(1, "one"), (3, "three")}

    def test_second_step_with_nothing_to_look_up(self):
        relations = {"seen": 1, "next": 2, "other": 1, "pair": 2}
        rules = [
            rule("step", [atom("seen", v.y)], [atom("seen", v.x), atom("next", v.x, v.y)]),
            # other(y) has no column ground by seen(x): it is scanned whole.
            rule("pair", [atom("pair", v.x, v.y)], [atom("seen", v.x), atom("other", v.y)]),
            rule("back", [atom("seen", v.y)], [atom("pair", WILD, v.y)]),
        ]
        rs = build_ruleset(relations, rules)
        (join,) = [j for s in engine._program(rs, False) for j in s.joins if j.rel == "seen"]
        assert [b[:2] for b in join.bindings if b.kind != "O"] == [("I", "next"), ("R", "other")]
        facts = {"seen": {("a",)}, "next": {("a", "b"), (1, "c")}, "other": {(1,), (2,)}}
        out = saturate_both_ways(relations, rules, facts)
        seen = {"a", "b", 1, 2, "c"}
        assert out.tuples("seen") == {(x,) for x in seen}
        assert out.tuples("pair") == {(x, y) for x in seen for y in (1, 2)}

    def test_once_rules_over_one_relation_share_one_join(self):
        relations = {"edge": 2, "mark": 1, "end": 2}
        rules = [
            # Rejects every edge that is not a loop ...
            rule("self", [atom("end", v.x, "loop")], [atom("edge", v.x, v.x)]),
            # ... which the later rule still reads.
            rule("to", [atom("end", v.y, "to")], [atom("edge", WILD, v.y), atom("mark", v.y)]),
        ]
        rs = build_ruleset(relations, rules)
        (stratum,) = [s for s in engine._program(rs, False) if s.rels == ("end",)]
        assert [j.rel for j in stratum.once] == ["edge"] and stratum.joins == ()
        out = saturate_both_ways(relations, rules, {"edge": {(1, 1), (1, 2), (2, 3)}, "mark": {(2,), (3,)}})
        assert out.tuples("end") == {(1, "loop"), (2, "to"), (3, "to")}


class TestGroupedJoins:
    """A join whose plans all look its relation's key up first is handed
    its rows grouped by that key; what reads only the key and the rows its
    lookup finds runs once per (key, found row)."""

    RELATIONS = {"ev": 2, "frame": 2, "hit": 3}
    FACTS = {
        "ev": {(Number(1), 1), (Number(2), 1), (Bool("#t"), 1), (Number(3), 2)},
        "frame": {
            (1, VAddr("a", 0)),
            (1, VAddr("b", 1)),
            (1, Number(5)),
            (2, Number(6)),
            (2, VAddr("c", 0)),
        },
    }

    def rules(self, count):
        return [
            # Rejects VAddress(_, 1) (constant) and Number frames (struct).
            rule(
                "addr",
                [atom("hit", "addr", v.k, v.x)],
                [atom("ev", v.val, v.k), atom("frame", v.k, T("VAddress", v.x, 0))],
            ),
            # A head of the key and the frame alone.
            rule(
                "count",
                [atom("hit", "count", v.k, A(count, v.n))],
                [atom("ev", v.val, v.k), atom("frame", v.k, T("Number", v.n))],
            ),
            # Reads each row's value, after the rules above rejected frames.
            rule(
                "val",
                [atom("hit", "val", v.val, v.x)],
                [atom("ev", v.val, v.k), atom("frame", v.k, T("VAddress", v.x, WILD))],
            ),
            # Derives nothing, but ties hit to ev and looks ev up by k.
            rule("echo", [atom("ev", v.b, v.a)], [atom("hit", "echo", v.a, v.b), atom("ev", WILD, v.a)]),
        ]

    def test_rules_read_each_key_group_once_per_frame(self):
        calls = []

        def count(n):
            calls.append(n)
            return n * 10

        rs = build_ruleset(self.RELATIONS, self.rules(count))
        (join,) = [j for s in engine._program(rs, False) for j in s.joins if j.rel == "ev"]
        assert join.key == (1,)
        out, stats = saturate(rs, store_of(self.RELATIONS, self.FACTS))
        assert stats.rounds == 2
        # Two ev keys with one Number frame each: the ev rows of the first
        # round are four, the firings of count two.
        assert sorted(calls) == [5, 6]
        calls.clear()
        slow, stats = saturate(rs, store_of(self.RELATIONS, self.FACTS), naive=True)
        assert sorted(calls) == sorted([5, 6] * stats.rounds)
        assert out.relations == slow.relations
        values = [Number(1), Number(2), Bool("#t")]
        assert out.tuples("hit") == {
            ("addr", 1, "a"),
            ("addr", 2, "c"),
            ("count", 1, 50),
            ("count", 2, 60),
            *{("val", val, x) for val in values for x in "ab"},
            ("val", Number(3), "c"),
        }
        assert out.tuples("ev") == self.FACTS["ev"]

    def test_a_head_of_the_key_alone_fires_once_per_group(self):
        calls = []

        def mark(k):
            calls.append(k)
            return k

        relations = {"at": 2, "seen": 1, "back": 1}
        rules = [
            rule("seen", [atom("seen", A(mark, v.k))], [atom("at", v.x, v.k), atom("back", v.k)]),
            rule("back", [atom("at", v.k, v.k)], [atom("seen", v.k), atom("at", WILD, v.k)]),
        ]
        rs = build_ruleset(relations, rules)
        (join,) = [j for s in engine._program(rs, False) for j in s.joins if j.rel == "at"]
        assert join.key == (1,)
        facts = {"at": {(x, k) for x in range(3) for k in "pq"}, "back": {("p",), ("r",)}}
        out = saturate_both_ways(relations, rules, facts)
        assert out.tuples("seen") == {("p",)}
        assert out.tuples("at") == facts["at"] | {("p", "p")}
        calls.clear()
        saturate(rs, store_of(relations, facts))
        # Round 1 hands the join three rows at p, round 3 the one at(p, p).
        assert calls == ["p", "p"]

    def test_plans_that_share_no_key_take_one_group(self):
        relations = {"pair": 2, "left": 1, "right": 1, "hit": 2}
        rules = [
            rule("l", [atom("hit", "l", v.x)], [atom("pair", v.x, v.y), atom("left", v.x)]),
            rule("r", [atom("hit", "r", v.y)], [atom("pair", v.x, v.y), atom("right", v.y)]),
            # Ties pair to hit, and looks pair up by each column.
            rule(
                "tie",
                [atom("pair", v.x, v.x)],
                [atom("hit", "l", v.x), atom("pair", v.x, WILD), atom("pair", WILD, v.x)],
            ),
        ]
        rs = build_ruleset(relations, rules)
        (join,) = [j for s in engine._program(rs, False) for j in s.joins if j.rel == "pair"]
        assert join.key == ()
        facts = {"pair": {(1, 2), (2, 3), (3, 1)}, "left": {(1,), (3,)}, "right": {(3,)}}
        out = saturate_both_ways(relations, rules, facts)
        assert out.tuples("hit") == {("l", 1), ("l", 3), ("r", 3)}
        assert out.tuples("pair") == facts["pair"] | {(1, 1), (3, 3)}


class TestWork:
    """The rows the analysis buffers, counted at each insert: a join that
    fires a head once per delta row again would raise them."""

    @pytest.mark.parametrize(
        "n, k, p, m, rows, state_e",
        [(16, 1, 0, 0, 19058, 117), (16, 1, 1, 1, 18876, 165)],
    )
    def test_rows_handed_to_the_store(self, monkeypatch, n, k, p, m, rows, state_e):
        handed = collections.Counter()
        bulk_add = TupleStore.bulk_add

        def counting(store, name, new, *args):
            handed[name] += len(new)
            return bulk_add(store, name, new, *args)

        monkeypatch.setattr(TupleStore, "bulk_add", counting)
        result = analysis.analyze(read_program(gen_mcfa_worst(GenSpec(n, k, p))), config(m=m))
        assert (sum(handed.values()), handed["state_e"]) == (rows, state_e)
        assert sum(map(len, result.relations.values())) == {0: 9908, 1: 10200}[m]


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
            assert out is store
            out_ref = weakref.ref(out)
            del out, store
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

    def test_bulk_add_by_key_groups_the_new_rows_as_the_index_holds_them(self):
        store = TupleStore({"pair": 2})
        store.bulk_add("pair", [(1, "a")])
        other = store.index("pair", (1,))
        groups = store.bulk_add("pair", [(1, "a"), (1, "b"), (2, "c"), (2, "d")], (0,))
        assert {k: sorted(rows) for k, rows in groups.items()} == {1: [(1, "b")], 2: [(2, "c"), (2, "d")]}
        index = store.index("pair", (0,))
        assert sorted(index[1]) == [(1, "a"), (1, "b")]
        assert sorted(index[2]) == [(2, "c"), (2, "d")]
        assert other["d"] == [(2, "d")]
        assert store.bulk_add("pair", [(2, "e"), (3, "f")], (0,)) == {2: [(2, "e")], 3: [(3, "f")]}
        assert sorted(index[2]) == [(2, "c"), (2, "d"), (2, "e")]
        assert store.bulk_add("pair", [(3, "f")], (0,)) == {}
        assert store.bulk_add("pair", [(4, "g")], ()) == {(): {(4, "g")}}
