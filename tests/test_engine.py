"""The deductive engine: validation, stratification, saturation."""

from __future__ import annotations

import dataclasses
import random

import pytest

from schemeflow import analysis
from schemeflow.analysis import build_analysis_ruleset
from schemeflow.engine import (
    A,
    T,
    TupleStore,
    WILD,
    atom,
    build_ruleset,
    neq,
    rule,
    saturate,
    v,
)
from schemeflow.errors import FactCeilingExceeded, RuleError
from schemeflow.machine import run_fixpoint
from schemeflow.serialize import render_row

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
            [neq(v.p, v.unbound)],
        )
        with pytest.raises(RuleError):
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
                store.add("parent", pair)
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
        store.add("src", (1,))
        out, _ = saturate(build_ruleset(relations, rules), store)
        assert out.tuples("left") == out.tuples("right") == {(1,)}

    def test_disequality_guard(self):
        relations = {"pairs": 2, "diff": 2}
        rules = [
            rule(
                "keep",
                [atom("diff", v.a, v.b)],
                [atom("pairs", v.a, v.b)],
                [neq(v.a, v.b)],
            )
        ]
        store = TupleStore(relations)
        store.bulk_add("pairs", {(1, 1), (1, 2), (2, 2), (3, 1)})
        out, _ = saturate(build_ruleset(relations, rules), store)
        assert out.tuples("diff") == {(1, 2), (3, 1)}


class TestBodyOrder:
    @pytest.mark.parametrize("m", [0, 1])
    def test_reversed_rule_bodies_derive_the_same_relations(
        self, m, monkeypatch, corpus_programs
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
