"""Acceptance gate: one test per shipping criterion.

Each test prints exactly one line — ``ACCEPTANCE <n> <name>: PASS/FAIL — detail``
— *before* asserting, so the verdict is visible in the log even when the
assertion fires.  Tolerances are pinned here and must not be loosened to make
a criterion pass.
"""

from __future__ import annotations

import random
import time

import pytest

from schemeflow.analysis import analyze
from schemeflow.engine import TupleStore, atom, build_ruleset, rule, saturate, v
from schemeflow.frontend import free_vars, read_program
from schemeflow.machine import run_fixpoint
from schemeflow.serialize import relation_text, render_row
from schemeflow.terms import Bool, Number
from schemeflow.termgen import GenSpec, gen_mcfa_worst

from conftest import CORPUS, CORPUS_DIR, config, store_of

STATE_STORE_RELATIONS = ("state_e", "state_a", "stored_val", "stored_kont")

# Growth-ratio tolerance: ±25% around doubling (linear) and quadrupling
# (quadratic) when N doubles.  Pinned; do not widen.
LINEAR_BAND = (1.5, 2.5)
QUADRATIC_BAND = (3.0, 5.0)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} — {detail}")


def values_by_original_name(program, result, wanted: str) -> dict:
    sets: dict = {}
    for av, val in result.relations["stored_val"]:
        if av.args[0].split("~")[0] == wanted:
            sets.setdefault(av, set()).add(val)
    return sets


def test_criterion_1_conflation():
    start = time.perf_counter()
    program = read_program((CORPUS_DIR / "16_conflate_branches.scm").read_text())

    at_m0 = analyze(program, config(m=0))
    x_sets = values_by_original_name(program, at_m0, "x")
    x_exact = list(x_sets.values()) == [{Bool("#t"), Bool("#f")}]
    m0_values = {val for val, _ in at_m0.relations["state_a"]}
    both_numbers = Number(4) in m0_values and Number(5) in m0_values

    at_m1 = analyze(program, config(m=1))
    m1_values = {val for val, _ in at_m1.relations["state_a"]}
    four_in = Number(4) in m1_values
    five_out = Number(5) not in m1_values

    elapsed = time.perf_counter() - start
    ok = x_exact and both_numbers and four_in and five_out and elapsed < 1.0
    report(
        1,
        "conflation",
        ok,
        f"m=0 x-address exact={x_exact}, 4&5 reachable={both_numbers}; "
        f"m=1 4-in={four_in}, 5-out={five_out}; {elapsed:.2f}s (<1s)",
    )
    assert ok


def test_criterion_2_differential_equivalence(corpus_programs):
    start = time.perf_counter()
    mismatches = []
    runs = 0
    for stem, program in sorted(corpus_programs.items()):
        for m in (0, 1, 2):
            for mode in ("both-branches", "appendix-exact"):
                cfg = config(m=m, primval_truthiness=mode)
                left = analyze(program, cfg)
                right = run_fixpoint(program, cfg)
                runs += 1
                for name in STATE_STORE_RELATIONS:
                    a = relation_text(left.relations[name]).encode()
                    b = relation_text(right.relations[name]).encode()
                    if a != b:
                        mismatches.append(f"{stem} m={m} {mode} {name}")
    elapsed = time.perf_counter() - start
    enough = len(corpus_programs) >= 20
    ok = enough and not mismatches and elapsed < 30.0
    report(
        2,
        "differential-equivalence",
        ok,
        f"{len(corpus_programs)} programs × 3 m × 2 modes = {runs} runs, "
        f"{len(mismatches)} mismatches; {elapsed:.1f}s (<30s)",
    )
    assert ok, mismatches[:3]


def test_criterion_3_precision_boundary():
    start = time.perf_counter()
    boundary_failures = []
    linear_ratios, conflated_ratios = [], []
    for p in (0, 1, 2):
        lin_counts, con_counts = [], []
        for n in (4, 8, 16):
            program = read_program(gen_mcfa_worst(GenSpec(n, 1, p)))
            for m, counts, expect_singleton in (
                (p + 1, lin_counts, True),
                (p, con_counts, False),
            ):
                result = analyze(program, config(m=m))
                sets = {}
                for av, val in result.relations["stored_val"]:
                    orig = av.args[0].split("~")[0]
                    if orig.startswith("m") and orig[1:].isdigit():
                        sets.setdefault(av, set()).add(val)
                singleton = all(len(s) == 1 for s in sets.values())
                if singleton != expect_singleton:
                    boundary_failures.append(f"N={n} p={p} m={m}")
                counts.append(len(result.relations["stored_val"]))
        linear_ratios += [lin_counts[i + 1] / lin_counts[i] for i in range(2)]
        conflated_ratios += [con_counts[i + 1] / con_counts[i] for i in range(2)]
    elapsed = time.perf_counter() - start

    boundary_ok = not boundary_failures
    linear_ok = all(LINEAR_BAND[0] <= r <= LINEAR_BAND[1] for r in linear_ratios)
    quadratic_ok = all(
        QUADRATIC_BAND[0] <= r <= QUADRATIC_BAND[1] for r in conflated_ratios
    )
    ok = boundary_ok and linear_ok and quadratic_ok and elapsed < 60.0
    report(
        3,
        "precision-boundary",
        ok,
        f"singleton-iff-m>p {'PASS' if boundary_ok else 'FAIL'} (18 cells); "
        f"linear ratios {[round(r, 2) for r in linear_ratios]} in {list(LINEAR_BAND)} "
        f"{'PASS' if linear_ok else 'FAIL'}; "
        f"conflated ratios {[round(r, 2) for r in conflated_ratios]} in {list(QUADRATIC_BAND)} "
        f"{'PASS' if quadratic_ok else 'FAIL'} (growth is cubic, not quadratic); "
        f"{elapsed:.1f}s (<60s)",
    )
    assert ok


GRAPH_RELATIONS = {"edge": 2, "label": 2, "path": 2, "tagged": 2}


def random_graph_ruleset(seed: int):
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(rng.randint(6, 12))]
    edges = {(rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(15, 40))}
    labels = {(rng.choice(nodes), rng.choice("abc")) for _ in range(rng.randint(5, 15))}
    rules = [
        rule("p-base", [atom("path", v.x, v.y)], [atom("edge", v.x, v.y)]),
        rule(
            "p-step",
            [atom("path", v.x, v.z)],
            [atom("path", v.x, v.y), atom("edge", v.y, v.z)],
        ),
        rule(
            "t-join",
            [atom("tagged", v.x, v.t)],
            [atom("path", v.x, v.y), atom("label", v.y, v.t)],
        ),
    ]
    return build_ruleset(GRAPH_RELATIONS, rules), {"edge": edges, "label": labels}


def test_criterion_4_engine_correctness():
    start = time.perf_counter()
    failures = []

    ancestor_relations = {"parent": 2, "ancestor": 2}
    ancestor_rules = [
        rule("base", [atom("ancestor", v.p, v.a)], [atom("parent", v.p, v.a)]),
        rule(
            "step",
            [atom("ancestor", v.p, v.a)],
            [atom("parent", v.p, v.c), atom("ancestor", v.c, v.a)],
        ),
    ]
    rs = build_ruleset(ancestor_relations, ancestor_rules)
    parents = {"parent": {("a", "b"), ("b", "c"), ("c", "d"), ("x", "a")}}
    fast, _ = saturate(rs, store_of(ancestor_relations, parents))
    slow, _ = saturate(rs, store_of(ancestor_relations, parents), naive=True)
    if fast.relations != slow.relations:
        failures.append("ancestor naive!=semi-naive")

    for seed in range(5):
        rs, facts = random_graph_ruleset(seed)
        total = sum(len(rows) for rows in facts.values())
        assert total <= 10_000
        fast, _ = saturate(rs, store_of(GRAPH_RELATIONS, facts))
        slow, _ = saturate(rs, store_of(GRAPH_RELATIONS, facts), naive=True)
        if fast.relations != slow.relations:
            failures.append(f"seed {seed} naive!=semi-naive")

        def canonical(order_seed: int) -> bytes:
            shuffled = TupleStore(GRAPH_RELATIONS)
            for name, rows in facts.items():
                ordered = sorted(rows)
                random.Random(order_seed).shuffle(ordered)
                for row in ordered:
                    shuffled.bulk_add(name, [row])
            store, _ = saturate(rs, shuffled)
            return b"".join(
                relation_text(store.relations[name]).encode()
                for name in sorted(store.relations)
            )

        baseline = canonical(0)
        if any(canonical(k) != baseline for k in (1, 2, 3)):
            failures.append(f"seed {seed} shuffle not byte-identical")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    report(
        4,
        "engine-correctness",
        ok,
        f"ancestor + 5 random rulesets naive==semi-naive, 3 insertion shuffles "
        f"byte-identical; failures={failures}; {elapsed:.1f}s (<10s)",
    )
    assert ok, failures


def test_criterion_5_freevar_equivalence(corpus_programs):
    mismatches = []
    for stem, program in sorted(corpus_programs.items()):
        result = analyze(program, config(m=0))
        derived: dict = {e: set() for e in program.nodes}
        for x, e in result.relations["freevar"]:
            derived[e].add(x)
        expected = free_vars(program)
        for e in program.nodes:
            if derived[e] != set(expected[e]):
                mismatches.append(f"{stem}:{e}")
    ok = not mismatches
    report(
        5,
        "freevar-equivalence",
        ok,
        f"rule-derived freevar == syntactic free vars per label across "
        f"{len(corpus_programs)} programs; mismatches={mismatches[:5]}",
    )
    assert ok


def test_criterion_6_termination_guard(tmp_path, monkeypatch, capsys):
    from schemeflow.cli import main

    loop = CORPUS_DIR / "18_loop_widen.scm"
    ceiling = 30_000

    default_result = analyze(read_program(loop.read_text()), config(m=0, fact_ceiling=ceiling))
    saturated_below = default_result.peak_facts < ceiling

    monkeypatch.setenv("SCHEMEFLOW_FACT_CEILING", str(ceiling))
    code = main(
        ["analyze", str(loop), "--out", str(tmp_path / "strict"), "--strict-appendix"]
    )
    err = capsys.readouterr().err
    strict_trips = code == 2 and "fact ceiling exceeded" in err

    ok = saturated_below and strict_trips
    with capsys.disabled():
        report(
            6,
            "termination-guard",
            ok,
            f"default widen-2 peak={default_result.peak_facts} < {ceiling}; "
            f"strict-appendix exit={code} (want 2)",
        )
    assert ok


def test_criterion_7_callcc_semantics():
    program = read_program((CORPUS_DIR / "10_callcc_invoke.scm").read_text())
    cfg = config(m=0)
    left = analyze(program, cfg)
    right = run_fixpoint(program, cfg)

    stored = {tuple(render_row(r)) for r in left.relations["stored_val"]}
    arrived = {tuple(render_row(r)) for r in left.relations["state_a"]}
    kontref_stored = (
        "(VAddress k~1 (Context))",
        "(Kont (KAddress e5 (Context)))",
    ) in stored
    constant_at_capture = ("(Number 5)", "(KAddress e5 (Context))") in arrived
    oracle_agrees = all(
        left.relations[name] == right.relations[name]
        for name in STATE_STORE_RELATIONS
    )

    ok = kontref_stored and constant_at_capture and oracle_agrees
    report(
        7,
        "callcc-semantics",
        ok,
        f"continuation value stored under k={kontref_stored}, "
        f"constant reaches capture point={constant_at_capture}, "
        f"oracle agreement={oracle_agrees}",
    )
    assert ok


def test_criterion_8_desk_scale_sanity():
    source = gen_mcfa_worst(GenSpec(32, 4, 0))
    start = time.perf_counter()
    program = read_program(source)
    result = analyze(program, config(m=2))
    elapsed = time.perf_counter() - start
    nonempty = len(result.relations["stored_val"]) > 0
    ok = elapsed < 5.0 and nonempty
    report(
        8,
        "desk-scale-sanity",
        ok,
        f"N=32 K=4 p=0 at m=2: {elapsed:.2f}s (<5s), "
        f"stored_val={len(result.relations['stored_val'])}",
    )
    assert ok
