"""The worst-case term generator: shapes, validity, precision behavior."""

from __future__ import annotations

import pytest

from schemeflow.analysis import analyze
from schemeflow.errors import ValidationError
from schemeflow.frontend import (
    CallNode,
    LambdaNode,
    VarNode,
    extract_facts,
    read_program,
)
from schemeflow.termgen import GenSpec, VANHORN_TERM, gen_mcfa_worst, gen_vanhorn

from conftest import config


def binding_value_sets(source: str, m: int) -> dict[str, set]:
    """Values stored at each generated let-binding address (by original name)."""
    program = read_program(source)
    result = analyze(program, config(m=m))
    sets: dict[str, set] = {}
    for av, val in result.relations["stored_val"]:
        original = av.args[0].split("~")[0]
        if original.startswith("m") and original[1:].isdigit():
            sets.setdefault(original, set()).add(val)
    return sets


class TestGenSpec:
    def test_valid(self):
        s = GenSpec(n_bindings=4, n_plus=2, padding=1)
        assert (s.n_bindings, s.n_plus, s.padding) == (4, 2, 1)

    def test_n_bindings_must_be_positive(self):
        with pytest.raises(ValidationError):
            GenSpec(n_bindings=0)

    def test_negative_plus_rejected(self):
        with pytest.raises(ValidationError):
            GenSpec(n_bindings=1, n_plus=-1)

    def test_negative_padding_rejected(self):
        with pytest.raises(ValidationError):
            GenSpec(n_bindings=1, padding=-1)

    def test_immutable_and_compared_by_value(self):
        s = GenSpec(4, 2, 1)
        assert s == GenSpec(n_bindings=4, n_plus=2, padding=1) and hash(s) == hash(GenSpec(4, 2, 1))
        assert s != GenSpec(4, 2, 0) and s != (4, 2, 1)
        assert repr(s) == "GenSpec(n_bindings=4, n_plus=2, padding=1)"
        with pytest.raises(AttributeError):
            s.padding = 0
        with pytest.raises(AttributeError):
            del s.padding
        assert s.padding == 1


class TestVanHorn:
    def test_exact_text(self):
        expected = (
            "((lambda (f) (let ((m (f #t)) (n (f #f))) m))"
            " (lambda (z) ((lambda (x) x) (lambda (w) (w z z)))))"
        )
        assert gen_vanhorn() == expected == VANHORN_TERM

    def test_parses_cleanly(self):
        program = read_program(gen_vanhorn())
        assert len(program.nodes) > 0

    def test_z_conflates_at_m0(self):
        program = read_program(gen_vanhorn())
        result = analyze(program, config(m=0))
        zvals = set()
        for av, val in result.relations["stored_val"]:
            if av.args[0].split("~")[0] == "z":
                zvals.add(val)
        assert {v.args[0] for v in zvals if v.tag == "Bool"} == {"#t", "#f"}


class TestWorstCaseShape:
    def test_small_instance_text(self):
        assert gen_mcfa_worst(GenSpec(2, 1, 0)) == (
            "((lambda (f) (let ((m1 (f 1)) (m0 (f 0))) m0)) (lambda (z) (+ z z)))"
        )

    def test_structural_counts_n2_k1_p0(self):
        program = read_program(gen_mcfa_worst(GenSpec(2, 1, 0)))
        edb = extract_facts(program)
        calls = [n for n in program.nodes.values() if isinstance(n, CallNode)]
        f_calls = [
            c
            for c in calls
            if isinstance(program.nodes[c.func], VarNode)
            and program.nodes[c.func].name.split("~")[0] == "f"
        ]
        assert len(f_calls) == 2
        assert len(edb.facts["prim_call"]) == 1
        assert len(edb.facts["let"]) == 1
        assert len(edb.facts["let_list"]) == 2

    def test_padding_adds_two_lambdas_per_layer(self):
        def lambda_count(p: int) -> int:
            program = read_program(gen_mcfa_worst(GenSpec(2, 1, p)))
            return sum(isinstance(n, LambdaNode) for n in program.nodes.values())

        base = lambda_count(0)
        assert base == 2
        assert lambda_count(1) == base + 2
        assert lambda_count(2) == base + 4

    def test_distinct_constants_are_flow_sources(self):
        edb = extract_facts(read_program(gen_mcfa_worst(GenSpec(4, 1, 0))))
        nums = {n for _, n in edb.facts["num"]}
        assert {0, 1, 2, 3} <= nums

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_generated_terms_always_validate(self, n, p):
        program = read_program(gen_mcfa_worst(GenSpec(n, 1, p)))
        assert program.root in program.nodes


class TestPrecisionBoundary:
    def test_precise_when_m_exceeds_padding(self):
        sets = binding_value_sets(gen_mcfa_worst(GenSpec(4, 1, 0)), m=1)
        assert len(sets) == 4
        assert all(len(vals) == 1 for vals in sets.values())

    def test_conflated_when_padding_reaches_m(self):
        sets = binding_value_sets(gen_mcfa_worst(GenSpec(4, 1, 1)), m=1)
        assert len(sets) == 4
        assert all(len(vals) > 1 for vals in sets.values())

    def test_boundary_is_exact_in_m(self):
        source = gen_mcfa_worst(GenSpec(4, 1, 1))
        conflated = binding_value_sets(source, m=1)
        precise = binding_value_sets(source, m=2)
        assert all(len(vals) > 1 for vals in conflated.values())
        assert all(len(vals) == 1 for vals in precise.values())
