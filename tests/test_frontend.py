"""Reader, labeling/validation, fact extraction, and free variables."""

from __future__ import annotations

import pytest

from schemeflow.errors import ParseError, ValidationError
from schemeflow.frontend import (
    EDB_SCHEMA,
    IfNode,
    LambdaNode,
    LetNode,
    ListMarkerNode,
    VarNode,
    extract_facts,
    free_vars,
    read_program,
    read_sexprs,
)
from schemeflow.termgen import GenSpec, gen_mcfa_worst, gen_vanhorn
from schemeflow.terms import Label

from conftest import CORPUS


def L(n: int) -> Label:
    return Label(f"e{n}")


class TestReader:
    def test_atom(self):
        (sx,) = read_sexprs("42")
        assert sx.is_atom and sx.atom == "42"

    def test_flat_list(self):
        (sx,) = read_sexprs("(f #t)")
        assert [c.atom for c in sx.items] == ["f", "#t"]

    def test_nested_list(self):
        (sx,) = read_sexprs("((lambda (x) x) 1)")
        fn, arg = sx.items
        assert fn.items[0].atom == "lambda"
        assert arg.atom == "1"

    def test_comments_skipped(self):
        (sx,) = read_sexprs("; heading\n(f ; inline\n #t)")
        assert [c.atom for c in sx.items] == ["f", "#t"]

    def test_square_brackets_pair(self):
        (sx,) = read_sexprs("(let ([x 1]) x)")
        assert sx.items[1].items[0].items[0].atom == "x"

    def test_unbalanced_close_has_position(self):
        with pytest.raises(ParseError) as ei:
            read_sexprs("(f 1))")
        assert str(ei.value).startswith("1:6:")

    def test_unclosed_open_reports_opener_position(self):
        with pytest.raises(ParseError) as ei:
            read_sexprs("\n  (f 1")
        assert str(ei.value).startswith("2:3:")

    def test_mismatched_bracket(self):
        with pytest.raises(ParseError):
            read_sexprs("(f 1]")

    def test_illegal_token(self):
        with pytest.raises(ParseError):
            read_sexprs("(f 'x)")

    def test_positions_monotone(self):
        (sx,) = read_sexprs("(f #t 3)")
        cols = [c.col for c in sx.items]
        assert cols == sorted(cols)


class TestValidation:
    def test_if_children_in_source_order(self):
        p = read_program("(if a 4 5)")
        node = p.nodes[p.root]
        assert isinstance(node, IfNode)
        assert (node.guard, node.then, node.other) == (L(1), L(2), L(3))

    def test_let_requires_a_binding(self):
        with pytest.raises(ValidationError):
            read_program("(let () x)")

    def test_prim_arity_exactly_two(self):
        with pytest.raises(ValidationError):
            read_program("(+ 1 2 3)")
        with pytest.raises(ValidationError):
            read_program("(+ 1)")

    def test_duplicate_lambda_params(self):
        with pytest.raises(ValidationError):
            read_program("(lambda (x x) x)")

    def test_duplicate_let_names(self):
        with pytest.raises(ValidationError, match="duplicate let binding names") as info:
            read_program("(f\n  (let ((x 1) (y 2) (x 3)) x))")
        assert (info.value.line, info.value.col) == (2, 3)

    def test_nullary_call_rejected(self):
        with pytest.raises(ValidationError):
            read_program("(f)")

    def test_empty_application_rejected(self):
        with pytest.raises(ValidationError):
            read_program("()")

    def test_setb_target_must_be_identifier(self):
        with pytest.raises(ValidationError):
            read_program("(set! 5 1)")

    def test_quote_rejected_by_default(self):
        with pytest.raises(ValidationError):
            read_program("(quote x)")

    def test_quote_rejected_at_its_position(self):
        with pytest.raises(ValidationError) as info:
            read_program("(let ((x\n   (quote a)))\n  5)")
        assert str(info.value) == "2:4: quote is not supported: a quoted datum has no value in the analysis"
        assert (info.value.line, info.value.col) == (2, 4)

    @pytest.mark.parametrize("tok", ["1.5", ".5", "1e3", "1/2", "+5", "+inf.0", "1+2i"])
    def test_non_integer_number_is_an_unsupported_literal(self, tok):
        with pytest.raises(ValidationError) as info:
            read_program(f"(+ 1\n   {tok})")
        assert str(info.value) == f"2:4: unsupported literal {tok!r}"

    @pytest.mark.parametrize("name", ["+", "-", "...", "1+"])
    def test_identifiers_that_start_like_numbers_stay_variables(self, name):
        p = read_program(f"(f {name})")
        assert {node.name for node in p.nodes.values() if isinstance(node, VarNode)} == {"f", name}

    def test_tilde_identifiers_reserved(self):
        with pytest.raises(ValidationError):
            read_program("(lambda (a~b) 1)")
        with pytest.raises(ValidationError):
            read_program("x~1")

    def test_two_top_level_forms_rejected(self):
        with pytest.raises(ValidationError):
            read_program("1 2")

    def test_unknown_head_is_a_call(self):
        p = read_program("(frob 1 2)")
        edb = extract_facts(p)
        assert len(edb.facts["call"]) == 1
        assert len(edb.facts["prim_call"]) == 0


class TestAlphaRenaming:
    def test_binders_renamed_in_declaration_order(self):
        p = read_program("((lambda (x) x) (lambda (y) y))")
        lambdas = [n for n in p.nodes.values() if isinstance(n, LambdaNode)]
        renamed = {param for lam in lambdas for param in lam.params}
        assert renamed == {"x~1", "y~2"}

    def test_shadowing_gets_distinct_names(self):
        p = read_program("(let ((x 1)) ((lambda (x) x) x))")
        let_node = p.nodes[p.root]
        assert isinstance(let_node, LetNode)
        outer = let_node.bindings[0][0]
        readers = [n for n in p.nodes.values() if isinstance(n, VarNode)]
        names = {n.name for n in readers}
        assert outer == "x~1"
        assert names == {"x~1", "x~2"}

    def test_free_variables_keep_original_name(self):
        p = read_program("x")
        assert p.nodes[p.root].name == "x"


def facts_as_text(edb) -> dict[str, set[tuple[str, ...]]]:
    """Each EDB row as the column strings a .facts file should hold."""
    return {
        name: {tuple(c.args[0] if isinstance(c, Label) else str(c) for c in row) for row in rows}
        for name, rows in edb.facts.items()
    }


def read_facts_dir(path) -> dict[str, set[tuple[str, ...]]]:
    """The rows of every .facts file in ``path``, split into columns."""
    return {
        name: {tuple(line.split("\t")) for line in (path / f"{name}.facts").read_text().splitlines()}
        for name in EDB_SCHEMA
    }


class TestExtractFacts:
    def test_number_program(self):
        edb = extract_facts(read_program("42"))
        assert edb.facts["top_exp"] == {(L(0),)}
        assert edb.facts["num"] == {(L(0), 42)}
        assert sum(len(rows) for rows in edb.facts.values()) == 2

    def test_call_program_exact(self):
        edb = extract_facts(read_program("(f #t)"))
        assert edb.facts["top_exp"] == {(L(0),)}
        assert edb.facts["call"] == {(L(0), L(1), L(2))}
        assert edb.facts["var"] == {(L(1), "f")}
        assert edb.facts["call_arg_list"] == {(L(2), 0, L(3))}
        assert edb.facts["bool"] == {(L(3), "#t")}

    def test_conflation_program_shape(self):
        source = (CORPUS[15]).read_text()
        assert "if" in source  # 16_conflate_branches
        edb = extract_facts(read_program(source))
        assert len(edb.facts["let"]) == 2
        assert len(edb.facts["if"]) == 1
        assert len(edb.facts["call"]) == 2
        assert len(edb.facts["call_arg_list"]) == 2

    def test_exactly_one_top_exp_everywhere(self):
        for path in CORPUS:
            edb = extract_facts(read_program(path.read_text()))
            assert len(edb.facts["top_exp"]) == 1

    def test_round_trip_via_directory(self, tmp_path):
        edb = extract_facts(read_program((CORPUS[16]).read_text()))
        edb.to_dir(tmp_path / "facts")
        assert read_facts_dir(tmp_path / "facts") == facts_as_text(edb)

    def test_round_trip_every_corpus_program(self, tmp_path):
        for i, path in enumerate(CORPUS):
            edb = extract_facts(read_program(path.read_text()))
            edb.to_dir(tmp_path / str(i))
            assert read_facts_dir(tmp_path / str(i)) == facts_as_text(edb)

    def test_facts_files_hold_tab_separated_columns(self, tmp_path):
        extract_facts(read_program("(f #t 7)")).to_dir(tmp_path)
        text = {name: (tmp_path / f"{name}.facts").read_text() for name in EDB_SCHEMA}
        assert text["call"] == "e0\te1\te2\n"
        assert text["call_arg_list"] == "e2\t0\te3\ne2\t1\te4\n"
        assert text["var"] == "e1\tf\n"
        assert text["bool"] == "e3\t#t\n"
        assert text["num"] == "e4\t7\n"
        assert text["lambda"] == ""

    def test_label_determinism_byte_for_byte(self, tmp_path):
        source = (CORPUS[17]).read_text()
        for run in ("a", "b"):
            extract_facts(read_program(source)).to_dir(tmp_path / run)
        for name in EDB_SCHEMA:
            a = (tmp_path / "a" / f"{name}.facts").read_bytes()
            b = (tmp_path / "b" / f"{name}.facts").read_bytes()
            assert a == b

    def test_every_id_exists_in_node_table(self):
        p = read_program((CORPUS[15]).read_text())
        edb = extract_facts(p)
        for rows in edb.facts.values():
            for row in rows:
                for col in row:
                    if isinstance(col, Label):
                        assert col in p.nodes


class TestFreeVars:
    def test_var_is_free_in_itself(self):
        p = read_program("x")
        assert free_vars(p)[p.root] == ("x",)

    def test_sole_lambda_param_removed(self):
        p = read_program("(lambda (x) x)")
        assert free_vars(p)[p.root] == ()

    def test_free_through_nested_lambdas(self):
        p = read_program("(lambda (w) (w z z))")
        assert free_vars(p)[p.root] == ("z",)

    def test_multi_param_lambda_keeps_param_free(self):
        # With two parameters the per-position disequality can always be
        # satisfied by the *other* parameter, so the bound name escapes.
        p = read_program("(lambda (x y) x)")
        assert free_vars(p)[p.root] == ("x~1",)

    def test_let_body_not_filtered(self):
        p = read_program("(let ((x 1)) x)")
        assert free_vars(p)[p.root] == ("x~1",)

    def test_let_binding_expr_filters_own_name(self):
        # x's own binding expression may not export x, but it exports y.
        p = read_program("(let ((x y)) 1)")
        assert free_vars(p)[p.root] == ("y",)

    def test_set_target_not_a_use(self):
        p = read_program("(set! y 5)")
        assert free_vars(p)[p.root] == ()

    def test_sorted_tuple_independent_of_hashing(self):
        p = read_program("(lambda (w) (w z y (x w)))")
        assert free_vars(p)[p.root] == ("x", "y", "z")

    def test_every_label_read_is_greater(self):
        """``free_vars`` makes one pass in descending label order, so each
        label a node reads must be greater than its own: a sub-expression,
        a list marker, or, for a marker, an element of its list."""
        texts = [path.read_text() for path in CORPUS] + [
            gen_vanhorn(),
            *(gen_mcfa_worst(GenSpec(n, k, p)) for n, k, p in GENERATED_CELLS),
            "(let ((a 1) (b (lambda (x y) (+ x y))))"
            " (b a (call/cc (lambda (k) (set! a (if #t k 0))))))",
        ]
        for text in texts:
            p = read_program(text)
            assert list(p.nodes) == [L(n) for n in range(len(p.nodes))]
            for label, node in p.nodes.items():
                for read in labels_read(p, node):
                    assert int(read.args[0][1:]) > int(label.args[0][1:]), (text, label, read)


GENERATED_CELLS = [(1, 1, 0), (4, 1, 0), (4, 2, 1), (8, 1, 2), (16, 3, 1), (32, 4, 0), (64, 2, 2)]


def labels_read(p, node) -> list[Label]:
    """The labels of ``node``'s sub-expressions and list markers, or of the
    elements of the list that ``node`` marks."""
    if isinstance(node, ListMarkerNode):
        owner = p.nodes[node.owner]
        if isinstance(owner, LetNode):
            return [expr for _, expr in owner.bindings]
        return list(getattr(owner, "args", ()))  # a parameter list has none
    return [value for name, value in node._asdict().items() if name != "label" and isinstance(value, Label)]
