"""Canonical rendering, sorting, result directories, and run reports."""

from __future__ import annotations

import io
import json
from operator import attrgetter

import pytest
from hypothesis import example, given, strategies as st

from schemeflow.errors import FactCeilingExceeded, ValidationError
from schemeflow.frontend import extract_facts
from schemeflow.machine import run_fixpoint
from schemeflow.serialize import (
    OUTPUT_RELATIONS,
    RunReport,
    _result_lines,
    relation_text,
    render_row,
    sorted_lines,
    write_result_dir,
    write_result_json,
)
from schemeflow.terms import (
    ArgK,
    Bool,
    CallccK,
    Closure,
    Context,
    EMPTY_CONTEXT,
    FnK,
    INTERNED_TEXT_MAX,
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
    SetK,
    TERM_TYPES,
    Term,
    VAddr,
    make_context,
    render,
    widen_value,
)

from conftest import config

e0, e1, e2, e3, e4, e5 = (Label(f"e{i}") for i in range(6))
CTX1 = Context(e4)
AK = KAddr(e2, CTX1)

REPRESENTATIVES = [
    EMPTY_CONTEXT,
    Context(e4, e5),
    VAddr("x~1", CTX1),
    KAddr(e2, EMPTY_CONTEXT),
    Number(-42),
    Bool("#f"),
    Closure(e3, CTX1),
    KontRef(AK),
    PrimVal("+", Number(1), NUM_TOP),
    NUM_TOP,
    MT_FRAME,
    IfK(e1, e2, CTX1, AK),
    SetK(VAddr("y~2", EMPTY_CONTEXT), AK),
    CallccK(CTX1, AK),
    LetK(VAddr("m~3", CTX1), e5, CTX1, AK),
    ArgK(e3, CTX1, EMPTY_CONTEXT, AK),
    FnK(Closure(e3, CTX1), 1, CTX1, AK),
    Prim1K("+", e5, CTX1, AK),
    Prim2K("*", Number(7), AK),
]


class TestRendering:
    def test_frozen_forms(self):
        assert render(Context(e4, e5)) == "(Context e4 e5)"
        assert render(VAddr("x~1", CTX1)) == "(VAddress x~1 (Context e4))"
        assert render(KontRef(AK)) == "(Kont (KAddress e2 (Context e4)))"
        assert (
            render(FnK(Closure(e3, CTX1), 1, CTX1, AK))
            == "(Fn (Closure e3 (Context e4)) 1 (Context e4) (KAddress e2 (Context e4)))"
        )

    def test_render_row(self):
        row = (e0, EMPTY_CONTEXT, KAddr(e0, EMPTY_CONTEXT))
        assert render_row(row) == ("e0", "(Context)", "(KAddress e0 (Context))")

    def test_every_constructor_has_a_schema(self):
        # The tag that render writes first names the class the engine
        # rebuilds terms of that shape with.
        for term in REPRESENTATIVES:
            assert render(term).startswith(f"({term.tag}")
            assert TERM_TYPES[term.tag] is type(term)


def reference_relation_text(rows) -> str:
    """The relation writer that sorts tuples of rendered columns."""
    return "".join("\t".join(r) + "\n" for r in sorted(render_row(r) for r in rows))


def reference_json_text(relations) -> str:
    doc = {
        name: [list(r) for r in sorted(render_row(r) for r in relations.get(name, set()))]
        for name in OUTPUT_RELATIONS
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def json_text(relations) -> str:
    """The text ``write_result_json`` streams."""
    out = io.StringIO()
    write_result_json(relations, out)
    return out.getvalue()


# Identifiers hold no space, tab, CR, newline, parentheses or '~' of their
# own (the reader's rules); these also need JSON escapes, sort below '\t',
# or are prefixes of one another.  The backslashes, the literal escape texts
# and the control characters the reader accepts test the escape-once JSON
# writer: a backslash before a 't' or 'n' must not read as a separator.
NAMES = ["x", "x~1", "x~12", "λ~3", "a\\b", "a\\tb", 'q"', "c\x01", "c\x01~2", "\x00~1"]
NAMES += ["a\\", "a\\nb", "a\\\\tb", "\\u0009", "\x0b", "\x1f"]
names = st.one_of(
    st.sampled_from(NAMES),
    st.builds(
        lambda base, n: base if n is None else f"{base}~{n}",
        st.text(st.characters(blacklist_characters=" \t\r\n()[];~"), min_size=1, max_size=4),
        st.none() | st.integers(0, 120),
    ),
)
labels = st.integers(0, 25).map(lambda i: Label(f"e{i}"))
contexts = st.lists(labels, max_size=2).map(lambda frames: Context(*frames))
kaddrs = st.builds(KAddr, labels, contexts)
values = st.recursive(
    st.one_of(
        st.integers(-15, 15).map(Number),
        st.sampled_from([NUM_TOP, Bool("#t"), Bool("#f")]),
        st.builds(Closure, labels, contexts),
        kaddrs.map(KontRef),
    ),
    lambda inner: st.builds(PrimVal, st.sampled_from(["+", "cons"]), inner, inner),
    max_leaves=3,
)
columns = st.one_of(labels, contexts, kaddrs, values, st.builds(VAddr, names, contexts))
relation = st.integers(1, 3).flatmap(lambda k: st.sets(st.tuples(*[columns] * k), max_size=8))
relation_sets = st.dictionaries(st.sampled_from(OUTPUT_RELATIONS), relation, max_size=3)

PREFIX_ROWS = {(VAddr(x, EMPTY_CONTEXT), Label(f"e{i}")) for x in NAMES for i in (1, 12)}


def reference_text(x) -> str:
    """The canonical form, computed from the term's structure alone."""
    if isinstance(x, Label):
        return x.args[0]
    if isinstance(x, Term):
        return "(" + " ".join([x.tag, *map(reference_text, x.args)]) + ")"
    return str(x)


def subterms(x):
    if isinstance(x, Term):
        yield x
        for arg in x.args:
            yield from subterms(arg)


class TestTermText:
    """Each term's text is fixed when it is interned, whichever way it was
    built: by a constructor, by widening, or by context allocation.  Only a
    text longer than ``INTERNED_TEXT_MAX`` waits for the term's first render."""

    @given(columns, labels, contexts, st.integers(0, 3), st.integers(1, 3))
    def test_text_is_the_reference_rendering(self, term, label, ctx, m, limit):
        for built in (term, widen_value(term, limit), make_context(label, ctx, m)):
            for sub in subterms(built):
                assert sub._text == reference_text(sub)

    def test_every_interned_term_has_its_text_unless_too_long(self):
        # One level per term, so by induction over the args, which were
        # interned first: a text is None only when the reference text is too
        # long, and then until a render builds it.  Rendering such terms here
        # could take memory quadratic in their depth.
        for cls in TERM_TYPES.values():
            for term in cls._pool.values():
                if cls is Label:
                    assert term._text == term.args[0]
                    continue
                texts = [a._text if isinstance(a, Term) else render(a) for a in term.args]
                if None in texts:
                    assert term._text is None
                    continue
                text = "(" + " ".join([term.tag, *texts]) + ")"
                assert term._text == text or (term._text is None and len(text) > INTERNED_TEXT_MAX)

    @pytest.mark.parametrize("fmt, leaf", [("tsv", -701), ("json", -702)])
    def test_a_long_text_is_built_on_first_render(self, fmt, leaf, tmp_path):
        # Terms of their own, so that no earlier render built their texts.
        name = f"{fmt}~" + "9" * INTERNED_TEXT_MAX
        value = Number(leaf)
        for _ in range(INTERNED_TEXT_MAX // 10):
            value = PrimVal("+", value, Number(2))
        relations = {"flow_ae": {(VAddr(name, CTX1), e1)}, "state_a": {(value, AK)}}
        long_terms = [VAddr(name, CTX1), value]
        assert [term._text for term in long_terms] == [None, None]
        write_result_dir(relations, tmp_path, format=fmt)
        if fmt == "json":
            assert (tmp_path / "result.json").read_text() == reference_json_text(relations)
        else:
            for rel, rows in relations.items():
                assert (tmp_path / f"{rel}.tsv").read_text() == reference_relation_text(rows)
        assert [term._text for term in long_terms] == list(map(reference_text, long_terms))

    def test_a_run_stopped_at_the_ceiling_fixes_no_long_text(self, corpus_programs):
        cfg = config(widen_depth=None, primval_truthiness="appendix-exact", fact_ceiling=30_000)
        with pytest.raises(FactCeilingExceeded):
            run_fixpoint(corpus_programs["18_loop_widen"], cfg)
        value = max(PrimVal._pool.values(), key=attrgetter("_depth"))
        assert value._depth > 1000
        while value._depth > INTERNED_TEXT_MAX // 10:
            assert value._text is None
            value = max(value.args[1:], key=attrgetter("_depth"))


class TestSorting:
    def test_sorted_lines_follow_the_rendered_tuple_order(self):
        rows = {(Number(i % 5), KAddr(Label(f"e{i}"), EMPTY_CONTEXT)) for i in range(20)}
        assert sorted_lines(rows) == ["\t".join(r) for r in sorted(render_row(r) for r in rows)]

    def test_relation_text_is_sorted_and_newline_terminated(self):
        rows = {(Number(2), AK), (Number(1), AK)}
        text = relation_text(rows)
        assert text.startswith("(Number 1)\t")
        assert text.endswith("\n")
        assert len(text.splitlines()) == 2
        assert relation_text(set()) == ""

    @given(relation_sets)
    @example({name: PREFIX_ROWS if name == "flow_ae" else set() for name in OUTPUT_RELATIONS})
    @example({name: {row[::-1] for row in PREFIX_ROWS} for name in OUTPUT_RELATIONS})
    def test_writers_equal_the_tuple_sort_and_json_dumps(self, relations):
        for rows in relations.values():
            assert relation_text(rows) == reference_relation_text(rows)
            assert relation_text(rows, _result_lines) == reference_relation_text(rows)
        assert json_text(relations) == reference_json_text(relations)

    def test_corpus_outputs_equal_the_reference_writers(self, corpus_programs):
        for program in corpus_programs.values():
            for rows in extract_facts(program).facts.values():
                assert relation_text(rows) == reference_relation_text(rows)
            for m in (0, 1, 2):
                relations = run_fixpoint(program, config(m=m)).relations
                for name in OUTPUT_RELATIONS:
                    assert relation_text(relations[name]) == reference_relation_text(relations[name])
                assert json_text(relations) == reference_json_text(relations)


class TestResultDirs:
    def relations(self):
        return {
            "state_e": {(e0, EMPTY_CONTEXT, KAddr(e0, EMPTY_CONTEXT))},
            "state_a": {(Number(42), KAddr(e0, EMPTY_CONTEXT))},
            "stored_val": set(),
            "stored_kont": {(KAddr(e0, EMPTY_CONTEXT), MT_FRAME)},
            "flow_aa": set(),
            "flow_ae": set(),
            "flow_ea": {(e0, Number(42))},
            "flow_ee": set(),
        }

    def rendered(self):
        return {name: {render_row(r) for r in rows} for name, rows in self.relations().items()}

    def test_tsv_round_trip(self, tmp_path):
        write_result_dir(self.relations(), tmp_path)
        loaded = {
            name: {tuple(line.split("\t")) for line in (tmp_path / f"{name}.tsv").read_text().splitlines()}
            for name in OUTPUT_RELATIONS
        }
        assert loaded == self.rendered()

    def test_json_round_trip(self, tmp_path):
        write_result_dir(self.relations(), tmp_path, format="json")
        doc = json.loads((tmp_path / "result.json").read_text())
        loaded = {name: {tuple(row) for row in rows} for name, rows in doc.items()}
        assert loaded == self.rendered()

    def test_empty_relation_writes_empty_file(self, tmp_path):
        write_result_dir(self.relations(), tmp_path)
        assert (tmp_path / "stored_val.tsv").read_text() == ""

    def test_json_document_shape(self):
        doc = json.loads(json_text(self.relations()))
        assert sorted(doc) == sorted(OUTPUT_RELATIONS)
        assert doc["state_a"] == [["(Number 42)", "(KAddress e0 (Context))"]]
        assert doc["stored_val"] == []

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_result_dir(self.relations(), tmp_path, format="csv")


class TestRunReport:
    def test_json_fields(self):
        report = RunReport(
            mode="analyze",
            program="x.scm",
            m=1,
            widen_depth=2,
            truthiness="both-branches",
            engine="seminaive",
            counts={"state_e": 3},
            rounds=7,
            peak_facts=40,
            duration_ms=1.25,
        )
        doc = json.loads(report.to_json())
        assert doc["mode"] == "analyze"
        assert doc["m"] == 1
        assert doc["counts"] == {"state_e": 3}
        assert doc["engine"] == "seminaive"

    @pytest.mark.parametrize(
        "widen_depth, counts, program",
        [(2, {"state_e": 3, "flow_aa": 0}, "x.scm"), (None, {}, 'λ dir/"q".scm')],
    )
    def test_text_is_that_of_the_indenting_encoder(self, widen_depth, counts, program):
        report = RunReport(
            mode="oracle",
            program=program,
            m=0,
            widen_depth=widen_depth,
            truthiness="appendix-exact",
            engine="worklist",
            counts=counts,
            duration_ms=0.125,
        )
        assert report.to_json() == json.dumps(report.__dict__, sort_keys=True, indent=2) + "\n"
