"""Core term model: interning, context allocation, widening, rendering,
and the per-term memo of rendered text and PrimVal depth."""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, strategies as st

from schemeflow.terms import (
    Bool,
    Closure,
    Context,
    EMPTY_CONTEXT,
    KAddr,
    KontRef,
    Label,
    MT_FRAME,
    NUM_TOP,
    Number,
    PrimVal,
    TERM_TYPES,
    Term,
    VAddr,
    make_context,
    render,
    widen_value,
)

e1, e2, e3, e4, e5, e7, e9 = (Label(f"e{i}") for i in (1, 2, 3, 4, 5, 7, 9))


class TestInterning:
    def test_equal_args_same_object(self):
        assert Number(4) is Number(4)
        assert Context(e7, e3) is Context(e7, e3)
        assert VAddr("x", EMPTY_CONTEXT) is VAddr("x", EMPTY_CONTEXT)

    def test_distinct_args_distinct_objects(self):
        assert Number(4) is not Number(5)
        assert Context(e7) is not Context(e3)

    def test_field_access(self):
        c = Closure(e4, Context(e7))
        assert c.args == (e4, Context(e7))
        assert Context(e7, e3).args == (e7, e3)

    def test_copy_returns_same_object(self):
        k = KAddr(e2, Context(e9))
        assert copy.copy(k) is k
        assert copy.deepcopy(k) is k

    def test_structurally_equal_terms_serialize_identically(self):
        a = PrimVal("+", Number(1), Number(2))
        b = PrimVal("+", Number(1), Number(2))
        assert a is b
        assert render(a) == render(b)

    @pytest.mark.parametrize(
        "cls, args",
        [
            (Number, (-9,)),
            (Bool, ("#t",)),
            (Context, ()),
            (Context, (e7, e3)),
            (KAddr, (e2, Context(e9))),
            (PrimVal, ("*", Number(3), NUM_TOP)),
        ],
        ids=lambda x: getattr(x, "__name__", None),
    )
    def test_calling_the_class_subscripts_its_pool(self, cls, args):
        assert cls(*args) is cls._pool[args]
        assert cls._pool[args].args == args

    def test_pool_interns_on_a_miss_only(self):
        args = ("pool~1", Context(e5))
        assert args not in VAddr._pool
        term = VAddr._pool[args]
        assert VAddr._pool[args] is term
        assert VAddr("pool~1", Context(e5)) is term
        assert term.args is args
        assert render(term) == "(VAddress pool~1 (Context e5))"

    @pytest.mark.parametrize("key", [-801, "pool~2", e4, ["pool~3"]], ids=["int", "str", "label", "list"])
    def test_pool_rejects_a_key_that_is_not_a_tuple(self, key):
        """``Number._pool[v]`` without its trailing comma is a TypeError
        and interns nothing."""
        sizes = {cls: len(cls._pool) for cls in TERM_TYPES.values()}
        with pytest.raises(TypeError):
            Number._pool[key]
        assert {cls: len(cls._pool) for cls in TERM_TYPES.values()} == sizes


class TestMakeContext:
    def test_prepend_under_capacity(self):
        assert make_context(e7, EMPTY_CONTEXT, 2) is Context(e7)

    def test_prepend_at_capacity_drops_oldest(self):
        assert make_context(e7, Context(e3, e1), 2) is Context(e7, e3)

    def test_m_zero_forces_empty(self):
        assert make_context(e7, Context(e3), 0) is EMPTY_CONTEXT

    def test_result_length_is_min(self):
        assert len(make_context(e7, EMPTY_CONTEXT, 2).args) == 1
        assert len(make_context(e7, Context(e3, e1), 2).args) == 2

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            make_context(e7, EMPTY_CONTEXT, -1)

    @given(st.integers(min_value=0, max_value=5), st.lists(st.integers(0, 9), max_size=6))
    def test_length_never_exceeds_m(self, m, frame_ids):
        ctx = Context(*(Label(f"e{i}") for i in frame_ids))
        out = make_context(e7, ctx, m)
        assert len(out.args) <= m
        assert len(out.args) == min(m, 1 + len(ctx.args))


class TestAllocators:
    def test_alloc_v_pairs(self):
        av = VAddr("z", Context(e4))
        assert av is VAddr("z", Context(e4))
        assert av.args == ("z", Context(e4))

    def test_alloc_k_pairs(self):
        ak = KAddr(e2, Context(e9))
        assert ak is KAddr(e2, Context(e9))
        assert ak.args == (e2, Context(e9))

    def test_distinct_ctx_distinct_address(self):
        assert KAddr(e2, Context(e9)) is not KAddr(e2, EMPTY_CONTEXT)
        assert VAddr("x", Context(e9)) is not VAddr("x", EMPTY_CONTEXT)


def _pv(*vals):
    out = vals[0]
    for v in vals[1:]:
        out = PrimVal("+", out, v)
    return out


def _chain(depth: int, op: str) -> Term:
    """A PrimVal chain ``depth`` levels deep, built iteratively; the deeper
    operand alternates between the two positions."""
    value = Number(-1)
    for i in range(depth):
        leaf = Number(i % 2)
        value = PrimVal(op, value, leaf) if i % 2 else PrimVal(op, leaf, value)
    return value


def _deeper(value: PrimVal) -> Term:
    _, a, b = value.args
    return a if isinstance(a, PrimVal) else b


def _widen_chain_reference(top: PrimVal, limit: int) -> Term:
    """``widen_value`` of a chain deeper than ``limit``: keep the top
    ``limit`` levels and put NumTop for both operands of the last one."""
    spine = [top]
    while len(spine) < limit:
        spine.append(_deeper(spine[-1]))
    value = PrimVal(spine[-1].args[0], NUM_TOP, NUM_TOP)
    for t in reversed(spine[:-1]):
        op, a, b = t.args
        value = PrimVal(op, value, b) if isinstance(a, PrimVal) else PrimVal(op, a, value)
    return value


def _render_chain_reference(top: Term) -> str:
    heads, tails = [], []
    value = top
    while isinstance(value, PrimVal):
        op, a, b = value.args
        if isinstance(a, PrimVal):
            heads.append(f"(PrimVal {op} ")
            tails.append(f" {render(b)})")
        else:
            heads.append(f"(PrimVal {op} {render(a)} ")
            tails.append(")")
        value = _deeper(value)
    return "".join(heads) + render(value) + "".join(reversed(tails))


class TestWidening:
    def test_deep_chain_is_cut_without_recursion(self):
        deep = _chain(5_000, "+")
        assert deep._depth == 5_000
        for limit in (3, 4_000):
            widened = widen_value(deep, limit)
            assert widened is _widen_chain_reference(deep, limit)
            assert widened._depth == limit
        assert widen_value(deep, 5_000) is deep

    def test_non_primval_unchanged(self):
        assert widen_value(Bool("#t"), 2) is Bool("#t")

    def test_within_limit_unchanged(self):
        pv = PrimVal("+", Number(1), Number(2))
        assert widen_value(pv, 2) is pv

    def test_cut_below_limit(self):
        deep = PrimVal(
            "+",
            PrimVal("+", PrimVal("+", Number(1), Number(2)), Number(3)),
            Number(4),
        )
        expect = PrimVal("+", PrimVal("+", NUM_TOP, NUM_TOP), Number(4))
        assert widen_value(deep, 2) is expect

    def test_idempotent_on_example(self):
        deep = PrimVal(
            "+",
            PrimVal("+", PrimVal("+", Number(1), Number(2)), Number(3)),
            Number(4),
        )
        once = widen_value(deep, 2)
        assert widen_value(once, 2) is once

    def test_none_disables(self):
        deep = _pv(*(Number(i) for i in range(8)))
        assert widen_value(deep, None) is deep

    def test_depth_limit_below_one_rejected(self):
        with pytest.raises(ValueError):
            widen_value(Number(1), 0)

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=9))
    def test_idempotent_and_bounded(self, limit, leaves):
        deep = _pv(*(Number(i) for i in range(leaves)))
        once = widen_value(deep, limit)
        assert widen_value(once, limit) is once
        assert once._depth <= limit


class TestRender:
    def test_label_bare(self):
        assert render(e7) == "e7"

    def test_nullary_term(self):
        assert render(EMPTY_CONTEXT) == "(Context)"
        assert render(MT_FRAME) == "(MT)"
        assert render(NUM_TOP) == "(NumTop)"

    def test_nested_terms(self):
        assert render(Context(e7, e3)) == "(Context e7 e3)"
        assert render(Closure(e4, Context(e7))) == "(Closure e4 (Context e7))"
        assert (
            render(KontRef(KAddr(e5, EMPTY_CONTEXT))) == "(Kont (KAddress e5 (Context)))"
        )
        assert render(VAddr("x", EMPTY_CONTEXT)) == "(VAddress x (Context))"

    def test_scalars(self):
        assert render(-42) == "-42"
        assert render("+") == "+"

    def test_python_bool_rejected(self):
        with pytest.raises(TypeError):
            render(True)

    def test_deep_chain_renders_without_recursion(self):
        # Rendering keeps the text of every term on the chain, so memory
        # grows with the square of the depth: 1,200 levels, past the default
        # recursion limit, keep about 16 MB.
        deep = _chain(1_200, "-")
        assert render(deep) == _render_chain_reference(deep)
        value = deep
        while isinstance(value, PrimVal):
            assert value._text is not None
            value = _deeper(value)


# ---------------------------------------------------------------------------
# The memo: rendered text and PrimVal depth are cached on interned terms
# ---------------------------------------------------------------------------

_labels = st.integers(0, 9).map(lambda i: Label(f"e{i}"))
_contexts = st.lists(_labels, max_size=3).map(lambda frames: Context(*frames))
_leaves = st.one_of(
    st.integers(-3, 9).map(Number),
    st.just(NUM_TOP),
    st.builds(Closure, _labels, _contexts),
    _contexts,
)
_trees = st.recursive(
    _leaves,
    lambda kids: st.builds(PrimVal, st.sampled_from(["+", "-", "*"]), kids, kids),
    max_leaves=16,
)


def _reference_render(x) -> str:
    if isinstance(x, Label):
        return x.args[0]
    if isinstance(x, Term):
        return "(" + " ".join([x.tag, *map(_reference_render, x.args)]) + ")"
    return str(x)


def _reference_depth(x) -> int:
    if isinstance(x, PrimVal):
        return 1 + max(_reference_depth(x.args[1]), _reference_depth(x.args[2]))
    return 0


def _reference_cut(x, remaining: int):
    if remaining == 0:
        return NUM_TOP
    if isinstance(x, PrimVal):
        op, a, b = x.args
        return PrimVal(op, _reference_cut(a, remaining - 1), _reference_cut(b, remaining - 1))
    return x


class TestMemo:
    @given(_trees)
    def test_render_matches_reference_and_is_cached(self, t):
        expect = _reference_render(t)
        first = render(t)
        assert first == expect
        assert render(t) is first
        assert render(t) == expect

    @given(_trees)
    def test_depth_matches_reference(self, t):
        assert t._depth == _reference_depth(t)

    @given(_trees, st.integers(min_value=1, max_value=6))
    def test_widen_returns_shallow_values_unchanged(self, t, limit):
        if _reference_depth(t) <= limit:
            assert widen_value(t, limit) is t
        else:
            assert widen_value(t, limit)._depth == limit

    @given(_trees, st.integers(min_value=1, max_value=6))
    def test_widen_matches_the_recursive_cut(self, t, limit):
        expect = t if _reference_depth(t) <= limit else _reference_cut(t, limit)
        assert widen_value(t, limit) is expect

    @pytest.mark.parametrize("tag", sorted(TERM_TYPES))
    def test_fields_read_their_args_and_no_instance_dict(self, tag):
        # Constructors check no arity; three args are enough for PrimVal.
        args = tuple(Number(1000 + i) for i in range(3))
        term = TERM_TYPES[tag](*args)
        assert term.args == args
        assert not hasattr(term, "__dict__")
