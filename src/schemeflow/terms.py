"""Interned domain terms shared by both evaluation paths.

Every label, context, address, abstract value, and continuation frame is a
hash-consed ("interned") immutable term: constructing the same shape twice
returns the same object, so equality is identity and terms can be used as
dictionary keys at pointer speed.  Each term carries a ``tag`` (its canonical
constructor name) and an ``args`` tuple.  Terms have no named fields: every
reader — the rule engine, the serializer, the machine — destructures
``args`` by position and rebuilds terms by tag.  The layout of each
constructor is stated where it is used: the ``T(tag, ...)`` patterns of the
analysis rules and the ``... = frame.args`` unpacks of the machine.

The canonical textual form of a term is an s-expression such as
``(Closure e4 (Context e7))``; see :func:`render`.

Each class interns through its ``_pool``, a dict from args tuples to terms
whose ``__missing__`` builds the term on a miss.  Package code subscripts
the pool, as in ``KAddr._pool[sub, ctx]`` or ``Number._pool[v,]``, so
finding a term that exists is one dict lookup with no Python frame; calling
the class, ``KAddr(sub, ctx)``, returns the same term through ``__new__``
at the cost of a call.

Because a term is immutable and shared, two pure functions of it are fixed
on the term itself when it is interned: its rendered text, joined from its
args' texts (args are interned first), and a ``PrimVal``'s nesting depth.
Both live in slots on the term, so they are exactly as global as the intern
pools, and reading them is one attribute access.

A text longer than ``INTERNED_TEXT_MAX`` is built on the term's first render
instead.  Without widening, a value chain can grow until the fact ceiling
stops the run; texts fixed at interning would take memory quadratic in its
depth, for a run that writes nothing.  At the default widen depth every
text is far shorter.
"""

from __future__ import annotations

from typing import ClassVar

# Registry of constructor tag -> class, used to rebuild terms generically.
TERM_TYPES: dict[str, type["Term"]] = {}

# Longest text fixed at interning (see the module docstring).
INTERNED_TEXT_MAX = 256


class _Pool(dict):
    """One class's interned terms, keyed by their args tuples.  Looking up
    args that no term has yet builds and keeps that term."""

    __slots__ = ("cls",)

    def __init__(self, cls: type["Term"]) -> None:
        super().__init__()
        self.cls = cls

    def __missing__(self, args: tuple) -> "Term":
        # A key that is not a tuple is a missing comma, as in
        # ``Number._pool[v]``: it would intern a term of the wrong shape.
        if type(args) is not tuple:
            raise TypeError(f"{self.cls.__name__} args must be a tuple, got {args!r}")
        cls = self.cls
        term = object.__new__(cls)
        term.args = args
        term._text = _interned_text(cls, args)
        term._interned()
        self[args] = term
        return term


class Term:
    """Base class for interned terms.

    Subclasses set ``tag`` (the canonical constructor name).  Instances are
    interned per-class: ``cls._pool[args]``, and ``cls(*args)`` through it,
    return the existing object when one with equal args was built before.
    Equality and hashing are therefore the inherited identity semantics.

    ``_text`` is :func:`render` of the term, set at interning, or None until
    the first render if it is longer than ``INTERNED_TEXT_MAX``; ``_depth``
    is the ``PrimVal`` nesting depth (non-PrimVal terms are 0, each PrimVal
    adds 1), 0 here and a slot filled at interning in ``PrimVal``.  Every
    subclass declares ``__slots__``, so no term carries an instance dict.
    """

    __slots__ = ("args", "_text")
    tag: ClassVar[str] = "?"
    _pool: ClassVar[_Pool]
    _depth: ClassVar[int] = 0

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        cls._pool = _Pool(cls)
        if cls.tag in TERM_TYPES:
            raise ValueError(f"duplicate term tag {cls.tag!r}")
        TERM_TYPES[cls.tag] = cls

    def __new__(cls, *args):
        return cls._pool[args]

    def _interned(self) -> None:
        """Fill memo slots that depend only on ``args``; runs once per term."""

    def __repr__(self) -> str:
        return render(self)

    # Interned terms must never be copied into fresh objects.
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


# ---------------------------------------------------------------------------
# Canonical rendering
# ---------------------------------------------------------------------------


def render(x: object) -> str:
    """Canonical textual form of a term or scalar column value.

    Labels render bare (``e7``); every other term renders as a parenthesized
    s-expression of its tag and rendered args, e.g. ``(Context e7 e3)`` or
    ``(Closure e4 (Context e7))``.  Strings render as themselves and ints in
    decimal, so the form is flat, readable, and totally ordered as text.

    A term's text is fixed when the term is interned, so rendering a term
    is one attribute read; a text too long for that is built here, from the
    args' texts, and kept on the term (see :func:`_build_text`).
    """
    if isinstance(x, Term):
        text = x._text
        if text is None:
            text = _build_text(x)
        return text
    if isinstance(x, bool):  # guard: bools are ints in Python
        raise TypeError("raw Python bool is not a term column")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, str):
        return x
    raise TypeError(f"cannot render {x!r}")


def _build_text(term: Term) -> str:
    """Build and keep the texts missing on ``term`` and its sub-terms,
    args before the terms that hold them, so that a term has a text only
    when its args have theirs.  Iterative: a value chain can be deeper than
    the recursion limit."""
    pending = [term]
    while pending:
        t = pending[-1]
        missing = [a for a in t.args if isinstance(a, Term) and a._text is None]
        if missing:
            pending.extend(missing)
            continue
        pending.pop()
        if t._text is None:
            t._text = f"({t.tag} {' '.join(map(render, t.args))})"
    return term._text


def _interned_text(cls: type[Term], args: tuple) -> str | None:
    """The text of a term being interned, joined from its args' texts; None
    when an arg has none yet or the text is longer than ``INTERNED_TEXT_MAX``."""
    if cls is Label:
        return args[0]
    texts = [a._text if isinstance(a, Term) else render(a) for a in args]
    if None in texts:
        return None
    text = f"({' '.join([cls.tag, *texts])})"
    return text if len(text) <= INTERNED_TEXT_MAX else None


class Label(Term):
    """One source-expression occurrence, e.g. ``e7``.  Atomic in renderings."""

    __slots__ = ()
    tag = "id"


class Context(Term):
    """A sequence of at most m labels; ``args`` are the labels themselves."""

    __slots__ = ()
    tag = "Context"


EMPTY_CONTEXT = Context()


class VAddr(Term):
    __slots__ = ()
    tag = "VAddress"


class KAddr(Term):
    __slots__ = ()
    tag = "KAddress"


# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------


class Number(Term):
    __slots__ = ()
    tag = "Number"


class Bool(Term):
    __slots__ = ()
    tag = "Bool"


class Closure(Term):
    __slots__ = ()
    tag = "Closure"


class KontRef(Term):
    """A captured continuation: a first-class reference to a KAddr."""

    __slots__ = ()
    tag = "Kont"


class PrimVal(Term):
    __slots__ = ("_depth",)
    tag = "PrimVal"

    def _interned(self) -> None:
        self._depth = 1 + max(self.args[1]._depth, self.args[2]._depth)


class NumTop(Term):
    """Widening token standing for any value cut off below the depth limit."""

    __slots__ = ()
    tag = "NumTop"


NUM_TOP = NumTop()


# ---------------------------------------------------------------------------
# Continuation frames
# ---------------------------------------------------------------------------


class MT(Term):
    __slots__ = ()
    tag = "MT"


MT_FRAME = MT()


class IfK(Term):
    __slots__ = ()
    tag = "If"


class SetK(Term):
    __slots__ = ()
    tag = "Set"


class CallccK(Term):
    __slots__ = ()
    tag = "Callcc"


class LetK(Term):
    __slots__ = ()
    tag = "Let"


class ArgK(Term):
    __slots__ = ()
    tag = "Arg"


class FnK(Term):
    __slots__ = ()
    tag = "Fn"


class Prim1K(Term):
    __slots__ = ()
    tag = "Prim1"


class Prim2K(Term):
    __slots__ = ()
    tag = "Prim2"


# ---------------------------------------------------------------------------
# Context allocation
# ---------------------------------------------------------------------------


def make_context(call_label: Label, ctx: Context, m: int) -> Context:
    """Prepend ``call_label`` to ``ctx`` and keep the first ``m`` labels."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return EMPTY_CONTEXT
    return Context._pool[(call_label, *ctx.args)[:m]]


# ---------------------------------------------------------------------------
# Widening
# ---------------------------------------------------------------------------


def _cut(v: Term, remaining: int) -> Term:
    """``v`` with each sub-term ``remaining`` levels below it replaced by
    NumTop.  A sub-term shallower than the levels left is kept as it is, so
    only sub-terms at least that deep are rebuilt, each once per level it
    occurs at.  Iterative: a widen depth can exceed the recursion limit."""
    cut: dict[tuple[Term, int], Term] = {}
    pending = [(v, remaining)]
    while pending:
        key = pending[-1]
        t, left = key
        if key in cut:
            pending.pop()
        elif t._depth < left:
            cut[key] = t
            pending.pop()
        elif left == 0:
            cut[key] = NUM_TOP
            pending.pop()
        else:  # a PrimVal, as every other term has depth 0
            op, v1, v2 = t.args
            k1, k2 = (v1, left - 1), (v2, left - 1)
            if k1 in cut and k2 in cut:
                cut[key] = PrimVal._pool[op, cut[k1], cut[k2]]
                pending.pop()
            else:
                pending += (k for k in (k2, k1) if k not in cut)
    return cut[v, remaining]


def widen_value(v: Term, depth_limit: int | None) -> Term:
    """Bound PrimVal nesting at ``depth_limit``.

    Values whose nesting depth is within the limit are returned unchanged.
    A too-deep value is rebuilt with every sub-term sitting at the limit
    depth replaced by NumTop, which makes the set of constructible values
    finite for a fixed program.  ``None`` disables widening.  Idempotent.
    """
    if depth_limit is None:
        return v
    if depth_limit < 1:
        raise ValueError("depth_limit must be >= 1 (or None to disable)")
    if v._depth <= depth_limit:
        return v
    return _cut(v, depth_limit)
