"""Worklist abstract machine with a global store — the second analyzer.

This implements the eval/apply transition system directly over the labeled
program: configurations are either ⟨expression, context, continuation
address⟩ or ⟨value, continuation address⟩, and the value/continuation
stores are global join-semilattices.  Every transition mirrors one
deductive rule of the analysis module head-for-head (flow edges included),
so for any program and configuration the two paths must produce identical
relation sets — that equality is the core differential test.

The transitions are two tables of plain functions: ``_EVAL_RULES`` maps
each expression node class to its eval transition and its rule name, and
``_FRAMES`` maps each continuation-frame class to its apply transition, its
rule name (for ``Callcc`` and ``Fn`` frames a function of the value and the
frame) and the number of fields the transition unpacks; the halt frame maps
to a no-op.  A ``state_e`` row only ever names an expression, so operator
and list-marker labels have none.  ``_EVAL`` and ``_APPLY`` keep the
transitions alone, and their traced copies write each rule instance's trace
line and then fire it; a machine picks the untraced or the traced pair once,
when it is built.  The first argument of a transition is always
a ``Machine``: the transition reads the program, the configuration and the
value store where the machine keeps them, and hands every fact it derives
to the machine's ``emit``.  ``recheck`` is a run of the same machine over a
finished result, on a ``Machine`` whose ``emit`` raises unless the fact is
already present: ``start`` checks the premises (the ``freevar`` rows and
the injected root facts), then every result row goes through its relation's
handler, store rows first.  Each transition and each join is thus defined
once for both.

A group of facts that several transitions emit is emitted by one helper:
``_eval_sub`` (evaluate a sub-expression under a new frame, from an eval
transition or from ``_apply_arg``/``_apply_prim1``), ``_arrive`` (an atomic
expression's value) and ``_enter`` (closure entry, from ``_apply_fn`` and
``_apply_callcc``).  The analysis builds the same head groups with helpers
of the same names.

The driver is event-based: each newly added fact (state, store entry, or
context copy) is an event, handled once by the handler that
``Machine.HANDLERS`` keys by its relation, which joins it against the
facts already handled, so every rule instance fires exactly once no matter
the order.  A store row that nothing joins yet is handled by ``emit``
itself: a ``stored_val`` row whose address has no reader and no copy
target, or a ``stored_kont`` row whose address has no handled value, goes
straight into its store, and whatever joins it later reads the store.
Every event row counts as a step either way.  The final relation sets are
order-independent because each emission depends only on the joined pair,
never on driver state.

The continuation store keeps each address's frames in groups: the frames
of one class that differ only in their last field, the continuation
address.  A value fires each group once.  The apply transition takes the
group's frames, derives what their shared fields give once (a ``Prim2``'s
widened value, an ``Arg``'s sub-evaluations, a closure entry's binding and
copy), and the heads that name the continuation address once per frame.
The traced tables fire each frame of a group on its own, after its trace
line.

A ``let`` body's ``state_e`` and a ``set!``'s ``state_a((Number -42), …)``
read only the frame.  The handlers emit these ``_HEADS`` once per
(address, frame), just before the frame's first firing: that is where its
row is first new if every firing emits it.  ``_apply_let`` and
``_apply_prim2`` emit their flow edge only if its relation lacks it.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, ClassVar, Sequence

from schemeflow.analysis import AnalysisConfig, AnalysisResult, IDB_SCHEMA
from schemeflow.errors import FactCeilingExceeded, ValidationError
from schemeflow.frontend import (
    BoolNode,
    CallNode,
    CallccNode,
    IfNode,
    LabeledProgram,
    LambdaNode,
    LetNode,
    ListMarkerNode,
    NumNode,
    PrimCallNode,
    SetNode,
    VarNode,
    extract_facts,
    free_vars,
)
from schemeflow.terms import (
    ArgK,
    Bool,
    CallccK,
    Closure,
    Context,
    EMPTY_CONTEXT,
    FnK,
    IfK,
    KAddr,
    KontRef,
    Label,
    LetK,
    MT,
    MT_FRAME,
    Number,
    PrimVal,
    Prim1K,
    Prim2K,
    SetK,
    Term,
    VAddr,
    make_context,
    render,
    widen_value,
)

# ---------------------------------------------------------------------------
# Transitions (each derived fact goes to ``s.emit(relation, row)``)
# ---------------------------------------------------------------------------
#
# The first argument ``s`` of every transition is a ``Machine``; ``recheck``'s
# is one whose ``emit`` checks instead of adding.  A transition reads its
# ``program``, ``cfg`` and ``vstore`` and hands each fact to its ``emit``.


def _peek(s, e: Label, ctx: Context) -> Context:
    """Emit and return the context that the form at ``e`` allocates."""
    ectx = make_context(e, ctx, s.cfg.m)
    s.emit("peek_ctx", (e, ctx, ectx))
    return ectx


def _eval_sub(emit, src: Term, sub: Label, ctx: Context, frame: Term, flow: str) -> KAddr:
    """Evaluate ``sub`` in ``ctx`` under ``frame``; ``src`` flows into it
    through the relation ``flow``.  Returns the frame's address."""
    ka = KAddr._pool[sub, ctx]
    emit("state_e", (sub, ctx, ka))
    emit("stored_kont", (ka, frame))
    emit(flow, (src, sub))
    return ka


def _arrive(emit, e: Label, val: Term, ak: KAddr) -> None:
    """The atomic expression at ``e`` evaluates to ``val`` at ``ak``."""
    emit("state_a", (val, ak))
    emit("flow_ea", (e, val))


def _eval_num(s, node: NumNode, e: Label, ctx: Context, ak: KAddr) -> None:
    _arrive(s.emit, e, Number._pool[node.value,], ak)


def _eval_bool(s, node: BoolNode, e: Label, ctx: Context, ak: KAddr) -> None:
    _arrive(s.emit, e, Bool._pool[node.text,], ak)


def _eval_var(s, node: VarNode, e: Label, ctx: Context, ak: KAddr) -> None:
    # The values stored later arrive through ``_on_stored_val``.
    av = VAddr._pool[node.name, ctx]
    s.var_reads.setdefault(av, []).append((e, ak))
    emit = s.emit
    for val in s.vstore.get(av, ()):
        _arrive(emit, e, val, ak)


def _eval_lambda(s, node: LambdaNode, e: Label, ctx: Context, ak: KAddr) -> None:
    _peek(s, e, ctx)
    _arrive(s.emit, e, Closure._pool[e, ctx], ak)


def _eval_if(s, node: IfNode, e: Label, ctx: Context, ak: KAddr) -> None:
    _eval_sub(s.emit, e, node.guard, ctx, IfK._pool[node.then, node.other, ctx, ak], "flow_ee")


def _eval_set(s, node: SetNode, e: Label, ctx: Context, ak: KAddr) -> None:
    _eval_sub(s.emit, e, node.expr, ctx, SetK._pool[VAddr._pool[node.target, ctx], ak], "flow_ee")


def _eval_callcc(s, node: CallccNode, e: Label, ctx: Context, ak: KAddr) -> None:
    ectx = _peek(s, e, ctx)
    _eval_sub(s.emit, e, node.expr, ctx, CallccK._pool[ectx, ak], "flow_ee")


def _eval_call(s, node: CallNode, e: Label, ctx: Context, ak: KAddr) -> None:
    ectx = _peek(s, e, ctx)
    _eval_sub(s.emit, e, node.func, ctx, ArgK._pool[node.args_label, ctx, ectx, ak], "flow_ee")


def _eval_let(s, node: LetNode, e: Label, ctx: Context, ak: KAddr) -> None:
    ectx = _peek(s, e, ctx)
    emit = s.emit
    for renamed, bexpr in node.bindings:
        _eval_sub(emit, e, bexpr, ctx, LetK._pool[VAddr._pool[renamed, ectx], node.body, ectx, ak], "flow_ee")
    emit("copy_ctx", (ctx, ectx, e))


def _eval_prim(s, node: PrimCallNode, e: Label, ctx: Context, ak: KAddr) -> None:
    ea0, ea1 = node.args
    _eval_sub(s.emit, e, ea0, ctx, Prim1K._pool[node.op_name, ea1, ctx, ak], "flow_ee")


# Expression class -> (eval transition, rule name).
_EVAL_RULES = {
    NumNode: (_eval_num, "e-ae"),
    BoolNode: (_eval_bool, "e-ae"),
    VarNode: (_eval_var, "e-ae"),
    LambdaNode: (_eval_lambda, "e-ae"),
    IfNode: (_eval_if, "e-if"),
    SetNode: (_eval_set, "e-set!"),
    CallccNode: (_eval_callcc, "e-callcc"),
    CallNode: (_eval_call, "e-call"),
    LetNode: (_eval_let, "e-let"),
    PrimCallNode: (_eval_prim, "e-prim"),
}


def _branch_tests(cfg: AnalysisConfig, val: Term) -> tuple[bool, bool]:
    """Whether a conditional whose guard is ``val`` takes its then and its
    else branch.  An opaque value (PrimVal, NumTop) takes both in
    both-branches mode and neither in appendix-exact mode."""
    if val.tag == "Bool":
        return val.args[0] == "#t", val.args[0] == "#f"
    if val.tag in ("Closure", "Number", "Kont"):
        return True, False
    opaque = cfg.primval_truthiness == "both-branches"
    return opaque, opaque


def _enter(s, clo: Term, pos: int, arg: Term, ectx: Context, frames: Sequence[Term], src: Term) -> None:
    """Enter closure ``clo`` in ``ectx`` with ``arg`` bound to its parameter
    ``pos``, if it has one, returning to the continuation address of each
    of ``frames``; ``src`` flows into its body."""
    elam, ctx_clo = clo.args
    lam = s.program.nodes[elam]
    if pos < len(lam.params):
        emit = s.emit
        for f in frames:
            emit("state_e", (lam.body, ectx, f.args[-1]))
        emit("stored_val", (VAddr._pool[lam.params[pos], ectx], arg))
        emit("copy_ctx", (ctx_clo, ectx, elam))
        emit("flow_ae", (src, lam.body))


# An apply transition fires one value at ``ak`` against one group of the
# frames there: ``frames``, of one class, differ only in their last field,
# the continuation address.  It reads the other fields from the first frame
# and derives what they give once, and the heads that name the
# continuation address once per frame.


def _apply_if(s, val: Term, ak: KAddr, frames: Sequence[IfK]) -> None:
    et, ef, ctx_k, _ = frames[0].args
    then, other = _branch_tests(s.cfg, val)
    emit = s.emit
    if then:
        for f in frames:
            emit("state_e", (et, ctx_k, f.args[-1]))
        emit("flow_ae", (Bool._pool["#t",], et))
    if other:
        for f in frames:
            emit("state_e", (ef, ctx_k, f.args[-1]))
        emit("flow_ae", (Bool._pool["#f",], ef))


def _apply_callcc(s, val: Term, ak: KAddr, frames: Sequence[CallccK]) -> None:
    ectx, _ = frames[0].args
    if val.tag == "Closure":
        _enter(s, val, 0, KontRef._pool[ak,], ectx, frames, val)
    elif val.tag == "Kont":
        (bk,) = val.args
        emit = s.emit
        kont = KontRef._pool[ak,]
        emit("state_a", (kont, bk))
        emit("flow_aa", (KontRef._pool[bk,], kont))


def _apply_set(s, val: Term, ak: KAddr, frames: Sequence[SetK]) -> None:
    emit = s.emit
    emit("stored_val", (frames[0].args[0], val))
    emit("flow_aa", (val, Number._pool[-42,]))


def _head_set(s, frames: Sequence[SetK]) -> None:
    sentinel = Number._pool[-42,]
    for f in frames:
        s.emit("state_a", (sentinel, f.args[-1]))


def _apply_arg(s, val: Term, ak: KAddr, frames: Sequence[ArgK]) -> None:
    eargs, ctx, ectx, next_ak = frames[0].args
    emit = s.emit
    # ``eargs`` labels the argument list of a call node.
    nodes = s.program.nodes
    for pos, earg in enumerate(nodes[nodes[eargs].owner].args):
        ka = _eval_sub(emit, val, earg, ctx, FnK._pool[val, pos, ectx, next_ak], "flow_ae")
        # Each other frame of the group has its own successor at ``ka``.
        for f in frames[1:]:
            emit("stored_kont", (ka, FnK._pool[val, pos, ectx, f.args[-1]]))


def _apply_fn(s, val: Term, ak: KAddr, frames: Sequence[FnK]) -> None:
    fn, pos, ectx, _ = frames[0].args
    if fn.tag == "Closure":
        _enter(s, fn, pos, val, ectx, frames, val)
    elif fn.tag == "Kont" and pos == 0:
        (ck,) = fn.args
        emit = s.emit
        emit("state_a", (val, ck))
        emit("flow_aa", (val, val))


def _apply_let(s, val: Term, ak: KAddr, frames: Sequence[LetK]) -> None:
    av, ebody, ctx, _ = frames[0].args
    s.emit("stored_val", (av, val))
    if (val, ebody) not in s.relations["flow_ae"]:
        s.emit("flow_ae", (val, ebody))


def _head_let(s, frames: Sequence[LetK]) -> None:
    av, ebody, ctx, _ = frames[0].args
    emit = s.emit
    for f in frames:
        emit("state_e", (ebody, ctx, f.args[-1]))


def _apply_prim1(s, val: Term, ak: KAddr, frames: Sequence[Prim1K]) -> None:
    op, ea1, ctx, next_ak = frames[0].args
    emit = s.emit
    ka = _eval_sub(emit, val, ea1, ctx, Prim2K._pool[op, val, next_ak], "flow_ae")
    # Each other frame of the group has its own successor at ``ka``.
    for f in frames[1:]:
        emit("stored_kont", (ka, Prim2K._pool[op, val, f.args[-1]]))


def _apply_prim2(s, val: Term, ak: KAddr, frames: Sequence[Prim2K]) -> None:
    op, v1, _ = frames[0].args
    widened = widen_value(PrimVal._pool[op, v1, val], s.cfg.widen_depth)
    emit = s.emit
    for f in frames:
        emit("state_a", (widened, f.args[-1]))
    if (val, widened) not in s.relations["flow_aa"]:
        emit("flow_aa", (val, widened))


def _apply_halt(s, val: Term, ak: KAddr, frames: Sequence[MT]) -> None:
    """The final address: values here are results, with no successor."""


# Frame class -> (apply transition, rule name or a function of the value
# and the frame that returns it, number of fields the transition unpacks).
_FRAMES = {
    IfK: (_apply_if, "a-if", 4),
    CallccK: (_apply_callcc, lambda val, frame: "a-callcc-kont" if val.tag == "Kont" else "a-callcc", 2),
    SetK: (_apply_set, "a-set!", 2),
    ArgK: (_apply_arg, "a-arg", 4),
    FnK: (_apply_fn, lambda val, frame: "a-call-kont" if frame.args[0].tag == "Kont" else "a-call", 4),
    LetK: (_apply_let, "a-let", 4),
    Prim1K: (_apply_prim1, "a-prim1", 4),
    Prim2K: (_apply_prim2, "a-prim2", 3),
    MT: (_apply_halt, "a-halt", 0),
}

# The apply heads that read only the frame (see the module docstring).
_HEADS = {LetK: _head_let, SetK: _head_set}


def _traced_eval(fire, rule: str):
    def traced(s, node, e: Label, ctx: Context, ak: KAddr) -> None:
        s._t(rule, e, ctx, ak)
        fire(s, node, e, ctx, ak)

    return traced


def _traced_apply(fire, rule):
    name = rule if callable(rule) else lambda val, frame: rule

    # Each frame of the group fires on its own, after its trace line.
    def traced(s, val: Term, ak: KAddr, frames: Sequence[Term]) -> None:
        for frame in frames:
            s._t(name(val, frame), val, ak, frame)
            fire(s, val, ak, (frame,))

    return traced


_EVAL = {cls: fire for cls, (fire, _) in _EVAL_RULES.items()}
_APPLY = {cls: fire for cls, (fire, _, _) in _FRAMES.items()}
_TRACED_EVAL = {cls: _traced_eval(fire, rule) for cls, (fire, rule) in _EVAL_RULES.items()}
_TRACED_APPLY = {cls: _traced_apply(fire, rule) for cls, (fire, rule, _) in _FRAMES.items()}


# ---------------------------------------------------------------------------
# The worklist fixpoint
# ---------------------------------------------------------------------------

# The event handlers.  A handler joins its new fact against the facts of
# the events processed before it.  The transitions it calls only hand facts
# to ``emit``, which queues them or, for a store row that nothing joins
# yet, adds it to its store at once.  A handler registers its join (a
# reader, a copy target, a value at the address) before it iterates a store
# entry, so ``emit`` never extends the entry being iterated, and handlers
# iterate entries without copying them.  The transitions come from the
# machine's ``_eval`` and ``_apply``, whose traced copies name each rule
# instance before firing it; only the two handlers whose joins are not
# table transitions test ``m.trace``.


def _on_state_e(m: "Machine", row: tuple) -> None:
    e, ctx, ak = row
    node = m.program.nodes[e]
    m._eval[type(node)](m, node, e, ctx, ak)


def _on_state_a(m: "Machine", row: tuple) -> None:
    val, ak = row
    # Join the new value against the frames already stored only; the
    # reverse direction happens when a later frame is processed.
    groups = m.kstore.get(ak, ())
    vals = m._avals.get(ak)
    apply = m._apply
    if vals is None:
        # The first value at ``ak`` fires each frame for the first time.
        vals = m._avals[ak] = []
        for frames in groups:
            cls = type(frames[0])
            if cls in _HEADS:
                _HEADS[cls](m, frames)
            apply[cls](m, val, ak, frames)
    else:
        for frames in groups:
            apply[type(frames[0])](m, val, ak, frames)
    vals.append(val)


def _on_stored_kont(m: "Machine", row: tuple) -> None:
    ak, frame = row
    # The frame fires alone against the values already processed at ``ak``,
    # then joins its group there.
    vals = m._avals.get(ak, ())
    if vals:
        frames = (frame,)
        if type(frame) in _HEADS:
            _HEADS[type(frame)](m, frames)
        apply = m._apply[type(frame)]
        for val in vals:
            apply(m, val, ak, frames)
    _store_frame(m, ak, frame)


def _on_stored_val(m: "Machine", row: tuple) -> None:
    av, val = row
    # Most stored values have no reader and no copy target: bind no emit.
    for e, ak in m.var_reads.get(av, ()):
        if m.trace is not None:
            m._t("e-ae", e, val)
        _arrive(m.emit, e, val, ak)
    for dst in m.copy_to.get(av, ()):
        if m.trace is not None:
            m._t("copy", *av.args, dst.args[1])
        m.emit("stored_val", (dst, val))
    m.vstore.setdefault(av, []).append(val)


def _on_copy_ctx(m: "Machine", row: tuple) -> None:
    frm, to, e = row
    if m.trace is not None:
        m._t("copy", frm, to, e)
    emit = m.emit
    for x in m.free_vars[e]:
        src, dst = VAddr._pool[x, frm], VAddr._pool[x, to]
        m.copy_to.setdefault(src, []).append(dst)
        for val in m.vstore.get(src, ()):
            emit("stored_val", (dst, val))


def _store_frame(m: "Machine", ak: Term, frame: Term) -> None:
    """Add ``frame`` to its group at ``ak``: the frames of its class that
    agree with it on every field but the last, the continuation address."""
    groups = m.kstore.get(ak)
    if groups is None:
        # Most addresses only ever hold one frame.  Their one group of one
        # is a tuple; an address's groups become lists, indexed by their
        # other fields, only when a second frame arrives there.
        m.kstore[ak] = ((frame,),)
        return
    index = m._stems.get(ak)
    if index is None:
        ((first,),) = groups
        groups = m.kstore[ak] = [[first]]
        index = m._stems[ak] = {(type(first), first.args[:-1]): groups[0]}
    stem = (type(frame), frame.args[:-1])
    group = index.get(stem)
    if group is None:
        group = index[stem] = []
        groups.append(group)
    group.append(frame)


def _stored_unread_val(m: "Machine", row: tuple) -> bool:
    """Store a new ``stored_val`` row at once if its address has no reader
    and no copy target yet: one that registers later reads the store."""
    av, val = row
    if av in m.var_reads or av in m.copy_to:
        return False
    m.vstore.setdefault(av, []).append(val)
    return True


def _stored_unfired_kont(m: "Machine", row: tuple) -> bool:
    """Store a new ``stored_kont`` row at once if no value at its address
    has been processed yet: the first one fires it."""
    ak, frame = row
    if ak in m._avals:
        return False
    _store_frame(m, ak, frame)
    return True


# The store relations whose new rows ``Machine.emit`` may store at once.
_AT_ONCE = {"stored_val": _stored_unread_val, "stored_kont": _stored_unfired_kont}


class Machine:
    """Event worklist: every new fact is joined against everything already
    processed, so each rule instance fires exactly once."""

    # The handler of each event relation.  The table is the class's, not
    # the instance's: a table of bound methods on the instance would be a
    # reference cycle, left to the cycle collector.
    HANDLERS: ClassVar[dict[str, Callable[["Machine", tuple], None]]] = {
        "state_e": _on_state_e,
        "state_a": _on_state_a,
        "stored_kont": _on_stored_kont,
        "stored_val": _on_stored_val,
        "copy_ctx": _on_copy_ctx,
    }

    def __init__(
        self,
        program: LabeledProgram,
        cfg: AnalysisConfig,
        trace: "Callable[[str], None] | None" = None,
    ) -> None:
        self.program = program
        self.cfg = cfg
        self.free_vars = free_vars(program)
        self.relations: dict[str, set[tuple]] = {name: set() for name in IDB_SCHEMA}
        # Each relation's rows, whether a new row is an event, and how
        # ``emit`` may store it at once.
        self._sinks = {
            name: (rows, name in self.HANDLERS, _AT_ONCE.get(name))
            for name, rows in self.relations.items()
        }
        # The global stores; they only grow.  ``vstore`` maps an address to
        # its values, ``kstore`` an address to its frame groups (see
        # ``_store_frame``), and ``_stems`` an address that holds more than
        # one frame to its groups, keyed by frame class and the fields
        # before the continuation address.  Each entry is a sequence: each
        # row is stored once, so none repeats, and it keeps insertion order,
        # where a set of terms, which hash by identity, would order the
        # trace by memory address.
        self.vstore: dict[Term, list[Term]] = {}
        self.kstore: dict[Term, Sequence[Sequence[Term]]] = {}
        self._stems: dict[Term, dict[tuple, list[Term]]] = {}
        self.var_reads: dict[Term, list[tuple[Label, Term]]] = {}
        # Source address VAddr(x, frm) -> the addresses VAddr(x, to) that the
        # copy_ctx events seen so far copy it to, one per event.
        self.copy_to: dict[Term, list[Term]] = {}
        self._avals: dict[Term, list[Term]] = {}
        self.queue: deque[tuple[str, tuple]] = deque()
        self.steps = 0
        self.total_facts = 0
        # No ceiling is an infinite one, so emit compares without a branch.
        self.ceiling = math.inf if cfg.fact_ceiling is None else cfg.fact_ceiling
        self.trace = trace
        self._eval, self._apply = (_EVAL, _APPLY) if trace is None else (_TRACED_EVAL, _TRACED_APPLY)

    def _t(self, rule: str, *cols) -> None:
        # Only the traced tables and the handlers that test ``self.trace``
        # call this, so an untraced run neither names a rule nor renders.
        self.trace(rule + "\t" + " ".join(map(render, cols)))

    # -- fact intake ---------------------------------------------------

    def emit(self, rel: str, row: tuple) -> None:
        rows, event, store = self._sinks[rel]
        if row in rows:
            return
        rows.add(row)
        self.total_facts += 1
        if self.total_facts > self.ceiling:
            raise FactCeilingExceeded(self.total_facts, self.ceiling)
        # A store row that nothing joins yet needs no handler: it goes into
        # its store now and counts as a step.  Whatever comes to join it
        # later reads the store.
        if store is not None and store(self, row):
            self.steps += 1
        elif event:
            self.queue.append((rel, row))

    # -- driver ----------------------------------------------------------

    def start(self) -> None:
        """Seed the free-variable relation and the injected initial facts."""
        self.total_facts = sum(len(rows) for rows in extract_facts(self.program).facts.values())
        for e in self.program.nodes:
            for x in self.free_vars[e]:
                self.emit("freevar", (x, e))
        root = self.program.root
        eps = EMPTY_CONTEXT
        ak0 = KAddr._pool[root, eps]
        self.emit("peek_ctx", (root, eps, make_context(root, eps, self.cfg.m)))
        self.emit("state_e", (root, eps, ak0))
        self.emit("stored_kont", (ak0, MT_FRAME))

    def drain(self) -> None:
        """Process queued events until none is left."""
        queue = self.queue
        popleft = queue.popleft
        handlers = self.HANDLERS
        steps = 0
        try:
            while queue:
                rel, row = popleft()
                steps += 1
                handlers[rel](self, row)
        finally:
            # Also when a handler raises, so ``steps`` counts the events
            # processed, the failing one included.  ``emit`` counts the
            # rows it stores at once itself.
            self.steps += steps

    def result(self) -> AnalysisResult:
        # The result takes the machine's sets themselves: a copy of each
        # would hold both at once, raising the peak, and keep barely less.
        return AnalysisResult(
            relations=self.relations,
            engine="worklist",
            rounds=self.steps,
            peak_facts=self.total_facts,
        )

    def run(self) -> AnalysisResult:
        self.start()
        self.drain()
        return self.result()


def run_fixpoint(
    program: LabeledProgram,
    cfg: AnalysisConfig | None = None,
    *,
    trace: Callable[[str], None] | None = None,
) -> AnalysisResult:
    return Machine(program, cfg or AnalysisConfig(), trace=trace).run()


class _Recheck(Machine):
    """A machine whose ``emit`` raises unless the fact is already in a
    finished result."""

    def __init__(self, program: LabeledProgram, cfg: AnalysisConfig, relations: dict[str, set[tuple]]) -> None:
        super().__init__(program, cfg)
        self.relations = relations
        self.source: str | tuple = "start"

    def emit(self, rel: str, row: tuple) -> None:
        if row not in self.relations[rel]:
            raise ValidationError(f"not a fixpoint: {self.source} re-derives {rel}{row}")


def _names_lambda(nodes: dict, val: object) -> bool:
    """Whether ``val`` is a term and, if it is a closure, names a lambda, as
    ``_enter`` reads it."""
    return isinstance(val, Term) and (val.tag != "Closure" or type(nodes.get(val.args[0])) is LambdaNode)


def _frame_is_read(nodes: dict, frame: Term) -> bool:
    """Whether an apply transition reads ``frame``: its class has one and
    its fields are as many as that transition unpacks, an ``Arg`` frame
    names the argument list of a call, a ``Fn`` frame's position is an int
    and its function a term that, if a closure, names a lambda, and a
    ``Prim2`` frame's first value is a term."""
    entry = _FRAMES.get(type(frame))
    if entry is None or len(frame.args) != entry[2]:
        return False
    if frame.tag == "Arg":
        marker = nodes.get(frame.args[0])
        return type(marker) is ListMarkerNode and type(nodes.get(marker.owner)) is CallNode
    if frame.tag == "Fn":
        return type(frame.args[1]) is int and _names_lambda(nodes, frame.args[0])
    if frame.tag == "Prim2":
        return isinstance(frame.args[1], Term)
    return True


def recheck(program: LabeledProgram, cfg: AnalysisConfig, relations: dict[str, set[tuple]]) -> bool:
    """Verify the result is closed under the machine: ``start`` and the
    handler of every result row derive nothing that is not in it.  Raises
    ValidationError naming the first fact derived but missing, a ``freevar``
    row that is not one of the program's free variables, or a row whose
    label, context, value, frame or closure no transition reads.  Any other
    extra row is accepted: this checks closure, not leastness.

    The store rows go first: no reader is registered yet, so their handlers
    only fill the stores.  Each join then fires once, from its ``state_e``,
    ``state_a`` or ``copy_ctx`` row, against the whole store."""
    chk = _Recheck(program, cfg, relations)
    chk.start()
    for x, e in relations["freevar"]:
        if x not in chk.free_vars.get(e, ()):
            raise ValidationError(f"not a fixpoint: freevar{(x, e)} is not a premise")
    nodes = program.nodes
    for rel in ("stored_val", "stored_kont", "state_e", "state_a", "copy_ctx"):
        handler = Machine.HANDLERS[rel]
        for row in relations[rel]:
            chk.source = (rel, *row)
            # The keys the handlers look up and the terms they read,
            # checked here and not in the handlers, which the oracle runs
            # on every event.
            if (
                (rel == "state_e" and (type(nodes.get(row[0])) not in _EVAL or type(row[1]) is not Context))
                or (rel == "state_a" and not _names_lambda(nodes, row[0]))
                or (rel == "stored_kont" and not _frame_is_read(nodes, row[1]))
                or (rel == "copy_ctx" and row[2] not in nodes)
            ):
                raise ValidationError(f"not a fixpoint: no transition reads {rel}{row}")
            handler(chk, row)
    return True
