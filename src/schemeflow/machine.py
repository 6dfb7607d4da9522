"""Worklist abstract machine with a global store — the second analyzer.

This implements the eval/apply transition system directly over the labeled
program: configurations are either ⟨expression, context, continuation
address⟩ or ⟨value, continuation address⟩, and the value/continuation
stores are global join-semilattices.  Every transition mirrors one
deductive rule of the analysis module head-for-head (flow edges included),
so for any program and configuration the two paths must produce identical
relation sets — that equality is the core differential test.

The transitions are two tables of plain functions: ``_EVAL`` maps each
expression node class to its eval transition and ``_APPLY`` maps each
continuation-frame class to its apply transition; the halt frame maps to a
no-op.  A ``state_e`` row only ever names an expression, so operator and
list-marker labels have none.  The first argument of a transition is always
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
context copy) is processed exactly once, by the handler that
``Machine.HANDLERS`` keys by its relation, and processing joins it against
the facts already processed, so every rule instance fires exactly once no
matter the order.  The final relation sets are order-independent because
each emission depends only on the joined pair, never on driver state.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, ClassVar

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


def _eval_sub(emit, src: Term, sub: Label, ctx: Context, frame: Term, flow: str) -> None:
    """Evaluate ``sub`` in ``ctx`` under ``frame``; ``src`` flows into it
    through the relation ``flow``."""
    ka = KAddr._pool[sub, ctx]
    emit("state_e", (sub, ctx, ka))
    emit("stored_kont", (ka, frame))
    emit(flow, (src, sub))


def _arrive(emit, e: Label, val: Term, ak: KAddr) -> None:
    """The atomic expression at ``e`` evaluates to ``val`` at ``ak``."""
    emit("state_a", (val, ak))
    emit("flow_ea", (e, val))


def _eval_num(s, node: NumNode, e: Label, ctx: Context, ak: KAddr) -> None:
    _arrive(s.emit, e, Number._pool[node.value,], ak)


def _eval_bool(s, node: BoolNode, e: Label, ctx: Context, ak: KAddr) -> None:
    _arrive(s.emit, e, Bool._pool[node.text,], ak)


def _eval_var(s, node: VarNode, e: Label, ctx: Context, ak: KAddr) -> None:
    emit = s.emit
    for val in s.vstore.get(VAddr._pool[node.name, ctx], ()):
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


_EVAL = {
    NumNode: _eval_num,
    BoolNode: _eval_bool,
    VarNode: _eval_var,
    LambdaNode: _eval_lambda,
    IfNode: _eval_if,
    SetNode: _eval_set,
    CallccNode: _eval_callcc,
    CallNode: _eval_call,
    LetNode: _eval_let,
    PrimCallNode: _eval_prim,
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


def _enter(s, clo: Term, pos: int, arg: Term, ectx: Context, next_ak: KAddr, src: Term) -> None:
    """Enter closure ``clo`` in ``ectx`` with ``arg`` bound to its parameter
    ``pos``, if it has one; ``src`` flows into its body."""
    elam, ctx_clo = clo.args
    lam = s.program.nodes[elam]
    if pos < len(lam.params):
        emit = s.emit
        emit("state_e", (lam.body, ectx, next_ak))
        emit("stored_val", (VAddr._pool[lam.params[pos], ectx], arg))
        emit("copy_ctx", (ctx_clo, ectx, elam))
        emit("flow_ae", (src, lam.body))


def _apply_if(s, val: Term, ak: KAddr, frame: IfK) -> None:
    et, ef, ctx_k, next_ak = frame.args
    then, other = _branch_tests(s.cfg, val)
    emit = s.emit
    if then:
        emit("state_e", (et, ctx_k, next_ak))
        emit("flow_ae", (Bool._pool["#t",], et))
    if other:
        emit("state_e", (ef, ctx_k, next_ak))
        emit("flow_ae", (Bool._pool["#f",], ef))


def _apply_callcc(s, val: Term, ak: KAddr, frame: CallccK) -> None:
    ectx, next_ak = frame.args
    if val.tag == "Closure":
        _enter(s, val, 0, KontRef._pool[ak,], ectx, next_ak, val)
    elif val.tag == "Kont":
        (bk,) = val.args
        emit = s.emit
        kont = KontRef._pool[ak,]
        emit("state_a", (kont, bk))
        emit("flow_aa", (KontRef._pool[bk,], kont))


def _apply_set(s, val: Term, ak: KAddr, frame: SetK) -> None:
    loc, next_ak = frame.args
    emit = s.emit
    emit("state_a", (Number._pool[-42,], next_ak))
    emit("stored_val", (loc, val))
    emit("flow_aa", (val, Number._pool[-42,]))


def _apply_arg(s, val: Term, ak: KAddr, frame: ArgK) -> None:
    eargs, ctx, ectx, next_ak = frame.args
    emit = s.emit
    # ``eargs`` labels the argument list of a call node.
    nodes = s.program.nodes
    for pos, earg in enumerate(nodes[nodes[eargs].owner].args):
        _eval_sub(emit, val, earg, ctx, FnK._pool[val, pos, ectx, next_ak], "flow_ae")


def _apply_fn(s, val: Term, ak: KAddr, frame: FnK) -> None:
    fn, pos, ectx, next_ak = frame.args
    if fn.tag == "Closure":
        _enter(s, fn, pos, val, ectx, next_ak, val)
    elif fn.tag == "Kont" and pos == 0:
        (ck,) = fn.args
        emit = s.emit
        emit("state_a", (val, ck))
        emit("flow_aa", (val, val))


def _apply_let(s, val: Term, ak: KAddr, frame: LetK) -> None:
    av, ebody, ctx, next_ak = frame.args
    emit = s.emit
    emit("state_e", (ebody, ctx, next_ak))
    emit("stored_val", (av, val))
    emit("flow_ae", (val, ebody))


def _apply_prim1(s, val: Term, ak: KAddr, frame: Prim1K) -> None:
    op, ea1, ctx, next_ak = frame.args
    _eval_sub(s.emit, val, ea1, ctx, Prim2K._pool[op, val, next_ak], "flow_ae")


def _apply_prim2(s, val: Term, ak: KAddr, frame: Prim2K) -> None:
    op, v1, next_ak = frame.args
    widened = widen_value(PrimVal._pool[op, v1, val], s.cfg.widen_depth)
    emit = s.emit
    emit("state_a", (widened, next_ak))
    emit("flow_aa", (val, widened))


def _apply_halt(s, val: Term, ak: KAddr, frame: MT) -> None:
    """The final address: values here are results, with no successor."""


_APPLY = {
    IfK: _apply_if,
    CallccK: _apply_callcc,
    SetK: _apply_set,
    ArgK: _apply_arg,
    FnK: _apply_fn,
    LetK: _apply_let,
    Prim1K: _apply_prim1,
    Prim2K: _apply_prim2,
    MT: _apply_halt,
}


# ---------------------------------------------------------------------------
# The worklist fixpoint
# ---------------------------------------------------------------------------

_EVAL_RULE_NAMES = {
    NumNode: "e-ae",
    BoolNode: "e-ae",
    LambdaNode: "e-ae",
    VarNode: "e-ae",
    IfNode: "e-if",
    SetNode: "e-set!",
    CallccNode: "e-callcc",
    CallNode: "e-call",
    LetNode: "e-let",
    PrimCallNode: "e-prim",
}


def _apply_rule_name(val: Term, frame: Term) -> str:
    tag = frame.tag
    if tag == "If":
        return "a-if"
    if tag == "Callcc":
        return "a-callcc-kont" if val.tag == "Kont" else "a-callcc"
    if tag == "Fn":
        return "a-call-kont" if frame.args[0].tag == "Kont" else "a-call"
    if tag == "Set":
        return "a-set!"
    if tag == "MT":
        return "a-halt"
    return {"Arg": "a-arg", "Let": "a-let", "Prim1": "a-prim1", "Prim2": "a-prim2"}[tag]


# The event handlers.  A handler joins its new fact against the facts of
# the events processed before it.  The transitions it calls only queue facts
# through ``emit``, and a store entry grows only in its own relation's
# handler, so a handler iterates the entries it reads without copying them.
# Each handler tests ``m.trace`` once per event; the traced branch names
# each rule instance before firing it.


def _on_state_e(m: "Machine", row: tuple) -> None:
    e, ctx, ak = row
    node = m.program.nodes[e]
    if m.trace is not None:
        m._t(_EVAL_RULE_NAMES[type(node)], e, ctx, ak)
    if isinstance(node, VarNode):
        m.var_reads.setdefault(VAddr._pool[node.name, ctx], []).append((e, ak))
    _EVAL[type(node)](m, node, e, ctx, ak)


def _on_state_a(m: "Machine", row: tuple) -> None:
    val, ak = row
    # Join the new value against already-processed frames only; the
    # reverse direction happens when those frames are processed.
    frames = m.kstore.get(ak, ())
    if m.trace is None:
        for frame in frames:
            _APPLY[type(frame)](m, val, ak, frame)
    else:
        for frame in frames:
            m._t(_apply_rule_name(val, frame), val, ak, frame)
            _APPLY[type(frame)](m, val, ak, frame)
    m._avals.setdefault(ak, []).append(val)


def _on_stored_kont(m: "Machine", row: tuple) -> None:
    ak, frame = row
    vals = m._avals.get(ak, ())
    apply = _APPLY[type(frame)]
    if m.trace is None:
        for val in vals:
            apply(m, val, ak, frame)
    else:
        for val in vals:
            m._t(_apply_rule_name(val, frame), val, ak, frame)
            apply(m, val, ak, frame)
    m.kstore.setdefault(ak, {})[frame] = None


def _on_stored_val(m: "Machine", row: tuple) -> None:
    av, val = row
    emit = m.emit
    for e, ak in m.var_reads.get(av, ()):
        if m.trace is not None:
            m._t("e-ae", e, val)
        _arrive(emit, e, val, ak)
    for dst in m.copy_to.get(av, ()):
        if m.trace is not None:
            m._t("copy", *av.args, dst.args[1])
        emit("stored_val", (dst, val))
    m.vstore.setdefault(av, {})[val] = None


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
        # Each relation's rows, and whether a new row is an event.
        self._sinks = {name: (rows, name in self.HANDLERS) for name, rows in self.relations.items()}
        # The global stores (address -> values / frames); they only grow.
        # Each entry is an insertion-ordered dict used as a set: terms hash
        # by identity, so iterating a set of them would order the trace by
        # memory address.
        self.vstore: dict[Term, dict[Term, None]] = {}
        self.kstore: dict[Term, dict[Term, None]] = {}
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

    def _t(self, rule: str, *cols) -> None:
        # Callers test ``self.trace`` first, so an untraced run neither
        # names the rule nor renders its columns.
        self.trace(rule + "\t" + " ".join(map(render, cols)))

    # -- fact intake ---------------------------------------------------

    def emit(self, rel: str, row: tuple) -> None:
        rows, event = self._sinks[rel]
        if row in rows:
            return
        rows.add(row)
        self.total_facts += 1
        if self.total_facts > self.ceiling:
            raise FactCeilingExceeded(self.total_facts, self.ceiling)
        if event:
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
        steps = self.steps
        try:
            while queue:
                rel, row = popleft()
                steps += 1
                handlers[rel](self, row)
        finally:
            # Also when a handler raises, so ``steps`` counts the events
            # processed, the failing one included.
            self.steps = steps

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


def _names_lambda(nodes: dict, val: Term) -> bool:
    """Whether ``val``, if it is a closure, names a lambda, as ``_enter``
    reads it."""
    return val.tag != "Closure" or type(nodes.get(val.args[0])) is LambdaNode


# The number of fields of each frame class, as its apply transition
# unpacks them.
_FRAME_FIELDS = {IfK: 4, CallccK: 2, SetK: 2, ArgK: 4, FnK: 4, LetK: 4, Prim1K: 4, Prim2K: 3, MT: 0}


def _frame_is_read(nodes: dict, frame: Term) -> bool:
    """Whether an apply transition reads ``frame``: its class has one and
    its fields are as many as that transition unpacks, an ``Arg`` frame
    names the argument list of a call, and a ``Fn`` frame's position is an
    int and its function, if a closure, names a lambda."""
    fields = _FRAME_FIELDS.get(type(frame))
    if fields is None or len(frame.args) != fields:
        return False
    if frame.tag == "Arg":
        marker = nodes.get(frame.args[0])
        return type(marker) is ListMarkerNode and type(nodes.get(marker.owner)) is CallNode
    if frame.tag == "Fn":
        return type(frame.args[1]) is int and _names_lambda(nodes, frame.args[0])
    return True


def recheck(program: LabeledProgram, cfg: AnalysisConfig, relations: dict[str, set[tuple]]) -> bool:
    """Verify the result is closed under the machine: ``start`` and the
    handler of every result row derive nothing that is not in it.  Raises
    ValidationError naming the first fact derived but missing, a ``freevar``
    row that is not one of the program's free variables, or a row whose
    label, frame or closure no transition reads.  Any other extra row is
    accepted: this checks closure, not leastness.

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
            # The keys the handlers look up, checked here and not in the
            # handlers, which the oracle runs on every event.
            if (
                (rel == "state_e" and type(nodes.get(row[0])) not in _EVAL)
                or (rel == "state_a" and not _names_lambda(nodes, row[0]))
                or (rel == "stored_kont" and not _frame_is_read(nodes, row[1]))
                or (rel == "copy_ctx" and row[2] not in nodes)
            ):
                raise ValidationError(f"not a fixpoint: no transition reads {rel}{row}")
            handler(chk, row)
    return True
