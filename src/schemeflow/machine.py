"""Worklist abstract machine with a global store — the second analyzer.

This implements the eval/apply transition system directly over the labeled
program: configurations are either ⟨expression, context, continuation
address⟩ or ⟨value, continuation address⟩, and the value/continuation
stores are global join-semilattices.  Every transition mirrors one
deductive rule of the analysis module head-for-head (flow edges included),
so for any program and configuration the two paths must produce identical
relation sets — that equality is the core differential test.

The transitions are two tables of plain functions: ``_EVAL`` maps each node
class to its eval transition and ``_APPLY`` maps each continuation-frame
class to its apply transition; inert nodes and the halt frame map to a
no-op.  The first argument of a transition is always a ``Machine``: the
transition reads the program, the configuration and the value store where
the machine keeps them, and hands every fact it derives to the machine's
``emit``.  ``recheck`` runs the same transitions on a ``Machine`` whose
stores hold a finished result and whose ``emit`` raises unless the fact is
already present, so each transition is defined once for both.

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
    DatumNode,
    IfNode,
    LabeledProgram,
    LambdaNode,
    LetNode,
    ListMarkerNode,
    NumNode,
    PrimCallNode,
    PrimOpNode,
    QuoteNode,
    SetNode,
    VarNode,
    extract_facts,
    syntactic_free_vars,
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


def _eval_sub(emit, e: Label, sub: Label, ctx: Context, frame: Term) -> None:
    """Evaluate ``sub``, a sub-expression of ``e``, in ``ctx`` under ``frame``."""
    ka = KAddr(sub, ctx)
    emit("state_e", (sub, ctx, ka))
    emit("stored_kont", (ka, frame))
    emit("flow_ee", (e, sub))


def _arrive(emit, e: Label, val: Term, ak: KAddr) -> None:
    """The atomic expression at ``e`` evaluates to ``val`` at ``ak``."""
    emit("state_a", (val, ak))
    emit("flow_ea", (e, val))


def _eval_num(s, node: NumNode, e: Label, ctx: Context, ak: KAddr) -> None:
    _arrive(s.emit, e, Number(node.value), ak)


def _eval_bool(s, node: BoolNode, e: Label, ctx: Context, ak: KAddr) -> None:
    _arrive(s.emit, e, Bool(node.text), ak)


def _eval_var(s, node: VarNode, e: Label, ctx: Context, ak: KAddr) -> None:
    emit = s.emit
    for val in s.vstore.get(VAddr(node.name, ctx), ()):
        _arrive(emit, e, val, ak)


def _eval_lambda(s, node: LambdaNode, e: Label, ctx: Context, ak: KAddr) -> None:
    _peek(s, e, ctx)
    _arrive(s.emit, e, Closure(e, ctx), ak)


def _eval_if(s, node: IfNode, e: Label, ctx: Context, ak: KAddr) -> None:
    _eval_sub(s.emit, e, node.guard, ctx, IfK(node.then, node.other, ctx, ak))


def _eval_set(s, node: SetNode, e: Label, ctx: Context, ak: KAddr) -> None:
    _eval_sub(s.emit, e, node.expr, ctx, SetK(VAddr(node.target, ctx), ak))


def _eval_callcc(s, node: CallccNode, e: Label, ctx: Context, ak: KAddr) -> None:
    ectx = _peek(s, e, ctx)
    _eval_sub(s.emit, e, node.expr, ctx, CallccK(ectx, ak))


def _eval_call(s, node: CallNode, e: Label, ctx: Context, ak: KAddr) -> None:
    ectx = _peek(s, e, ctx)
    _eval_sub(s.emit, e, node.func, ctx, ArgK(node.args_label, ctx, ectx, ak))


def _eval_let(s, node: LetNode, e: Label, ctx: Context, ak: KAddr) -> None:
    ectx = _peek(s, e, ctx)
    emit = s.emit
    for renamed, bexpr in node.bindings:
        _eval_sub(emit, e, bexpr, ctx, LetK(VAddr(renamed, ectx), node.body, ectx, ak))
    emit("copy_ctx", (ctx, ectx, e))


def _eval_prim(s, node: PrimCallNode, e: Label, ctx: Context, ak: KAddr) -> None:
    ea0, ea1 = node.args
    _eval_sub(s.emit, e, ea0, ctx, Prim1K(node.op_name, ea1, ctx, ak))


def _eval_inert(s, node, e: Label, ctx: Context, ak: KAddr) -> None:
    """Quoted data and auxiliary labels have no successors."""


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
    QuoteNode: _eval_inert,
    DatumNode: _eval_inert,
    PrimOpNode: _eval_inert,
    ListMarkerNode: _eval_inert,
}


def _truthy(cfg: AnalysisConfig, val: Term) -> bool:
    if val.tag in ("Closure", "Number", "Kont"):
        return True
    if val.tag == "Bool":
        return val.args[0] == "#t"
    return cfg.primval_truthiness == "both-branches"  # PrimVal, NumTop


def _falsy(cfg: AnalysisConfig, val: Term) -> bool:
    if val.tag == "Bool":
        return val.args[0] == "#f"
    if val.tag in ("Closure", "Number", "Kont"):
        return False
    return cfg.primval_truthiness == "both-branches"


def _apply_if(s, val: Term, ak: KAddr, frame: IfK) -> None:
    et, ef, ctx_k, next_ak = frame.args
    emit = s.emit
    if _truthy(s.cfg, val):
        emit("state_e", (et, ctx_k, next_ak))
        emit("flow_ae", (Bool("#t"), et))
    if _falsy(s.cfg, val):
        emit("state_e", (ef, ctx_k, next_ak))
        emit("flow_ae", (Bool("#f"), ef))


def _apply_callcc(s, val: Term, ak: KAddr, frame: CallccK) -> None:
    ectx, next_ak = frame.args
    emit = s.emit
    if val.tag == "Closure":
        elam, ctx_clo = val.args
        lam = s.program.nodes[elam]
        if lam.params:
            x = lam.params[0]
            emit("state_e", (lam.body, ectx, next_ak))
            emit("stored_val", (VAddr(x, ectx), KontRef(ak)))
            emit("copy_ctx", (ctx_clo, ectx, elam))
            emit("flow_ae", (val, lam.body))
    elif val.tag == "Kont":
        (bk,) = val.args
        emit("state_a", (KontRef(ak), bk))
        emit("flow_aa", (KontRef(bk), KontRef(ak)))


def _apply_set(s, val: Term, ak: KAddr, frame: SetK) -> None:
    loc, next_ak = frame.args
    emit = s.emit
    emit("state_a", (Number(-42), next_ak))
    emit("stored_val", (loc, val))
    emit("flow_aa", (val, Number(-42)))


def _apply_arg(s, val: Term, ak: KAddr, frame: ArgK) -> None:
    eargs, ctx, ectx, next_ak = frame.args
    emit = s.emit
    # ``eargs`` labels the argument list of a call node.
    nodes = s.program.nodes
    for pos, earg in enumerate(nodes[nodes[eargs].owner].args):
        ka = KAddr(earg, ctx)
        emit("state_e", (earg, ctx, ka))
        emit("stored_kont", (ka, FnK(val, pos, ectx, next_ak)))
        emit("flow_ae", (val, earg))


def _apply_fn(s, val: Term, ak: KAddr, frame: FnK) -> None:
    fn, pos, ectx, next_ak = frame.args
    emit = s.emit
    if fn.tag == "Closure":
        elam, ctx_clo = fn.args
        lam = s.program.nodes[elam]
        if pos < len(lam.params):
            x = lam.params[pos]
            emit("state_e", (lam.body, ectx, next_ak))
            emit("stored_val", (VAddr(x, ectx), val))
            emit("copy_ctx", (ctx_clo, ectx, elam))
            emit("flow_ae", (val, lam.body))
    elif fn.tag == "Kont" and pos == 0:
        (ck,) = fn.args
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
    emit = s.emit
    ka = KAddr(ea1, ctx)
    emit("state_e", (ea1, ctx, ka))
    emit("stored_kont", (ka, Prim2K(op, val, next_ak)))
    emit("flow_ae", (val, ea1))


def _apply_prim2(s, val: Term, ak: KAddr, frame: Prim2K) -> None:
    op, v1, next_ak = frame.args
    widened = widen_value(PrimVal(op, v1, val), s.cfg.widen_depth)
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


def _copy(s, frm: Context, to: Context, e: Label) -> None:
    emit = s.emit
    vstore = s.vstore
    for fv in syntactic_free_vars(s.program, e):
        for val in vstore.get(VAddr(fv, frm), ()):
            emit("stored_val", (VAddr(fv, to), val))


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
        m._t(_EVAL_RULE_NAMES.get(type(node), "e-dead"), e, ctx, ak)
    if isinstance(node, VarNode):
        m.var_reads.setdefault(VAddr(node.name, ctx), []).append((e, ak))
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
    for x in syntactic_free_vars(m.program, e):
        m.copy_to.setdefault(VAddr(x, frm), []).append(VAddr(x, to))
    if m.trace is not None:
        m._t("copy", frm, to, e)
    _copy(m, frm, to, e)


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
            for x in syntactic_free_vars(self.program, e):
                self.emit("freevar", (x, e))
        root = self.program.root
        eps = EMPTY_CONTEXT
        ak0 = KAddr(root, eps)
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
        # The copies are compact: a set grown by add() keeps up to 4x slack
        # in its table, and the result outlives the machine through
        # serialization, so handing the sets over raises the peak memory.
        return AnalysisResult(
            relations={name: set(rows) for name, rows in self.relations.items()},
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
    """A machine whose stores hold a finished result's entries and whose
    ``emit`` raises unless the fact is already in the result."""

    def __init__(self, program: LabeledProgram, cfg: AnalysisConfig, relations: dict[str, set[tuple]]) -> None:
        super().__init__(program, cfg)
        self.relations = relations
        for av, val in relations["stored_val"]:
            self.vstore.setdefault(av, {})[val] = None
        for ak, frame in relations["stored_kont"]:
            self.kstore.setdefault(ak, {})[frame] = None
        self.source: tuple = ()

    def emit(self, rel: str, row: tuple) -> None:
        if row not in self.relations[rel]:
            raise ValidationError(f"not a fixpoint: {self.source} re-derives {rel}{row}")


def recheck(program: LabeledProgram, cfg: AnalysisConfig, relations: dict[str, set[tuple]]) -> bool:
    """Verify the result is a fixpoint: re-deriving from every fact adds
    nothing.  Raises ValidationError naming the first missing fact."""
    chk = _Recheck(program, cfg, relations)
    for e, ctx, ak in relations["state_e"]:
        chk.source = ("state_e", e, ctx, ak)
        node = program.nodes[e]
        _EVAL[type(node)](chk, node, e, ctx, ak)
    for val, ak in relations["state_a"]:
        chk.source = ("state_a", val, ak)
        for frame in chk.kstore.get(ak, ()):
            _APPLY[type(frame)](chk, val, ak, frame)
    for frm, to, e in relations["copy_ctx"]:
        chk.source = ("copy_ctx", frm, to, e)
        _copy(chk, frm, to, e)
    return True
