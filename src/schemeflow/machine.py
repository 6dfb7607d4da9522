"""Worklist abstract machine with a global store — the second analyzer.

This implements the eval/apply transition system directly over the labeled
program: configurations are either ⟨expression, context, continuation
address⟩ or ⟨value, continuation address⟩, and the value/continuation
stores are global join-semilattices.  Every transition mirrors one
deductive rule of the analysis module head-for-head (flow edges included),
so for any program and configuration the two paths must produce identical
relation sets — that equality is the core differential test.

The driver is event-based: each newly added fact (state, store entry, or
context copy) is processed exactly once, and processing joins it against
the facts already processed, so every rule instance fires exactly once no
matter the order.  The final relation sets are order-independent because
each emission depends only on the joined pair, never on driver state.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

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
    NumNode,
    PrimCallNode,
    SetNode,
    VarNode,
    extract_facts,
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
# Transition emissions (pure: lists of (relation, row) pairs)
# ---------------------------------------------------------------------------

_ATOMIC = (NumNode, BoolNode, LambdaNode, VarNode)
_CONTEXT_FORMS = (CallccNode, CallNode, LetNode, LambdaNode)


def _arg_lists(program: LabeledProgram) -> dict[Label, tuple[tuple[int, Label], ...]]:
    out: dict[Label, tuple[tuple[int, Label], ...]] = {}
    for node in program.nodes.values():
        if isinstance(node, (CallNode, PrimCallNode)):
            out[node.args_label] = tuple(enumerate(node.args))
    return out


def _atomic_values(program: LabeledProgram, e: Label, ctx: Context, lookup) -> list[Term]:
    node = program.node(e)
    if isinstance(node, NumNode):
        return [Number(node.value)]
    if isinstance(node, BoolNode):
        return [Bool(node.text)]
    if isinstance(node, LambdaNode):
        return [Closure(e, ctx)]
    return list(lookup(VAddr(node.name, ctx)))  # a VarNode


def _eval_emissions(
    program: LabeledProgram, cfg: AnalysisConfig, e: Label, ctx: Context, ak: KAddr, lookup
) -> list[tuple[str, tuple]]:
    """All facts the eval-state transition derives, current store given."""
    node = program.node(e)
    out: list[tuple[str, tuple]] = []
    if isinstance(node, _CONTEXT_FORMS):
        out.append(("peek_ctx", (e, ctx, make_context(e, ctx, cfg.m))))
    if isinstance(node, _ATOMIC):
        for val in _atomic_values(program, e, ctx, lookup):
            out.append(("state_a", (val, ak)))
            out.append(("flow_ea", (e, val)))
        return out
    if isinstance(node, IfNode):
        ka = KAddr(node.guard, ctx)
        out += [
            ("state_e", (node.guard, ctx, ka)),
            ("stored_kont", (ka, IfK(node.then, node.other, ctx, ak))),
            ("flow_ee", (e, node.guard)),
        ]
    elif isinstance(node, SetNode):
        ka = KAddr(node.expr, ctx)
        out += [
            ("state_e", (node.expr, ctx, ka)),
            ("stored_kont", (ka, SetK(VAddr(node.target, ctx), ak))),
            ("flow_ee", (e, node.expr)),
        ]
    elif isinstance(node, CallccNode):
        ectx = make_context(e, ctx, cfg.m)
        ka = KAddr(node.expr, ctx)
        out += [
            ("state_e", (node.expr, ctx, ka)),
            ("stored_kont", (ka, CallccK(ectx, ak))),
            ("flow_ee", (e, node.expr)),
        ]
    elif isinstance(node, CallNode):
        ectx = make_context(e, ctx, cfg.m)
        ka = KAddr(node.func, ctx)
        out += [
            ("state_e", (node.func, ctx, ka)),
            ("stored_kont", (ka, ArgK(node.args_label, ctx, ectx, ak))),
            ("flow_ee", (e, node.func)),
        ]
    elif isinstance(node, LetNode):
        ectx = make_context(e, ctx, cfg.m)
        for renamed, _original, bexpr in node.bindings:
            ka = KAddr(bexpr, ctx)
            out += [
                ("state_e", (bexpr, ctx, ka)),
                ("stored_kont", (ka, LetK(VAddr(renamed, ectx), node.body, ectx, ak))),
                ("flow_ee", (e, bexpr)),
            ]
        out.append(("copy_ctx", (ctx, ectx, e)))
    elif isinstance(node, PrimCallNode):
        ea0, ea1 = node.args
        ka = KAddr(ea0, ctx)
        out += [
            ("state_e", (ea0, ctx, ka)),
            ("stored_kont", (ka, Prim1K(node.op_name, ea1, ctx, ak))),
            ("flow_ee", (e, ea0)),
        ]
    # Anything else (quoted data) is inert: no successors.
    return out


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


def _apply_emissions(
    program: LabeledProgram,
    cfg: AnalysisConfig,
    arg_lists: dict[Label, tuple[tuple[int, Label], ...]],
    val: Term,
    ak: KAddr,
    frame: Term,
) -> list[tuple[str, tuple]]:
    """All facts derived from value ``val`` meeting ``frame`` at ``ak``."""
    out: list[tuple[str, tuple]] = []
    tag = frame.tag
    if tag == "If":
        et, ef, ctx_k, next_ak = frame.args
        if _truthy(cfg, val):
            out += [("state_e", (et, ctx_k, next_ak)), ("flow_ae", (Bool("#t"), et))]
        if _falsy(cfg, val):
            out += [("state_e", (ef, ctx_k, next_ak)), ("flow_ae", (Bool("#f"), ef))]
    elif tag == "Callcc":
        ectx, next_ak = frame.args
        if val.tag == "Closure":
            elam, ctx_clo = val.args
            lam = program.node(elam)
            if lam.params:
                x = lam.params[0][1]
                out += [
                    ("state_e", (lam.body, ectx, next_ak)),
                    ("stored_val", (VAddr(x, ectx), KontRef(ak))),
                    ("copy_ctx", (ctx_clo, ectx, elam)),
                    ("flow_ae", (val, lam.body)),
                ]
        elif val.tag == "Kont":
            (bk,) = val.args
            out += [
                ("state_a", (KontRef(ak), bk)),
                ("flow_aa", (KontRef(bk), KontRef(ak))),
            ]
    elif tag == "Set":
        loc, next_ak = frame.args
        out += [
            ("state_a", (Number(-42), next_ak)),
            ("stored_val", (loc, val)),
            ("flow_aa", (val, Number(-42))),
        ]
    elif tag == "Arg":
        eargs, ctx, ectx, next_ak = frame.args
        for pos, earg in arg_lists.get(eargs, ()):
            ka = KAddr(earg, ctx)
            out += [
                ("state_e", (earg, ctx, ka)),
                ("stored_kont", (ka, FnK(val, pos, ectx, next_ak))),
                ("flow_ae", (val, earg)),
            ]
    elif tag == "Fn":
        fn, pos, ectx, next_ak = frame.args
        if fn.tag == "Closure":
            elam, ctx_clo = fn.args
            lam = program.node(elam)
            if pos < len(lam.params):
                x = lam.params[pos][1]
                out += [
                    ("state_e", (lam.body, ectx, next_ak)),
                    ("stored_val", (VAddr(x, ectx), val)),
                    ("copy_ctx", (ctx_clo, ectx, elam)),
                    ("flow_ae", (val, lam.body)),
                ]
        elif fn.tag == "Kont" and pos == 0:
            (ck,) = fn.args
            out += [("state_a", (val, ck)), ("flow_aa", (val, val))]
    elif tag == "Let":
        av, ebody, ctx, next_ak = frame.args
        out += [
            ("state_e", (ebody, ctx, next_ak)),
            ("stored_val", (av, val)),
            ("flow_ae", (val, ebody)),
        ]
    elif tag == "Prim1":
        op, ea1, ctx, next_ak = frame.args
        ka = KAddr(ea1, ctx)
        out += [
            ("state_e", (ea1, ctx, ka)),
            ("stored_kont", (ka, Prim2K(op, val, next_ak))),
            ("flow_ae", (val, ea1)),
        ]
    elif tag == "Prim2":
        op, v1, next_ak = frame.args
        widened = widen_value(PrimVal(op, v1, val), cfg.widen_depth)
        out += [("state_a", (widened, next_ak)), ("flow_aa", (val, widened))]
    # MT: the final address; values here are results, no successor.
    return out


def _copy_emissions(
    program: LabeledProgram, frm: Context, to: Context, e: Label, lookup
) -> list[tuple[str, tuple]]:
    out = []
    for fv in program.free_vars(e):
        for val in lookup(VAddr(fv, frm)):
            out.append(("stored_val", (VAddr(fv, to), val)))
    return out


# ---------------------------------------------------------------------------
# The worklist fixpoint
# ---------------------------------------------------------------------------

_EVENT_RELATIONS = frozenset({"state_e", "state_a", "stored_val", "stored_kont", "copy_ctx"})


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


class Machine:
    """Event worklist: every new fact is joined against everything already
    processed, so each rule instance fires exactly once."""

    def __init__(
        self,
        program: LabeledProgram,
        cfg: AnalysisConfig,
        trace: "Callable[[str], None] | None" = None,
    ) -> None:
        self.program = program
        self.cfg = cfg
        self.relations: dict[str, set[tuple]] = {name: set() for name in IDB_SCHEMA}
        # The global stores (address -> values / frames); they only grow.
        self.vstore: dict[Term, set[Term]] = {}
        self.kstore: dict[Term, set[Term]] = {}
        self.arg_lists = _arg_lists(program)
        self.var_reads: dict[Term, list[tuple[Label, Term]]] = {}
        self.copy_from: dict[Context, list[tuple[Context, Label]]] = {}
        self._avals: dict[Term, list[Term]] = {}
        self.queue: deque[tuple[str, tuple]] = deque()
        self.steps = 0
        self.total_facts = 0
        self.ceiling = cfg.fact_ceiling
        self.trace = trace

    def _t(self, rule: str, *cols) -> None:
        if self.trace is not None:
            self.trace(rule + "\t" + " ".join(map(render, cols)))

    # -- fact intake ---------------------------------------------------

    def emit(self, rel: str, row: tuple) -> None:
        rows = self.relations[rel]
        if row in rows:
            return
        rows.add(row)
        self.total_facts += 1
        if self.ceiling is not None and self.total_facts > self.ceiling:
            raise FactCeilingExceeded(self.total_facts, self.ceiling)
        if rel in _EVENT_RELATIONS:
            self.queue.append((rel, row))

    def emit_all(self, emissions: Iterable[tuple[str, tuple]]) -> None:
        for rel, row in emissions:
            self.emit(rel, row)

    # -- event processing ----------------------------------------------

    def process(self, rel: str, row: tuple) -> None:
        if rel == "state_e":
            e, ctx, ak = row
            node = self.program.node(e)
            self._t(_EVAL_RULE_NAMES.get(type(node), "e-dead"), e, ctx, ak)
            if isinstance(node, VarNode):
                self.var_reads.setdefault(VAddr(node.name, ctx), []).append((e, ak))
            self.emit_all(
                _eval_emissions(
                    self.program, self.cfg, e, ctx, ak, lambda av: self.vstore.get(av, ())
                )
            )
        elif rel == "state_a":
            val, ak = row
            # Join the new value against already-processed frames only; the
            # reverse direction happens when those frames are processed.
            for frame in list(self.kstore.get(ak, ())):
                self.apply(val, ak, frame)
            self._avals.setdefault(ak, []).append(val)
        elif rel == "stored_kont":
            ak, frame = row
            for val in list(self._avals.get(ak, ())):
                self.apply(val, ak, frame)
            self.kstore.setdefault(ak, set()).add(frame)
        elif rel == "stored_val":
            av, val = row
            for e, ak in self.var_reads.get(av, ()):
                self._t("e-ae", e, val)
                self.emit("state_a", (val, ak))
                self.emit("flow_ea", (e, val))
            x, ctx = av.args
            for to, elam in self.copy_from.get(ctx, ()):
                if x in self.program.free_vars(elam):
                    self._t("copy", x, ctx, to)
                    self.emit("stored_val", (VAddr(x, to), val))
            self.vstore.setdefault(av, set()).add(val)
        elif rel == "copy_ctx":
            frm, to, e = row
            self.copy_from.setdefault(frm, []).append((to, e))
            self._t("copy", frm, to, e)
            self.emit_all(
                _copy_emissions(
                    self.program, frm, to, e, lambda av: self.vstore.get(av, ())
                )
            )

    def apply(self, val: Term, ak: Term, frame: Term) -> None:
        self._t(_apply_rule_name(val, frame), val, ak, frame)
        self.emit_all(
            _apply_emissions(self.program, self.cfg, self.arg_lists, val, ak, frame)
        )

    # -- driver ----------------------------------------------------------

    def start(self) -> None:
        """Seed the free-variable relation and the injected initial facts."""
        self.total_facts = sum(len(rows) for rows in extract_facts(self.program).facts.values())
        for e in self.program.nodes:
            for x in self.program.free_vars(e):
                self.emit("freevar", (x, e))
        root = self.program.root
        eps = EMPTY_CONTEXT
        ak0 = KAddr(root, eps)
        self.emit("peek_ctx", (root, eps, make_context(root, eps, self.cfg.m)))
        self.emit("state_e", (root, eps, ak0))
        self.emit("stored_kont", (ak0, MT_FRAME))

    def drain(self) -> None:
        while self.queue:
            rel, row = self.queue.popleft()
            self.steps += 1
            self.process(rel, row)

    def result(self) -> AnalysisResult:
        return AnalysisResult(
            config=self.cfg,
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


def recheck(program: LabeledProgram, cfg: AnalysisConfig, relations: dict[str, set[tuple]]) -> bool:
    """Verify the result is a fixpoint: re-deriving from every fact adds
    nothing.  Raises ValidationError naming the first missing fact."""
    vstore: dict[Term, set[Term]] = {}
    for av, val in relations["stored_val"]:
        vstore.setdefault(av, set()).add(val)
    kstore: dict[Term, set[Term]] = {}
    for ak, k in relations["stored_kont"]:
        kstore.setdefault(ak, set()).add(k)
    lookup = lambda av: vstore.get(av, ())
    arg_lists = _arg_lists(program)

    def check(emissions, source) -> None:
        for rel, row in emissions:
            if row not in relations[rel]:
                raise ValidationError(f"not a fixpoint: {source} re-derives {rel}{row}")

    for e, ctx, ak in relations["state_e"]:
        check(_eval_emissions(program, cfg, e, ctx, ak, lookup), ("state_e", e, ctx, ak))
    for val, ak in relations["state_a"]:
        for frame in kstore.get(ak, ()):
            check(
                _apply_emissions(program, cfg, arg_lists, val, ak, frame),
                ("state_a", val, ak),
            )
    for frm, to, e in relations["copy_ctx"]:
        check(_copy_emissions(program, frm, to, e, lookup), ("copy_ctx", frm, to, e))
    return True
