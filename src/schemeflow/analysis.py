"""The m-CFA control-flow analysis as deductive rules over the engine.

The rule groups follow the reference rule set (disjunctive bodies split
into one rule each), generalized over the context parameter ``m``:
contexts are built by ``make_context`` instead of a fixed-width
constructor, and primitive results are widened to a configurable depth at
construction.  Where the reference set spells a conditional's truthiness as
one rule per value shape, two rules test the value with a guard.
``analyze`` extracts facts, installs every group, saturates, and returns
the derived relations.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from schemeflow.engine import (
    A,
    Rule,
    RuleSet,
    T,
    TupleStore,
    WILD,
    atom,
    build_ruleset,
    rule,
    saturate,
    v,
)
from schemeflow.errors import ValidationError
from schemeflow.frontend import EDB, EDB_SCHEMA, LabeledProgram, extract_facts
from schemeflow.terms import (
    Bool,
    EMPTY_CONTEXT,
    KAddr,
    MT_FRAME,
    PrimVal,
    make_context,
    widen_value,
)

# ---------------------------------------------------------------------------
# Configuration and result
# ---------------------------------------------------------------------------

TRUTHINESS_MODES = ("both-branches", "appendix-exact")


@dataclass(frozen=True)
class AnalysisConfig:
    """Analysis knobs.  ``widen_depth=None`` with appendix-exact truthiness
    (PrimVal/NumTop guards take no branch) is the reference behavior."""

    m: int = 0
    widen_depth: int | None = 2
    primval_truthiness: str = "both-branches"
    fact_ceiling: int | None = None

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValidationError("m must be >= 0")
        if self.widen_depth is not None and self.widen_depth < 1:
            raise ValidationError("widen_depth must be >= 1 or None (unlimited)")
        if self.fact_ceiling is not None and self.fact_ceiling < 0:
            raise ValidationError(f"fact ceiling must be >= 0, got {self.fact_ceiling}")
        if self.primval_truthiness not in TRUTHINESS_MODES:
            raise ValidationError(
                f"primval_truthiness must be one of {TRUTHINESS_MODES}, got {self.primval_truthiness!r}"
            )


IDB_SCHEMA: dict[str, int] = {
    "state_e": 3,
    "state_a": 2,
    "stored_val": 2,
    "stored_kont": 2,
    "peek_ctx": 3,
    "copy_ctx": 3,
    "freevar": 2,
    "flow_ee": 2,
    "flow_ea": 2,
    "flow_ae": 2,
    "flow_aa": 2,
}

ALL_RELATIONS: dict[str, int] = {**EDB_SCHEMA, **IDB_SCHEMA}


@dataclass
class AnalysisResult:
    """Derived relations plus run metadata; shared by both analyzer paths."""

    relations: dict[str, set[tuple]]
    engine: str  # "seminaive" | "naive" | "worklist"
    rounds: int = 0
    peak_facts: int = 0


# ---------------------------------------------------------------------------
# Rule groups
# ---------------------------------------------------------------------------


def _mk(cfg: AnalysisConfig):
    def mk(e, ctx):
        return make_context(e, ctx, cfg.m)

    return mk


def _widen_pv(cfg: AnalysisConfig):
    def widen(op, v1, v2):
        return widen_value(PrimVal(op, v1, v2), cfg.widen_depth)

    return widen


def inject(edb: EDB, cfg: AnalysisConfig) -> dict[str, set[tuple]]:
    """The initial facts: evaluate the root in the empty context, whose
    continuation address holds the one MT frame (plus the root peek)."""
    tops = edb.facts.get("top_exp", set())
    if len(tops) != 1:
        raise ValidationError(f"exactly one top_exp required, got {len(tops)}")
    (root,) = next(iter(tops))
    eps = EMPTY_CONTEXT
    ak0 = KAddr(root, eps)
    return {
        "state_e": {(root, eps, ak0)},
        "peek_ctx": {(root, eps, make_context(root, eps, cfg.m))},
        "stored_kont": {(ak0, MT_FRAME)},
    }


def context_rules(cfg: AnalysisConfig) -> list[Rule]:
    """peek_ctx for the context-creating forms (lambda included though its
    peek is never consumed) and free-variable copying between contexts."""
    mk = _mk(cfg)
    rules = [
        rule(
            f"peek-{form}",
            heads=[atom("peek_ctx", v.e, v.ctx, A(mk, v.e, v.ctx, label="mk"))],
            body=[
                atom("state_e", v.e, v.ctx, WILD),
                atom(form, v.e, *([WILD] * (arity - 1))),
            ],
        )
        for form, arity in (("callcc", 2), ("call", 3), ("let", 3), ("lambda", 3))
    ]
    rules.append(
        rule(
            "copy",
            heads=[atom("stored_val", T("VAddress", v.fv, v.to), v.val)],
            body=[
                atom("copy_ctx", v.frm, v.to, v.e),
                atom("freevar", v.fv, v.e),
                atom("stored_val", T("VAddress", v.fv, v.frm), v.val),
            ],
        )
    )
    return rules


def freevar_rules() -> list[Rule]:
    def fv(name: str, body, guards=()) -> Rule:
        return rule(name, heads=[atom("freevar", v.x, v.e)], body=body, guards=guards)

    return [
        fv("fv-var", [atom("var", v.e, v.x)]),
        fv(
            "fv-lambda",
            [
                atom("lambda", v.e, v.vars, v.body),
                atom("freevar", v.x, v.body),
                atom("lambda_arg_list", v.vars, WILD, v.p),
            ],
            guards=[A(operator.ne, v.x, v.p)],
        ),
        fv("fv-call-func", [atom("call", v.e, v.func, WILD), atom("freevar", v.x, v.func)]),
        fv("fv-call-args", [atom("call", v.e, WILD, v.args), atom("freevar", v.x, v.args)]),
        fv("fv-prim", [atom("prim_call", v.e, WILD, v.args), atom("freevar", v.x, v.args)]),
        fv("fv-arglist", [atom("call_arg_list", v.e, WILD, v.arg), atom("freevar", v.x, v.arg)]),
        fv("fv-if-guard", [atom("if", v.e, v.g, WILD, WILD), atom("freevar", v.x, v.g)]),
        fv("fv-if-then", [atom("if", v.e, WILD, v.t, WILD), atom("freevar", v.x, v.t)]),
        fv("fv-if-else", [atom("if", v.e, WILD, WILD, v.f), atom("freevar", v.x, v.f)]),
        fv("fv-set", [atom("setb", v.e, WILD, v.ev), atom("freevar", v.x, v.ev)]),
        fv("fv-callcc", [atom("callcc", v.e, v.ev), atom("freevar", v.x, v.ev)]),
        fv("fv-let-binds", [atom("let", v.e, v.binds, WILD), atom("freevar", v.x, v.binds)]),
        fv("fv-let-body", [atom("let", v.e, WILD, v.body), atom("freevar", v.x, v.body)]),
        fv(
            "fv-letlist",
            [atom("let_list", v.e, v.a, v.bind), atom("freevar", v.x, v.bind)],
            guards=[A(operator.ne, v.x, v.a)],
        ),
    ]


def _ka(e, ctx):
    """The continuation address of ``e`` evaluated in ``ctx``."""
    return T("KAddress", e, ctx)


def eval_rules() -> list[Rule]:
    return [
        rule(
            "e-if",
            heads=[
                atom("state_e", v.eg, v.ctx, _ka(v.eg, v.ctx)),
                atom("stored_kont", _ka(v.eg, v.ctx), T("If", v.et, v.ef, v.ctx, v.ak)),
                atom("flow_ee", v.e, v.eg),
            ],
            body=[atom("state_e", v.e, v.ctx, v.ak), atom("if", v.e, v.eg, v.et, v.ef)],
        ),
        rule(
            "e-callcc",
            heads=[
                atom("state_e", v.elam, v.ctx, _ka(v.elam, v.ctx)),
                atom("stored_kont", _ka(v.elam, v.ctx), T("Callcc", v.ectx, v.ak)),
                atom("flow_ee", v.e, v.elam),
            ],
            body=[
                atom("state_e", v.e, v.ctx, v.ak),
                atom("callcc", v.e, v.elam),
                atom("peek_ctx", v.e, v.ctx, v.ectx),
            ],
        ),
        rule(
            "e-set",
            heads=[
                atom("state_e", v.ev, v.ctx, _ka(v.ev, v.ctx)),
                atom("stored_kont", _ka(v.ev, v.ctx), T("Set", T("VAddress", v.x, v.ctx), v.ak)),
                atom("flow_ee", v.e, v.ev),
            ],
            body=[atom("state_e", v.e, v.ctx, v.ak), atom("setb", v.e, v.x, v.ev)],
        ),
        rule(
            "e-call",
            heads=[
                atom("state_e", v.efunc, v.ctx, _ka(v.efunc, v.ctx)),
                atom("stored_kont", _ka(v.efunc, v.ctx), T("Arg", v.eargs, v.ctx, v.ectx, v.ak)),
                atom("flow_ee", v.e, v.efunc),
            ],
            body=[
                atom("state_e", v.e, v.ctx, v.ak),
                atom("call", v.e, v.efunc, v.eargs),
                atom("peek_ctx", v.e, v.ctx, v.ectx),
            ],
        ),
        rule(
            "e-let",
            heads=[
                atom("state_e", v.ebnd, v.ctx, _ka(v.ebnd, v.ctx)),
                atom(
                    "stored_kont",
                    _ka(v.ebnd, v.ctx),
                    T("Let", T("VAddress", v.x, v.ectx), v.ebody, v.ectx, v.ak),
                ),
                atom("copy_ctx", v.ctx, v.ectx, v.e),
                atom("flow_ee", v.e, v.ebnd),
            ],
            body=[
                atom("state_e", v.e, v.ctx, v.ak),
                atom("let", v.e, v.ll, v.ebody),
                atom("let_list", v.ll, v.x, v.ebnd),
                atom("peek_ctx", v.e, v.ctx, v.ectx),
            ],
        ),
        rule(
            "e-prim",
            heads=[
                atom("state_e", v.ea0, v.ctx, _ka(v.ea0, v.ctx)),
                atom("stored_kont", _ka(v.ea0, v.ctx), T("Prim1", v.opname, v.ea1, v.ctx, v.ak)),
                atom("flow_ee", v.e, v.ea0),
            ],
            body=[
                atom("state_e", v.e, v.ctx, v.ak),
                atom("prim_call", v.e, v.opid, v.pl),
                atom("prim", v.opid, v.opname),
                atom("call_arg_list", v.pl, 0, v.ea0),
                atom("call_arg_list", v.pl, 1, v.ea1),
            ],
        ),
    ]


def atomic_rules() -> list[Rule]:
    return [
        rule(
            "a-num",
            heads=[
                atom("state_a", T("Number", v.n), v.ak),
                atom("flow_ea", v.e, T("Number", v.n)),
            ],
            body=[atom("state_e", v.e, WILD, v.ak), atom("num", v.e, v.n)],
        ),
        rule(
            "a-bool",
            heads=[
                atom("state_a", T("Bool", v.b), v.ak),
                atom("flow_ea", v.e, T("Bool", v.b)),
            ],
            body=[atom("state_e", v.e, WILD, v.ak), atom("bool", v.e, v.b)],
        ),
        rule(
            "a-lambda",
            heads=[
                atom("state_a", T("Closure", v.e, v.ctx), v.ak),
                atom("flow_ea", v.e, T("Closure", v.e, v.ctx)),
            ],
            body=[atom("state_e", v.e, v.ctx, v.ak), atom("lambda", v.e, WILD, WILD)],
        ),
        rule(
            "a-var",
            heads=[atom("state_a", v.val, v.ak), atom("flow_ea", v.e, v.val)],
            body=[
                atom("state_e", v.e, v.ctx, v.ak),
                atom("var", v.e, v.x),
                atom("stored_val", T("VAddress", v.x, v.ctx), v.val),
            ],
        ),
    ]


def _branch_tests(cfg: AnalysisConfig):
    """``truthy(val)`` and ``falsy(val)``: whether a conditional whose guard
    is ``val`` takes its then and its else branch.  The reference set sends
    neither PrimVal nor NumTop anywhere; both-branches mode (default) sends
    each to both branches so opaque guards stay sound."""
    opaque = {"PrimVal", "NumTop"} if cfg.primval_truthiness == "both-branches" else set()
    truthy_tags = {"Closure", "Number", "Kont"} | opaque
    true, false = Bool("#t"), Bool("#f")

    def truthy(val):
        return val is true or val.tag in truthy_tags

    def falsy(val):
        return val is false or val.tag in opaque

    return truthy, falsy


def apply_rules(cfg: AnalysisConfig) -> list[Rule]:
    widen = _widen_pv(cfg)
    truthy, falsy = _branch_tests(cfg)

    return [
        rule(
            "a-if-true",
            heads=[
                atom("state_e", v.et, v.ctx_k, v.next_ak),
                atom("flow_ae", T("Bool", "#t"), v.et),
            ],
            body=[
                atom("state_a", v.val, v.ak),
                atom("stored_kont", v.ak, T("If", v.et, WILD, v.ctx_k, v.next_ak)),
            ],
            guards=[A(truthy, v.val)],
        ),
        rule(
            "a-if-false",
            heads=[
                atom("state_e", v.ef, v.ctx_k, v.next_ak),
                atom("flow_ae", T("Bool", "#f"), v.ef),
            ],
            body=[
                atom("state_a", v.val, v.ak),
                atom("stored_kont", v.ak, T("If", WILD, v.ef, v.ctx_k, v.next_ak)),
            ],
            guards=[A(falsy, v.val)],
        ),
        rule(
            "a-callcc",
            heads=[
                atom("state_e", v.ebody, v.ectx, v.next_ak),
                atom("stored_val", T("VAddress", v.x, v.ectx), T("Kont", v.ak)),
                atom("copy_ctx", v.ctx_clo, v.ectx, v.elam),
                atom("flow_ae", T("Closure", v.elam, v.ctx_clo), v.ebody),
            ],
            body=[
                atom("state_a", T("Closure", v.elam, v.ctx_clo), v.ak),
                atom("stored_kont", v.ak, T("Callcc", v.ectx, v.next_ak)),
                atom("lambda", v.elam, v.params, v.ebody),
                atom("lambda_arg_list", v.params, 0, v.x),
            ],
        ),
        rule(
            "a-callcc-kont",
            heads=[
                atom("state_a", T("Kont", v.ak), v.bk),
                atom("flow_aa", T("Kont", v.bk), T("Kont", v.ak)),
            ],
            body=[
                atom("state_a", T("Kont", v.bk), v.ak),
                atom("stored_kont", v.ak, T("Callcc", WILD, WILD)),
            ],
        ),
        rule(
            "a-arg",
            heads=[
                atom("state_e", v.earg, v.ctx, _ka(v.earg, v.ctx)),
                atom("stored_kont", _ka(v.earg, v.ctx), T("Fn", v.val, v.pos, v.ectx, v.next_ak)),
                atom("flow_ae", v.val, v.earg),
            ],
            body=[
                atom("state_a", v.val, v.ak),
                atom("stored_kont", v.ak, T("Arg", v.eargs, v.ctx, v.ectx, v.next_ak)),
                atom("call_arg_list", v.eargs, v.pos, v.earg),
            ],
        ),
        rule(
            "a-call",
            heads=[
                atom("state_e", v.ebody, v.ectx, v.next_ak),
                atom("stored_val", T("VAddress", v.x, v.ectx), v.val),
                atom("copy_ctx", v.ctx_clo, v.ectx, v.elam),
                atom("flow_ae", v.val, v.ebody),
            ],
            body=[
                atom("state_a", v.val, v.ak),
                atom(
                    "stored_kont",
                    v.ak,
                    T("Fn", T("Closure", v.elam, v.ctx_clo), v.pos, v.ectx, v.next_ak),
                ),
                atom("lambda", v.elam, v.params, v.ebody),
                atom("lambda_arg_list", v.params, v.pos, v.x),
            ],
        ),
        rule(
            "a-call-kont",
            heads=[atom("state_a", v.val, v.ck), atom("flow_aa", v.val, v.val)],
            body=[
                atom("state_a", v.val, v.ak),
                atom("stored_kont", v.ak, T("Fn", T("Kont", v.ck), 0, WILD, WILD)),
            ],
        ),
        rule(
            "a-let",
            heads=[
                atom("state_e", v.ebody, v.ctx, v.next_ak),
                atom("stored_val", v.av, v.val),
                atom("flow_ae", v.val, v.ebody),
            ],
            body=[
                atom("state_a", v.val, v.ak),
                atom("stored_kont", v.ak, T("Let", v.av, v.ebody, v.ctx, v.next_ak)),
            ],
        ),
        rule(
            "a-prim1",
            heads=[
                atom("state_e", v.ea1, v.ctx, _ka(v.ea1, v.ctx)),
                atom("stored_kont", _ka(v.ea1, v.ctx), T("Prim2", v.op, v.val, v.next_ak)),
                atom("flow_ae", v.val, v.ea1),
            ],
            body=[
                atom("state_a", v.val, v.ak),
                atom("stored_kont", v.ak, T("Prim1", v.op, v.ea1, v.ctx, v.next_ak)),
            ],
        ),
        rule(
            "a-prim2",
            heads=[
                atom("state_a", A(widen, v.op, v.v1, v.v2, label="widen"), v.next_ak),
                atom("flow_aa", v.v2, A(widen, v.op, v.v1, v.v2, label="widen")),
            ],
            body=[
                atom("state_a", v.v2, v.ak),
                atom("stored_kont", v.ak, T("Prim2", v.op, v.v1, v.next_ak)),
            ],
        ),
        rule(
            "a-set",
            heads=[
                atom("state_a", T("Number", -42), v.next_ak),
                atom("stored_val", v.loc, v.val),
                atom("flow_aa", v.val, T("Number", -42)),
            ],
            body=[
                atom("state_a", v.val, v.ak),
                atom("stored_kont", v.ak, T("Set", v.loc, v.next_ak)),
            ],
        ),
    ]


def build_rules(cfg: AnalysisConfig) -> list[Rule]:
    return (
        context_rules(cfg)
        + freevar_rules()
        + eval_rules()
        + atomic_rules()
        + apply_rules(cfg)
    )


def build_analysis_ruleset(cfg: AnalysisConfig) -> RuleSet:
    """The rule set of ``cfg``, built once per setting of the fields its
    rules read (not ``fact_ceiling``): the rule set keeps its compiled
    joins, so later runs only bind them to their store."""
    return _ruleset(cfg.m, cfg.widen_depth, cfg.primval_truthiness)


@functools.lru_cache(maxsize=32)
def _ruleset(m: int, widen_depth: int | None, primval_truthiness: str) -> RuleSet:
    cfg = AnalysisConfig(m=m, widen_depth=widen_depth, primval_truthiness=primval_truthiness)
    return build_ruleset(ALL_RELATIONS, build_rules(cfg))


# ---------------------------------------------------------------------------
# The one-call analyzer
# ---------------------------------------------------------------------------


def analyze(
    program: LabeledProgram,
    cfg: AnalysisConfig | None = None,
    *,
    naive: bool = False,
) -> AnalysisResult:
    cfg = cfg or AnalysisConfig()
    edb = extract_facts(program)
    store = TupleStore(ALL_RELATIONS)
    for name, rows in edb.facts.items():
        store.bulk_add(name, rows)
    for name, rows in inject(edb, cfg).items():
        store.bulk_add(name, rows)
    ruleset = build_analysis_ruleset(cfg)
    final, stats = saturate(ruleset, store, naive=naive, fact_ceiling=cfg.fact_ceiling)
    relations = {name: set(final.tuples(name)) for name in IDB_SCHEMA}
    return AnalysisResult(
        relations=relations,
        engine="naive" if naive else "seminaive",
        rounds=stats.rounds,
        peak_facts=stats.peak_facts,
    )
