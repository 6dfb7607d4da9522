"""A small stratified deductive-rule evaluator (semi-naive fixpoint).

Rules are built programmatically: atoms name a declared relation and carry
patterns over columns.  Patterns can bind variables, match nested term
constructors (destructuring interned terms by tag), compare against
constants, and — in heads only — call registered builder functions to
compute a column from bound variables.  Disequality (``x != y``) is the one
built-in body constraint; there is no negation.

Evaluation is stratified by the SCC condensation of the head/body dependency
graph (all heads of a multi-head rule are forced into one stratum), and each
stratum runs either semi-naive (each derivation joins at least one
newly-derived tuple) or naive (full re-join every round, for differential
testing).  Tuple stores keep hash indexes per bound-column set, built lazily
and maintained incrementally.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from schemeflow.errors import FactCeilingExceeded, RuleError
from schemeflow.terms import TERM_TYPES, Term

# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


class Pattern:
    __slots__ = ()


class PVar(Pattern):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


class PWild(Pattern):
    __slots__ = ()

    def __repr__(self) -> str:
        return "_"


WILD = PWild()


class PConst(Pattern):
    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def __repr__(self) -> str:
        return repr(self.value)


class PStruct(Pattern):
    __slots__ = ("tag", "fields")

    def __init__(self, tag: str, fields: Sequence[Pattern]) -> None:
        if tag not in TERM_TYPES:
            raise RuleError(f"unknown term constructor {tag!r}")
        self.tag = tag
        self.fields = tuple(fields)

    def __repr__(self) -> str:
        inner = " ".join(map(repr, self.fields))
        return f"$({self.tag} {inner})" if inner else f"$({self.tag})"


class PApply(Pattern):
    """Head-only: compute a column as ``fn(*fields)`` over bound variables."""

    __slots__ = ("fn", "fields", "label")

    def __init__(self, fn: Callable, fields: Sequence[Pattern], label: str | None = None) -> None:
        self.fn = fn
        self.fields = tuple(fields)
        self.label = label or fn.__name__

    def __repr__(self) -> str:
        return f"@{self.label}({', '.join(map(repr, self.fields))})"


def coerce(p: object) -> Pattern:
    if isinstance(p, Pattern):
        return p
    if isinstance(p, (str, int, Term)):
        return PConst(p)
    raise RuleError(f"cannot use {p!r} as a pattern")


class _VarFactory:
    """``v.x`` is shorthand for ``PVar("x")``."""

    def __getattr__(self, name: str) -> PVar:
        return PVar(name)


v = _VarFactory()


def T(tag: str, *fields: object) -> PStruct:
    return PStruct(tag, [coerce(f) for f in fields])


def A(fn: Callable, *fields: object, label: str | None = None) -> PApply:
    return PApply(fn, [coerce(f) for f in fields], label)


# ---------------------------------------------------------------------------
# Atoms, rules, rule sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    rel: str
    patterns: tuple[Pattern, ...]

    def __repr__(self) -> str:
        return f"{self.rel}({', '.join(map(repr, self.patterns))})"


def atom(rel: str, *patterns: object) -> Atom:
    return Atom(rel, tuple(coerce(p) for p in patterns))


@dataclass(frozen=True)
class NotEq:
    """Built-in disequality between a variable and a variable or constant."""

    left: Pattern
    right: Pattern

    def __repr__(self) -> str:
        return f"{self.left!r} != {self.right!r}"


def neq(left: object, right: object) -> NotEq:
    return NotEq(coerce(left), coerce(right))


@dataclass(frozen=True)
class Rule:
    name: str
    heads: tuple[Atom, ...]
    body: tuple[Atom, ...]
    guards: tuple[NotEq, ...] = ()

    def __repr__(self) -> str:
        heads = ", ".join(map(repr, self.heads))
        parts = list(map(repr, self.body)) + list(map(repr, self.guards))
        return f"{heads} :- {', '.join(parts)}."


def rule(name: str, heads: Sequence[Atom], body: Sequence[Atom], guards: Sequence[NotEq] = ()) -> Rule:
    return Rule(name, tuple(heads), tuple(body), tuple(guards))


def _pattern_vars(p: Pattern, out: set[str], *, allow_apply: bool) -> None:
    if isinstance(p, PVar):
        out.add(p.name)
    elif isinstance(p, PStruct):
        for f in p.fields:
            _pattern_vars(f, out, allow_apply=allow_apply)
    elif isinstance(p, PApply):
        if not allow_apply:
            raise RuleError("builder application is only allowed in rule heads")
        for f in p.fields:
            _pattern_vars(f, out, allow_apply=allow_apply)


@dataclass
class RuleSet:
    relations: dict[str, int]  # name -> arity
    rules: list[Rule]
    strata: list[list[str]] = field(default_factory=list)
    stratum_of: dict[str, int] = field(default_factory=dict)


def build_ruleset(relations: dict[str, int], rules: Iterable[Rule]) -> RuleSet:
    """Validate arities and range restriction, then stratify."""
    rules = list(rules)
    for r in rules:
        body_vars: set[str] = set()
        for a in r.body:
            if a.rel not in relations:
                raise RuleError(f"{r.name}: unknown relation {a.rel!r}")
            if len(a.patterns) != relations[a.rel]:
                raise RuleError(
                    f"{r.name}: {a.rel} expects {relations[a.rel]} columns, got {len(a.patterns)}"
                )
            for p in a.patterns:
                _pattern_vars(p, body_vars, allow_apply=False)
        if not r.heads:
            raise RuleError(f"{r.name}: rule has no head")
        for h in r.heads:
            if h.rel not in relations:
                raise RuleError(f"{r.name}: unknown relation {h.rel!r}")
            if len(h.patterns) != relations[h.rel]:
                raise RuleError(
                    f"{r.name}: {h.rel} expects {relations[h.rel]} columns, got {len(h.patterns)}"
                )
            head_vars: set[str] = set()
            for p in h.patterns:
                if isinstance(p, PWild):
                    raise RuleError(f"{r.name}: wildcard in head")
                _pattern_vars(p, head_vars, allow_apply=True)
            unbound = head_vars - body_vars
            if unbound:
                raise RuleError(f"{r.name}: head variables {sorted(unbound)} not bound by body")
        for g in r.guards:
            guard_vars: set[str] = set()
            _pattern_vars(g.left, guard_vars, allow_apply=False)
            _pattern_vars(g.right, guard_vars, allow_apply=False)
            if guard_vars - body_vars:
                raise RuleError(f"{r.name}: guard uses unbound variables")
    ruleset = RuleSet(dict(relations), rules)
    _stratify(ruleset)
    return ruleset


def _stratify(rs: RuleSet) -> None:
    deps: dict[str, set[str]] = {name: set() for name in rs.relations}
    for r in rs.rules:
        head_rels = {h.rel for h in r.heads}
        for h in head_rels:
            for b in r.body:
                deps[h].add(b.rel)
            # Heads of a multi-head rule must live in one stratum: tie them.
            for other in head_rels:
                if other != h:
                    deps[h].add(other)
                    deps[other].add(h)

    # Tarjan's SCC, iterative.
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = itertools.count()

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(deps[root])))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = next(counter)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(deps[nxt]))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for name in sorted(rs.relations):
        if name not in index:
            strongconnect(name)

    # Tarjan emits SCCs in reverse topological order: dependencies first.
    rs.strata = sccs
    rs.stratum_of = {name: i for i, scc in enumerate(sccs) for name in scc}
    for r in rs.rules:
        strata = {rs.stratum_of[h.rel] for h in r.heads}
        if len(strata) != 1:  # pragma: no cover - tying guarantees this
            raise RuleError(f"{r.name}: heads span strata")
        body_max = max((rs.stratum_of[b.rel] for b in r.body), default=-1)
        if body_max > min(strata):
            raise RuleError(f"{r.name}: body depends on a later stratum")


# ---------------------------------------------------------------------------
# Tuple store
# ---------------------------------------------------------------------------


class TupleStore:
    """Per-relation tuple sets with lazily built bound-column hash indexes."""

    def __init__(self, relations: Iterable[str] = ()) -> None:
        self.relations: dict[str, set[tuple]] = {name: set() for name in relations}
        self._indexes: dict[tuple[str, tuple[int, ...]], dict[tuple, list[tuple]]] = {}

    def ensure(self, name: str) -> None:
        self.relations.setdefault(name, set())

    def add(self, name: str, row: tuple) -> bool:
        rel = self.relations[name]
        if row in rel:
            return False
        rel.add(row)
        for (iname, positions), table in self._indexes.items():
            if iname == name:
                key = tuple(row[p] for p in positions)
                table.setdefault(key, []).append(row)
        return True

    def bulk_add(self, name: str, rows: Iterable[tuple]) -> int:
        return sum(self.add(name, row) for row in rows)

    def tuples(self, name: str) -> set[tuple]:
        return self.relations[name]

    def index(self, name: str, positions: tuple[int, ...]) -> dict[tuple, list[tuple]]:
        key = (name, positions)
        table = self._indexes.get(key)
        if table is None:
            table = {}
            for row in self.relations[name]:
                table.setdefault(tuple(row[p] for p in positions), []).append(row)
            self._indexes[key] = table
        return table

    def total(self) -> int:
        return sum(len(rows) for rows in self.relations.values())

    def copy(self) -> "TupleStore":
        out = TupleStore()
        out.relations = {name: set(rows) for name, rows in self.relations.items()}
        return out


# ---------------------------------------------------------------------------
# Matching and instantiation
# ---------------------------------------------------------------------------


def _match(p: Pattern, val: object, bindings: dict, trail: list[str]) -> bool:
    if isinstance(p, PVar):
        name = p.name
        if name in bindings:
            return bindings[name] == val
        bindings[name] = val
        trail.append(name)
        return True
    if isinstance(p, PWild):
        return True
    if isinstance(p, PConst):
        return p.value == val
    if isinstance(p, PStruct):
        if not isinstance(val, Term) or val.tag != p.tag or len(val.args) != len(p.fields):
            return False
        return all(_match(f, a, bindings, trail) for f, a in zip(p.fields, val.args))
    raise RuleError(f"pattern {p!r} not allowed in body")


def _build_value(p: Pattern, bindings: dict) -> object:
    if isinstance(p, PVar):
        return bindings[p.name]
    if isinstance(p, PConst):
        return p.value
    if isinstance(p, PStruct):
        return TERM_TYPES[p.tag](*(_build_value(f, bindings) for f in p.fields))
    if isinstance(p, PApply):
        return p.fn(*(_build_value(f, bindings) for f in p.fields))
    raise RuleError(f"cannot instantiate {p!r}")


def _try_ground(p: Pattern, bindings: dict) -> tuple[bool, object]:
    """If ``p`` is fully determined by ``bindings``, produce its value."""
    if isinstance(p, PConst):
        return True, p.value
    if isinstance(p, PVar):
        if p.name in bindings:
            return True, bindings[p.name]
        return False, None
    if isinstance(p, PStruct):
        vals = []
        for f in p.fields:
            ok, val = _try_ground(f, bindings)
            if not ok:
                return False, None
            vals.append(val)
        return True, TERM_TYPES[p.tag](*vals)
    return False, None


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------


def _apply_rule(
    store: TupleStore,
    r: Rule,
    delta: dict[str, set[tuple]] | None,
    out: list[tuple[str, tuple]],
) -> None:
    """Emit head instantiations of ``r``; with ``delta``, require at least one
    delta atom (run once per delta position, standard semi-naive)."""
    n = len(r.body)
    if delta is None:
        orders = [list(range(n))]
        sources: list[set[tuple] | None] = [None]
    else:
        orders = []
        sources = []
        for i, a in enumerate(r.body):
            if a.rel in delta:
                orders.append([i] + [j for j in range(n) if j != i])
                sources.append(delta[a.rel])
        if not orders:
            return

    guards = r.guards

    for order, first_source in zip(orders, sources):
        bindings: dict = {}
        trail: list[str] = []

        def emit() -> None:
            for g in guards:
                ok_l, lv = _try_ground(g.left, bindings)
                ok_r, rv = _try_ground(g.right, bindings)
                if not (ok_l and ok_r):  # pragma: no cover - validated at build
                    raise RuleError(f"{r.name}: guard on unbound variable")
                if lv == rv:
                    return
            for h in r.heads:
                out.append((h.rel, tuple(_build_value(p, bindings) for p in h.patterns)))

        def rec(k: int) -> None:
            if k == n:
                emit()
                return
            a = r.body[order[k]]
            if k == 0 and first_source is not None:
                candidates: Iterable[tuple] = first_source
            else:
                ground_positions: list[int] = []
                ground_values: list[object] = []
                unground: list[int] = []
                for pos, p in enumerate(a.patterns):
                    ok, val = _try_ground(p, bindings)
                    if ok:
                        ground_positions.append(pos)
                        ground_values.append(val)
                    else:
                        unground.append(pos)
                if ground_positions and unground:
                    table = store.index(a.rel, tuple(ground_positions))
                    candidates = table.get(tuple(ground_values), ())
                elif ground_positions:
                    # Fully ground atom: membership test.
                    candidates = (
                        (tuple(ground_values),)
                        if tuple(ground_values) in store.tuples(a.rel)
                        else ()
                    )
                else:
                    candidates = store.tuples(a.rel)
            mark = len(trail)
            for row in candidates:
                ok = True
                for p, val in zip(a.patterns, row):
                    if not _match(p, val, bindings, trail):
                        ok = False
                        break
                if ok:
                    rec(k + 1)
                while len(trail) > mark:
                    bindings.pop(trail.pop())

        rec(0)


@dataclass
class SaturationStats:
    rounds: int = 0
    peak_facts: int = 0


def saturate(
    ruleset: RuleSet,
    edb: TupleStore,
    *,
    naive: bool = False,
    fact_ceiling: int | None = None,
) -> tuple[TupleStore, SaturationStats]:
    """Compute the least fixpoint of ``ruleset`` over ``edb`` (not mutated)."""
    store = edb.copy()
    for name in ruleset.relations:
        store.ensure(name)
    stats = SaturationStats()

    def check_ceiling() -> None:
        total = store.total()
        stats.peak_facts = max(stats.peak_facts, total)
        if fact_ceiling is not None and total > fact_ceiling:
            raise FactCeilingExceeded(total, fact_ceiling)

    check_ceiling()
    for stratum_index, scc in enumerate(ruleset.strata):
        stratum_rels = set(scc)
        stratum_rules = [
            r for r in ruleset.rules if ruleset.stratum_of[r.heads[0].rel] == stratum_index
        ]
        if not stratum_rules:
            continue
        if naive:
            _run_naive(store, stratum_rules, stats, check_ceiling)
        else:
            _run_semi_naive(store, stratum_rules, stratum_rels, stats, check_ceiling)
    return store, stats


def _run_naive(store, rules, stats, check_ceiling) -> None:
    while True:
        stats.rounds += 1
        emitted: list[tuple[str, tuple]] = []
        for r in rules:
            _apply_rule(store, r, None, emitted)
        changed = False
        for rel, row in emitted:
            if store.add(rel, row):
                changed = True
        check_ceiling()
        if not changed:
            return


def _run_semi_naive(store, rules, stratum_rels, stats, check_ceiling) -> None:
    # Rules with no body atom in this stratum cannot re-fire once the lower
    # strata are fixed: run them a single time up front.
    recursive: list[Rule] = []
    emitted: list[tuple[str, tuple]] = []
    for r in rules:
        if any(b.rel in stratum_rels for b in r.body):
            recursive.append(r)
        else:
            _apply_rule(store, r, None, emitted)
    for rel, row in emitted:
        store.add(rel, row)
    check_ceiling()

    delta: dict[str, set[tuple]] = {
        rel: set(store.tuples(rel)) for rel in stratum_rels if store.tuples(rel)
    }
    while delta:
        stats.rounds += 1
        emitted = []
        for r in recursive:
            _apply_rule(store, r, delta, emitted)
        new_delta: dict[str, set[tuple]] = {}
        for rel, row in emitted:
            if store.add(rel, row):
                new_delta.setdefault(rel, set()).add(row)
        check_ceiling()
        delta = new_delta
