"""A small stratified deductive-rule evaluator (semi-naive fixpoint).

Rules are built programmatically: atoms name a declared relation and carry
patterns over columns.  Patterns can bind variables, match nested term
constructors (destructuring interned terms by tag), compare against
constants, and — in heads only — call registered builder functions to
compute a column from bound variables.  Disequality (``x != y``) is the one
built-in body constraint; there is no negation.

Evaluation is stratified by mutual reachability in the head/body dependency
graph: two relations share a stratum when each depends, directly or not, on
the other (all heads of a multi-head rule are tied into one stratum), and
dependencies come first.  Each stratum runs either semi-naive (each
derivation joins at least one newly-derived tuple) or naive (full re-join
every round, for differential testing).  Each rule's join is planned once
per delta position before its stratum runs: the delta atom first, then the
body in declaration order, each step knowing which columns are ground by
then (its index key) and which are left to match.  Tuple stores keep, per
relation, one hash index per key-column set, built lazily and maintained
incrementally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

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
        for a in r.body + r.heads:
            if a.rel not in relations:
                raise RuleError(f"{r.name}: unknown relation {a.rel!r}")
            if len(a.patterns) != relations[a.rel]:
                raise RuleError(
                    f"{r.name}: {a.rel} expects {relations[a.rel]} columns, got {len(a.patterns)}"
                )
        if not r.heads:
            raise RuleError(f"{r.name}: rule has no head")
        body_vars: set[str] = set()
        for a in r.body:
            for p in a.patterns:
                _pattern_vars(p, body_vars, allow_apply=False)
        for h in r.heads:
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
        # Heads of a multi-head rule must live in one stratum: tie them.
        head_rels = {h.rel for h in r.heads}
        for h in head_rels:
            deps[h] |= head_rels | {b.rel for b in r.body}

    # reach[x]: x itself and everything x depends on, directly or not.
    reach: dict[str, set[str]] = {}
    for name in rs.relations:
        seen = {name}
        todo = [name]
        while todo:
            for dep in deps[todo.pop()] - seen:
                seen.add(dep)
                todo.append(dep)
        reach[name] = seen

    # Relations that reach each other share a stratum.  Because reach[x]
    # holds x, a relation reaches strictly more than any relation it depends
    # on outside its own stratum, so ordering by reach size puts dependencies
    # first, and body relations never sit in a later stratum than heads.
    rs.strata = []
    rs.stratum_of = {}
    for name in sorted(rs.relations, key=lambda x: (len(reach[x]), x)):
        if name not in rs.stratum_of:
            scc = sorted(y for y in reach[name] if name in reach[y])
            rs.stratum_of.update((y, len(rs.strata)) for y in scc)
            rs.strata.append(scc)


# ---------------------------------------------------------------------------
# Tuple store
# ---------------------------------------------------------------------------


class TupleStore:
    """Per-relation tuple sets, each with lazily built key-column hash indexes."""

    def __init__(self, relations: Iterable[str] = ()) -> None:
        self.relations: dict[str, set[tuple]] = {name: set() for name in relations}
        self._indexes: dict[str, dict[tuple[int, ...], dict[tuple, list[tuple]]]] = {}

    def ensure(self, name: str) -> None:
        self.relations.setdefault(name, set())

    def add(self, name: str, row: tuple) -> bool:
        rel = self.relations[name]
        if row in rel:
            return False
        rel.add(row)
        for positions, table in self._indexes.get(name, {}).items():
            table.setdefault(tuple(row[p] for p in positions), []).append(row)
        return True

    def bulk_add(self, name: str, rows: Iterable[tuple]) -> int:
        return sum(self.add(name, row) for row in rows)

    def tuples(self, name: str) -> set[tuple]:
        return self.relations[name]

    def index(self, name: str, positions: tuple[int, ...]) -> dict[tuple, list[tuple]]:
        indexes = self._indexes.setdefault(name, {})
        table = indexes.get(positions)
        if table is None:
            table = indexes[positions] = {}
            for row in self.relations[name]:
                table.setdefault(tuple(row[p] for p in positions), []).append(row)
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


def _ground(p: Pattern, bound: set[str]) -> bool:
    """Whether ``p`` is fully determined once the variables ``bound`` are."""
    if isinstance(p, PConst):
        return True
    if isinstance(p, PVar):
        return p.name in bound
    if isinstance(p, PStruct):
        return all(_ground(f, bound) for f in p.fields)
    return False


# ---------------------------------------------------------------------------
# Join plans
# ---------------------------------------------------------------------------


class _Step(NamedTuple):
    """One body atom of a join plan."""

    rel: str
    key_cols: tuple[int, ...]  # columns ground on arrival: the index key
    key: tuple[Pattern, ...]  # their patterns, built into the key
    rest: tuple[tuple[int, Pattern], ...]  # (column, pattern) left to match


def _plan(r: Rule, first: int | None) -> list[_Step]:
    """The join order of ``r``'s body: the delta atom ``first`` (matched
    whole against the delta), then the others in declaration order."""
    order = list(range(len(r.body)))
    if first is not None:
        order.remove(first)
        order.insert(0, first)
    bound: set[str] = set()
    steps = []
    for i in order:
        a = r.body[i]
        ground = () if i == first else tuple(
            c for c, p in enumerate(a.patterns) if _ground(p, bound)
        )
        rest = tuple((c, p) for c, p in enumerate(a.patterns) if c not in ground)
        steps.append(_Step(a.rel, ground, tuple(a.patterns[c] for c in ground), rest))
        for p in a.patterns:
            _pattern_vars(p, bound, allow_apply=False)
    return steps


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------


def _apply_rule(
    store: TupleStore,
    r: Rule,
    steps: list[_Step],
    out: list[tuple[str, tuple]],
    delta_rows: set[tuple] | None = None,
) -> None:
    """Emit head instantiations of ``r`` by following its plan ``steps``;
    ``delta_rows``, when given, are the first step's candidates."""
    _join(store, r, steps, 0, delta_rows, {}, [], out)


def _join(store, r, steps, k, rows, bindings, trail, out) -> None:
    if k == len(steps):
        for g in r.guards:
            if _build_value(g.left, bindings) == _build_value(g.right, bindings):
                return
        for h in r.heads:
            out.append((h.rel, tuple(_build_value(p, bindings) for p in h.patterns)))
        return
    rel, key_cols, key, rest = steps[k]
    if rows is None:
        if not key_cols:
            rows = store.tuples(rel)
        elif not rest:
            # Every column is fixed: a membership test.
            row = tuple(_build_value(p, bindings) for p in key)
            rows = (row,) if row in store.tuples(rel) else ()
        else:
            table = store.index(rel, key_cols)
            rows = table.get(tuple(_build_value(p, bindings) for p in key), ())
    mark = len(trail)
    for row in rows:
        for c, p in rest:
            if not _match(p, row[c], bindings, trail):
                break
        else:
            _join(store, r, steps, k + 1, None, bindings, trail, out)
        while len(trail) > mark:
            bindings.pop(trail.pop())


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
    plans = [(r, _plan(r, None)) for r in rules]
    while True:
        stats.rounds += 1
        emitted: list[tuple[str, tuple]] = []
        for r, steps in plans:
            _apply_rule(store, r, steps, emitted)
        changed = False
        for rel, row in emitted:
            if store.add(rel, row):
                changed = True
        check_ceiling()
        if not changed:
            return


def _run_semi_naive(store, rules, stratum_rels, stats, check_ceiling) -> None:
    # Rules with no body atom in this stratum cannot re-fire once the lower
    # strata are fixed: run them a single time up front.  The others get one
    # plan per body atom of this stratum, run when that atom has a delta.
    plans: list[tuple[Rule, str, list[_Step]]] = []
    emitted: list[tuple[str, tuple]] = []
    for r in rules:
        if any(b.rel in stratum_rels for b in r.body):
            plans.extend(
                (r, a.rel, _plan(r, i)) for i, a in enumerate(r.body) if a.rel in stratum_rels
            )
        else:
            _apply_rule(store, r, _plan(r, None), emitted)
    for rel, row in emitted:
        store.add(rel, row)
    check_ceiling()

    delta: dict[str, set[tuple]] = {
        rel: set(store.tuples(rel)) for rel in stratum_rels if store.tuples(rel)
    }
    while delta:
        stats.rounds += 1
        emitted = []
        for r, rel, steps in plans:
            if rel in delta:
                _apply_rule(store, r, steps, emitted, delta[rel])
        new_delta: dict[str, set[tuple]] = {}
        for rel, row in emitted:
            if store.add(rel, row):
                new_delta.setdefault(rel, set()).add(row)
        check_ceiling()
        delta = new_delta
