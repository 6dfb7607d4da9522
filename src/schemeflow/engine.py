"""A small stratified deductive-rule evaluator (semi-naive fixpoint).

Rules are built programmatically: atoms name a declared relation and carry
patterns over columns.  Patterns can bind variables, match nested term
constructors (destructuring interned terms by tag), compare against
constants, and — in heads only — call registered builder functions to
compute a column from bound variables.  A rule's guards are builder calls
too: a row passes only when every guard returns true.  There is no
negation.

Evaluation is stratified by mutual reachability in the head/body dependency
graph: two relations share a stratum when each depends, directly or not, on
the other (all heads of a multi-head rule are tied into one stratum), and
dependencies come first.  Each stratum runs either semi-naive (each
derivation joins at least one newly-derived tuple) or naive (full re-join
every round, for differential testing).

Each rule's join is planned once per body atom in its stratum, which comes
first; a rule with no such atom, and each rule in naive mode, is planned
once, from the atom ranked first.  After the first atom comes the one with
the most columns ground by then, then the one with the fewest new
variables, then the earliest declared.  The columns ground on arrival, some
or all of them, are a later step's index key.

A stratum compiles to one Python function per relation its plans start
with.  It takes a mapping from key to rows (the relation's delta, or all
of it) grouped by the columns that all its plans' second steps look up by,
or else under the one key ``()``.  It groups only where the stratum looks
the relation up by that key anyway, so the groups come from the insert's
pass that extends that index, and where some plan leaves the other columns
unchecked.  Per group, one block per plan in rule order nests loops over
index lookups and relations, unpacking of struct patterns, an ``if`` around
the rest of the block for each check, and calls that append each built
head row to its relation's buffer.  The loop over the group's rows opens
where the block first reads their other columns, so what reads only the
key and the rows its lookup found runs once per found row.  A head term is
built by subscripting its class's intern pool, or is a constant when all
its fields are; a builder call or a term that a rule's heads repeat is
computed once per firing.  Plans whose second step is the same index
lookup, keyed on the same columns of the first atom, share the loop over
the rows it finds.  As checks nest, a mismatch closes only its own plan's
block.  So the analysis's main stratum compiles to six joins, and its
eleven continuation-frame rules share one ``stored_kont`` lookup and test
each frame's class once per continuation address of the ``state_a``
delta.  Naive mode keeps one join per rule as the reference.

The source text holds only generated names, so one text serves every join
of its shape.  A rule set keeps its compiled joins, with their constants,
term classes, intern pools and builders, per mode from its first run on; a
run binds only its own relations, indexes and buffers to them.

A round runs its joins, then inserts each relation's buffer with whole-set
operations: the new rows are the buffered rows minus the relation, the
relation takes their union, and they are that relation's delta in the next
round, grouped by its join's key in the pass that extends the index on it.
Tuple stores keep, per relation, one hash index per key-column set, built
when a plan is first bound and extended by each insert's new rows; a
relation that no plan looks up by key has none, and its inserts are set
operations alone.
"""

from __future__ import annotations

import collections
import functools
import operator
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
    """``fn(*fields)`` over bound variables: a head column, or a guard."""

    __slots__ = ("fn", "fields")

    def __init__(self, fn: Callable, fields: Sequence[Pattern]) -> None:
        self.fn = fn
        self.fields = tuple(fields)

    def __repr__(self) -> str:
        return f"@{self.fn.__name__}({', '.join(map(repr, self.fields))})"


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


def A(fn: Callable, *fields: object) -> PApply:
    return PApply(fn, [coerce(f) for f in fields])


# ---------------------------------------------------------------------------
# Atoms, rules, rule sets
# ---------------------------------------------------------------------------


class Atom(NamedTuple):
    rel: str
    patterns: tuple[Pattern, ...]

    def __repr__(self) -> str:
        return f"{self.rel}({', '.join(map(repr, self.patterns))})"


def atom(rel: str, *patterns: object) -> Atom:
    return Atom(rel, tuple(coerce(p) for p in patterns))


class Rule(NamedTuple):
    name: str
    heads: tuple[Atom, ...]
    body: tuple[Atom, ...]
    guards: tuple[PApply, ...] = ()

    def __repr__(self) -> str:
        heads = ", ".join(map(repr, self.heads))
        parts = list(map(repr, self.body)) + list(map(repr, self.guards))
        return f"{heads} :- {', '.join(parts)}."


def rule(name: str, heads: Sequence[Atom], body: Sequence[Atom], guards: Sequence[PApply] = ()) -> Rule:
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


class RuleSet:
    # No ``__slots__``: a rule set stays weakly referenceable, so a test can
    # check that nothing of a run keeps it alive.
    def __init__(self, relations: dict[str, int], rules: list[Rule]) -> None:
        self.relations = relations  # name -> arity
        self.rules = rules
        self.strata: list[list[str]] = []
        self.stratum_of: dict[str, int] = {}
        # naive -> the compiled strata (see ``_program``); filled on first run
        self.compiled: dict[bool, list[_Stratum]] = {}


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
        if not r.body:
            raise RuleError(f"{r.name}: rule has no body")
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
            if not isinstance(g, PApply):
                raise RuleError(f"{r.name}: guard {g!r} is not a builder call")
            guard_vars: set[str] = set()
            _pattern_vars(g, guard_vars, allow_apply=True)
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
    """Per-relation tuple sets, each with lazily built key-column hash indexes.

    An index maps a row's key to the rows with that key.  A one-column key
    is the column's value; a wider key is the tuple of the values.
    """

    def __init__(self, relations: Iterable[str] = ()) -> None:
        self.relations: dict[str, set[tuple]] = {name: set() for name in relations}
        # name -> key columns -> (row -> key, key -> rows)
        self._indexes: dict[str, dict[tuple[int, ...], tuple[Callable, dict]]] = {}

    def bulk_add(self, name: str, rows: Iterable[tuple], by: tuple[int, ...] | None = None):
        """Insert ``rows`` into ``name`` and return those it did not hold
        yet: a set, or, given key columns ``by``, a mapping from each key to
        its new rows, as ``index`` gives them, grouped in the pass that
        extends the index on ``by``."""
        rel = self.relations[name]
        new = set(rows) - rel
        if by:
            # Built before the union, the index is then extended once.
            self.index(name, by)
        rel |= new
        groups: dict[object, list[tuple]] = {}
        for cols, (key, table) in self._indexes.get(name, {}).items():
            if cols != by:
                for row in new:
                    table.setdefault(key(row), []).append(row)
                continue
            for row in new:
                groups.setdefault(key(row), []).append(row)
            # A key new to the index takes the group's list itself: the
            # round that reads the group ends before an insert extends it.
            for k, group in groups.items():
                held = table.setdefault(k, group)
                if held is not group:
                    held.extend(group)
        if by is None:
            return new
        return groups if by else {(): new} if new else {}

    def tuples(self, name: str) -> set[tuple]:
        return self.relations[name]

    def index(self, name: str, positions: tuple[int, ...]) -> dict[object, Iterable[tuple]]:
        """The rows of ``name`` by their key on ``positions``; on no
        columns, one key ``()`` for the whole relation."""
        if not positions:
            return {(): self.relations[name]}
        indexes = self._indexes.setdefault(name, {})
        if positions not in indexes:
            key = operator.itemgetter(*positions)
            table: dict[object, list[tuple]] = {}
            for row in self.relations[name]:
                table.setdefault(key(row), []).append(row)
            indexes[positions] = (key, table)
        return indexes[positions][1]

    def total(self) -> int:
        return sum(len(rows) for rows in self.relations.values())


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
    key_cols: tuple[int, ...]  # columns ground on arrival, if not first: the index key
    patterns: tuple[Pattern, ...]


def _plan(r: Rule, first: int | None) -> list[_Step]:
    """The join order of ``r``'s body.  The first step is ``first``, or
    else the atom ranked first, and is matched whole against the rows its
    join is handed.  Each next atom is the one with the most columns ground
    by then, then the fewest new variables, then the earliest declared."""
    bound: set[str] = set()
    todo = list(range(len(r.body)))
    steps = []

    def rank(i: int) -> tuple[int, int, int]:
        a = r.body[i]
        new: set[str] = set()
        for p in a.patterns:
            _pattern_vars(p, new, allow_apply=False)
        return (-sum(_ground(p, bound) for p in a.patterns), len(new - bound), i)

    while todo:
        i = first if first is not None and not steps else min(todo, key=rank)
        todo.remove(i)
        a = r.body[i]
        ground = tuple(c for c, p in enumerate(a.patterns) if steps and _ground(p, bound))
        steps.append(_Step(a.rel, ground, a.patterns))
        for p in a.patterns:
            _pattern_vars(p, bound, allow_apply=False)
    return steps


# ---------------------------------------------------------------------------
# Compiled plans
# ---------------------------------------------------------------------------


def _tuple(items: list[str]) -> str:
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


class _Source:
    """The source text of one compiled join, and the values its names stand for.

    The text holds only identifiers made here: ``t*`` temporaries, which
    hold unpacked values and the builder values and terms computed once,
    and one parameter of ``make`` per entry of ``static`` (constants, terms
    of constants, term classes that checks compare types with, intern pools
    that build head terms by subscript, and builders) and of ``bound`` (relations, indexes and head
    appenders, which each run binds from its own store).  So joins of the
    same shape share one text, and one compiled function.
    """

    def __init__(self) -> None:
        self.static: dict[str, object] = {}
        self.bound: dict[str, _Binding] = {}
        self.var: dict[str, str] = {}  # rule variable -> identifier
        self.calls: dict[tuple, str] = {}  # shape of a repeated call or term -> its variable
        self.lines: list[str] = []
        self.depth = 2  # inside make and join; each loop and check adds one
        self.temps = 0
        self.pending: list[tuple[Pattern, str]] = []  # (pattern, temporary) to check

    def _next(self, prefix: str) -> str:
        return f"{prefix}{len(self.static) + len(self.bound)}"

    def name(self, prefix: str, value: object) -> str:
        name = self._next(prefix)
        self.static[name] = value
        return name

    def bound_name(self, kind: str, rel: str, cols: tuple[int, ...] = ()) -> str:
        name = self._next(kind)
        self.bound[name] = _Binding(kind, rel, cols)
        return name

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps - 1}"

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def require(self, test: str) -> None:
        """Go on with the candidate only if ``test`` holds: the rest of the
        rule's block nests in an ``if``."""
        self.line(f"if {test}:")
        self.depth += 1

    def loop(self, patterns: Sequence[Pattern], rows: str, known: Sequence[int] = ()) -> None:
        """Match each row of ``rows`` against ``patterns``; the ``known``
        columns are those its lookup already matched."""
        names = [
            "_" if c in known or isinstance(p, PWild) else self.temp() for c, p in enumerate(patterns)
        ]
        self.line(f"for {_tuple(names)} in {rows}:")
        self.depth += 1
        self.alias(patterns, names)
        self.unpacked()

    def build(self, p: Pattern) -> str:
        """An expression for the value of the ground pattern ``p``."""
        if isinstance(p, PVar):
            return self.var[p.name]
        if isinstance(p, PConst):
            return self.name("K", p.value)
        shared = self.calls.get(_shape(p))
        if shared is not None:
            return shared
        if isinstance(p, PStruct):
            term = _constant(p)
            if term is not None:
                return self.name("K", term)
            return f"{self.name('C', TERM_TYPES[p.tag]._pool)}[{_tuple([self.build(f) for f in p.fields])}]"
        if isinstance(p, PApply):
            return f"{self.name('F', p.fn)}({', '.join(map(self.build, p.fields))})"
        raise RuleError(f"cannot instantiate {p!r}")

    def alias(self, patterns: Sequence[Pattern], names: Sequence[str]) -> None:
        """Match ``patterns`` against values unpacked into ``names`` (``_``
        for a value known to match): a new variable takes its value's name,
        and ``unpacked`` then checks every other value."""
        for p, name in zip(patterns, names):
            if name == "_" or isinstance(p, PWild):
                continue
            if isinstance(p, PVar) and p.name not in self.var:
                self.var[p.name] = name
            else:
                self.pending.append((p, name))

    def unpacked(self) -> None:
        pending, self.pending = self.pending, []
        for p, t in pending:
            self.match(p, t)

    def match(self, p: Pattern, t: str) -> None:
        """Go on with the candidate only if the value ``t`` matches ``p``."""
        if isinstance(p, PVar):
            self.require(f"{t} == {self.var[p.name]}")
        elif isinstance(p, PConst):
            self.require(f"{t} == {self.name('K', p.value)}")
        elif isinstance(p, PStruct):
            cls, n = self.name("C", TERM_TYPES[p.tag]), len(p.fields)
            self.require(f"type({t}) is {cls} and len({t}.args) == {n}")
            names = ["_" if isinstance(f, PWild) else self.temp() for f in p.fields]
            if any(name != "_" for name in names):
                self.line(f"{_tuple(names)} = {t}.args")
                self.alias(p.fields, names)
                self.unpacked()
        else:
            raise RuleError(f"pattern {p!r} not allowed in body")

    def rule(self, r: Rule, steps: Sequence[_Step], group: tuple | None = None) -> None:
        """The join of ``steps``, then ``r``'s guards and heads.  ``group``,
        if given, is ``(rows, patterns, key)``: a key group of the first
        atom's rows, never empty, whose ``key`` columns are matched and
        whose other columns of ``patterns`` are not yet.  The loop over
        the group opens first if one of those columns holds a check, else
        before the first step, guard or head that reads one.  Each guard
        runs in the outermost loop that binds its variables, each head
        after every step and guard.  A builder call or a term that the
        heads repeat is computed once per firing, into a variable."""
        guards = list(r.guards)
        rest: set[str] = set()
        if group is not None:
            for c, p in enumerate(group[1]):
                if c not in group[2]:
                    _pattern_vars(p, rest, allow_apply=False)
            rest -= self.var.keys()

        def reads_rest(p: Pattern) -> bool:
            return group is not None and not rest.isdisjoint(_vars(p))

        def open_group() -> None:
            nonlocal group
            if group is not None:
                rows, patterns, key = group
                group = None
                self.loop(patterns, rows, key)
                place_guards()

        def place_guards() -> None:
            for g in [g for g in guards if _vars(g) <= self.var.keys()]:
                guards.remove(g)
                self.require(self.build(g))

        place_guards()
        if group is not None and _checks(group[1], group[2], self.var.keys()):
            open_group()
        for rel, key_cols, patterns in steps:
            if any(map(reads_rest, patterns)):
                open_group()
            if not key_cols:
                self.loop(patterns, self.bound_name("R", rel))
            else:
                cols = [self.build(patterns[c]) for c in key_cols]
                key = cols[0] if len(cols) == 1 else _tuple(cols)
                self.loop(patterns, f"{self.bound_name('I', rel, key_cols)}.get({key}, ())", key_cols)
            place_guards()
        if guards:
            open_group()
        built: list[tuple[tuple, Pattern]] = []
        for h in r.heads:
            for p in h.patterns:
                _built(p, built)
        counts = collections.Counter(shape for shape, _ in built)
        repeated = {shape: p for shape, p in built if counts[shape] > 1}
        late = [h for h in r.heads if any(map(reads_rest, h.patterns))]
        self.heads([h for h in r.heads if h not in late], repeated)
        if late:
            open_group()
            self.heads(late, repeated)

    def heads(self, heads: Sequence[Atom], repeated: dict[tuple, Pattern]) -> None:
        """Append each of ``heads`` to its buffer, after computing each of
        the ``repeated`` terms whose variables are bound, if not yet."""
        for shape, p in repeated.items():
            if shape not in self.calls and _vars(p) <= self.var.keys():
                value = self.build(p)
                self.calls[shape] = self.temp()
                self.line(f"{self.calls[shape]} = {value}")
        for h in heads:
            self.line(f"{self.bound_name('O', h.rel)}({_tuple([self.build(p) for p in h.patterns])})")

    def join(self, rel: str, key: tuple[int, ...]) -> _Join:
        params = ", ".join([*self.static, *self.bound])
        text = "\n".join([f"def make({params}):", "    def join(rows):", *self.lines, "    return join"])
        return _Join(rel, key, _make_function(text), tuple(self.static.values()), tuple(self.bound.values()))


def _shape(p: Pattern) -> tuple:
    """A key equal for equal patterns (a builder by identity)."""
    if isinstance(p, PVar):
        return ("v", p.name)
    if isinstance(p, PConst):
        return ("k", type(p.value), p.value)
    if isinstance(p, PStruct):
        return ("s", p.tag, *map(_shape, p.fields))
    if isinstance(p, PApply):
        return ("a", p.fn, *map(_shape, p.fields))
    return ("_",)


def _built(p: Pattern, out: list[tuple[tuple, Pattern]]) -> None:
    """Append each builder call and each term that is not a constant in
    ``p``, with its shape, inner ones first."""
    if isinstance(p, (PStruct, PApply)):
        for f in p.fields:
            _built(f, out)
        if isinstance(p, PApply) or _constant(p) is None:
            out.append((_shape(p), p))


def _constant(p: Pattern) -> Term | None:
    """The term a struct pattern of constants stands for, or None."""
    if not isinstance(p, PStruct):
        return None
    fields = []
    for f in p.fields:
        value = f.value if isinstance(f, PConst) else _constant(f)
        if value is None:
            return None
        fields.append(value)
    return TERM_TYPES[p.tag]._pool[tuple(fields)]


def _vars(p: Pattern) -> set[str]:
    names: set[str] = set()
    _pattern_vars(p, names, allow_apply=True)
    return names


def _checks(patterns: Sequence[Pattern], known: Sequence[int], bound: Iterable[str]) -> bool:
    """Whether matching ``patterns`` on the columns not ``known`` checks
    anything beyond binding new variables."""
    seen = set(bound)
    for c, p in enumerate(patterns):
        if c in known or isinstance(p, PWild):
            continue
        if not isinstance(p, PVar) or p.name in seen:
            return True
        seen.add(p.name)
    return False


class _Binding(NamedTuple):
    """What a run binds to one parameter of ``make``: relation ``rel``'s
    rows (``R``), its index on ``cols`` (``I``), or the ``append`` of its
    head buffer (``O``)."""

    kind: str
    rel: str
    cols: tuple[int, ...]


class _Join(NamedTuple):
    """One compiled join of the plans that start with relation ``rel``:
    ``make(*static, *bound values)`` returns ``join(rows)``, which takes
    the ``(key, rows)`` items of a mapping from each key on the ``key``
    columns of ``rel`` to the rows it is handed with that key (of its
    delta, or all of it), matches them against every plan and appends
    each row the rules derive to the buffer of its head relation."""

    rel: str
    key: tuple[int, ...]
    make: Callable
    static: tuple
    bindings: tuple[_Binding, ...]

    def bind(self, store: TupleStore, buffers: dict[str, list[tuple]]) -> Callable:
        values = []
        for kind, rel, cols in self.bindings:
            if kind == "R":
                values.append(store.relations[rel])
            elif kind == "I":
                values.append(store.index(rel, cols))
            else:
                values.append(buffers[rel].append)
        return self.make(*self.static, *values)


def _prefix(steps: Sequence[_Step]) -> tuple | None:
    """What a plan shares with the plans of its join that can share a loop
    with it: a second step that looks up an index keyed on plain variables
    of the first atom, with the first atom's columns they come from.  None
    for a plan whose second step is not such a lookup."""
    if len(steps) < 2 or not steps[1].key_cols:
        return None
    first, (rel, key_cols, patterns) = steps[0], steps[1]
    names = [q.name if isinstance(q, PVar) else None for q in first.patterns]
    at = []
    for c in key_cols:
        p = patterns[c]
        if not isinstance(p, PVar) or p.name not in names:
            return None
        at.append(names.index(p.name))
    return (rel, key_cols, tuple(at))


def _key(steps: Sequence[_Step]) -> tuple[int, ...]:
    """The columns of a plan's first atom that bind the variables its
    second step looks up by; () if that step is no index lookup."""
    if len(steps) < 2 or not steps[1].key_cols:
        return ()
    names = set().union(*(_vars(steps[1].patterns[c]) for c in steps[1].key_cols))
    return tuple(c for c, p in enumerate(steps[0].patterns) if not names.isdisjoint(_vars(p)))


def _group_key(
    plans: Sequence[tuple[Rule, list[_Step]]], looked_up: set[tuple[str, tuple[int, ...]]]
) -> tuple[int, ...]:
    """The columns a join's rows are grouped by: the ``_key`` of all its
    plans, if they share one, ``looked_up`` names their relation with it
    and some plan leaves the other columns unchecked; else ().  So the
    groups come from the insert's pass that extends that index, and a
    plan can run a check or a head once per group."""
    keys = {_key(steps) for _, steps in plans}
    key = keys.pop() if len(keys) == 1 else ()
    if (plans[0][1][0].rel, key) not in looked_up:
        return ()
    if all(_checks(steps[0].patterns, key, ()) for _, steps in plans):
        return ()
    return key


def _compile(plans: Sequence[tuple[Rule, list[_Step]]], key: tuple[int, ...]) -> _Join:
    """Compile ``plans``, which all start with one relation, into one join:
    one loop over the groups of rows it is handed, by their ``key``
    columns, then one block per plan in order.  Plans that share a prefix
    (see ``_prefix``) share one loop over the rows its index lookup finds,
    and hold their blocks under it.  Each block loops over the group's
    rows where ``_Source.rule`` places it; with no key, every block is
    under one loop over them.  As checks nest, a mismatch closes only its
    own plan's block."""
    src = _Source()
    groups: dict[object, list[tuple[Rule, list[_Step]]]] = {}
    for r, steps in plans:
        groups.setdefault(_prefix(steps) or object(), []).append((r, steps))
    first = plans[0][1][0]
    rows = src.temp()
    if key:
        keys = [src.temp() for _ in key]
        cols = [keys[key.index(c)] if c in key else "_" for c in range(len(first.patterns))]
        src.line(f"for {_tuple(keys) if len(keys) > 1 else keys[0]}, {rows} in rows:")
    else:
        cols = [src.temp() for _ in first.patterns]
        src.line(f"for _, {rows} in rows:")
        src.depth += 1
        src.line(f"for {_tuple(cols)} in {rows}:")
    src.depth += 1
    outer = src.depth
    for prefix, group in groups.items():
        src.depth, matched = outer, [cols]
        if len(group) > 1:
            rel, key_cols, at = prefix
            at_key = _tuple([cols[j] for j in at]) if len(at) > 1 else cols[at[0]]
            found = ["_" if c in key_cols else src.temp() for c in range(len(group[0][1][1].patterns))]
            src.line(f"for {_tuple(found)} in {src.bound_name('I', rel, key_cols)}.get({at_key}, ()):")
            src.depth += 1
            matched.append(found)
        shared = src.depth
        for r, steps in group:
            src.depth, src.var, src.calls = shared, {}, {}
            for step, names in zip(steps, matched):
                src.alias(step.patterns, names)
            src.unpacked()
            src.rule(r, steps[len(matched) :], (rows, steps[0].patterns, key) if key else None)
    return src.join(first.rel, key)


# The analysis rule sets compile to 38 distinct texts over m=0..2, both
# truthiness modes, semi-naive and naive; the memo holds them all with room
# to spare (tests/test_engine.py checks that it never evicts).
@functools.lru_cache(maxsize=256)
def _make_function(text: str) -> Callable:
    """The ``make`` that ``text`` defines.  It holds no values of any run:
    each call binds a plan's values into a new ``join``, dropped with it."""
    scope: dict[str, object] = {}
    exec(compile(text, "<join plan>", "exec"), scope)
    return scope["make"]


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------


class _Stratum(NamedTuple):
    """The compiled joins of one stratum's rules, one per relation that
    their plans start with.  ``once`` (semi-naive only) joins the rules
    with no body atom in the stratum, which cannot re-fire once the lower
    strata are fixed; ``joins`` holds, semi-naive, the joins of the plans
    with one per body atom in the stratum, and naive one join per rule."""

    rels: tuple[str, ...]
    heads: tuple[str, ...]  # the relations its rules derive
    once: tuple[_Join, ...]
    joins: tuple[_Join, ...]


def _program(rs: RuleSet, naive: bool) -> list[_Stratum]:
    """The compiled strata of ``rs`` for one mode, built on first use and
    kept on ``rs``: they hold plans and static values, never a store."""
    program = rs.compiled.get(naive)
    if program is not None:
        return program
    program = []
    for stratum_index, scc in enumerate(rs.strata):
        rules = [r for r in rs.rules if rs.stratum_of[r.heads[0].rel] == stratum_index]
        if not rules:
            continue
        # The plans of each join, keyed by the relation they start with
        # (naive, by a key of each rule's own).
        once, joins = {}, {}
        for r in rules:
            firsts = [i for i, a in enumerate(r.body) if a.rel in scc]
            if naive:
                joins[object()] = [(r, _plan(r, None))]
            elif firsts:
                for i in firsts:
                    steps = _plan(r, i)
                    joins.setdefault(steps[0].rel, []).append((r, steps))
            else:
                steps = _plan(r, None)
                once.setdefault(steps[0].rel, []).append((r, steps))
        heads = tuple(dict.fromkeys(h.rel for r in rules for h in r.heads))
        looked_up = {
            (s.rel, s.key_cols) for plans in [*once.values(), *joins.values()] for _, steps in plans for s in steps[1:]
        }

        def compile(plans: list[tuple[Rule, list[_Step]]]) -> _Join:
            return _compile(plans, _group_key(plans, looked_up))

        compiled = (tuple(map(compile, once.values())), tuple(map(compile, joins.values())))
        program.append(_Stratum(tuple(scc), heads, *compiled))
    rs.compiled[naive] = program
    return program


class SaturationStats:
    __slots__ = ("rounds", "peak_facts")

    def __init__(self, rounds: int = 0, peak_facts: int = 0) -> None:
        self.rounds = rounds
        self.peak_facts = peak_facts


def saturate(
    ruleset: RuleSet,
    store: TupleStore,
    *,
    naive: bool = False,
    fact_ceiling: int | None = None,
) -> tuple[TupleStore, SaturationStats]:
    """Extend ``store`` to the least fixpoint of ``ruleset`` and return it."""
    for name in ruleset.relations:
        store.relations.setdefault(name, set())
    stats = SaturationStats()

    def check_ceiling() -> None:
        total = store.total()
        stats.peak_facts = max(stats.peak_facts, total)
        if fact_ceiling is not None and total > fact_ceiling:
            raise FactCeilingExceeded(total, fact_ceiling)

    def insert(buffers: dict[str, list[tuple]], keys: dict[str, tuple[int, ...]]) -> dict:
        """Move every buffered row into the store; return the new ones of
        each relation, by its key in ``keys`` (see ``bulk_add``)."""
        new = {}
        for rel, rows in buffers.items():
            if rows:
                added = store.bulk_add(rel, rows, keys.get(rel, ()))
                rows.clear()
                if added:
                    new[rel] = added
        check_ceiling()
        return new

    check_ceiling()
    for stratum in _program(ruleset, naive):
        buffers: dict[str, list[tuple]] = {rel: [] for rel in stratum.heads}
        for join in stratum.once:
            join.bind(store, buffers)(store.index(join.rel, join.key).items())
        insert(buffers, {})
        joins = [(j, j.bind(store, buffers)) for j in stratum.joins]
        # A round's joins only read the store, and its rows are inserted
        # after it, so the first delta can be the relations themselves.
        # Naive, every round hands each join all of its relation.
        keys = {} if naive else {j.rel: j.key for j in stratum.joins}
        delta = store.relations if naive else {
            rel: store.index(rel, keys.get(rel, ())) for rel in stratum.rels if store.relations[rel]
        }
        while delta:
            stats.rounds += 1
            for j, bound in joins:
                rows = store.index(j.rel, j.key) if naive else delta.get(j.rel)
                if rows is not None:
                    bound(rows.items())
            delta = insert(buffers, keys)
    return store, stats
