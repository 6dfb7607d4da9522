"""Reading, labeling, validating, and flattening Scheme source.

The pipeline is ``read_sexprs`` (text -> s-expressions with positions),
``label_program`` (one top-level form -> :class:`LabeledProgram` with a
unique label per sub-expression and globally unique variable names), and
``extract_facts`` (program -> :class:`EDB`, the flat input relations the
analysis consumes).

Every binder is renamed to ``name~N``; ``~`` is rejected in identifiers, so
a renamed variable's source name is ``name.split("~")[0]`` and a free
variable keeps its own name.  A node is read as ``program.nodes[label]``.

Variable scoping note: ``syntactic_free_vars`` intentionally reproduces the
scoping the analysis' own deductive freevar rules compute, quirks included —
a let's body is *not* filtered by its binding names, a multi-parameter
lambda removes a parameter from its body only when it is the sole parameter,
and a ``set!`` target does not count as a use.  The two computations are
checked against each other relation-wide, so they must agree exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from schemeflow.errors import ParseError, ValidationError
from schemeflow.serialize import relation_text
from schemeflow.terms import Label

PRIM_OPS = frozenset({"+", "-", "*", "=", "<", "cons", "car", "cdr", "and", "or"})

_INT_RE = re.compile(r"^-?[0-9]+$")
_BAD_IDENT_CHARS = set("()[]'\"`,;#")


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SExpr:
    """An atom (``items is None``) or a list, with its source position."""

    atom: str | None
    items: tuple["SExpr", ...] | None
    line: int
    col: int

    @property
    def is_atom(self) -> bool:
        return self.items is None


def _tokenize(text: str):
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()[]":
            yield ch, line, col
            col += 1
            i += 1
        elif ch in "'\"`,":
            raise ParseError(f"illegal token {ch!r}", line, col)
        else:
            start = i
            start_col = col
            while i < n and text[i] not in " \t\r\n()[];'\"`,":
                i += 1
                col += 1
            yield text[start:i], line, start_col


def read_sexprs(text: str) -> list[SExpr]:
    """Parse all top-level forms; ``[`` and ``]`` pair like parentheses."""
    stack: list[tuple[str, int, int, list[SExpr]]] = []
    top: list[SExpr] = []
    for tok, line, col in _tokenize(text):
        if tok in "([":
            stack.append((tok, line, col, []))
        elif tok in ")]":
            if not stack:
                raise ParseError("unbalanced closing parenthesis", line, col)
            opener, oline, ocol, items = stack.pop()
            if (opener, tok) not in (("(", ")"), ("[", "]")):
                raise ParseError(f"mismatched {opener!r} closed by {tok!r}", line, col)
            sx = SExpr(None, tuple(items), oline, ocol)
            (stack[-1][3] if stack else top).append(sx)
        else:
            sx = SExpr(tok, None, line, col)
            (stack[-1][3] if stack else top).append(sx)
    if stack:
        _, oline, ocol, _ = stack[-1]
        raise ParseError("unclosed parenthesis", oline, ocol)
    return top


# ---------------------------------------------------------------------------
# Labeled nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    label: Label


@dataclass(frozen=True)
class NumNode(Node):
    value: int


@dataclass(frozen=True)
class BoolNode(Node):
    text: str  # "#t" or "#f"


@dataclass(frozen=True)
class VarNode(Node):
    name: str


@dataclass(frozen=True)
class LambdaNode(Node):
    vars_label: Label
    params: tuple[str, ...]  # renamed, in position order
    body: Label


@dataclass(frozen=True)
class IfNode(Node):
    guard: Label
    then: Label
    other: Label


@dataclass(frozen=True)
class SetNode(Node):
    target: str
    expr: Label


@dataclass(frozen=True)
class CallccNode(Node):
    expr: Label


@dataclass(frozen=True)
class LetNode(Node):
    binds_label: Label
    bindings: tuple[tuple[str, Label], ...]  # (renamed, expr)
    body: Label


@dataclass(frozen=True)
class PrimCallNode(Node):
    op_label: Label
    op_name: str
    args_label: Label
    args: tuple[Label, ...]


@dataclass(frozen=True)
class CallNode(Node):
    func: Label
    args_label: Label
    args: tuple[Label, ...]


@dataclass(frozen=True)
class QuoteNode(Node):
    datum: Label


@dataclass(frozen=True)
class DatumNode(Node):
    """An inert quoted datum; carries no facts and takes no transitions."""


@dataclass(frozen=True)
class PrimOpNode(Node):
    """The operator position of a primitive call."""


@dataclass(frozen=True)
class ListMarkerNode(Node):
    """Auxiliary label for an argument, parameter, or binding list."""

    owner: Label


@dataclass
class LabeledProgram:
    root: Label
    nodes: dict[Label, Node]
    _free_vars: dict[Label, tuple[str, ...]] = field(default_factory=dict, repr=False)


# ---------------------------------------------------------------------------
# Labeling, validation, alpha-renaming
# ---------------------------------------------------------------------------

def _is_identifier(tok: str) -> bool:
    if not tok or _INT_RE.match(tok) or tok in ("#t", "#f"):
        return False
    return not any(c in _BAD_IDENT_CHARS for c in tok)


class _Builder:
    def __init__(self, allow_quote: bool) -> None:
        self.allow_quote = allow_quote
        self.nodes: dict[Label, Node] = {}
        self._label_counter = 0
        self._rename_counter = 0

    def fresh_label(self) -> Label:
        label = Label(f"e{self._label_counter}")
        self._label_counter += 1
        return label

    def rename(self, original: str) -> str:
        self._rename_counter += 1
        return f"{original}~{self._rename_counter}"

    def _ident(self, sx: SExpr, role: str) -> str:
        if not sx.is_atom or not _is_identifier(sx.atom):
            raise ValidationError(f"{role} must be an identifier", sx.line, sx.col)
        if "~" in sx.atom:
            raise ValidationError(
                f"identifier {sx.atom!r} may not contain '~' (reserved for renaming)",
                sx.line,
                sx.col,
            )
        return sx.atom

    def build(self, sx: SExpr, env: dict[str, str]) -> Label:
        if sx.is_atom:
            return self._build_atom(sx, env)
        items = sx.items
        if not items:
            raise ValidationError("empty application ()", sx.line, sx.col)
        head = items[0].atom  # None for a list
        special = self._SPECIAL_FORMS.get(head)
        if special is not None:
            return special(self, sx, env)
        if head in PRIM_OPS:
            return self._build_prim(sx, env)
        return self._build_call(sx, env)

    def _build_atom(self, sx: SExpr, env: dict[str, str]) -> Label:
        label = self.fresh_label()
        tok = sx.atom
        if _INT_RE.match(tok):
            self.nodes[label] = NumNode(label, int(tok))
        elif tok in ("#t", "#f"):
            self.nodes[label] = BoolNode(label, tok)
        elif _is_identifier(tok):
            self._ident(sx, "variable")
            self.nodes[label] = VarNode(label, env.get(tok, tok))
        else:
            raise ValidationError(f"unsupported literal {tok!r}", sx.line, sx.col)
        return label

    def _build_lambda(self, sx: SExpr, env: dict[str, str]) -> Label:
        items = sx.items
        if len(items) != 3 or items[1].is_atom:
            raise ValidationError("lambda expects (lambda (params...) body)", sx.line, sx.col)
        label = self.fresh_label()
        vars_label = self.fresh_label()
        self.nodes[label] = None  # placeholder to reserve traversal order
        self.nodes[vars_label] = ListMarkerNode(vars_label, label)
        originals = [self._ident(p, "lambda parameter") for p in items[1].items]
        if len(set(originals)) != len(originals):
            raise ValidationError("duplicate lambda parameters", sx.line, sx.col)
        self._check_not_prim(originals, items[1])
        params = []
        inner = dict(env)
        for orig in originals:
            renamed = self.rename(orig)
            inner[orig] = renamed
            params.append(renamed)
        body = self.build(items[2], inner)
        self.nodes[label] = LambdaNode(label, vars_label, tuple(params), body)
        return label

    def _build_if(self, sx: SExpr, env: dict[str, str]) -> Label:
        items = sx.items
        if len(items) != 4:
            raise ValidationError("if expects (if guard then else)", sx.line, sx.col)
        label = self.fresh_label()
        self.nodes[label] = None
        guard = self.build(items[1], env)
        then = self.build(items[2], env)
        other = self.build(items[3], env)
        self.nodes[label] = IfNode(label, guard, then, other)
        return label

    def _build_setb(self, sx: SExpr, env: dict[str, str]) -> Label:
        items = sx.items
        if len(items) != 3:
            raise ValidationError("set! expects (set! var expr)", sx.line, sx.col)
        target_orig = self._ident(items[1], "set! target")
        label = self.fresh_label()
        self.nodes[label] = None
        expr = self.build(items[2], env)
        self.nodes[label] = SetNode(label, env.get(target_orig, target_orig), expr)
        return label

    def _build_callcc(self, sx: SExpr, env: dict[str, str]) -> Label:
        items = sx.items
        if len(items) != 2:
            raise ValidationError("call/cc expects (call/cc expr)", sx.line, sx.col)
        label = self.fresh_label()
        self.nodes[label] = None
        expr = self.build(items[1], env)
        self.nodes[label] = CallccNode(label, expr)
        return label

    def _build_let(self, sx: SExpr, env: dict[str, str]) -> Label:
        items = sx.items
        if len(items) != 3 or items[1].is_atom:
            raise ValidationError("let expects (let ((x e)...) body)", sx.line, sx.col)
        if not items[1].items:
            raise ValidationError("let requires at least one binding", sx.line, sx.col)
        label = self.fresh_label()
        binds_label = self.fresh_label()
        self.nodes[label] = None
        self.nodes[binds_label] = ListMarkerNode(binds_label, label)
        bindings = []
        seen: set[str] = set()
        inner = dict(env)
        for binding in items[1].items:
            if binding.is_atom or len(binding.items) != 2:
                raise ValidationError("let binding must be (name expr)", binding.line, binding.col)
            orig = self._ident(binding.items[0], "let binding name")
            self._check_not_prim([orig], binding.items[0])
            if orig in seen:
                raise ValidationError("duplicate let binding names", sx.line, sx.col)
            seen.add(orig)
            renamed = self.rename(orig)
            expr = self.build(binding.items[1], env)  # binding exprs see the outer scope
            inner[orig] = renamed
            bindings.append((renamed, expr))
        body = self.build(items[2], inner)
        self.nodes[label] = LetNode(label, binds_label, tuple(bindings), body)
        return label

    def _build_quote(self, sx: SExpr, env: dict[str, str]) -> Label:
        if not self.allow_quote:
            raise ValidationError(
                "quote is not supported (no transition consumes it); "
                "pass allow_quote to emit it as dead syntax",
                sx.line,
                sx.col,
            )
        items = sx.items
        if len(items) != 2:
            raise ValidationError("quote expects (quote datum)", sx.line, sx.col)
        label = self.fresh_label()
        datum_label = self.fresh_label()
        self.nodes[label] = QuoteNode(label, datum_label)
        self.nodes[datum_label] = DatumNode(datum_label)
        return label

    def _build_prim(self, sx: SExpr, env: dict[str, str]) -> Label:
        items = sx.items
        op = items[0].atom
        if len(items) != 3:
            raise ValidationError(
                f"primitive {op!r} takes exactly 2 arguments, got {len(items) - 1}",
                sx.line,
                sx.col,
            )
        label = self.fresh_label()
        op_label = self.fresh_label()
        args_label = self.fresh_label()
        self.nodes[label] = None
        self.nodes[op_label] = PrimOpNode(op_label)
        self.nodes[args_label] = ListMarkerNode(args_label, label)
        args = tuple(self.build(a, env) for a in items[1:])
        self.nodes[label] = PrimCallNode(label, op_label, op, args_label, args)
        return label

    def _build_call(self, sx: SExpr, env: dict[str, str]) -> Label:
        items = sx.items
        if len(items) < 2:
            raise ValidationError(
                "nullary calls are not supported (arguments drive application)",
                sx.line,
                sx.col,
            )
        label = self.fresh_label()
        self.nodes[label] = None
        func = self.build(items[0], env)
        args_label = self.fresh_label()
        self.nodes[args_label] = ListMarkerNode(args_label, label)
        args = tuple(self.build(a, env) for a in items[1:])
        self.nodes[label] = CallNode(label, func, args_label, args)
        return label

    def _check_not_prim(self, names: list[str], sx: SExpr) -> None:
        for name in names:
            if name in PRIM_OPS:
                raise ValidationError(
                    f"cannot bind primitive operator name {name!r}", sx.line, sx.col
                )

    # Special-form head -> builder; any other list is a primitive or a call.
    _SPECIAL_FORMS = {
        "lambda": _build_lambda,
        "if": _build_if,
        "set!": _build_setb,
        "call/cc": _build_callcc,
        "let": _build_let,
        "quote": _build_quote,
    }


def label_program(forms: list[SExpr], allow_quote: bool = False) -> LabeledProgram:
    """Label one top-level form in pre-order and alpha-rename its binders."""
    if len(forms) != 1:
        raise ValidationError(f"expected exactly one top-level expression, got {len(forms)}")
    builder = _Builder(allow_quote)
    root = builder.build(forms[0], {})
    return LabeledProgram(root, builder.nodes)


def read_program(text: str, allow_quote: bool = False) -> LabeledProgram:
    return label_program(read_sexprs(text), allow_quote)


# ---------------------------------------------------------------------------
# Free variables (matching the deductive freevar rules exactly)
# ---------------------------------------------------------------------------


def syntactic_free_vars(p: LabeledProgram, e: Label) -> tuple[str, ...]:
    """Free variables of the sub-expression at ``e``, per the rule scoping.

    Deliberate quirks, identical to the deductive rules: a multi-parameter
    lambda keeps any body variable for which *some other* parameter exists;
    a let's body is not filtered by the let's binding names (only each
    binding expression is filtered by its own name); and the target of a
    ``set!`` is not itself a use.

    The result is sorted, so iterating it does not depend on string hashing,
    and it is computed once per label and program.
    """
    cached = p._free_vars.get(e)
    if cached is not None:
        return cached
    node = p.nodes[e]
    fv: set[str]
    if isinstance(node, VarNode):
        fv = {node.name}
    elif isinstance(node, (NumNode, BoolNode, PrimOpNode, DatumNode, QuoteNode)):
        fv = set()
    elif isinstance(node, LambdaNode):
        body = syntactic_free_vars(p, node.body)
        fv = {x for x in body if any(v != x for v in node.params)}
    elif isinstance(node, IfNode):
        fv = {
            *syntactic_free_vars(p, node.guard),
            *syntactic_free_vars(p, node.then),
            *syntactic_free_vars(p, node.other),
        }
    elif isinstance(node, (SetNode, CallccNode)):
        fv = set(syntactic_free_vars(p, node.expr))
    elif isinstance(node, LetNode):
        fv = {*syntactic_free_vars(p, node.binds_label), *syntactic_free_vars(p, node.body)}
    elif isinstance(node, PrimCallNode):
        fv = set(syntactic_free_vars(p, node.args_label))
    elif isinstance(node, CallNode):
        fv = {*syntactic_free_vars(p, node.func), *syntactic_free_vars(p, node.args_label)}
    elif isinstance(node, ListMarkerNode):
        owner = p.nodes[node.owner]
        fv = set()
        if isinstance(owner, LetNode) and node.label == owner.binds_label:
            for renamed, expr in owner.bindings:
                fv.update(x for x in syntactic_free_vars(p, expr) if x != renamed)
        elif isinstance(owner, (CallNode, PrimCallNode)) and node.label == owner.args_label:
            for arg in owner.args:
                fv.update(syntactic_free_vars(p, arg))
        # else a lambda's parameter list: no freevar rule mentions it
    else:  # pragma: no cover - exhaustive over node kinds
        raise TypeError(f"unknown node {node!r}")
    out = p._free_vars[e] = tuple(sorted(fv))
    return out


# ---------------------------------------------------------------------------
# EDB extraction and the .facts on-disk format
# ---------------------------------------------------------------------------

EDB_SCHEMA: dict[str, int] = {
    "top_exp": 1,
    "lambda": 3,
    "lambda_arg_list": 3,
    "prim": 2,
    "prim_call": 3,
    "call": 3,
    "call_arg_list": 3,
    "var": 2,
    "num": 2,
    "bool": 2,
    "quotation": 2,
    "if": 4,
    "setb": 3,
    "callcc": 2,
    "let": 3,
    "let_list": 3,
}


@dataclass
class EDB:
    facts: dict[str, set[tuple]]

    def to_dir(self, path: str | Path) -> None:
        out = Path(path)
        out.mkdir(parents=True, exist_ok=True)
        for name in EDB_SCHEMA:
            (out / f"{name}.facts").write_text(relation_text(self.facts[name]), encoding="utf-8")


def extract_facts(p: LabeledProgram) -> EDB:
    """Flatten a labeled program into the input relations."""
    facts: dict[str, set[tuple]] = {name: set() for name in EDB_SCHEMA}
    facts["top_exp"].add((p.root,))
    for label, node in p.nodes.items():
        if isinstance(node, NumNode):
            facts["num"].add((label, node.value))
        elif isinstance(node, BoolNode):
            facts["bool"].add((label, node.text))
        elif isinstance(node, VarNode):
            facts["var"].add((label, node.name))
        elif isinstance(node, LambdaNode):
            facts["lambda"].add((label, node.vars_label, node.body))
            for pos, renamed in enumerate(node.params):
                facts["lambda_arg_list"].add((node.vars_label, pos, renamed))
        elif isinstance(node, IfNode):
            facts["if"].add((label, node.guard, node.then, node.other))
        elif isinstance(node, SetNode):
            facts["setb"].add((label, node.target, node.expr))
        elif isinstance(node, CallccNode):
            facts["callcc"].add((label, node.expr))
        elif isinstance(node, LetNode):
            facts["let"].add((label, node.binds_label, node.body))
            for renamed, expr in node.bindings:
                facts["let_list"].add((node.binds_label, renamed, expr))
        elif isinstance(node, PrimCallNode):
            facts["prim"].add((node.op_label, node.op_name))
            facts["prim_call"].add((label, node.op_label, node.args_label))
            for pos, arg in enumerate(node.args):
                facts["call_arg_list"].add((node.args_label, pos, arg))
        elif isinstance(node, CallNode):
            facts["call"].add((label, node.func, node.args_label))
            for pos, arg in enumerate(node.args):
                facts["call_arg_list"].add((node.args_label, pos, arg))
        elif isinstance(node, QuoteNode):
            facts["quotation"].add((label, node.datum))
        # ListMarkerNode / DatumNode / PrimOpNode own no facts of their own.
    return EDB(facts)
