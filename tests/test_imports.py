"""Every module-level import in the package is used by its module, every
import runs at import time and none is of ``dataclasses``, every
module-level name and method is read by the program, not only by tests,
and no package function builds a term by calling its class."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import schemeflow
from schemeflow.terms import TERM_TYPES

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "schemeflow"
# __init__.py imports names only to re-export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


def _imported(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _used(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside quoted annotations."""
    used = set()
    pending: list[ast.AST] = [tree]
    while pending:
        for node in ast.walk(pending.pop()):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            annotation = None
            if isinstance(node, (ast.arg, ast.AnnAssign)):
                annotation = node.annotation
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                annotation = node.returns
            if annotation is None:
                continue
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    pending.append(ast.parse(part.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    assert [name for name in _imported(tree) if name not in used] == []


def _imports(tree: ast.AST) -> list[ast.Import | ast.ImportFrom]:
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    """``@dataclass`` generates and ``exec``s each class's methods at import,
    which every CLI run pays for; the package's classes are written out."""
    modules = [
        name
        for node in _imports(ast.parse(path.read_text(encoding="utf-8")))
        for name in ([a.name for a in node.names] if isinstance(node, ast.Import) else [node.module])
    ]
    assert [m for m in modules if m and m.split(".")[0] == "dataclasses"] == []


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    """Every import runs when the module is imported.  Set-up is timed up to
    the first job and the first round is never timed, so an import deferred
    into a function would move its cost to where nothing measures it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nested = [
        f"{func.name}:{node.lineno}"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in _imports(func)
    ]
    assert nested == []


def _read(node: ast.AST) -> set[str]:
    """Names loaded, and attributes read, anywhere in ``node``."""
    return _used(node) | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _benchmark_names() -> set[str]:
    """Every identifier and string the benchmark's own code mentions; it
    reaches the package through attributes and names it wraps by string."""
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        if path.name.startswith("test_"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_module_level_name_is_read_by_the_program():
    """A module-level function, class or assigned name is read by another
    top-level statement of the package, exported by ``schemeflow.__all__``,
    or used by the benchmark; a name only tests read is dead code."""
    statements = [
        (path.name, stmt)
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    reads = [_read(stmt) for _, stmt in statements]
    exported = set(schemeflow.__all__) | _benchmark_names()
    unread = [
        f"{module}:{name}"
        for i, (module, stmt) in enumerate(statements)
        for name in _defined(stmt)
        if not name.startswith("__")
        and name not in exported
        and not any(name in r for j, r in enumerate(reads) if j != i)
    ]
    assert unread == []


def test_every_method_is_read_by_the_program():
    """A function defined in a package class body, other than a dunder, is
    read by some statement of the package, as an attribute or a name, or
    named by the benchmark; a method only tests call is dead code."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(_read, trees.values())) | _benchmark_names()
    unread = [
        f"{module}:{cls.name}.{stmt.name}"
        for module, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not stmt.name.startswith("__")
        and stmt.name not in read
    ]
    assert unread == []


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_function_calls_a_term_class_with_arguments(path):
    """Package code interns a term by subscripting its class's pool, as in
    ``KAddr._pool[sub, ctx]``: a term that exists is then one dict lookup,
    where ``KAddr(sub, ctx)`` also runs ``Term.__new__``.  Only module-level
    constants, such as ``EMPTY_CONTEXT = Context()``, call a class."""
    classes = {cls.__name__ for cls in TERM_TYPES.values()}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = {
        f"{node.lineno}:{ast.unparse(node)}"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and (node.args or node.keywords)
        and (getattr(node.func, "id", None) in classes or getattr(node.func, "attr", None) in classes)
    }
    assert sorted(calls) == []
