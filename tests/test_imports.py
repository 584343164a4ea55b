"""Every module of the package, every test module and every demo uses each
name it imports, or exports it in __all__, and every private helper the
package defines is referenced somewhere in the package.  A stdlib ast scan
stands in for a linter's unused-import and dead-code rules."""

from __future__ import annotations

import ast
import pathlib
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sl2arc"
# package modules by their file names, tests and demos by their paths from the root
SOURCES = {p.name: p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
SOURCES.update((str(p.relative_to(ROOT)), p)
               for folder in ("tests", "demos") for p in sorted((ROOT / folder).glob("*.py")))


def _imported(tree) -> dict:
    """Bound name -> line of every import, except __future__ features."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("module", SOURCES)
def test_every_import_is_used(module):
    tree = ast.parse(SOURCES[module].read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used and name not in _exported(tree)}
    assert not unused, f"{module} imports names it never uses: {unused}"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__") and name != "_"


def _private_definitions(tree) -> dict:
    """Private function, class and method names, and private module
    constants, of one module -> their definition nodes."""
    defs = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and _private(node.name)):
            defs.setdefault(node.name, []).append(node)
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for t in targets:
            if isinstance(t, ast.Name) and _private(t.id):
                defs.setdefault(t.id, []).append(node)
    return defs


def _reads(tree) -> Counter:
    """Names read, attributes read and names imported under one node, with
    their counts."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _dead_helpers(trees) -> set:
    """Private helpers of the modules in trees that nothing reads outside
    their own definitions; a recursive call is not a use."""
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    defs = {(module, name): nodes for module, tree in trees.items()
            for name, nodes in _private_definitions(tree).items()}
    for (_, name), nodes in defs.items():
        reads[name] -= sum(_reads(node)[name] for node in nodes)
    return {f"{module}:{nodes[0].lineno} {name}"
            for (module, name), nodes in defs.items() if reads[name] <= 0}


def test_every_private_helper_is_referenced():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    dead = _dead_helpers(trees)
    assert not dead, f"private helpers never referenced in the package: {sorted(dead)}"


def test_a_recursive_helper_that_nothing_else_calls_is_dead():
    source = (
        "def _dead_recursive(k):\n    return _dead_recursive(k - 1) if k else 0\n\n"
        "def _live_recursive(k):\n    return _live_recursive(k - 1) if k else 0\n\n"
        "def entry(k):\n    return _live_recursive(k)\n")
    assert _dead_helpers({"m.py": ast.parse(source)}) == {"m.py:1 _dead_recursive"}
