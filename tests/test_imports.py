"""Every module of the package uses each name it imports, or exports it in
__all__, and every private helper it defines is referenced somewhere in the
package.  A stdlib ast scan stands in for a linter's unused-import and
dead-code rules."""

from __future__ import annotations

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "sl2arc"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used and name not in _exported(tree)}
    assert not unused, f"{module} imports names it never uses: {unused}"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__") and name != "_"


def _private_definitions(tree) -> dict:
    """Private function, class and method names, and private module
    constants, of one module -> line of definition."""
    defs = {node.name: node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and _private(node.name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        defs.update((t.id, node.lineno) for t in targets
                    if isinstance(t, ast.Name) and _private(t.id))
    return defs


def _referenced(tree) -> set:
    """Names read, attributes read and names imported anywhere in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_private_helper_is_referenced():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*(_referenced(tree) for tree in trees.values()))
    dead = {f"{module}:{line} {name}"
            for module, tree in trees.items()
            for name, line in _private_definitions(tree).items() if name not in used}
    assert not dead, f"private helpers never referenced in the package: {sorted(dead)}"
