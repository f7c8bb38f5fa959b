"""Code that only tests use belongs in ``tests/``.

Every module-level function, class and assigned name in
``src/graphdistill/*.py`` (``__all__`` and ``__version__`` aside) must be
referenced by name somewhere in ``src/`` or ``perfbench/`` outside its own
definition: as a name, an attribute or an imported name.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "graphdistill").glob("*.py"))
SCANNED = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
EXEMPT = {"__all__", "__version__"}


def _bound_names(target):
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _bound_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _bound_names(target.value)


def _definitions(tree):
    """(name, defining statement) for every module-level def, class and plain assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in _bound_names(target):
                    yield name, node
        elif isinstance(node, ast.AnnAssign):
            for name in _bound_names(node.target):
                yield name, node


def _reference(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    return None


def test_every_module_level_name_is_used_outside_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in SCANNED}
    # every referencing node of a name, so that a definition's own nodes can be left out
    refs: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = _reference(node)
            if name is not None:
                refs.setdefault(name, []).append(node)
    unused = []
    for path in PACKAGE:
        for name, stmt in _definitions(trees[path]):
            if name in EXEMPT:
                continue
            own = set(ast.walk(stmt))
            if not any(node not in own for node in refs.get(name, ())):
                unused.append(f"{path.relative_to(ROOT)}: {name}")
    assert not unused, "defined in src/ but used only by tests, or not at all: " + ", ".join(unused)
