"""Every function, class, method and import in src/cisim is used somewhere.

A definition counts as used when its name appears as a name, an
attribute or an imported name anywhere in src/cisim or tests/; its own
``def`` or ``class`` line does not count.  Dunder methods are called
by the language and are exempt.  An imported name counts as used when
the importing module names it outside its import lines; the package's
``__init__.py`` re-exports and ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "cisim").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def _definitions(node, prefix: str):
    """(qualified name, bare name) of every definition, nested ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFINITIONS):
            yield f"{prefix}.{child.name}", child.name
            yield from _definitions(child, f"{prefix}.{child.name}")
        else:
            yield from _definitions(child, prefix)


def unused_definitions() -> list[str]:
    used = set()
    for path in SOURCES + TESTS:
        used |= _references(ast.parse(path.read_text()))
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for qualname, name in _definitions(tree, path.stem):
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and name not in used:
                unused.append(qualname)
    return unused


def test_no_unused_definitions():
    assert SOURCES and TESTS
    assert unused_definitions() == []


def unused_imports() -> list[str]:
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.stem}.{bound}")
    return unused


def test_no_unused_imports():
    assert unused_imports() == []
