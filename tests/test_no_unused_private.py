"""Every private top-level function or class of the package is named
somewhere in the package outside its own definition, so a helper whose
last caller is deleted goes with it."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "orientkit").glob("*.py"))


def names_in(node):
    """Every name node read or bound under node, and every attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_private_functions_and_classes_are_used():
    assert SOURCES
    defined, used = [], set()
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                owner = stmt.name
                if owner.startswith("_") and not owner.startswith("__"):
                    defined.append((path.name, owner))
            # a definition's own body, a recursive call say, does not count
            used.update(name for name in names_in(stmt) if name != owner)
    assert defined
    assert [d for d in defined if d[1] not in used] == []
