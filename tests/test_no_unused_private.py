"""Every private top-level function or class of the package, and every
private method of one of its classes, is named somewhere in the package
outside its own definition, so a helper whose last caller is deleted goes
with it."""

import ast
from collections import Counter
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "orientkit").glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_in(node):
    """Every name node read or bound under node, and every attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def private_definitions(tree):
    """(qualified name, node) of the private top-level functions and
    classes, and of the private methods of the top-level classes."""
    for stmt in tree.body:
        if isinstance(stmt, DEFS):
            inner = stmt.body if isinstance(stmt, ast.ClassDef) else []
            for d in [stmt] + [s for s in inner if isinstance(s, DEFS)]:
                if d.name.startswith("_") and not d.name.startswith("__"):
                    yield (d.name if d is stmt
                           else f"{stmt.name}.{d.name}"), d


def test_private_functions_and_classes_are_used():
    assert SOURCES
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    used = Counter(name for tree in trees.values() for name in names_in(tree))
    defined = [(file, qual, d) for file, tree in trees.items()
               for qual, d in private_definitions(tree)]
    assert any("." in qual for _, qual, _ in defined)   # methods are seen
    # a definition's own body, a recursive call say, does not count
    assert [(file, qual) for file, qual, d in defined
            if used[d.name] == Counter(names_in(d))[d.name]] == []
