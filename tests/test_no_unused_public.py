"""Every public top-level function, class and assignment of the package is
exported through ``orientkit.__all__`` or named somewhere in the package
outside its own definition, so a public helper whose last caller is
deleted goes with it.  Dunder names such as ``__all__`` are left out."""

import ast
from collections import Counter

import orientkit
from test_no_unused_private import SOURCES, names_in

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(tree):
    """(name, statement) of the public top-level functions and classes,
    and of each name a top-level assignment binds."""
    for stmt in tree.body:
        if isinstance(stmt, DEFS):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            names = [node.id for target in targets for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, stmt


def unused_public(sources, exported):
    """The public names the sources define, neither exported nor used
    outside their own definition, in definition order."""
    trees = [ast.parse(source) for source in sources]
    used = Counter(name for tree in trees for name in names_in(tree))
    return [name for tree in trees for name, stmt in public_definitions(tree)
            if name not in exported
            and used[name] == Counter(names_in(stmt))[name]]


def test_public_definitions_are_exported_or_used():
    assert SOURCES
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert unused_public(sources, set(orientkit.__all__)) == []


def test_a_planted_orphan_is_caught():
    planted = ("def helper():\n    return 1\n"
               "def caller():\n    return helper()\n"
               "def orphan(n):\n    return orphan(n - 1) if n else 0\n"
               "LIMIT, (SPARE, _HIDDEN) = 3, (4, 5)\n"
               "TABLE: tuple = (LIMIT,)\n"
               "class Kept:\n    pass\n")
    assert unused_public([planted], {"Kept"}) == ["caller", "orphan", "SPARE",
                                                  "TABLE"]
