"""Every name a module of the package imports is read in that module, so
an import whose last use is deleted goes with it.  ``__init__.py`` is
skipped, since it imports to re-export, and so is ``from __future__``,
which sets compiler flags rather than binding a name to read."""

import ast
from pathlib import Path

SOURCES = sorted(path for path in (Path(__file__).resolve().parent.parent
                                   / "src" / "orientkit").glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source):
    """The names source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds a
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_every_import_is_read():
    assert SOURCES
    unused = [(path.name, name) for path in SOURCES
              for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []


def test_a_planted_unused_import_is_caught():
    planted = ("from __future__ import annotations\n"
               "import heapq\n"
               "import os.path\n"
               "from math import inf, pi as tau\n"
               "def f(x: int):\n"
               "    return os.path.join(str(x), str(inf))\n")
    assert unused_imports(planted) == ["heapq", "tau"]
