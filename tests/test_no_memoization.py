"""No module of the package memoizes through functools: a process-wide
cache would make a result depend on earlier calls, and a repeated command
free.  Per-object caches, such as a Graph's cotree insertion tree, stay
allowed."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "orientkit").glob("*.py"))
MEMOIZERS = {"cache", "lru_cache", "cached_property"}


def _memoizers(tree):
    """Line numbers of memoizing decorators, and of functools imports or
    attributes that name one."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            for dec in node.decorator_list:
                if isinstance(dec, ast.Call):
                    dec = dec.func
                name = dec.attr if isinstance(dec, ast.Attribute) else \
                    getattr(dec, "id", None)
                if name in MEMOIZERS:
                    yield dec.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name in MEMOIZERS for alias in node.names):
                yield node.lineno
        elif (isinstance(node, ast.Attribute) and node.attr in MEMOIZERS
              and isinstance(node.value, ast.Name)
              and node.value.id == "functools"):
            yield node.lineno


def test_package_modules_use_no_functools_memoization():
    assert SOURCES
    found = [f"{path.name}:{line}" for path in SOURCES
             for line in sorted(set(_memoizers(
                 ast.parse(path.read_text(encoding="utf-8")))))]
    assert found == []


def test_the_check_sees_each_spelling():
    spellings = ["@functools.cache\ndef f(): pass",
                 "@functools.lru_cache(maxsize=None)\ndef f(): pass",
                 "@lru_cache\ndef f(): pass",
                 "class C:\n    @cached_property\n    def f(self): pass",
                 "from functools import cache",
                 "import functools\nf = functools.lru_cache(g)"]
    for text in spellings:
        assert list(_memoizers(ast.parse(text))), text
    assert not list(_memoizers(ast.parse("@property\ndef f(): pass")))
