"""No function of the package calls itself: a recursion's depth is bounded
by the interpreter's recursion limit, not by the input, so the cotree
builder, the 3k-2 reducer, the strip constructor and the rest walk with
explicit stacks, queues or orders.  Two functions recurse by design; each
is allowed below with its reason."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "orientkit").glob("*.py"))

ALLOWED = {
    # its d = 0 branch calls it once more with d = k - 1 >= 1, which grows
    # the rest of the path instead, so the depth is at most 2
    "construct._orient_end",
    # the seeded generator of random cotree graphs: it splits its range at
    # a random point, so its expected depth grows with the log of the size
    "instances._random_cotree_edges",
}


def _calls_itself(func, in_class):
    """True when func's body calls func by name, or, for a method, through
    self or cls."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == func.name:
            return True
        if (in_class and isinstance(f, ast.Attribute) and f.attr == func.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")):
            return True
    return False


def self_calling(tree, module):
    """Dotted names (module.outer.inner) of the functions in tree that call
    themselves, nested functions and methods included."""
    found, stack = [], [(tree, module, False)]
    while stack:
        node, prefix, in_class = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                if _calls_itself(child, in_class):
                    found.append(name)
                stack.append((child, name, False))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, f"{prefix}.{child.name}", True))
            else:
                stack.append((child, prefix, in_class))
    return sorted(found)


def test_no_function_calls_itself():
    assert SOURCES
    found = [name for path in SOURCES
             for name in self_calling(ast.parse(path.read_text(
                 encoding="utf-8")), path.stem)]
    assert sorted(set(found) - ALLOWED) == []
    # each allowance names a function that is there and still recurses
    assert ALLOWED <= set(found)


def test_the_check_sees_each_spelling():
    planted = {
        "def f(n):\n    return f(n - 1) if n else 0": ["m.f"],
        "def f(xs):\n    return [f(x) for x in xs]": ["m.f"],
        "def outer():\n    def solve(i):\n        return solve(i + 1)\n"
        "    return solve(0)": ["m.outer.solve"],
        "class C:\n    def walk(self, x):\n        return self.walk(x)":
            ["m.C.walk"],
        "class C:\n    @classmethod\n    def walk(cls, x):\n"
        "        return cls.walk(x)": ["m.C.walk"],
        "def f(g):\n    return g.f()": [],
        "def f(x):\n    return g(x)\ndef g(x):\n    return x": [],
        "class C:\n    def f(self, other):\n        return other.f()": [],
    }
    for text, want in planted.items():
        assert self_calling(ast.parse(text), "m") == want, text
