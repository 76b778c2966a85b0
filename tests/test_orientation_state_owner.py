"""Only orientation.py writes an orientation's state: no other module of
the package assigns to, or deletes, a heads, indegree or unoriented
attribute or an item of one.  Arcs go in through PartialOrientation.orient
and nothing takes one back."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "orientkit").glob("*.py"))
STATE = {"heads", "indegree", "unoriented"}


def state_writes(tree):
    """Line numbers of the stores and deletes under tree that reach one of
    STATE, directly or through subscripts."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Attribute, ast.Subscript))
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            while isinstance(node, ast.Subscript):
                node = node.value
            if isinstance(node, ast.Attribute) and node.attr in STATE:
                yield node.lineno


def test_only_orientation_module_writes_orientation_state():
    assert "orientation.py" in {path.name for path in SOURCES}
    found = [f"{path.name}:{line}" for path in SOURCES
             if path.name != "orientation.py"
             for line in state_writes(ast.parse(path.read_text(
                 encoding="utf-8")))]
    assert found == []


def test_the_guard_sees_every_kind_of_write():
    tree = ast.parse("p.heads[i] = -1\np.indegree[h] -= 1\n"
                     "p.unoriented += 1\nq.heads = []\ndel p.heads[0][1]\n"
                     "x = p.heads[i]\np.other[0] = 1\n")
    assert list(state_writes(tree)) == [1, 2, 3, 4, 5]
