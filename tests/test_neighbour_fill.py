"""A Graph builds its neighbour lists on first use.  The fill matches the
eager build it replaced, on every entry point, and the commands that only
move the edge columns (generate, reduce, verify) never fill a graph of
more than a handful of edges."""

import contextlib
import io
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientkit.cli import dispatch
from orientkit.graph import Graph, write_graph
from orientkit.instances import RANDOM_CLASSES, build_vc_certificate, \
    reduce_vertex_cover
from orientkit.orientation import write_orientation
from oracles import cubic_graph, eager_adjacency_oracle

# the largest graph a read-only command may fill: reduce's cubic input
SMALL = 20


def assert_fills_like_the_eager_build(g):
    """g's filled adj and _off equal the eager build's, every edge's id is
    its position, and a misspelt attribute still raises."""
    adj, off = eager_adjacency_oracle(g)
    assert g.adj == adj
    assert list(g._off) == off
    assert [g.edge_id(u, v) for u, v in zip(g.lo, g.hi)] == list(range(g.m))
    with pytest.raises(AttributeError):
        g.no_such_name


FILLS = {
    "adj": lambda g: g.adj,
    "has_edge": lambda g: g.has_edge(0, 1),
    "edge_id": lambda g: g.edge_id(g.lo[-1], g.hi[-1]) if g.m else g.adj,
    "degree": lambda g: g.degree(0),
}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_entry_point_fills_like_the_eager_build(data):
    n = data.draw(st.integers(1, 12), label="n")
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1))
                               .filter(lambda p: p[0] != p[1]),
                               max_size=30), label="pairs")
    # one pair per edge, either way round, in drawn order
    g = Graph(n, list({frozenset(p): p for p in pairs}.values()))
    assert g._adj is None
    fill = data.draw(st.sampled_from(sorted(FILLS)), label="entry")
    FILLS[fill](g)
    assert g._adj is not None
    assert_fills_like_the_eager_build(g)


# -- read-only commands ------------------------------------------------------


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return dispatch([str(a) for a in argv])


def test_read_only_commands_fill_no_graph_but_a_small_one(tmp_path,
                                                          monkeypatch):
    cubic = cubic_graph(10, 10)
    cover = next(c for c in itertools.combinations(range(cubic.n), 6)
                 if all(u in c or v in c for u, v in zip(cubic.lo, cubic.hi)))
    red = reduce_vertex_cover(cubic, 6)
    assert red.graph.m > SMALL
    cubic_path, red_path = tmp_path / "cubic.graph", tmp_path / "red.graph"
    d_path, out = tmp_path / "red.orientation", tmp_path / "out.graph"
    write_graph(cubic, cubic_path)
    write_orientation(build_vc_certificate(red, cover), d_path)
    commands = [["generate", "--random", kind, "--size", 40, "--seed", 1,
                 "--out", out] for kind in RANDOM_CLASSES]
    commands += [["generate", "--tight", "split", "--param", 4,
                  "--out", out],
                 ["generate", "--tight", "block", "--param", 3,
                  "--out", out],
                 ["generate", "--gadget", "S", "--k", 5, "--out", out],
                 ["generate", "--gadget", "F", "--i", 3, "--k", 5,
                  "--out", out],
                 ["generate", "--gadget", "Z", "--k", 6, "--out", out],
                 ["generate", "--reduce-vc", cubic_path, "--k", 6,
                  "--out", red_path],
                 ["reduce", cubic_path, "--k", 6, "--out", red_path],
                 ["verify", red_path, d_path],
                 ["verify", red_path, d_path, "--compensate", 0, 1, 2]]
    filled = []  # the edge count of every graph Graph._fill is called on
    fill = Graph._fill

    def counted(g):
        filled.append(g.m)
        return fill(g)

    monkeypatch.setattr(Graph, "_fill", counted)
    for argv in commands:
        assert _run(argv) == 0, argv
        assert all(m <= SMALL for m in filled), (argv, filled)
    assert _run(["recognize", red_path]) == 0
    assert red.graph.m in filled
