import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientkit.graph import (Graph, disjoint_union, format_graph,
                             generic_bounds, join, parse_graph, parse_pairs)
from orientkit.orientation import (CompensationSpec, Orientation,
                                   format_orientation, is_compensated_proper,
                                   is_proper, max_indegree, parse_orientation)
from oracles import graph_init_oracle, orient_large_corpus, recognizer_corpus


def transitive(g, order):
    pos = {v: i for i, v in enumerate(order)}
    heads = [v if pos[v] > pos[u] else u for u, v in g.edges]
    return Orientation(g, heads)


def test_graph_invariants():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert g.n == 4 and g.m == 4
    assert sum(g.degrees()) == 2 * g.m
    assert g.adj[1] == [0, 2]
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    for dup in ([(0, 1), (1, 0)], [(0, 1), (1, 2), (1, 0)]):
        with pytest.raises(ValueError, match="duplicate edge"):
            Graph(3, dup)
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])


def test_neighbour_lists_are_sorted_for_any_edge_order():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 40)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.3]
        rng.shuffle(pairs)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        g = Graph(n, edges)
        assert g.m == len(pairs)
        for v in range(n):
            assert g.adj[v] == sorted(g.adj[v])
            assert set(g.adj[v]) == {b if a == v else a for a, b in pairs
                                     if v in (a, b)}


def _outcome(build, n, make_edges):
    """(edges, adj) that build makes of n and make_edges(), or the type and
    message of the error it raises; a Graph's edges are read off its
    columns."""
    try:
        got = build(n, make_edges())
    except (ValueError, TypeError) as err:
        return type(err), str(err)
    if isinstance(got, Graph):
        return list(zip(got.lo, got.hi)), got.adj
    return got


MALFORMED = [
    (-1, []), (3, [(0, 3)]), (3, [(3, 0)]), (3, [(-1, 0)]), (3, [(0, -1)]),
    (3, [(1, 1)]), (3, [(0, 1), (0, 1)]), (3, [(0, 1), (1, 0)]),
    (3, [(1, 2), (0, 1), (2, 1)]), (3, [[0, 1], [1, 0]]),
    (4, [(2, 3), (0, 1), (3, 2), (1, 0)]), (3, [(0, 1), (0, 1), (0, 5)]),
    (3, [(2, 2), (0, 7)]), (3, [(0, 7), (2, 2)]), (3, [(0, 1), (1, 1)]),
    (3, [(0, 1, 2)]), (3, [(0,)]), (3, [(0, "1")]),
]


def test_graph_init_matches_the_always_sorting_oracle():
    rng = random.Random(17)
    cases = 0
    for g in itertools.chain(orient_large_corpus(), recognizer_corpus()):
        shuffled = list(g.edges)
        rng.shuffle(shuffled)
        flipped = [(v, u) if rng.random() < 0.5 else (u, v)
                   for u, v in shuffled]
        for edges in (g.edges, shuffled, flipped,
                      [list(e) for e in flipped]):
            for make in (lambda: list(edges), lambda: iter(edges)):
                want = _outcome(graph_init_oracle, g.n, make)
                assert _outcome(Graph, g.n, make) == want
                assert want[0] == g.edges
                cases += 1
    for n, edges in MALFORMED:
        for make in (lambda: list(edges), lambda: iter(edges)):
            want = _outcome(graph_init_oracle, n, make)
            assert want[0] in (ValueError, TypeError)
            assert _outcome(Graph, n, make) == want
    assert cases > 6000


def _lookups_agree(g, eix, u, v):
    """edge_id and has_edge of g at (u, v) answer as the dict eix does."""
    key = (u, v) if u < v else (v, u)
    assert g.has_edge(u, v) == (key in eix), (u, v)
    try:
        got = g.edge_id(u, v)
    except KeyError:
        got = None
    assert got == eix.get(key), (u, v)


def test_edge_lookups_match_a_dict_index():
    checked = 0
    for g in itertools.chain(orient_large_corpus(), recognizer_corpus()):
        eix = {e: i for i, e in enumerate(g.edges)}
        for u, v in g.edges:
            _lookups_agree(g, eix, u, v)
            _lookups_agree(g, eix, v, u)
        if g.n <= 30:
            for u in range(-2, g.n + 2):
                for v in range(-2, g.n + 2):
                    _lookups_agree(g, eix, u, v)
        checked += g.m
    assert checked > 100000
    # a list reads adj[-1] as vertex n - 1's neighbours: the range check
    # must come before any list access
    g = Graph.path_graph(4)
    assert g.has_edge(3, 2) and not g.has_edge(-1, 2)
    _lookups_agree(g, {e: i for i, e in enumerate(g.edges)}, -1, 2)


def test_is_proper_examples():
    edge = Graph(2, [(0, 1)])
    assert is_proper(Orientation(edge, [1]))
    tri = Graph.complete(3)
    cyclic = Orientation.from_arcs(tri, [(0, 1), (1, 2), (2, 0)])
    assert cyclic.indegree == (1, 1, 1)
    assert not is_proper(cyclic)
    k4 = Graph.complete(4)
    t = transitive(k4, [0, 1, 2, 3])
    assert t.indegree == (0, 1, 2, 3)
    assert is_proper(t)


def test_max_indegree_examples():
    k4 = Graph.complete(4)
    assert max_indegree(transitive(k4, [0, 1, 2, 3])) == 3
    star = Graph.star(3)
    inward = Orientation(star, [0, 0, 0])
    assert max_indegree(inward) == 3
    assert max_indegree(Orientation(Graph.empty(3), [])) == 0


def test_compensated_examples():
    k3 = Graph.complete(3)
    t = transitive(k3, [0, 1, 2])
    assert is_compensated_proper(t, CompensationSpec(u=2, c=2, d=2))
    # recoloring the source with a neighbor's indegree breaks properness
    assert not is_compensated_proper(t, CompensationSpec(u=0, c=1, d=0))
    k4 = Graph.complete(4)
    t4 = transitive(k4, [0, 1, 2, 3])
    assert is_compensated_proper(t4, CompensationSpec(u=2, c=5, d=2))
    # wrong required indegree fails regardless of color
    assert not is_compensated_proper(t4, CompensationSpec(u=2, c=5, d=1))


def test_union_and_join():
    u = disjoint_union(Graph.complete(2), Graph.complete(2))
    assert u.n == 4 and u.m == 2
    j = join(Graph.complete(1), Graph.complete(3))
    assert j == Graph.complete(4)
    j2 = join(Graph.complete(3), Graph.complete(2))
    assert j2 == Graph.complete(5)


def test_generic_bounds():
    assert generic_bounds(Graph.complete(5), 5) == (4, 4)
    assert generic_bounds(Graph.star(4), 2) == (1, 4)
    assert generic_bounds(Graph.cycle_graph(4), 2) == (1, 2)
    assert generic_bounds(Graph(0), 0) == (0, 0)


def test_graph_text_roundtrip():
    g = Graph(5, [(0, 1), (1, 4), (2, 3)])
    assert parse_graph(format_graph(g)) == g
    text = "# comment\n5   3\n0 1\n\n1 4  # arc\n2 3\n"
    assert parse_graph(text) == g


def test_endpoint_tokens_parse_as_int_does():
    # only plain decimal ids below n are in the parse table; any other
    # token is read with int(), with int()'s results and messages
    for tok, value in (("007", 7), ("+3", 3), ("1_0", 10)):
        assert parse_pairs(f"11 1\n0 {tok}\n", "graph") == (11, 1, [0],
                                                             [value])
        assert parse_graph(f"11 1\n{tok} 0\n") == Graph(11, [(0, value)])
    for tok in ("-1", "11"):
        with pytest.raises(ValueError, match=re.escape(
                f"edge (0,{tok}) out of range for n=11")):
            parse_graph(f"11 1\n0 {tok}\n")
    for tok in ("1.5", "x"):
        with pytest.raises(ValueError, match=re.escape(
                f"invalid literal for int() with base 10: '{tok}'")):
            parse_graph(f"11 2\n0 1\n{tok} 0\n")
    # the table is sized by the tokens too, so a huge n costs nothing
    tracemalloc.start()
    try:
        assert parse_pairs("1000000000 0\n", "graph") == (10 ** 9, 0, [], [])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def test_orientation_text_roundtrip():
    g = Graph(3, [(0, 1), (1, 2)])
    d = Orientation.from_arcs(g, [(1, 0), (1, 2)])
    back = parse_orientation(format_orientation(d), g)
    assert back == d
    with pytest.raises(ValueError):
        parse_orientation("2 1\n0 1\n", g)
    # an arc must name an edge: not a non-edge, not a loop
    for arcs in ([(0, 1), (0, 2)], [(0, 1), (1, 1)]):
        with pytest.raises(ValueError, match="is not an edge"):
            Orientation.from_arcs(g, arcs)
        with pytest.raises(ValueError, match="is not an edge"):
            parse_orientation("3 2\n" + "".join(f"{t} {h}\n"
                                                  for t, h in arcs), g)
    # one head per edge, and each an endpoint of its edge
    for heads in ([1], [1, 2, 1], [1, 0], [2, 2]):
        with pytest.raises(ValueError):
            Orientation(g, heads)


def test_indegree_cache_matches_recompute():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        g = Graph(n, edges)
        heads = [e[rng.randint(0, 1)] for e in g.edges]
        d = Orientation(g, heads)
        assert list(d.indegree) == d.recompute_indegree()
        assert d.heads == tuple(heads)
        assert Orientation.from_arcs(g, d.arcs()) == d
        assert d.reversed().reversed() == d


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_handshake_and_relabel_invariance(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = Graph(n, sorted(chosen))
    heads = [e[data.draw(st.integers(0, 1))] for e in g.edges]
    d = Orientation(g, heads)
    assert sum(d.indegree) == g.m
    perm = data.draw(st.permutations(list(range(n))))
    g2 = g.relabeled(list(perm))
    arcs2 = [(perm[t], perm[h]) for t, h in d.arcs()]
    d2 = Orientation.from_arcs(g2, arcs2)
    assert is_proper(d) == is_proper(d2)
    assert max_indegree(d) == max_indegree(d2)


def test_induced_subgraph_keeps_exactly_the_inner_edges():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(0, 12)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.4])
        verts = rng.sample(range(n), rng.randint(0, n))
        sub, old = g.induced(verts)
        assert old == sorted(verts)
        inner = [(u, v) for u, v in g.edges if u in verts and v in verts]
        assert [(old[a], old[b]) for a, b in sub.edges] == inner


def test_induced_rejects_ids_outside_the_graph():
    # -1 once read vertex 2's neighbour list and kept its edge
    g = Graph(3, [(0, 2)])
    for verts in ([-1, 0], [0, 3], [5]):
        with pytest.raises(ValueError, match="0..n-1"):
            g.induced(verts)
    assert g.induced([]) == (Graph(0), [])


def test_bfs_distances_rejects_a_source_outside_the_graph():
    # -1 once gave the distances from vertex 3, and 4 an IndexError
    g = Graph.path_graph(4)
    for source in (-1, 4):
        with pytest.raises(ValueError, match="0..n-1 for n=4"):
            g.bfs_distances(source)
    assert g.bfs_distances(3) == [3, 2, 1, 0]


def test_degree_rejects_a_vertex_outside_the_graph():
    # -1 once gave the degree of vertex 3, and 4 an IndexError
    g = Graph.star(3)
    for v in (-1, 4):
        with pytest.raises(ValueError, match="0..n-1 for n=4"):
            g.degree(v)
    assert [g.degree(v) for v in range(4)] == g.degrees() == [3, 1, 1, 1]


def test_reversal_indegree_formula_and_nonproperty():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        g = Graph(n, edges)
        heads = [e[rng.randint(0, 1)] for e in g.edges]
        d = Orientation(g, heads)
        r = d.reversed()
        assert all(r.indegree[v] == g.degree(v) - d.indegree[v]
                   for v in range(n))
    # properness is not preserved by reversal: a path witness
    p4 = Graph.path_graph(4)
    d = Orientation.from_arcs(p4, [(0, 1), (2, 1), (3, 2)])
    assert is_proper(d)
    assert not is_proper(d.reversed())
