"""The vertex-cover reduction against its one-gadget-per-attachment oracle,
its pinned output bytes and certificate heads, and the work it and the
orientation reader do."""

import gc
import hashlib
import itertools
import random
import tracemalloc

import pytest

from orientkit.errors import BadK
from orientkit.graph import Graph, format_graph, read_graph, write_graph
from orientkit.instances import (build_vc_certificate, ladder_gadget,
                                 reduce_vertex_cover)
from orientkit.orientation import (Orientation, read_orientation,
                                   write_orientation)
from oracles import (cubic_graph, from_arcs_oracle, petersen_graph,
                     reduce_vertex_cover_oracle)

K4 = Graph.complete(4)
K33 = Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])


@pytest.mark.parametrize("name, g", [
    ("K4", K4), ("K3,3", K33), ("petersen", petersen_graph()),
    ("cubic10", cubic_graph(10, 10)), ("cubic12", cubic_graph(12, 12))])
def test_reduction_matches_oracle_at_every_k(name, g):
    for k in range(3, g.n + 2):
        assert reduce_vertex_cover(g, k) == reduce_vertex_cover_oracle(g, k)
    # k - 1 below 2 and k + 1 above k' name no head gadget
    for k in (2, g.n + 2):
        with pytest.raises(BadK):
            reduce_vertex_cover(g, k)


def test_cover_budget_outside_3_to_n_plus_1_is_named():
    for k in (1, 2, 12):
        with pytest.raises(BadK) as err:
            reduce_vertex_cover(petersen_graph(), k)
        assert str(err.value) == ("cover budget must satisfy "
                                  f"3 <= k <= n + 1 = 11, got k={k}")


@pytest.mark.parametrize("g, k, digest", [
    (petersen_graph(), 6,
     "6c26a366b9962e48db8de667d67bafd1000de4cde03678cb09d6e052e20e7285"),
    (cubic_graph(10, 10), 6,
     "d2b309a9827549175e88d75d37c7204790fdc3daa6a53922eff0f493e0a0d02c"),
    (cubic_graph(12, 12), 7,
     "f3f85450c7400480184b12cde061d69b24ae6ce55fe3b1c53da969a34d125ea7")])
def test_reduction_bytes_at_minimum_cover(g, k, digest):
    text = format_graph(reduce_vertex_cover(g, k).graph)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("g, k, cover, digest", [
    (petersen_graph(), 6, (0, 1, 3, 7, 8, 9),
     "f9e0eaf67a8d4d11680af1cb317220bdd84298b8a224425a374597006b3e2323"),
    (cubic_graph(10, 10), 6, (0, 2, 3, 5, 6, 8),
     "8fef4adbad8dea0afcbffbd07a906592612209d450a7d04bd4cdafb60f525427"),
    (cubic_graph(12, 12), 7, (0, 1, 3, 5, 7, 9, 10),
     "16fa8075caf465baf7472133a61c783f08ff058d6736641f3031b4a0fc7c2859")])
def test_certificate_heads_at_minimum_cover(g, k, cover, digest):
    # the first k-subset, in combinations order, that covers every edge
    assert cover == next(c for c in itertools.combinations(range(g.n), k)
                         if all(u in c or v in c for u, v in g.edges))
    heads = build_vc_certificate(reduce_vertex_cover(g, k), cover).heads
    assert hashlib.sha256(repr(heads).encode()).hexdigest() == digest


def test_reduction_builds_one_graph_per_gadget_shape(monkeypatch):
    inputs = [(petersen_graph(), 6), (cubic_graph(12, 12), 7)]
    built = []
    store = Graph._store  # every build ends here, from pairs or columns

    def counting(self, *args):
        built.append(1)
        store(self, *args)

    monkeypatch.setattr(Graph, "_store", counting)
    counts = []
    for g, k in inputs:
        built.clear()
        reduce_vertex_cover(g, k)
        counts.append(len(built))
    # three head-gadget shapes (a ladder and its extension each), one
    # double clique, and the output
    assert counts == [8, 8]


def test_read_orientation_by_position(tmp_path, monkeypatch):
    red = reduce_vertex_cover(K4, 3)
    cert = build_vc_certificate(red, {0, 1, 2})
    write_graph(red.graph, tmp_path / "g")
    write_orientation(cert, tmp_path / "d")
    g = read_graph(tmp_path / "g")
    lookups = []
    edge_id = Graph.edge_id

    def counting(self, u, v):
        lookups.append((u, v))
        return edge_id(self, u, v)

    monkeypatch.setattr(Graph, "edge_id", counting)
    d = read_orientation(tmp_path / "d", g)
    assert d.heads == cert.heads
    assert lookups == []  # canonical order: heads read by position
    arcs = list(d.arcs())
    random.Random(3).shuffle(arcs)
    assert Orientation.from_arcs(g, arcs) == d
    assert sorted(lookups) == sorted(arcs)  # shuffled: one lookup per arc


def test_lookups_leave_no_index_on_the_graph():
    cubic = cubic_graph(12, 12)
    cover = next(c for c in itertools.combinations(range(cubic.n), 7)
                 if all(u in c or v in c for u, v in cubic.edges))
    red = reduce_vertex_cover(cubic, 7)
    arcs = list(build_vc_certificate(red, cover).arcs())
    random.Random(12).shuffle(arcs)
    g = Graph(red.graph.n, red.graph.edges)  # no lookup has touched it
    g.adj  # the neighbour lists are filled before the window opens
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        d = Orientation.from_arcs(g, arcs)
        assert [g.edge_id(u, v) for u, v in g.edges] == list(range(g.m))
        del d
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 1024


def _raised(fn, *args):
    with pytest.raises(ValueError) as err:
        fn(*args)
    return str(err.value)


def test_from_arcs_errors_match_the_lookup():
    g = ladder_gadget(4)[0]
    arcs = [(u, v) if (u + v) % 3 else (v, u) for u, v in g.edges]
    non_edge = next((u, v) for u in range(g.n) for v in range(g.n)
                    if u != v and not g.has_edge(u, v))
    bad = {
        "is not an edge": [arcs[:5] + [non_edge] + arcs[6:],
                           arcs + [non_edge]],
        "oriented twice": [arcs[:5] + [arcs[4]] + arcs[5:],
                           arcs + [arcs[0][::-1]]],
        "do not cover every edge": [arcs[:5] + arcs[6:], arcs[:-1]],
    }
    for text, copies in bad.items():
        for copy in copies:
            fresh = Graph(g.n, g.edges)
            message = _raised(Orientation.from_arcs, fresh, copy)
            assert text in message
            assert message == _raised(from_arcs_oracle, fresh, copy)
