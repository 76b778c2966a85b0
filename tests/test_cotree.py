"""The cotree builders against the recursive reference oracles.

Cotrees are compared through an iterative pre-order encoding: dataclass
equality and repr recurse, and the deep cotrees below would overflow them.
"""

import contextlib
import io
import random
import tracemalloc
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from orientkit import recognize
from orientkit.cli import dispatch
from orientkit.construct import (cograph_bounds, cograph_orient,
                                 cograph_upper_bound)
from orientkit.errors import PreconditionViolated
from orientkit.graph import Graph, read_graph, write_graph
from orientkit.instances import RANDOM_CLASSES, random_class_instance
from orientkit.orientation import read_orientation
from orientkit.recognize import (CotreeJoin, CotreeLeaf, cograph_cotree,
                                 evaluate_cotree, quasi_threshold_cotree)
from oracles import (cograph_cotree_oracle, find_induced_p4_oracle,
                     quasi_threshold_cotree_oracle, threshold_graph)


def encode(node):
    """Pre-order tokens: a vertex for a leaf, (kind, child count) otherwise."""
    out, stack = [], [node]
    while stack:
        nd = stack.pop()
        if isinstance(nd, CotreeLeaf):
            out.append(nd.vertex)
        else:
            kind = "join" if isinstance(nd, CotreeJoin) else "union"
            out.append((kind, len(nd.children)))
            stack.extend(reversed(nd.children))
    return out


def assert_matches_oracles(g):
    qt, qt_ref = quasi_threshold_cotree(g), quasi_threshold_cotree_oracle(g)
    assert (qt is None) == (qt_ref is None)
    if qt is not None:
        assert encode(qt) == encode(qt_ref)
        assert evaluate_cotree(qt, g.n) == g
    check, ref = cograph_cotree(g), cograph_cotree_oracle(g)
    assert (check.cotree is None) == (ref is None)
    if check.cotree is not None:
        assert check.p4 is None
        assert encode(check.cotree) == encode(ref)
        assert evaluate_cotree(check.cotree, g.n) == g
    else:
        a, b, c, d = check.p4
        assert len({a, b, c, d}) == 4
        assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
        assert not (g.has_edge(a, c) or g.has_edge(b, d) or g.has_edge(a, d))
    # quasi-threshold graphs are cographs
    assert qt is None or check.cotree is not None


def criterion_4_graphs():
    for seed in range(100):
        yield random_class_instance("quasi-threshold", 4 + (seed * 11) % 27,
                                    seed)


def criterion_10_graphs():
    kinds = ("quasi-threshold", "split", "cograph")
    for seed in range(50):
        yield random_class_instance(kinds[seed % 3], 3 + seed % 6, seed)
        yield random_class_instance(kinds[(seed + 1) % 3], 3 + (seed * 5) % 6,
                                    seed + 500)
    for seed in range(59):
        yield random_class_instance("cograph", 4 + seed % 9, seed)


def test_acceptance_corpora_match_oracles():
    for g in criterion_4_graphs():
        assert quasi_threshold_cotree(g) is not None
        assert_matches_oracles(g)
    for g in criterion_10_graphs():
        assert_matches_oracles(g)


def test_random_classes_match_oracles():
    for kind in RANDOM_CLASSES:
        for size in (20, 200):
            assert_matches_oracles(random_class_instance(kind, size, 1))


def test_relabelled_cographs_match_oracles():
    # the builder inserts vertices in id order, so labels change its path
    rng = random.Random(7)
    for kind in ("quasi-threshold", "cograph"):
        for seed in range(20):
            g = random_class_instance(kind, 30, seed)
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert_matches_oracles(g.relabeled(perm))


def flipped(g, rng):
    """g with one vertex pair's adjacency flipped, randomly relabelled."""
    u, v = sorted(rng.sample(range(g.n), 2))
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, sorted(set(g.edges) ^ {(u, v)})).relabeled(perm)


def test_near_cographs_match_oracles():
    rng = random.Random(29)
    p4s = 0
    for kind in ("quasi-threshold", "cograph"):
        for seed in range(500):
            g = random_class_instance(kind, rng.randint(4, 40), seed)
            h = flipped(g, rng)
            assert_matches_oracles(h)
            check = cograph_cotree(h)
            assert ((check.cotree is None)
                    == (find_induced_p4_oracle(h) is not None))
            p4s += check.cotree is None
    assert 550 < p4s < 850


def test_small_examples():
    assert encode(quasi_threshold_cotree(Graph(0))) == [("union", 0)]
    assert encode(cograph_cotree(Graph(0)).cotree) == [("union", 0)]
    assert encode(cograph_cotree(Graph(1)).cotree) == [0]
    # K3: nested single-vertex joins, smallest vertex first
    assert encode(quasi_threshold_cotree(Graph.complete(3))) == [
        ("join", 2), 0, ("join", 2), 1, 2]
    assert encode(cograph_cotree(Graph.complete(3)).cotree) == [
        ("join", 3), 0, 1, 2]
    # C4 is a cograph but not quasi-threshold
    assert quasi_threshold_cotree(Graph.cycle_graph(4)) is None
    assert encode(cograph_cotree(Graph.cycle_graph(4)).cotree) == [
        ("join", 2), ("union", 2), 0, 2, ("union", 2), 1, 3]


def test_every_cotree_reader_rejects_a_foreign_node():
    # a node with children that is neither union nor join, nor a leaf
    @dataclass(frozen=True)
    class Foo:
        children: tuple

    bad = CotreeJoin((CotreeLeaf(0), Foo((CotreeLeaf(1), CotreeLeaf(2)))))
    g = Graph(3, [(0, 1), (0, 2)])
    readers = [recognize.cotree_postorder, evaluate_cotree, cograph_bounds,
               cograph_upper_bound, lambda cotree: cograph_orient(g, cotree)]
    for read in readers:
        with pytest.raises(PreconditionViolated, match="is not a leaf"):
            read(bad)
    with pytest.raises(PreconditionViolated):
        evaluate_cotree(CotreeJoin((CotreeLeaf(0), object())))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_hypothesis_graphs_match_oracles(data):
    n = data.draw(st.integers(min_value=0, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    assert_matches_oracles(Graph(n, sorted(chosen)))


def test_deep_threshold_graph_memory():
    g = threshold_graph(500)
    tracemalloc.start()
    try:
        qt = quasi_threshold_cotree(g)
        check = cograph_cotree(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert qt is not None and check.cotree is not None
    assert peak < 50 * 2 ** 20


def run_cli(argv):
    """(exit code, report as a dict) of one CLI command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dispatch(argv)
    return code, dict(line.partition("=")[::2]
                      for line in buf.getvalue().splitlines())


def test_deep_threshold_graph_orient(tmp_path):
    n = 2100
    g = threshold_graph(n)
    assert quasi_threshold_cotree(g) is not None
    assert cograph_cotree(g).cotree is not None
    path, out = tmp_path / "threshold.graph", tmp_path / "threshold.orient"
    write_graph(g, path)
    del g
    code, report = run_cli(["orient", str(path), "--class", "auto",
                            "--out", str(out)])
    omega = n // 2 + 1   # the dominating vertices plus vertex 0
    assert code == 0
    assert report["class"] == "quasi-threshold"
    assert report["proper"] == "true"
    assert int(report["max_indegree"]) == omega - 1
    # the 1.1 M arcs written, read back and counted again
    indeg = read_orientation(out, read_graph(path)).recompute_indegree()
    assert max(indeg) == omega - 1
    assert sorted(set(indeg)) == list(range(omega))


@pytest.mark.parametrize("argv, graph, cls", [
    (["orient"], random_class_instance("cograph", 30, 2), "cograph"),
    (["orient"], random_class_instance("quasi-threshold", 30, 1),
     "quasi-threshold"),
    (["orient"], Graph.cycle_graph(5), "low-degree"),
    (["recognize"], random_class_instance("cograph", 30, 2), None),
])
def test_one_insertion_tree_per_graph(argv, graph, cls, monkeypatch,
                                      tmp_path):
    # the quasi-threshold and cograph recognizers share one insertion tree
    built = []
    insert = recognize._insert_cotree
    monkeypatch.setattr(recognize, "_insert_cotree",
                        lambda g: built.append(g) or insert(g))
    path = tmp_path / "g.graph"
    write_graph(graph, path)
    code, report = run_cli([*argv, str(path)])
    assert code == 0
    assert report.get("class") == cls
    assert len(built) == 1
