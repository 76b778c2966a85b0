import ast
import contextlib
import hashlib
import io
import itertools
import random
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientkit import construct
from orientkit.cli import dispatch
from orientkit.construct import (claw_free_chordal_bound,
                                 cograph_bounds, cograph_join_orient,
                                 cograph_orient, cograph_upper_bound,
                                 extend_partial, extend_to_path,
                                 low_degree_orient, outerplanar_strip_orient,
                                 path_block_compensated, path_block_sequence,
                                 quasi_threshold_orient, split_orient,
                                 two_cut_block_orient, uniform_block_orient)
from orientkit.errors import (BadCompensation, BadShape, ConstructionError,
                              DegreeConditionViolated, HypothesisViolated,
                              NotApplicable, NotStrip, PreconditionViolated,
                              UnsupportedK)
from orientkit.exact import decide_k_orientation, proper_orientation_number
from orientkit.graph import Graph, disjoint_union, join, write_graph
from orientkit.instances import (block_tight_example, random_class_instance,
                                 split_kernel, split_tight_example)
from orientkit.orientation import (CompensationSpec, Orientation,
                                   PartialOrientation, is_compensated_proper,
                                   is_proper, max_indegree)
from orientkit.recognize import (CotreeJoin, CotreeLeaf, CotreeUnion,
                                 SplitPartition, block_cut_tree, chordal_peo,
                                 clique_number_chordal, cograph_cotree,
                                 is_claw_free, outerplanar_strip,
                                 quasi_threshold_cotree, split_partition)
from oracles import (cograph_orient_oracle, criterion_3_graphs,
                     extend_partial_oracle, is_acyclic,
                     path_block_compensated_oracle,
                     quasi_threshold_orient_oracle, random_tree, relabeled,
                     run_optimized, split_orient_oracle, strip_orient_oracle,
                     threshold_graph, zigzag_strip)


def fan(n):
    return Graph(n + 1, [(0, i) for i in range(1, n + 1)]
                 + [(i, i + 1) for i in range(1, n)])


# -- extend_partial ----------------------------------------------------------


def test_greedy_completion_has_two_callers():
    # every constructor ends in _extend, except the 3k-2 reducer's core,
    # whose pending counts are the live degrees it already keeps
    tree = ast.parse(Path(construct.__file__).read_text(encoding="utf-8"))
    defs = [(d.name, d) for d in tree.body if isinstance(d, ast.FunctionDef)]
    defs += [(f"{c.name}.{d.name}", d) for c in tree.body
             if isinstance(c, ast.ClassDef)
             for d in c.body if isinstance(d, ast.FunctionDef)]
    callers = sorted(name for name, d in defs for node in ast.walk(d)
                     if isinstance(node, ast.Call)
                     and getattr(node.func, "id", None) == "_greedy_inward")
    assert callers == ["_UniformReducer.run", "_extend"]


def test_extend_partial_source():
    for g in (Graph.complete(4), Graph.star(4), Graph.cycle_graph(5)):
        for u in range(g.n):
            d = extend_partial(g, {u}, {})
            assert is_proper(d)
            assert d.indegree[u] == 0
            assert max_indegree(d) <= g.max_degree()


def test_extend_partial_keeps_seed_indegrees():
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (0, 4),
                  (3, 4)])
    ds = {(0, 1): 1, (0, 2): 2, (1, 2): 2}
    # S = {0,1,2} is a triangle oriented transitively
    d = extend_partial(g, {0, 1, 2}, ds)
    assert is_proper(d)
    assert d.indegree[0] == 0 and d.indegree[1] == 1 and d.indegree[2] == 2


def test_extend_partial_precondition_violation():
    # adjacent seed with indegree 1 but a single-S-neighbor outside
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(PreconditionViolated):
        extend_partial(g, {0, 1}, {(0, 1): 1})


@pytest.mark.parametrize("outside", [-1, 5])
def test_extend_partial_rejects_ids_outside_the_graph(outside):
    # -1 would read vertex 2's neighbours, 5 run off the adjacency list
    with pytest.raises(PreconditionViolated, match=r"0\.\.2"):
        extend_partial(Graph.path_graph(3), {outside}, {})


def test_extend_partial_never_exceeds_degree():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(2, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        g = Graph(n, edges)
        d = extend_partial(g, frozenset(), {})
        assert is_proper(d)
        assert all(d.indegree[v] <= g.degree(v) for v in range(n))


def test_extend_partial_matches_scan_greedy():
    # the heap picks the same vertex as a linear scan at every step
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 30)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < rng.choice((0.1, 0.3, 0.7))])
        s = set()
        for v in rng.sample(range(n), rng.randint(0, n)):
            if not any(w in s for w in g.adj[v]):
                s.add(v)
        assert (extend_partial(g, s, {}).heads
                == extend_partial_oracle(g, s).heads)


# -- low degree --------------------------------------------------------------


def test_low_degree_examples():
    spider = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
    d = low_degree_orient(spider, 2)
    assert is_proper(d) and max_indegree(d) <= 2
    with pytest.raises(DegreeConditionViolated):
        low_degree_orient(Graph.complete(3), 1)


def test_low_degree_trees():
    rng = random.Random(22)
    for c, thresh in ((2, 3), (3, 4)):
        for _ in range(20):
            t = random_tree(rng, rng.randint(2, 20),
                            no_adjacent_degree_at_least=thresh)
            d = low_degree_orient(t, c)
            assert is_proper(d) and max_indegree(d) <= c


# -- quasi-threshold ---------------------------------------------------------


def test_quasi_threshold_orient_examples():
    d = quasi_threshold_orient(quasi_threshold_cotree(Graph.complete(1)))
    assert max_indegree(d) == 0
    d = quasi_threshold_orient(quasi_threshold_cotree(Graph.complete(4)))
    assert sorted(d.indegree) == [0, 1, 2, 3]
    g = disjoint_union(Graph.complete(3), Graph.complete(2))
    d = quasi_threshold_orient(quasi_threshold_cotree(g))
    assert is_proper(d) and max_indegree(d) == 2


def test_quasi_threshold_always_optimal():
    for seed in range(30):
        g = random_class_instance("quasi-threshold", 3 + seed % 14, seed)
        cot = quasi_threshold_cotree(g)
        d = quasi_threshold_orient(cot)
        peo = chordal_peo(g).peo
        omega = clique_number_chordal(g, peo)
        assert is_proper(d) and max_indegree(d) == omega - 1


def quasi_threshold_corpus():
    """Quasi-threshold graphs: criterion 4's, larger random ones, relabelled
    copies of both, and threshold graphs, whose cotrees are the deepest."""
    rng = random.Random(11)
    sizes = [(4 + (seed * 11) % 27, seed) for seed in range(100)]
    for n, seed in sizes + [(200, 1), (800, 1)]:
        g = random_class_instance("quasi-threshold", n, seed)
        yield g
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield g.relabeled(perm)
    for n in (*range(1, 21), 250):
        yield threshold_graph(n)


def test_quasi_threshold_heads_match_oracle():
    # the cograph fold sends every join's edges away from its single vertex,
    # which is where the join count points them
    for g in quasi_threshold_corpus():
        cot = quasi_threshold_cotree(g)
        want = quasi_threshold_orient_oracle(cot)
        assert want.graph == g
        assert cograph_orient(g, cot) == want
        assert quasi_threshold_orient(cot) == want


# -- split -------------------------------------------------------------------


def test_split_orient_clique_only():
    g = Graph.complete(4)
    d = split_orient(g, split_partition(g))
    assert is_proper(d) and max_indegree(d) == 3


def test_split_orient_tight_examples():
    g = split_tight_example(2)
    d = split_orient(g, split_partition(g))
    assert is_proper(d) and max_indegree(d) <= 2
    g = split_tight_example(3)
    assert g.n == 39 and g.m == 57
    d = split_orient(g, split_partition(g))
    assert is_proper(d) and max_indegree(d) <= 4


def test_split_orient_seeded():
    for seed in range(40):
        g = random_class_instance("split", 4 + seed % 30, seed)
        part = split_partition(g)
        d = split_orient(g, part)
        omega = len(part.clique)
        assert is_proper(d) and max_indegree(d) <= max(2 * omega - 2, 0)


def test_split_orient_rejects_a_clique_that_is_not_maximum():
    # vertex 0 of I sees all of K = {1}, so K + {0} is a larger clique
    with pytest.raises(PreconditionViolated, match="vertex 0 sees"):
        split_orient(Graph.path_graph(3),
                     SplitPartition(frozenset({1}), frozenset({0, 2})))


def test_split_orient_rejects_a_partition_that_is_not_of_0_to_n():
    # these once raised an internal ConstructionError and an IndexError
    for part in (SplitPartition(frozenset({1, 2}), frozenset({0})),
                 SplitPartition(frozenset({1, 2}), frozenset({0, 3, 7})),
                 SplitPartition(frozenset({1, 2}), frozenset({0, 2, 3}))):
        with pytest.raises(PreconditionViolated, match="cover 0..3 once"):
            split_orient(Graph.path_graph(4), part)


def assert_split_matches_oracle(g):
    part = split_partition(g)
    assert split_orient(g, part).heads == split_orient_oracle(g, part).heads


def test_split_orient_matches_oracle_on_criterion_corpora():
    for g in criterion_3_graphs():
        assert_split_matches_oracle(g)
    for seed in range(200):
        assert_split_matches_oracle(
            random_class_instance("split", 6 + (seed * 7) % 35, seed))
    for seed in range(50):
        g = random_class_instance("split", 6 + seed % 9, 800 + seed)
        assert_split_matches_oracle(g)
        assert_split_matches_oracle(split_kernel(g, 2 + seed % 3)[0])
    for omega in (2, 3):
        assert_split_matches_oracle(split_tight_example(omega))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_split_orient_matches_oracle_on_hypothesis_graphs(data):
    omega = data.draw(st.integers(min_value=0, max_value=6))
    free = data.draw(st.integers(min_value=0, max_value=8))
    edges = [(u, v) for u in range(omega) for v in range(u + 1, omega)]
    for i in range(free):
        nbrs = data.draw(st.sets(st.integers(0, omega - 1), max_size=omega)
                         if omega else st.just(set()))
        edges += [(c, omega + i) for c in sorted(nbrs)]
    assert_split_matches_oracle(Graph(omega + free, edges))


def test_split_orient_matches_oracle_with_a_light_clique_vertex():
    # clique vertex 0 has no neighbour in I, so it and all of I are ranked
    rng = random.Random(5)
    omega, n = 12, 1000
    edges = [(u, v) for u in range(omega) for v in range(u + 1, omega)]
    for x in range(omega, n):
        edges += [(c, x) for c in rng.sample(range(1, omega), 3)]
    g = Graph(n, edges)
    assert not g.adj[0][omega - 1:]
    assert_split_matches_oracle(g)


# -- compensated path pieces --------------------------------------------------


def test_path_block_compensated_single_clique():
    seq = path_block_sequence([(0, 1, 2)])
    d = path_block_compensated(seq, 1, 5, 1)
    assert d.indegree == (0, 1, 2)
    assert is_compensated_proper(d, CompensationSpec(1, 5, 1))
    d = path_block_compensated(seq, 2, 2, 2)
    assert is_compensated_proper(d, CompensationSpec(2, 2, 2))


def test_path_block_compensated_recursive_cases():
    seq = path_block_sequence([(0, 1, 2), (2, 3, 4)])
    # d >= 1, d = 0 away from the boundary color, and d = 0 at it
    for c, dd in ((4, 1), (5, 0), (4, 0), (3, 1), (2, 2)):
        d = path_block_compensated(seq, 3, c, dd)
        assert is_compensated_proper(d, CompensationSpec(3, c, dd))
        assert max_indegree(d) <= max(c, 4)
    long = path_block_sequence([(0, 1, 2, 3), (3, 4, 5, 6), (6, 7, 8, 9)])
    for c, dd in ((7, 0), (6, 0), (8, 2), (3, 3)):
        d = path_block_compensated(long, 8, c, dd)
        assert is_compensated_proper(d, CompensationSpec(8, c, dd))
        assert max_indegree(d) <= max(c, 6)


def _outcome(fn, *args):
    """fn(*args)'s heads, or the type and message of what it raised."""
    try:
        return fn(*args).heads
    except Exception as exc:
        return type(exc), str(exc)


def test_path_block_compensated_matches_oracle():
    # every path of 1-5 k-cliques, k = 3-5, every vertex u of its last
    # clique, every c in 0..2k+1 and d in 0..k
    calls = 0
    for k in (3, 4, 5):
        for q in range(1, 6):
            seq = path_block_sequence([range(i * (k - 1), i * (k - 1) + k)
                                       for i in range(q)])
            for u, c, d in itertools.product(seq.cliques[-1], range(2 * k + 2),
                                             range(k + 1)):
                calls += 1
                assert (_outcome(path_block_compensated, seq, u, c, d)
                        == _outcome(path_block_compensated_oracle,
                                    seq, u, c, d)), (k, q, u, c, d)
    assert calls == 3280


def test_path_block_compensated_rejections():
    seq = path_block_sequence([(0, 1, 2), (2, 3, 4)])
    with pytest.raises(BadCompensation):
        path_block_compensated(seq, 3, 1, 2)  # c <= k-1 without c == d
    with pytest.raises(BadShape):
        path_block_compensated(seq, 2, 4, 1)  # u is the connector
    with pytest.raises(BadShape):
        path_block_sequence([(0, 1, 2), (2, 3, 4), (4, 5, 0)])
    with pytest.raises(BadShape):
        path_block_sequence([(0, 1), (1, 2)]) and path_block_compensated(
            path_block_sequence([(0, 1), (1, 2)]), 2, 3, 0)


# -- uniform block graphs ------------------------------------------------------


def test_uniform_block_small_cases():
    k4 = Graph.complete(4)
    d = uniform_block_orient(k4, block_cut_tree(k4), 4)
    assert sorted(d.indegree) == [0, 1, 2, 3]
    # a path of cliques stays within its max degree
    seq_graph = Graph(10, [(a, b) for blk in ((0, 1, 2, 3), (3, 4, 5, 6),
                                              (6, 7, 8, 9))
                           for i, a in enumerate(blk) for b in blk[i + 1:]])
    d = uniform_block_orient(seq_graph, None, 4)
    assert is_proper(d) and max_indegree(d) <= 6


def test_uniform_block_tight_examples():
    for k in (3, 4):
        g = block_tight_example(k)
        d = uniform_block_orient(g, None, k)
        assert is_proper(d) and max_indegree(d) <= 3 * k - 2


def test_uniform_block_seeded():
    for k in (3, 4):
        for seed in range(50):
            g = random_class_instance("uniform-block", 2 + seed % 11,
                                      seed * 31 + k, k)
            d = uniform_block_orient(g, None, k)
            assert is_proper(d) and max_indegree(d) <= 3 * k - 2


def test_uniform_block_rejects_trees():
    with pytest.raises(UnsupportedK):
        uniform_block_orient(Graph.path_graph(4), None, 2)


@pytest.mark.parametrize("kind, orient", [
    ("uniform-block", uniform_block_orient),
    ("two-cut-block", two_cut_block_orient)])
def test_block_constructors_reject_a_foreign_tree(kind, orient):
    # taken as g's own, another graph's blocks need not be g's, and the
    # reduction over them need not end
    g = random_class_instance(kind, 30, 1)
    for h in (relabeled(g, 0), random_class_instance(kind, 30, 2),
              random_class_instance(kind, 60, 1)):
        assert h != g
        for constructor in (uniform_block_orient, two_cut_block_orient):
            start = time.perf_counter()
            with pytest.raises(PreconditionViolated, match="another graph"):
                constructor(g, block_cut_tree(h), 3)
            assert time.perf_counter() - start < 1
    # the tree of an equal graph is g's tree
    d = orient(g, block_cut_tree(Graph(g.n, g.edges)), 3)
    assert is_proper(d)


def test_two_cut_block_examples():
    two = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    d = two_cut_block_orient(two, None, 3)
    assert is_proper(d) and max_indegree(d) <= 4
    assert d.indegree[2] in (0, 3, 4)
    g3 = block_tight_example(3)
    d = two_cut_block_orient(g3, None, 3)
    assert is_proper(d) and max_indegree(d) <= 4
    k5 = Graph.complete(5)
    d = two_cut_block_orient(k5, None, 5)
    assert max_indegree(d) == 4


def test_two_cut_block_seeded():
    for k in (3, 4, 5):
        for seed in range(40):
            g = random_class_instance("two-cut-block", 2 + seed % 9,
                                      seed * 17 + k, k)
            bct = block_cut_tree(g)
            d = two_cut_block_orient(g, bct, k)
            assert is_proper(d) and max_indegree(d) <= k + 1
            assert all(d.indegree[v] in (0, k, k + 1)
                       for v in bct.cut_vertices)
            # the orientation restricted to every block is transitive
            for blk in bct.blocks:
                vals = sorted(sum(1 for w in blk if w != v
                                  and d.heads[g.edge_id(v, w)] == v)
                              for v in blk)
                assert vals == list(range(k))


# -- fan paths and strips ----------------------------------------------------


def _fan_path_fixture(ell, first_indeg, d0, dl):
    """Hub + path of length ell + two anchors, with prescribed indegrees."""
    # vertices: 0 = hub v, 1..ell = path, ell+1 = v0-anchor, ell+2 = end-anchor
    # anchors get private leaf pools to reach the wanted indegrees
    n = ell + 3
    edges = [(0, i) for i in range(1, ell + 1)]
    edges += [(i, i + 1) for i in range(1, ell)]
    edges += [(ell + 1, 1), (ell, ell + 2)]
    pool = []
    for want, anchor in ((d0 - (0 if first_indeg == 2 else 1), ell + 1),
                         (dl, ell + 2)):
        for _ in range(max(want, 0)):
            pool.append((anchor, n))
            n += 1
    hub_pool = [(0, n + i) for i in range(4)]
    n += 4
    g = Graph(n, edges + pool + hub_pool)
    p = PartialOrientation(g)
    for i in range(1, ell + 1):
        p.orient(0, i, i)
    for a, b in hub_pool:
        p.orient(a, b, 0)
    p.orient(ell + 1, 1, 1 if first_indeg == 2 else ell + 1)
    p.orient(ell, ell + 2, ell)
    for a, b in pool:
        p.orient(a, b, a)
    assert p.indegree[1] == first_indeg
    assert p.indegree[ell] == 2
    assert p.indegree[ell + 1] == d0 and p.indegree[ell + 2] == dl
    return g, p


def test_extend_to_path_all_cases():
    for ell in (6, 7, 8, 9):
        for first in (1, 2):
            for d0 in (0, 1, 2, 3, 4):
                if first == 1 and d0 == 0:
                    continue  # the reversed anchor edge already gives 1
                for dl in (0, 1, 2, 3, 4):
                    g, p = _fan_path_fixture(ell, first, d0, dl)
                    d = extend_to_path(g, p, 0, ell + 1,
                                       list(range(1, ell + 1)), ell + 2)
                    assert is_proper(d)


def test_extend_to_path_hypothesis_violations():
    g, p = _fan_path_fixture(5, 2, 1, 2)
    with pytest.raises(HypothesisViolated):
        extend_to_path(g, p, 0, 6, [1, 2, 3, 4, 5], 7)


def test_strip_orient_examples():
    d = outerplanar_strip_orient(Graph.complete(3))
    assert is_proper(d) and max_indegree(d) <= 2
    d = outerplanar_strip_orient(fan(12))
    assert is_proper(d) and max_indegree(d) <= 13
    d = outerplanar_strip_orient(fan(17))  # splits off a fan
    assert is_proper(d) and max_indegree(d) <= 13
    with pytest.raises(NotStrip):
        outerplanar_strip_orient(Graph.complete(4))


def test_strip_orient_seeded():
    saw_big = 0
    for seed in range(40):
        g = random_class_instance("strip", 3 + seed % 50, seed)
        strip = outerplanar_strip(g)
        assert strip is not None
        if g.max_degree() >= 14:
            saw_big += 1
        d = outerplanar_strip_orient(g, strip)
        assert is_proper(d) and max_indegree(d) <= 13
    assert saw_big >= 5


@pytest.mark.parametrize("size, digest", [
    (200, "3ea021551321303b622d8de4ac9e18b628843031f19e2e04e15fcde62f5b3fb1"),
    (800, "7ad7183b28d3cb1c05e89456d13273ef80fefcc7bfd3881a7f15c6ceb07f26b2")])
def test_strip_orient_heads_are_pinned(size, digest):
    # the benchmark's two strips, both with fans cut off; the benchmark
    # itself pins only their max indegree
    d = outerplanar_strip_orient(random_class_instance("strip", size, 1))
    assert hashlib.sha256(repr(d.heads).encode()).hexdigest() == digest


def test_strip_orient_snake_with_degree_sixteen():
    g = random_class_instance("strip", 30, 9)
    assert g.max_degree() == 16  # frozen seed: splits off a fan
    d = outerplanar_strip_orient(g)
    assert is_proper(d) and max_indegree(d) <= 13


def test_strip_orient_matches_recursive_oracle():
    seeded = [random_class_instance("strip", 3 + seed % 50, seed)
              for seed in range(40)]
    graphs = (seeded + [relabeled(g, 1) for g in seeded]
              + [zigzag_strip(tops) for tops in range(1, 101)]
              + [fan(k) for k in range(2, 40)])
    for g in graphs:
        assert outerplanar_strip_orient(g).heads == strip_orient_oracle(g).heads


def test_zigzag_strip_is_fast():
    # 66.6 s when each fan made two induced copies and recursed on both
    g = zigzag_strip(1200)
    started = time.perf_counter()
    d = outerplanar_strip_orient(g)
    assert time.perf_counter() - started < 2.0
    assert is_proper(d) and max_indegree(d) <= 13


def test_zigzag_strip_orients_through_dispatch(tmp_path):
    path = tmp_path / "zigzag.graph"
    write_graph(zigzag_strip(2500), path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch(["orient", str(path), "--class", "auto"])
    report = dict(line.partition("=")[::2]
                  for line in out.getvalue().splitlines())
    assert code == 0 and report["class"] == "outerplanar-strip"
    assert report["max_indegree"] == "5"


def test_strip_pieces_are_induced_once(monkeypatch):
    g = zigzag_strip(200)
    sizes = []
    real_induced = Graph.induced

    def induced(self, vertices):
        sub, old = real_induced(self, vertices)
        sizes.append(sub.n)
        return sub, old

    monkeypatch.setattr(Graph, "induced", induced)
    outerplanar_strip_orient(g)
    assert sum(sizes) <= 2 * g.n


# -- cographs -------------------------------------------------------------------


def test_cograph_bounds_examples():
    g = join(Graph.complete(2), Graph.complete(2))
    lo, up = cograph_bounds(cograph_cotree(g).cotree)
    assert up == 3
    assert proper_orientation_number(g)[0] == 3
    gj = join(Graph.empty(4), Graph.empty(4))
    lo, up = cograph_bounds(cograph_cotree(gj).cotree)
    assert lo == Fraction(2)
    for n in (2, 4, 7):
        _, up = cograph_bounds(cograph_cotree(Graph.complete(n)).cotree)
        assert up == n - 1


def test_cograph_bounds_skips_an_empty_join_child():
    # the join's density bound once divided by the empty child's size
    cot = CotreeJoin((CotreeUnion(()), CotreeLeaf(0)))
    assert cograph_bounds(cot) == cograph_bounds(CotreeLeaf(0))


def test_cograph_join_orient():
    k2 = Graph.complete(2)
    d1 = Orientation(k2, [1])
    d = cograph_join_orient(k2, k2, d1, d1)
    assert is_proper(d) and max_indegree(d) <= 3
    e3 = Graph.empty(3)
    d = cograph_join_orient(e3, k2, Orientation(e3, []), d1)
    assert is_proper(d)


def test_cograph_sandwich_small():
    for seed in (0, 1, 2, 3, 4, 6, 7, 8):
        g = random_class_instance("cograph", 4 + seed % 7, seed)
        ct = cograph_cotree(g).cotree
        lo, up = cograph_bounds(ct)
        exact, _ = proper_orientation_number(g)
        assert lo <= exact <= up
        d = cograph_orient(g, ct)
        assert is_proper(d) and exact <= max_indegree(d) <= up


def cograph_orient_corpus():
    """(graph, cotree) pairs: criterion 4's graphs, seeded cographs and
    quasi-threshold graphs of many sizes with a relabelled copy of each, and
    threshold graphs, each with its canonical cotree and, when it is
    quasi-threshold, its nested one."""
    def graphs():
        for seed in range(100):
            yield random_class_instance("quasi-threshold",
                                        4 + (seed * 11) % 27, seed)
        for kind in ("cograph", "quasi-threshold"):
            for n in (1, 2, 3, 5, 10, 30, 80, 200, 800):
                for seed in range(4 if n < 800 else 2):
                    g = random_class_instance(kind, n, seed)
                    yield g
                    yield relabeled(g, seed)
        for n in (*range(1, 21), 250):
            yield threshold_graph(n)

    for g in graphs():
        yield g, cograph_cotree(g).cotree
        nested = quasi_threshold_cotree(g)
        if nested is not None:
            yield g, nested


def test_cograph_orient_matches_oracle():
    # the rank holds the fold's heads because the fold is acyclic
    cases = 0
    for g, cotree in cograph_orient_corpus():
        want = cograph_orient_oracle(g, cotree)
        assert is_acyclic(want)
        assert cograph_orient(g, cotree).heads == want.heads
        cases += 1
    assert cases > 400


def test_cograph_bounds_upper_is_the_orient_max_indegree():
    # both fold the same join step over the same cotree
    for g, cotree in cograph_orient_corpus():
        assert cograph_bounds(cotree)[1] == max_indegree(
            cograph_orient(g, cotree))


def test_cograph_upper_bound_is_the_bounds_upper():
    # the fold against the max indegree of the oracle's join-by-join
    # orientation
    cases = 0
    for g, cotree in cograph_orient_corpus():
        assert cograph_upper_bound(cotree) == max_indegree(
            cograph_orient_oracle(g, cotree))
        cases += 1
    assert cases > 400
    node = SimpleNamespace(children=(CotreeLeaf(0), CotreeLeaf(1)))
    with pytest.raises(PreconditionViolated, match="is not a leaf"):
        cograph_upper_bound(CotreeUnion((node, CotreeLeaf(2))))


def test_cograph_orient_rejects_a_foreign_cotree():
    g = random_class_instance("cograph", 12, 3)
    other = random_class_instance("cograph", 12, 4)
    assert other.n == g.n and other.m != g.m
    foreign = [cograph_cotree(other).cotree,
               cograph_cotree(Graph.complete(11)).cotree,
               CotreeUnion((CotreeLeaf(0),) * 12),
               CotreeUnion(tuple(map(CotreeLeaf, range(12)))
                           + (SimpleNamespace(children=()),))]
    for cotree in foreign:
        with pytest.raises(PreconditionViolated):
            cograph_orient(g, cotree)


def check_cograph_bounds_rejects_foreign_nodes():
    """Uses no assert, so it also checks under -O."""
    node = SimpleNamespace(children=(CotreeLeaf(0), CotreeLeaf(1)))
    try:
        cograph_bounds(CotreeUnion((node, CotreeLeaf(2))))
    except PreconditionViolated:
        return
    raise RuntimeError("cograph_bounds folded a node that is not a join")


def test_cograph_bounds_rejects_foreign_nodes():
    check_cograph_bounds_rejects_foreign_nodes()
    run_optimized("test_constructors",
                  "check_cograph_bounds_rejects_foreign_nodes")


# -- claw-free chordal -----------------------------------------------------------


def test_claw_free_chordal_bound():
    assert claw_free_chordal_bound(Graph.complete(5)) == 4
    assert claw_free_chordal_bound(Graph.path_graph(5)) == 2
    with pytest.raises(NotApplicable):
        claw_free_chordal_bound(Graph.star(3))
    with pytest.raises(NotApplicable):
        claw_free_chordal_bound(Graph.cycle_graph(6))
    # chains of cliques are claw-free chordal
    for seed in range(15):
        k = 3 + seed % 3
        g = random_class_instance("two-cut-block", 2 + seed % 5, seed, k)
        if is_claw_free(g) and chordal_peo(g).peo is not None:
            bound = claw_free_chordal_bound(g)
            peo = chordal_peo(g).peo
            assert bound <= 3 * clique_number_chordal(g, peo)


# -- cross-cutting: constructor outputs are feasible --------------------------


def test_constructor_outputs_feasible_for_exact_solver():
    for seed in range(8):
        g = random_class_instance("split", 5 + seed, seed)
        if g.m > 14:
            continue
        d = split_orient(g, split_partition(g))
        assert decide_k_orientation(g, max_indegree(d)) is not None
    for seed in range(8):
        g = random_class_instance("quasi-threshold", 5 + seed, seed)
        if g.m > 14:
            continue
        d = quasi_threshold_orient(quasi_threshold_cotree(g))
        assert decide_k_orientation(g, max_indegree(d)) is not None


# -- result checks that hold under python -O -----------------------------------


def _flip_first(d):
    """d with its first edge turned around."""
    u, v = d.graph.edges[0]
    return Orientation(d.graph, (u + v - d.heads[0],) + d.heads[1:])


def _transitive_with(head):
    """A faulty _transitive: the arc between u and a later v of the clique
    order points at head(u, v) instead of at v."""
    def transitive(p, clique_in_order):
        for i, u in enumerate(clique_in_order):
            for v in clique_in_order[i + 1:]:
                p.orient(u, v, head(u, v))
    return transitive


def _builder(fault):
    """A PartialOrientation whose finished orientation passes through fault."""
    class Faulty(PartialOrientation):
        __slots__ = ()

        def to_orientation(self):
            return fault(super().to_orientation())
    return Faulty


def _faulty_result(fn, fault):
    return lambda *args: fault(fn(*args))


def _one_way(g, p, v, v0, path, vend):
    """A faulty _extend_path: every path arc points forward."""
    for a, b in zip(path, path[1:]):
        p.orient(a, b, b)


def _guard_cases():
    """guard -> (faulty replacements of construct's names, call).  Every call
    succeeds as it is and must raise ConstructionError with the faults in."""
    p3, star = Graph.path_graph(3), Graph.star(3)
    split = split_tight_example(2)
    blocks = random_class_instance("two-cut-block", 5, 0)
    chain = Graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5),
                      (4, 6), (5, 6)])
    # a proper orientation of chain with max indegree 3 <= k + 1, but cut
    # vertex 4 gets indegree 2, outside {0, k, k + 1}
    cut_fault = _builder(lambda d: Orientation(d.graph, [
        v if i == 2 else u for i, (u, v) in enumerate(d.graph.edges)]))
    strip = random_class_instance("strip", 10, 0)
    snake = random_class_instance("strip", 30, 9)
    cograph = random_class_instance("cograph", 12, 3)
    flip = {"PartialOrientation": _builder(_flip_first)}
    # the cotree constructor builds its Orientation from heads directly
    flip_heads = {"Orientation": _faulty_result(Orientation, _flip_first)}

    def fan_path():
        g, p = _fan_path_fixture(6, 2, 0, 0)
        return extend_to_path(g, p, 0, 7, list(range(1, 7)), 8)

    return {
        "extend_partial": (flip, lambda: extend_partial(p3, set(), {})),
        "low_degree_orient": (
            {"extend_partial": _faulty_result(extend_partial,
                                              Orientation.reversed)},
            lambda: low_degree_orient(star, 1)),
        "quasi_threshold_orient": (
            flip_heads,
            lambda: quasi_threshold_orient(quasi_threshold_cotree(star))),
        "split_orient": (flip, lambda: split_orient(split,
                                                    split_partition(split))),
        # the clique turned around: the target 1 gets indegree 2, not d = 0
        "path_block_compensated": (
            {"_transitive": _transitive_with(lambda u, v: u)},
            lambda: path_block_compensated(path_block_sequence([(0, 1, 2)]),
                                           1, 5, 0)),
        # K_4 from source 1 is 1 -> 0 -> 2 -> 3 with 0 -> 3: with that arc
        # turned around, 0, 2 and 3 all get indegree 2, while 1 keeps d = 0
        # and the max indegree stays within the bound
        "path_block_compensated recolouring": (
            {"_transitive": _transitive_with(
                lambda u, v: u if {u, v} == {0, 3} else v)},
            lambda: path_block_compensated(
                path_block_sequence([(0, 1, 2, 3)]), 1, 5, 0)),
        "two_cut_block_orient": (flip, lambda: two_cut_block_orient(blocks)),
        "two_cut_block_orient cut indegrees": (
            {"PartialOrientation": cut_fault},
            lambda: two_cut_block_orient(chain)),
        "extend_to_path": ({"_extend_path": _one_way}, fan_path),
        "outerplanar_strip_orient": (
            {"_strip_orient": _faulty_result(construct._strip_orient,
                                             _flip_first)},
            lambda: outerplanar_strip_orient(strip)),
        # the fan paths of the one strip pass come from a faulty writer
        "outerplanar_strip_orient fan paths": (
            {"_extend_path": _one_way},
            lambda: outerplanar_strip_orient(snake)),
        # the join's first side comes from a faulty extend_partial
        "cograph_join_orient": (
            {"extend_partial": _faulty_result(extend_partial, _flip_first)},
            lambda: cograph_join_orient(
                p3, Graph(1), construct.extend_partial(p3, set(), {}),
                Orientation(Graph(1), []))),
        "cograph_orient": (flip_heads, lambda: cograph_orient(
            cograph, cograph_cotree(cograph).cotree)),
        # a clique number of 1 leaves K_5's degree 4 above 3 * omega
        "claw_free_chordal_bound": (
            {"chordal_peo": lambda g: chordal_peo(g)._replace(omega=1)},
            lambda: claw_free_chordal_bound(Graph.complete(5))),
    }


GUARDS = list(_guard_cases())


def check_result_guards(only=None):
    """Uses no assert, so it also checks under -O."""
    for guard, (faults, call) in _guard_cases().items():
        if only not in (None, guard):
            continue
        real = {name: getattr(construct, name) for name in faults}
        call()
        for name, faulty in faults.items():
            setattr(construct, name, faulty)
        try:
            call()
        except ConstructionError:
            pass
        else:
            raise RuntimeError(f"{guard} returned a faulty result")
        finally:
            for name, fn in real.items():
                setattr(construct, name, fn)


@pytest.mark.parametrize("guard", GUARDS)
def test_result_guard_raises(guard):
    check_result_guards(guard)


def test_result_guards_raise_under_optimize():
    run_optimized("test_constructors", "check_result_guards")
