import random

import pytest

from orientkit import instances
from orientkit.errors import (BadK, BadParams, ConstructionError, NotACover,
                              NotCobipartite, NotCubic)
from orientkit.exact import (decide_k_orientation,
                             enumerate_proper_k_orientations,
                             proper_orientation_number)
from orientkit.graph import Graph, join
from orientkit.instances import (RANDOM_CLASSES, block_tight_example,
                                 build_vc_certificate, cobipartite_kernel,
                                 double_clique_gadget, head_gadget,
                                 ladder_gadget, random_class_instance,
                                 reduce_vertex_cover, split_kernel,
                                 split_tight_example)
from orientkit.orientation import is_proper, max_indegree
from orientkit.recognize import (block_cut_tree, chordal_peo, is_k_uniform,
                                 max_cut_vertices_per_block,
                                 outerplanar_strip, quasi_threshold_cotree,
                                 split_partition)
from oracles import (brute_clique_number, random_cotree_graph_oracle,
                     random_uniform_block_oracle, run_optimized)


def test_ladder_gadget_sizes():
    g, meta = ladder_gadget(0)
    assert g.n == 1 and g.m == 0
    g, meta = ladder_gadget(2)
    assert g.n == 6 and g.m == 8
    g, meta = ladder_gadget(4)
    assert g.n == 15
    assert meta.spine == (0, 1, 2, 3, 4)


def test_ladder_gadget_chordal():
    for k in range(0, 8):
        g, _ = ladder_gadget(k)
        assert chordal_peo(g).peo is not None


def test_ladder_forcing_exhaustive():
    for k in (2, 3):
        g, meta = ladder_gadget(k)
        count = 0
        for d in enumerate_proper_k_orientations(g, k):
            count += 1
            assert all(d.indegree[v] == j for j, v in enumerate(meta.spine))
        assert count > 0


def test_head_gadget():
    g, meta = head_gadget(2, 2)
    base, base_meta = ladder_gadget(2)
    assert g.n == base.n + 1
    assert g.degree(meta.head) == 1  # adjacent to spine vertex 1 only
    with pytest.raises(BadParams):
        head_gadget(5, 3)
    with pytest.raises(BadParams):
        head_gadget(1, 4)


def test_head_gadget_forcing_on_host():
    for i, k in ((2, 2), (2, 3), (3, 3)):
        fg, meta = head_gadget(i, k)
        host = fg.n
        g = Graph(fg.n + 1, list(fg.edges) + [(meta.head, host)])
        count = 0
        for d in enumerate_proper_k_orientations(g, k):
            count += 1
            assert d.indegree[meta.head] == i
            assert d.heads[g.edge_id(meta.head, host)] == meta.head
        assert count > 0


def test_double_clique_gadget():
    g, meta = double_clique_gadget(2)
    assert g == Graph.path_graph(3) or (g.n == 3 and g.m == 2)
    g, meta = double_clique_gadget(3)
    assert g.n == 5 and g.m == 6
    # at the tight bound the shared vertex is forced to be a source
    sols = list(enumerate_proper_k_orientations(g, 2))
    assert sols and all(d.indegree[meta.shared] == 0 for d in sols)


def test_reduction_invariants():
    k4 = Graph.complete(4)
    red = reduce_vertex_cover(k4, 3)
    assert red.k_prime == k4.n + 2
    assert chordal_peo(red.graph).peo is not None
    assert len(red.clique_vertices) == k4.n
    assert len(red.independent_vertices) == k4.m
    pend_k = sum(1 for h, _ in red.pendants if h in red.clique_vertices)
    pend_i = sum(1 for h, _ in red.pendants if h in red.independent_vertices)
    assert pend_k == 2 * k4.n
    assert pend_i == k4.m
    assert len(red.zgadgets) == (3 - 1) * k4.m
    with pytest.raises(BadK):
        reduce_vertex_cover(k4, 1)
    with pytest.raises(NotCubic):
        reduce_vertex_cover(Graph.complete(5), 2)


def test_certificate_from_cover():
    k4 = Graph.complete(4)
    red = reduce_vertex_cover(k4, 3)
    d = build_vc_certificate(red, {0, 1, 2})
    assert is_proper(d) and max_indegree(d) <= red.k_prime
    with pytest.raises(NotACover):
        build_vc_certificate(red, {0})
    k33 = Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    red = reduce_vertex_cover(k33, 3)
    d = build_vc_certificate(red, {0, 1, 2})
    assert is_proper(d) and max_indegree(d) <= red.k_prime


def test_certificate_indegree_ranges():
    k4 = Graph.complete(4)
    red = reduce_vertex_cover(k4, 3)
    k = 3
    d = build_vc_certificate(red, {0, 1, 2})
    cover_values = {d.indegree[v] for v in (0, 1, 2)}
    assert cover_values <= set(range(k))
    for v in red.clique_vertices:
        assert d.indegree[v] not in (k, k + 1)
    for v in red.independent_vertices:
        assert d.indegree[v] in (k, k + 1)


def test_split_kernel_big_instance():
    g = split_tight_example(4)  # omega = 4
    kern, k = split_kernel(g, 2)
    assert kern == Graph.complete(4) and k == 2
    # large graph, small parameter: trivial No instance comes back
    assert decide_k_orientation(kern, 2) is None


def test_split_kernel_truncates_twins():
    edges = [(0, 1)] + [(0, v) for v in range(2, 12)]
    g = Graph(12, edges)
    kern, _ = split_kernel(g, 2)
    assert kern.n < g.n
    assert (decide_k_orientation(g, 2) is None) == \
           (decide_k_orientation(kern, 2) is None)


def test_split_kernel_small_unchanged():
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    kern, _ = split_kernel(g, 3)
    assert kern == g


def test_cobipartite_kernel():
    kern, k = cobipartite_kernel(Graph.complete(8), 3)
    assert kern == Graph.complete(5)
    g = join(Graph.complete(2), Graph.complete(2))
    kern, _ = cobipartite_kernel(g, 3)
    assert kern == g and kern.n <= 2 * (3 + 1)
    with pytest.raises(NotCobipartite):
        cobipartite_kernel(Graph.cycle_graph(5), 3)


def test_split_tight_example():
    g = split_tight_example(2)
    assert g.n == 6 and g.m == 5
    assert proper_orientation_number(g)[0] == 2
    g = split_tight_example(3)
    assert g.n == 39 and g.m == 57
    part = split_partition(g)
    assert part is not None and len(part.clique) == 3
    with pytest.raises(BadParams):
        split_tight_example(1)


def test_block_tight_example():
    g = block_tight_example(2)
    assert g.n == 12 and g.m == 11
    assert proper_orientation_number(g)[0] == 3
    g = block_tight_example(3)
    bct = block_cut_tree(g)
    assert is_k_uniform(bct, 3)
    assert max_cut_vertices_per_block(bct) <= 2
    with pytest.raises(BadParams):
        block_tight_example(1)


def test_random_classes_recognized():
    rng = random.Random(0)
    for seed in range(12):
        g = random_class_instance("split", 5 + seed, seed)
        assert split_partition(g) is not None
        g = random_class_instance("quasi-threshold", 4 + seed, seed)
        assert quasi_threshold_cotree(g) is not None
        g = random_class_instance("strip", 2 + seed, seed)
        assert outerplanar_strip(g) is not None
        for kind in ("uniform-block", "two-cut-block"):
            g = random_class_instance(kind, 2 + seed % 6, seed, k=3)
            bct = block_cut_tree(g)
            assert is_k_uniform(bct, 3)
            if kind == "two-cut-block":
                assert max_cut_vertices_per_block(bct) <= 2
    with pytest.raises(BadParams):
        random_class_instance("interval", 5, 0)


def test_random_classes_deterministic():
    for kind in RANDOM_CLASSES:
        a = random_class_instance(kind, 7, 42)
        b = random_class_instance(kind, 7, 42)
        assert a == b


def test_split_clique_number_matches_brute():
    for seed in range(10):
        g = random_class_instance("split", 6 + seed, seed)
        part = split_partition(g)
        assert len(part.clique) == brute_clique_number(g)


# -- the uniform-block generator against its quadratic predecessor ------------


@pytest.mark.parametrize("two_cut", [False, True])
def test_uniform_block_generator_matches_oracle(two_cut):
    # Both make one rng call per block, so the graph on b blocks is the one
    # on 400 blocks cut down to its first k + (b - 1)(k - 1) vertices.
    k = 3
    for seed in range(20):
        full = random_uniform_block_oracle(random.Random(seed), 400, k,
                                           two_cut).edges
        assert instances._random_uniform_block(
            random.Random(seed), 400, k, two_cut).edges == full
        for blocks in range(seed + 1, 400, 20):
            n = k + (blocks - 1) * (k - 1)
            got = instances._random_uniform_block(random.Random(seed),
                                                  blocks, k, two_cut)
            assert got.n == n
            assert got.edges == [e for e in full if e[1] < n], (seed, blocks)
    for blocks in (800, 2400):
        want = random_uniform_block_oracle(random.Random(1), blocks, k,
                                           two_cut)
        got = instances._random_uniform_block(random.Random(1), blocks, k,
                                              two_cut)
        assert got.n == want.n and got.edges == want.edges


@pytest.mark.parametrize("kind", ["quasi-threshold", "cograph"])
def test_cotree_generator_matches_oracle(kind):
    single = kind == "quasi-threshold"
    for seed in range(20):
        for n in range(1, 61):
            want = random_cotree_graph_oracle(random.Random(seed), n, single)
            got = instances._random_cotree_graph(random.Random(seed), n,
                                                 single)
            assert got == want, (seed, n)
    for n in (200, 800):
        want = random_cotree_graph_oracle(random.Random(1), n, single)
        assert random_class_instance(kind, n, 1) == want


# -- explicit checks that survive python -O ------------------------------------


def check_improper_certificate_raises():
    """Reverse the ladder gadgets' arcs in the vertex-cover certificate;
    build_vc_certificate must raise ConstructionError.  Uses no assert, so
    it also checks under -O."""
    red = reduce_vertex_cover(Graph.complete(4), 3)
    build_vc_certificate(red, {0, 1, 2})   # fine unpatched
    real = instances._ladder_arcs
    instances._ladder_arcs = lambda meta, extras: [
        (b, a) for a, b in real(meta, extras)]
    try:
        build_vc_certificate(red, {0, 1, 2})
    except ConstructionError:
        pass
    else:
        raise RuntimeError("an improper certificate was accepted")
    finally:
        instances._ladder_arcs = real


def check_oversized_cobipartite_kernel_raises():
    """Make clique_number understate the clique number of two disjoint
    4-cliques; at k = 2 cobipartite_kernel must then find 8 > 2(k + 1)
    vertices and raise ConstructionError.  Uses no assert."""
    two_k4 = Graph(8, [(u, v) for side in (range(4), range(4, 8))
                       for u in side for v in side if u < v])
    if cobipartite_kernel(two_k4, 2)[0] != Graph.complete(4):
        raise RuntimeError("two 4-cliques need k >= 3")
    real = instances.clique_number
    instances.clique_number = lambda g: 1
    try:
        cobipartite_kernel(two_k4, 2)
    except ConstructionError:
        pass
    else:
        raise RuntimeError("an oversized cobipartite kernel was returned")
    finally:
        instances.clique_number = real


def test_improper_certificate_raises():
    check_improper_certificate_raises()


def test_oversized_cobipartite_kernel_raises():
    check_oversized_cobipartite_kernel_raises()


@pytest.mark.parametrize("check", ["check_improper_certificate_raises",
                                   "check_oversized_cobipartite_kernel_raises"])
def test_checks_hold_under_optimize(check):
    run_optimized("test_instances", check)
