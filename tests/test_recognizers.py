import contextlib
import io
import random
import time
from collections import deque

import pytest

from orientkit import recognize
from orientkit.cli import dispatch
from orientkit.construct import _two_cut_blocks, _uniform_blocks
from orientkit.errors import (ConstructionError, InvalidPEO,
                              PreconditionViolated)
from orientkit.exact import clique_number
from orientkit.graph import Graph, disjoint_union, write_graph
from orientkit.instances import (block_tight_example, ladder_gadget,
                                 random_class_instance)
from orientkit.recognize import (block_cut_tree, chordal_peo,
                                 clique_number_chordal, cograph_cotree,
                                 evaluate_cotree, is_block_graph,
                                 is_claw_free, is_k_uniform,
                                 max_cut_vertices_per_block,
                                 outerplanar_strip, quasi_threshold_cotree,
                                 split_partition, twin_partition)
from oracles import (block_graph_oracle, block_status_corpus,
                     brute_clique_number, brute_has_chordless_cycle,
                     brute_is_quasi_threshold, brute_is_split,
                     find_induced_p4_oracle,
                     graphs_up_to_isomorphism, graphs_with_edges,
                     k_uniform_oracle, lex_bfs_oracle, moved_edges,
                     outerplanar_strip_oracle, random_gnp,
                     recognize_block_keys_oracle, recognizer_corpus,
                     relabeled, run_optimized, two_cut_blocks_oracle,
                     uniform_blocks_oracle)


def fan(n):
    return Graph(n + 1, [(0, i) for i in range(1, n + 1)]
                 + [(i, i + 1) for i in range(1, n)])


def test_chordal_examples():
    c4 = Graph.cycle_graph(4)
    check = chordal_peo(c4)
    assert check.peo is None and sorted(check.chordless_cycle) == [0, 1, 2, 3]
    assert chordal_peo(Graph.complete(4)).peo is not None
    s4, _ = ladder_gadget(4)
    assert chordal_peo(s4).peo is not None


def assert_chordal_verdict(g, check):
    """The PEO's later neighbours form cliques, or the cycle is chordless
    and of length >= 4: either certifies the verdict."""
    if check.peo is not None:
        assert check.chordless_cycle is None
        assert sorted(check.peo) == list(range(g.n))
        pos = {v: i for i, v in enumerate(check.peo)}
        for v in range(g.n):
            assert g.is_clique([w for w in g.adj[v] if pos[w] > pos[v]])
        return
    cyc = check.chordless_cycle
    assert len(cyc) >= 4 and len(set(cyc)) == len(cyc)
    adj = [set(a) for a in g.adj]
    for i in range(len(cyc)):
        assert cyc[(i + 1) % len(cyc)] in adj[cyc[i]]
    for i in range(len(cyc)):
        for j in range(i + 2, len(cyc)):
            if i == 0 and j == len(cyc) - 1:
                continue
            assert cyc[j] not in adj[cyc[i]]


def test_chordal_matches_bruteforce_cycle_search():
    rng = random.Random(1)
    for _ in range(40):
        g = random_gnp(rng, rng.randint(2, 8), rng.uniform(0.2, 0.9))
        check = chordal_peo(g)
        assert (check.peo is None) == brute_has_chordless_cycle(g)
        assert_chordal_verdict(g, check)


def test_chordless_cycle_on_every_graph_up_to_6_vertices():
    cases = cycles = 0
    for g in graphs_up_to_isomorphism(6):
        for h in (g, relabeled(g, cases)):
            check = chordal_peo(h)
            assert (check.peo is None) == brute_has_chordless_cycle(h)
            assert_chordal_verdict(h, check)
            assert chordal_peo(h).chordless_cycle == check.chordless_cycle
            cycles += check.peo is None
        cases += 1
    assert cases == 1307 and cycles == 906


def test_chordless_cycle_on_random_graphs_up_to_40_vertices():
    rng = random.Random(7)
    cycles = 0
    for _ in range(2000):
        g = random_gnp(rng, rng.randint(4, 40), rng.uniform(0.03, 0.9))
        check = chordal_peo(g)
        assert_chordal_verdict(g, check)
        cycles += check.peo is None
    assert 300 < cycles < 1900


def path_with_c4(n):
    """A path on n vertices whose last vertex lies on a C4: n + 3 vertices."""
    return Graph(n + 3, [(i, i + 1) for i in range(n - 1)]
                 + [(n - 1, n), (n, n + 1), (n + 1, n + 2), (n + 2, n - 1)])


def test_chordless_cycle_is_linear_on_a_long_path():
    # the all-pairs search ran one BFS per vertex (1.75 s at 4,003)
    g = path_with_c4(40000)
    started = time.perf_counter()
    check = chordal_peo(g)
    assert time.perf_counter() - started < 1.0
    assert sorted(check.chordless_cycle) == [39999, 40000, 40001, 40002]
    assert_chordal_verdict(g, check)


def test_chordless_cycle_work_grows_linearly(monkeypatch):
    pops = [0]

    class CountingDeque(deque):
        def popleft(self):
            pops[0] += 1
            return super().popleft()

    monkeypatch.setattr(recognize, "deque", CountingDeque)
    families = [path_with_c4, Graph.cycle_graph,
                lambda n: Graph(2 * n, [(i, i + 1) for i in range(2 * n - 1)]
                                + [(0, 2 * n - 1), (n, n + 2)])]
    for family in families:
        work = []
        for n in (500, 4000):
            g = family(n)
            pops[0] = 0
            assert chordal_peo(g).peo is None
            assert pops[0] <= g.n + g.m
            work.append(pops[0])
        assert work[1] <= 10 * max(work[0], 1)


def test_lex_bfs_matches_the_min_scan_order():
    cases = 0
    for g in recognizer_corpus():
        assert recognize.lex_bfs(g) == lex_bfs_oracle(g)
        cases += 1
    assert cases > 800


@pytest.mark.parametrize("g", [Graph(20000), Graph.star(20000)],
                         ids=["isolated-20000", "star-20000"])
def test_chordal_peo_is_linear_on_wide_classes(g):
    # taking min() over the front class made these quadratic (1.3 s at 8,000)
    started = time.perf_counter()
    check = chordal_peo(g)
    assert time.perf_counter() - started < 0.5
    assert sorted(check.peo) == list(range(g.n))


def test_clique_number_chordal():
    k5 = Graph.complete(5)
    assert clique_number_chordal(k5, chordal_peo(k5).peo) == 5
    tree = Graph(6, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)])
    assert clique_number_chordal(tree, chordal_peo(tree).peo) == 2
    s3, _ = ladder_gadget(3)
    peo = chordal_peo(s3).peo
    assert clique_number_chordal(s3, peo) == brute_clique_number(s3) == 4
    with pytest.raises(InvalidPEO):
        clique_number_chordal(k5, [0, 0, 1, 2, 3])
    c4 = Graph.cycle_graph(4)
    with pytest.raises(InvalidPEO):
        clique_number_chordal(c4, [0, 1, 2, 3])


def test_chordal_omega_is_the_clique_number():
    chordal = 0
    for g in list(graphs_up_to_isomorphism(6)) + list(recognizer_corpus()):
        check = chordal_peo(g)
        if check.peo is None:
            assert check.omega is None
        else:
            assert check.omega == clique_number(g), g.edges
            chordal += 1
    assert chordal > 1000


def test_recognize_walks_the_elimination_order_once(monkeypatch, tmp_path):
    # omega comes from chordal_peo's own check, not from a second walk
    calls = []
    real = recognize._verify_peo
    monkeypatch.setattr(recognize, "_verify_peo",
                        lambda g, peo: calls.append(1) or real(g, peo))
    gpath = tmp_path / "g.graph"
    write_graph(random_class_instance("quasi-threshold", 200, 1), gpath)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert dispatch(["recognize", str(gpath)]) == 0
    assert "chordal=true" in buf.getvalue().splitlines()
    assert len(calls) == 1


def test_split_partition_examples():
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    part = split_partition(g)
    assert part.clique == frozenset({0, 1, 2})
    assert part.independent == frozenset({3})
    assert split_partition(Graph.cycle_graph(4)) is None
    assert split_partition(Graph.cycle_graph(5)) is None
    assert not brute_is_split(Graph.cycle_graph(5))


def test_split_partition_matches_bruteforce():
    rng = random.Random(2)
    for _ in range(60):
        g = random_gnp(rng, rng.randint(1, 7), rng.uniform(0.1, 0.95))
        part = split_partition(g)
        assert (part is not None) == brute_is_split(g)
        if part is not None:
            assert g.is_clique(sorted(part.clique))
            ind = sorted(part.independent)
            assert all(not g.has_edge(u, v) for i, u in enumerate(ind)
                       for v in ind[i + 1:])
            # K is maximal: nothing in I sees all of K
            for v in part.independent:
                assert not part.clique <= set(g.adj[v])


def test_split_clique_is_maximum():
    rng = random.Random(9)
    for _ in range(40):
        g = random_gnp(rng, rng.randint(1, 8), rng.uniform(0.2, 0.9))
        part = split_partition(g)
        if part is not None:
            assert len(part.clique) == brute_clique_number(g)


def test_quasi_threshold_examples():
    kn = Graph.complete(5)
    cot = quasi_threshold_cotree(kn)
    assert cot is not None
    assert evaluate_cotree(cot, 5) == kn
    assert quasi_threshold_cotree(Graph.path_graph(4)) is None
    assert not brute_is_quasi_threshold(Graph.path_graph(4))
    two = disjoint_union(Graph.complete(3), Graph.complete(3))
    cot = quasi_threshold_cotree(two)
    assert cot is not None and evaluate_cotree(cot, 6) == two


def test_quasi_threshold_matches_bruteforce():
    rng = random.Random(3)
    for _ in range(50):
        g = random_gnp(rng, rng.randint(1, 7), rng.uniform(0.2, 0.9))
        cot = quasi_threshold_cotree(g)
        assert (cot is not None) == brute_is_quasi_threshold(g)
        if cot is not None:
            assert evaluate_cotree(cot, g.n) == g


def test_block_cut_tree_examples():
    p4 = Graph.path_graph(4)
    bct = block_cut_tree(p4)
    assert bct.blocks == [(0, 1), (1, 2), (2, 3)]
    assert bct.cut_vertices == frozenset({1, 2})
    two = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    bct = block_cut_tree(two)
    assert len(bct.blocks) == 2 and bct.cut_vertices == frozenset({2})
    assert is_k_uniform(bct, 3)
    g3 = block_tight_example(3)
    bct = block_cut_tree(g3)
    assert is_k_uniform(bct, 3)
    assert max_cut_vertices_per_block(bct) <= 2


def test_blocks_cover_edges_exactly_once():
    rng = random.Random(4)
    for _ in range(40):
        g = random_gnp(rng, rng.randint(1, 9), rng.uniform(0.15, 0.7))
        bct = block_cut_tree(g)
        covered = []
        for blk in bct.blocks:
            covered += [(u, v) for i, u in enumerate(blk) for v in blk[i + 1:]
                        if g.has_edge(u, v)]
        assert sorted(covered) == g.edges
        union = set()
        for blk in bct.blocks:
            union.update(blk)
        assert union == set(range(g.n))


def test_block_status_matches_the_per_block_checks(tmp_path):
    # edge counts on the block-cut tree against pair-by-pair clique checks,
    # in the library and in the recognize report
    gpath = tmp_path / "g.graph"
    cases = uniform = 0
    for g in block_status_corpus():
        bct = block_cut_tree(g)
        assert is_block_graph(bct) == block_graph_oracle(bct)
        for k in range(7):
            assert is_k_uniform(bct, k) == k_uniform_oracle(bct, k)
        # the blocks of a component on c vertices add up to c - 1 here
        assert (len(g.connected_components())
                == g.n - sum(len(blk) - 1 for blk in bct.blocks))
        got = _uniform_blocks(g)
        assert got == uniform_blocks_oracle(g)
        assert _two_cut_blocks(g) == two_cut_blocks_oracle(g)
        write_graph(g, gpath)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            dispatch(["recognize", str(gpath)])
        report = dict(line.partition("=")[::2]
                      for line in buf.getvalue().splitlines())
        assert ({key: report.get(key) for key in ("block_graph", "k_uniform")}
                == {"k_uniform": None, **recognize_block_keys_oracle(g)})
        cases += 1
        uniform += got is not None
    assert cases > 4900 and uniform > 100


def test_outerplanar_strip_examples():
    strip = outerplanar_strip(fan(5))
    assert strip is not None and len(strip.triangles) == 4
    assert outerplanar_strip(Graph.complete(4)) is None
    octa = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4),
                     (4, 1), (5, 1), (5, 2), (5, 3), (5, 4)])
    assert outerplanar_strip(octa) is None
    # a 2-tree that is not outerplanar is rejected
    k23plus = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])
    assert outerplanar_strip(k23plus) is None


def test_outerplanar_strip_structure():
    strip = outerplanar_strip(fan(6))
    tris = strip.triangles
    assert len(set(tris)) == len(tris) == 5
    for a, b in zip(tris, tris[1:]):
        assert len(set(a) & set(b)) == 2
    cyc = strip.outer_cycle
    assert sorted(cyc) == list(range(7))


def test_outerplanar_strip_matches_oracle_on_every_small_graph():
    # every labelled graph with n <= 6 and m = 2n - 3: 1 + 6 + 120 + 5005
    graphs = strips = 0
    for n in range(3, 7):
        for g in graphs_with_edges(n, 2 * n - 3):
            strip = outerplanar_strip(g)
            assert strip == outerplanar_strip_oracle(g)
            graphs += 1
            strips += strip is not None
    assert graphs == 5132 and strips > 0


def test_outerplanar_strip_matches_oracle_with_moved_edges():
    rng = random.Random(11)
    found = 0
    for seed in range(300):
        g = relabeled(random_class_instance("strip", rng.randint(1, 25),
                                            seed), seed)
        g = moved_edges(g, rng, seed % 4)
        strip = outerplanar_strip(g)
        assert strip == outerplanar_strip_oracle(g)
        found += strip is not None
    assert 75 <= found < 300


def test_outerplanar_strip_is_linear():
    # the ear peel this recognizer used to end with took 6.4 s here
    g = random_class_instance("strip", 20000, 1)
    started = time.perf_counter()
    strip = outerplanar_strip(g)
    assert time.perf_counter() - started < 2.0
    assert strip is not None and len(strip.triangles) == 20000


def test_cograph_examples():
    check = cograph_cotree(Graph.path_graph(4))
    assert check.cotree is None
    a, b, c, d = check.p4
    g = Graph.path_graph(4)
    assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
    assert not g.has_edge(a, c) and not g.has_edge(a, d) and not g.has_edge(b, d)
    assert cograph_cotree(Graph.complete(4)).p4 is None
    check = cograph_cotree(Graph.cycle_graph(4))
    assert check.cotree is not None
    assert evaluate_cotree(check.cotree, 4) == Graph.cycle_graph(4)


def test_cograph_cotree_roundtrip():
    rng = random.Random(5)
    for _ in range(50):
        g = random_gnp(rng, rng.randint(1, 7), rng.uniform(0.2, 0.9))
        check = cograph_cotree(g)
        assert ((check.cotree is None)
                == (find_induced_p4_oracle(g) is not None))
        if check.cotree is not None:
            assert evaluate_cotree(check.cotree, g.n) == g


def assert_cograph_verdict(g, check):
    """A cotree that rebuilds g, or a P4 recounted as induced: either
    certifies the verdict."""
    if check.cotree is not None:
        assert check.p4 is None
        assert evaluate_cotree(check.cotree, g.n) == g
        return
    a, b, c, d = check.p4
    assert len({a, b, c, d}) == 4
    assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
    assert not (g.has_edge(a, c) or g.has_edge(b, d) or g.has_edge(a, d))


def test_induced_p4_on_every_graph_up_to_6_vertices():
    cases = p4s = 0
    for g in graphs_up_to_isomorphism(6):
        for h in (g, relabeled(g, cases)):
            check = cograph_cotree(h)
            assert ((check.cotree is None)
                    == (find_induced_p4_oracle(h) is not None))
            assert_cograph_verdict(h, check)
            assert cograph_cotree(h).p4 == check.p4
            p4s += check.cotree is None
        cases += 1
    assert cases == 1307 and p4s == 1640


def test_induced_p4_on_random_graphs_up_to_40_vertices():
    rng = random.Random(29)
    p4s = 0
    for _ in range(2000):
        g = random_gnp(rng, rng.randint(4, 40), rng.uniform(0.03, 0.9))
        check = cograph_cotree(g)
        assert ((check.cotree is None)
                == (find_induced_p4_oracle(g) is not None))
        assert_cograph_verdict(g, check)
        p4s += check.cotree is None
    assert 1500 < p4s < 1950


def violations(g, monkeypatch):
    """The kinds of violation _insert_cotree hands to _p4 on g."""
    seen = []
    real = recognize._p4

    def spy(kids, is_join, nbrs, x, u, px):
        def leaves(node):
            stack, out = [node], set()
            while stack:
                v = stack.pop()
                if kids[v] is None:
                    out.add(v)
                else:
                    stack.extend(kids[v])
            return out

        others = [leaves(c) for c in kids[u] if c != px]
        if any(ls & set(nbrs) and ls - set(nbrs) for ls in others):
            seen.append("two partial children")
        elif is_join[u]:
            seen.append("join with an empty child")
        else:
            seen.append("union with a full child")
        return real(kids, is_join, nbrs, x, u, px)

    monkeypatch.setattr(recognize, "_p4", spy)
    assert_cograph_verdict(g, cograph_cotree(g))
    return seen


def test_p4_at_a_join_with_an_empty_child(monkeypatch):
    g = Graph(4, [(0, 1), (0, 3), (1, 2)])
    assert violations(g, monkeypatch) == ["join with an empty child"]


def test_p4_at_a_union_with_a_full_child(monkeypatch):
    g = Graph(4, [(0, 2), (0, 3), (1, 3)])
    assert violations(g, monkeypatch) == ["union with a full child"]


def test_p4_at_two_partial_children(monkeypatch):
    g = Graph(5, [(0, 3), (0, 4), (1, 2), (1, 4)])
    assert violations(g, monkeypatch) == ["two partial children"]


def clique_with_pendant_path(n):
    """K_n plus a path of 3 edges hanging off vertex n - 1."""
    return Graph(n + 3, [(u, v) for v in range(n) for u in range(v)]
                 + [(n - 1, n), (n, n + 1), (n + 1, n + 2)])


def test_induced_p4_is_read_off_the_failed_insertion():
    # the edge search this replaced took 17-19.5 s at n = 800
    g = clique_with_pendant_path(800)
    started = time.perf_counter()
    check = cograph_cotree(g)
    assert time.perf_counter() - started < 1.0
    assert_cograph_verdict(g, check)
    assert check.cotree is None


def test_claw_free():
    assert not is_claw_free(Graph.star(3))
    assert is_claw_free(Graph.complete(4))
    assert is_claw_free(Graph.cycle_graph(6))
    assert not is_claw_free(Graph.star(5))


def test_twin_partition():
    # two stable vertices with equal neighborhoods form one class
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])
    classes = twin_partition(g, [3, 4])
    assert classes == [(3, 4)]
    g2 = Graph(4, [(0, 2), (1, 3)])
    assert twin_partition(g2, [2, 3]) == [(2,), (3,)]


def test_twin_partition_counts_a_repeated_id_once():
    # a repeated id counts once: (1, 1, 2) would not be a partition
    assert twin_partition(Graph.star(3), [1, 1, 2]) == [(1, 2)]
    assert twin_partition(Graph.star(3), [3, 3]) == [(3,)]


@pytest.mark.parametrize("outside", [-1, 5])
def test_twin_partition_rejects_ids_outside_the_graph(outside):
    # -1 would be classed by vertex 2's neighbours, 5 run off the lists
    with pytest.raises(PreconditionViolated, match=r"0\.\.2"):
        twin_partition(Graph.path_graph(3), [outside])


def check_twin_partition_rejects_dependent_set():
    """Uses no assert, so it also checks under -O."""
    try:
        twin_partition(Graph.path_graph(3), {0, 1})
    except PreconditionViolated:
        return
    raise RuntimeError("a set with an edge inside was partitioned")


def test_twin_partition_rejects_dependent_set():
    check_twin_partition_rejects_dependent_set()


def test_twin_partition_rejects_dependent_set_under_optimize():
    run_optimized("test_recognizers",
                  "check_twin_partition_rejects_dependent_set")


def check_chordal_peo_raises_without_a_cycle():
    """chordal_peo must raise when the PEO fails and no chordless cycle is
    found.  Uses no assert, so it also checks under -O."""
    real = recognize._chordless_cycle
    recognize._chordless_cycle = lambda g, peo, v, p, w: None
    try:
        chordal_peo(Graph.cycle_graph(4))
    except ConstructionError:
        return
    finally:
        recognize._chordless_cycle = real
    raise RuntimeError("C4 was reported without a chordless cycle")


def check_cograph_cotree_raises_without_a_p4():
    """cograph_cotree must raise when the failed insertion's path is not
    induced.  Uses no assert, so it also checks under -O."""
    real = recognize._p4
    recognize._p4 = lambda kids, is_join, nbrs, x, u, px: (0, 1, 3, 2)
    try:
        cograph_cotree(Graph.path_graph(4))
    except ConstructionError:
        return
    finally:
        recognize._p4 = real
    raise RuntimeError("P4 was reported with a path that is not induced")


def test_cograph_cotree_raises_without_a_p4():
    check_cograph_cotree_raises_without_a_p4()


def test_cograph_cotree_raises_without_a_p4_under_optimize():
    run_optimized("test_recognizers",
                  "check_cograph_cotree_raises_without_a_p4")


def test_chordal_peo_raises_without_a_cycle():
    check_chordal_peo_raises_without_a_cycle()


def test_chordal_peo_raises_without_a_cycle_under_optimize():
    run_optimized("test_recognizers",
                  "check_chordal_peo_raises_without_a_cycle")
