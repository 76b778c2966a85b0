"""The split-graph DP behind decide_k_orientation, against the edge search.

A split graph whose independent side has a vertex with a neighbour is
decided by ``exact._split_decide``.  Its answer must equal the unbudgeted
edge search's at every k from omega - 1 to the max degree, and every
witness must be a proper k-orientation.  Further tests cover Landau's
score-sequence test and the tournament built from it, the budget, the
explicit checks of the DP's witness and of ``split_partition``'s answer
(also under ``python -O``), and the strip constructor, whose split pieces
now go to the DP.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientkit import exact
from orientkit.construct import outerplanar_strip_orient
from orientkit.errors import BudgetExceeded, ConstructionError
from orientkit.exact import decide_k_orientation, proper_orientation_number
from orientkit.graph import Graph
from orientkit.instances import random_class_instance, split_kernel
from orientkit.orientation import is_proper, max_indegree
from orientkit.recognize import outerplanar_strip, split_partition
from oracles import criterion_3_graphs, relabeled, run_optimized

BUDGET = 20000


def goes_to_dp(g):
    part = split_partition(g)
    return part is not None and any(g.adj[v] for v in part.independent)


def assert_dp_matches_edge_search(g):
    assert goes_to_dp(g), g.edges
    omega = len(split_partition(g).clique)
    for k in range(omega - 1, g.max_degree() + 1):
        d = decide_k_orientation(g, k)
        edge = next(exact._search(g, k, exact._budget_box(None), True), None)
        assert (d is not None) == (edge is not None), (g.edges, k)
        if d is not None:
            assert is_proper(d) and max_indegree(d) <= k


def random_split_graph(rng, omega, free):
    """K = {0..omega-1} plus `free` vertices, each adjacent to a random
    proper subset of K, under a random relabelling."""
    edges = [(u, v) for u in range(omega) for v in range(u + 1, omega)]
    for i in range(free):
        size = rng.randint(0, omega - 1)
        edges += [(c, omega + i) for c in rng.sample(range(omega), size)]
    return relabeled(Graph(omega + free, edges), rng.randrange(1 << 30))


# -- the DP against the edge search --------------------------------------------


@pytest.mark.parametrize("seed", [1, 2])
def test_criterion_3_graphs_match_edge_search(seed):
    checked = 0
    for g in criterion_3_graphs():
        assert_dp_matches_edge_search(relabeled(g, seed))
        checked += 1
    assert checked == 80


def test_random_split_graphs_match_edge_search():
    rng = random.Random(61)
    checked = 0
    while checked < 300:
        g = random_split_graph(rng, rng.randint(1, 5), rng.randint(1, 6))
        if goes_to_dp(g):
            assert_dp_matches_edge_search(g)
            checked += 1


def test_criterion_8_split_instances_match_edge_search():
    for seed in range(50):
        g = random_class_instance("split", 6 + seed % 9, 800 + seed)
        assert_dp_matches_edge_search(g)
        kern, _ = split_kernel(g, 2 + seed % 3)
        if goes_to_dp(kern):
            assert_dp_matches_edge_search(kern)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_hypothesis_split_graphs_match_edge_search(data):
    omega = data.draw(st.integers(min_value=1, max_value=5))
    free = data.draw(st.integers(min_value=1, max_value=5))
    edges = [(u, v) for u in range(omega) for v in range(u + 1, omega)]
    for i in range(free):
        nbrs = data.draw(st.sets(st.integers(0, omega - 1),
                                 max_size=omega - 1))
        edges += [(c, omega + i) for c in sorted(nbrs)]
    g = Graph(omega + free, edges)
    if goes_to_dp(g):
        assert_dp_matches_edge_search(g)


def test_criterion_3_climbs_finish_within_budget():
    for g in criterion_3_graphs():
        values = set()
        for seed in range(12):
            h = relabeled(g, seed) if seed else g
            value, d = proper_orientation_number(h, node_budget=BUDGET)
            assert is_proper(d) and max_indegree(d) == value
            values.add(value)
        assert len(values) == 1, g.edges


def test_the_climb_takes_one_split_partition(monkeypatch):
    # the floor is 2 and the optimum 4: three k share one partition
    calls = []
    monkeypatch.setattr(exact, "split_partition",
                        lambda g: calls.append(1) or split_partition(g))
    value, d = proper_orientation_number(random_class_instance("split", 40, 3))
    assert value == 4 and is_proper(d)
    assert len(calls) == 1


def test_cliques_stay_on_the_edge_search():
    # a clique, alone or with isolated vertices, has no edge between sides
    for g in (Graph.complete(4), Graph(6, [(0, 1), (0, 2), (1, 2)])):
        assert not goes_to_dp(g)
        k = len(split_partition(g).clique) - 1
        with pytest.raises(BudgetExceeded):
            decide_k_orientation(g, k, node_budget=1)
        d = decide_k_orientation(g, k)
        assert is_proper(d) and max_indegree(d) == k


# -- Landau's test and the tournament built from it ----------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_score_sequences_match_all_tournaments(n):
    k = Graph.complete(n)
    realised = set()
    for bits in itertools.product((0, 1), repeat=k.m):
        indeg = [0] * n
        for (u, v), b in zip(k.edges, bits):
            indeg[v if b else u] += 1
        realised.add(tuple(indeg))
    for scores in itertools.product(range(n), repeat=n):
        assert exact._is_score_sequence(scores) == (scores in realised)
        if scores in realised:
            heads = exact._split_witness(k, list(range(n)), {}, scores)
            indeg = [0] * n
            for h in heads:
                indeg[h] += 1
            assert tuple(indeg) == scores


# -- failure paths -------------------------------------------------------------


def test_budget_exhaustion_matches_edge_search():
    g = random_class_instance("split", 13, 11)
    assert goes_to_dp(g)
    k = len(split_partition(g).clique) - 1
    for allowance in (0, 1, 5):
        box = [allowance, allowance]
        with pytest.raises(BudgetExceeded) as dp:
            decide_k_orientation(g, k, None, _budget=box)
        assert box[0] == -1
        edge_box = [allowance, allowance]
        with pytest.raises(BudgetExceeded) as edge:
            next(exact._search(g, k, edge_box, True))
        assert str(dp.value) == str(edge.value)
        assert edge_box[0] == -1
        with pytest.raises(BudgetExceeded):
            decide_k_orientation(g, k, node_budget=allowance)


def check_improper_dp_witness_raises():
    """Make the DP's witness builder return an improper heads list;
    decide_k_orientation must raise ConstructionError.  Uses no assert, so
    it also checks under -O."""
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    if not goes_to_dp(g):
        raise RuntimeError("the triangle with a pendant edge is split")
    real = exact._split_witness

    def improper(g, clique, into, scores):
        # every edge points at its smaller end: vertices 1 and 2 both get 1
        return [u for u, v in g.edges]
    exact._split_witness = improper
    try:
        decide_k_orientation(g, 2)
    except ConstructionError:
        pass
    else:
        raise RuntimeError("an improper DP witness was accepted")
    finally:
        exact._split_witness = real
    if decide_k_orientation(g, 2) is None:
        raise RuntimeError("the triangle with a pendant edge has a proper "
                           "2-orientation")


def test_improper_dp_witness_raises():
    check_improper_dp_witness_raises()


class LyingDegrees(Graph):
    """C4 0-1-2-3-0 claiming the degrees of a triangle 0-1-2 with a pendant
    vertex 3 at 2, so that the degree test accepts it."""
    __slots__ = ()

    def __init__(self):
        super().__init__(4, [(0, 1), (1, 2), (2, 3), (0, 3)])

    def degree(self, v):
        return (2, 2, 3, 1)[v]

    def degrees(self):
        return [2, 2, 3, 1]


def check_split_partition_checks_its_answer():
    """split_partition must reject a partition the degree test accepted
    wrongly.  Uses no assert, so it also checks under -O."""
    try:
        split_partition(LyingDegrees())
    except ConstructionError:
        return
    raise RuntimeError("a non-split partition was returned")


def test_split_partition_checks_its_answer():
    check_split_partition_checks_its_answer()


@pytest.mark.parametrize("check", ["check_improper_dp_witness_raises",
                                   "check_split_partition_checks_its_answer"])
def test_checks_hold_under_optimize(check):
    run_optimized("test_split_dp", check)


def test_strip_200_keeps_max_indegree_4():
    g = random_class_instance("strip", 200, 1)
    d = outerplanar_strip_orient(g, outerplanar_strip(g))
    assert is_proper(d) and max_indegree(d) == 4
