"""The clique-cover capacity floor behind decide_k_orientation.

In a proper k-orientation the vertices of a clique take distinct indegrees,
each at most min(k, deg v), and all indegrees sum to m.  The floor is the
least k at which ``exact._clique_cover``'s cliques pass that test, and at
least omega - 1; below it ``decide_k_orientation`` answers No without
spending budget.  The floor must never exceed the proper orientation
number found by the edge search alone, and must equal a brute-force
reading of the same cover.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from orientkit import exact
from orientkit.exact import (clique_number, decide_k_orientation,
                             proper_orientation_number)
from orientkit.graph import Graph, write_graph
from orientkit.orientation import is_proper, max_indegree
from oracles import (capacity_floor_oracle, criterion_3_graphs,
                     criterion_8_cobipartite_graphs, random_gnp, relabeled)
from test_cli import run

BUDGET = 20000
# the two criterion-8 No instances at k = 4 that the edge search cannot
# settle within BUDGET nodes
HARD_NO = (32, 47)
# least k admitting a proper k-orientation, by the split DP alone
SPLIT_VALUES = [
    4, 3, 3, 2, 2, 5, 2, 4, 2, 3, 4, 3, 3, 2, 3, 4, 4, 4, 3, 2,
    4, 3, 2, 2, 3, 5, 4, 2, 2, 4, 4, 4, 3, 5, 3, 2, 2, 2, 2, 4,
    3, 3, 4, 5, 4, 3, 3, 4, 2, 2, 3, 2, 4, 4, 4, 5, 2, 2, 4, 3,
    3, 5, 4, 5, 2, 3, 2, 3, 3, 4, 4, 2, 2, 2, 2, 4, 2, 3, 4, 2,
]
# yes/no at criterion 8's k for seeds 0..49
COBIPARTITE_ANSWERS = "nyyynyynnnyynnnnynnnnnynnnnnnnnnnnynynyynnnnynynyn"


def edge_search_value(g):
    """The least k at which the unbudgeted edge search finds an orientation."""
    k = 0
    while next(exact._search(g, k, exact._budget_box(None), True),
               None) is None:
        k += 1
    return k


def floor(g):
    return exact._capacity_floor(g, clique_number(g))


def assert_cover_partitions(g):
    cover = exact._clique_cover(g)
    seen = sorted(v for clique in cover for v in clique)
    assert seen == list(range(g.n)), (g.edges, cover)
    for clique in cover:
        assert g.is_clique(clique), (g.edges, clique)


def assert_floor_is_sound(g):
    assert_cover_partitions(g)
    low = floor(g)
    value = edge_search_value(g)
    assert low <= value, (g.edges, low, value)
    assert low == capacity_floor_oracle(g, exact._clique_cover(g),
                                        clique_number(g))
    for k in range(g.max_degree() + 1):
        d = decide_k_orientation(g, k, 0 if k < low else None)
        assert (d is not None) == (k >= value), (g.edges, k)


# -- the cover and the floor on small graphs -----------------------------------


def test_floor_never_exceeds_the_orientation_number():
    rng = random.Random(71)
    raised = 0
    for _ in range(300):
        g = random_gnp(rng, rng.randint(1, 7), rng.uniform(0.2, 0.95))
        assert_floor_is_sound(g)
        raised += floor(g) > clique_number(g) - 1
    # the floor is above the clique floor on a good share of them
    assert raised >= 30


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_hypothesis_graphs(data):
    n = data.draw(st.integers(min_value=0, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                      if pairs else st.just([]))
    assert_floor_is_sound(Graph(n, edges))


def test_cover_is_a_partition_into_cliques_on_larger_graphs():
    rng = random.Random(72)
    for _ in range(40):
        assert_cover_partitions(random_gnp(rng, rng.randint(8, 60),
                                           rng.uniform(0.05, 0.9)))
    for g in criterion_3_graphs():
        assert_cover_partitions(g)


def test_cover_grows_by_most_candidate_neighbours():
    # 0 has the highest degree.  Among its neighbours 1..4, vertices 2 and
    # 3 each see two others and 1 and 4 one; the tie goes to 2, which
    # leaves candidates 1 and 3 with no neighbours among them, so 1 joins.
    # 3 starts the next clique, with 4.
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (2, 3), (3, 4), (1, 2)])
    assert exact._clique_cover(g) == [[0, 2, 1], [3, 4]]


# -- the instances the edge search could not settle ----------------------------


def test_hard_no_instances_cost_no_budget():
    graphs = {seed: (g, k) for seed, g, k in criterion_8_cobipartite_graphs()}
    for seed in HARD_NO:
        g, k = graphs[seed]
        assert k == 4 and floor(g) == 5
        for r in range(20):
            h = relabeled(g, r)
            assert decide_k_orientation(h, k, node_budget=0) is None


def test_criterion_8_cobipartite_answers_within_budget():
    answers = ""
    for seed, g, k in criterion_8_cobipartite_graphs():
        d = decide_k_orientation(g, k, node_budget=BUDGET)
        if d is not None:
            assert is_proper(d) and max_indegree(d) <= k
        answers += "y" if d is not None else "n"
    assert answers == COBIPARTITE_ANSWERS


def test_criterion_3_climbs_within_budget():
    values = []
    for g in criterion_3_graphs():
        value, d = proper_orientation_number(g, node_budget=BUDGET)
        assert is_proper(d) and max_indegree(d) == value
        part = exact.split_partition(g)
        assert exact._split_decide(g, value, part,
                                   exact._budget_box(None)) is not None
        assert exact._split_decide(g, value - 1, part,
                                   exact._budget_box(None)) is None
        values.append(value)
    assert values == SPLIT_VALUES


def test_solve_answers_the_hard_instance(tmp_path):
    graphs = {seed: g for seed, g, _ in criterion_8_cobipartite_graphs()}
    path = tmp_path / "cobip-s32.graph"
    write_graph(graphs[32], path)
    code, rep, _ = run(["solve", str(path), "--k", "4",
                        "--budget", str(BUDGET)])
    assert code == 0 and rep["answer"] == "no"
