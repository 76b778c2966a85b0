"""The exact search against the reference in oracles.py, node for node.

``search_oracle`` is the branch and bound as it was before the search kept
its state incrementally (capacity, decided-neighbour masks, one undo step).
Both must explore the same tree: the same stream of heads lists, and the
same budget-box value after every yield and at every exit, including a
``BudgetExceeded`` exit, with symmetry breaking on and off.  Further tests
cover the unlimited budget, a box of inf; the result check on the witness
and on every enumerated orientation, which must hold under ``python -O``;
and ``clique_number`` on cliques deeper than the recursion limit.
"""

import inspect
import random
import sys
from math import inf

import pytest

from orientkit import construct, exact
from orientkit.errors import BudgetExceeded, ConstructionError
from orientkit.exact import (clique_number, decide_k_orientation,
                             enumerate_proper_k_orientations)
from orientkit.graph import Graph
from orientkit.instances import (block_tight_example, ladder_gadget,
                                 random_class_instance)
from oracles import (random_gnp, random_tree, relabeled, run_optimized,
                     search_oracle, threshold_graph)

BUDGET = 20000


def stream(search, g, k, budget, symmetry_breaking):
    """Every yielded heads list with the box value at that yield, then how
    the search ended and the box value at the end."""
    box = exact._budget_box(budget)
    events = []
    try:
        for heads in search(g, k, box, symmetry_breaking):
            events.append((heads, box[0]))
        events.append(("done", box[0]))
    except BudgetExceeded as exc:
        events.append(("budget", str(exc), box[0]))
    return events


def assert_same_search(g, k, budget=BUDGET):
    for sym in (True, False):
        got = stream(exact._search, g, k, budget, sym)
        assert got == stream(search_oracle, g, k, budget, sym), (g.edges, k, sym)


def test_same_search_on_small_random_graphs():
    rng = random.Random(51)
    for _ in range(120):
        g = random_gnp(rng, rng.randint(1, 8), rng.uniform(0.1, 0.9))
        for k in range(-1, g.max_degree() + 2):
            assert_same_search(g, k, budget=3000)
            assert_same_search(g, k, budget=rng.randint(0, 40))
        if g.m <= 10:
            assert_same_search(g, g.max_degree(), budget=None)


@pytest.mark.parametrize("seed", [1, 2])
def test_same_search_on_criterion_3_split_graphs(seed):
    checked = 0
    for s in range(200):
        n = 6 + (s * 7) % 35
        if n > 14:
            continue
        g = relabeled(random_class_instance("split", n, s), seed)
        assert_same_search(g, clique_number(g) - 1)
        checked += 1
    assert checked == 80


def test_same_search_on_criterion_8_cobipartite_graphs():
    rng = random.Random(808)
    for seed in range(50):
        k = 2 + seed % 3
        a, b = rng.randint(1, k + 3), rng.randint(1, k + 3)
        cross = [(u, a + v) for u in range(a) for v in range(b)
                 if rng.random() < 0.5]
        g = Graph(a + b, [(u, v) for u in range(a) for v in range(u + 1, a)]
                  + [(a + u, a + v) for u in range(b) for v in range(u + 1, b)]
                  + cross)
        assert_same_search(g, k)


@pytest.mark.parametrize("j", [2, 3])
def test_same_search_on_ladder_gadgets(j):
    g, _ = ladder_gadget(j)
    for k in (j - 1, j, j + 1):
        assert_same_search(g, k)


def test_same_search_on_the_strip_800_pieces(monkeypatch):
    # the pieces the strip constructor searches, at its k and budget
    pieces = []
    real = construct.decide_k_orientation

    def record(part, k, node_budget=None):
        pieces.append(part)
        return real(part, k, node_budget=node_budget)

    monkeypatch.setattr(construct, "decide_k_orientation", record)
    construct.outerplanar_strip_orient(random_class_instance("strip", 800, 1))
    assert len(pieces) == 15
    for part in pieces:
        assert_same_search(part, part.max_degree())
    # four pieces run out of budget before their first orientation
    assert sum(stream(exact._search, part, part.max_degree(), BUDGET, True)
               [0][0] == "budget" for part in pieces) == 4


def test_same_search_on_trees_and_the_tight_block_graph():
    rng = random.Random(32)
    graphs = [relabeled(random_tree(rng, n), n) for n in (2, 5, 9, 14, 20)]
    graphs.append(block_tight_example(3))
    for g in graphs:
        for k in range(clique_number(g) - 1, g.max_degree() + 1):
            assert_same_search(g, k, budget=5000)


def test_same_search_where_a_neighbour_sees_both_decided_ends():
    # the edges go 23, 03, 12, 13, 24, 04: orienting 1-3 decides both
    # ends, whose common neighbour 2 is still undecided.  A test that gave
    # 2 only one of its two new values would accept heads the reference
    # rejects.
    g = Graph(5, [(0, 3), (0, 4), (1, 2), (1, 3), (2, 3), (2, 4)])
    assert_same_search(g, 2)


def climb(search, g, box):
    """The --opt climb over one shared box: the first k with a witness."""
    try:
        for k in range(clique_number(g) - 1, g.max_degree() + 1):
            heads = next(search(g, k, box, True), None)
            if heads is not None:
                return k, heads, box[0]
    except BudgetExceeded as exc:
        return str(exc), box[0]


def test_same_climb_over_a_shared_budget():
    # 40 split graphs: some climbs pass the clique floor, some run out
    for s in range(0, 200, 5):
        g = random_class_instance("split", 6 + s % 9, s)
        got = climb(exact._search, g, [BUDGET, BUDGET])
        assert got == climb(search_oracle, g, [BUDGET, BUDGET])


# -- every budget is a box -----------------------------------------------------


def test_an_unlimited_budget_is_a_box_of_inf():
    assert exact._budget_box(None) == [inf, inf]
    assert exact._budget_box(7) == [7, 7]


def test_an_inf_box_gives_the_unbudgeted_witness():
    # split graphs go to the DP, the random graphs to the edge search
    rng = random.Random(36)
    graphs = ([random_class_instance("split", 6 + s % 9, s)
               for s in range(0, 100, 5)]
              + [random_gnp(rng, rng.randint(1, 8), rng.uniform(0.1, 0.9))
                 for _ in range(40)])
    for g in graphs:
        for k in range(g.max_degree() + 1):
            box = [inf, inf]
            d = decide_k_orientation(g, k)
            same = decide_k_orientation(g, k, _budget=box)
            assert box == [inf, inf]
            assert (d is None) == (same is None), (g.edges, k)
            assert d is None or d.heads == same.heads, (g.edges, k)


# -- the witness check survives python -O -------------------------------------


def check_improper_witness_raises():
    """Make the search yield an improper heads list; decide_k_orientation
    and enumerate_proper_k_orientations must raise ConstructionError.  Uses
    no assert, so it also checks under -O."""
    g = Graph.complete(3)
    real = exact._search
    callers = {
        "decide_k_orientation": lambda: decide_k_orientation(g, 2),
        "enumerate_proper_k_orientations":
            lambda: list(enumerate_proper_k_orientations(g, 2)),
    }

    def improper(g, k, budget, symmetry_breaking):
        # the directed triangle 0 -> 1 -> 2 -> 0: every indegree is 1
        yield [{(0, 1): 1, (1, 2): 2, (0, 2): 0}[e] for e in g.edges]
    exact._search = improper
    try:
        for name, call in callers.items():
            try:
                call()
            except ConstructionError:
                continue
            raise RuntimeError(f"{name} accepted an improper witness")
    finally:
        exact._search = real
    if decide_k_orientation(g, 2) is None:
        raise RuntimeError("K3 has a proper 2-orientation")
    if len(callers["enumerate_proper_k_orientations"]()) != 6:
        raise RuntimeError("K3 has six proper 2-orientations")


def test_improper_witness_raises():
    check_improper_witness_raises()


def test_improper_witness_raises_under_optimize():
    run_optimized("test_search", "check_improper_witness_raises")


# -- clique_number needs no recursion -----------------------------------------


@pytest.mark.parametrize("build, omega", [
    (lambda: Graph.complete(300), 300),
    (lambda: threshold_graph(400), 201),
], ids=["K300", "threshold-400"])
def test_clique_number_deeper_than_recursion_limit(build, omega):
    g = build()
    limit = sys.getrecursionlimit()
    depth = len(inspect.stack())
    sys.setrecursionlimit(depth + 100)
    try:
        assert clique_number(g) == omega
    finally:
        sys.setrecursionlimit(limit)
