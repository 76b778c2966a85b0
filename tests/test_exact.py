import random

import pytest

from orientkit import exact
from orientkit.errors import BudgetExceeded, NotChordal
from orientkit.exact import (clique_number, decide_k_orientation,
                             enumerate_proper_k_orientations, fpt_chordal,
                             proper_orientation_number)
from orientkit.graph import Graph, join
from orientkit.instances import (block_tight_example, ladder_gadget,
                                 split_tight_example)
from orientkit.orientation import is_proper, max_indegree
from oracles import (brute_clique_number, brute_count, brute_feasible,
                     brute_orientation_number, criterion_3_graphs, random_gnp,
                     random_tree)


def test_decide_examples():
    k3 = Graph.complete(3)
    assert decide_k_orientation(k3, 1) is None
    d = decide_k_orientation(k3, 2)
    assert sorted(d.indegree) == [0, 1, 2]
    s2, meta = ladder_gadget(2)
    d = decide_k_orientation(s2, 2)
    assert d is not None
    assert all(d.indegree[v] == j for j, v in enumerate(meta.spine))


def test_witness_is_verified():
    rng = random.Random(6)
    for _ in range(25):
        g = random_gnp(rng, rng.randint(1, 7), rng.uniform(0.2, 0.8))
        for k in range(g.max_degree() + 1):
            d = decide_k_orientation(g, k)
            if d is not None:
                assert is_proper(d) and max_indegree(d) <= k


def test_optimization_examples():
    for n in (2, 3, 5, 6):
        value, d = proper_orientation_number(Graph.complete(n))
        assert value == n - 1 and is_proper(d)
    assert proper_orientation_number(Graph.star(3))[0] == 1
    assert proper_orientation_number(split_tight_example(2))[0] == 2
    # the small tight block example is a tree whose optimum is 3
    value, d = proper_orientation_number(block_tight_example(2))
    assert value == 3 and is_proper(d)


def test_optimum_within_generic_bounds():
    rng = random.Random(8)
    for _ in range(30):
        g = random_gnp(rng, rng.randint(1, 7), rng.uniform(0.2, 0.8))
        value, d = proper_orientation_number(g)
        assert clique_number(g) - 1 <= value <= g.max_degree()
        assert max_indegree(d) <= value


def test_decision_monotone_in_k():
    rng = random.Random(10)
    for _ in range(20):
        g = random_gnp(rng, rng.randint(2, 7), rng.uniform(0.3, 0.8))
        answers = [decide_k_orientation(g, k) is not None
                   for k in range(g.max_degree() + 1)]
        assert answers == sorted(answers)


def test_enumerate_examples():
    assert len(list(enumerate_proper_k_orientations(Graph(2, [(0, 1)]), 1))) == 2
    sols = list(enumerate_proper_k_orientations(Graph.complete(3), 2))
    assert len(sols) == 6
    assert len({d.heads for d in sols}) == 6
    s2, meta = ladder_gadget(2)
    sols = list(enumerate_proper_k_orientations(s2, 2))
    assert sols
    for d in sols:
        assert all(d.indegree[v] == j for j, v in enumerate(meta.spine))


def test_enumerate_counts_match_bruteforce():
    rng = random.Random(12)
    for _ in range(25):
        g = random_gnp(rng, rng.randint(1, 6), rng.uniform(0.2, 0.9))
        if g.m > 10:
            continue
        for k in range(g.max_degree() + 1):
            got = sum(1 for _ in enumerate_proper_k_orientations(g, k))
            assert got == brute_count(g, k)


def test_budget():
    g = Graph.complete(6)
    with pytest.raises(BudgetExceeded):
        decide_k_orientation(g, 5, node_budget=3)
    with pytest.raises(BudgetExceeded):
        list(enumerate_proper_k_orientations(g, 5, node_budget=10))


def test_negative_budget_is_a_precondition_error():
    # raised before any shortcut, so k below the floor (C5 at k = 1) or
    # above the clique ceiling (K6 at k = 3) answers the same way
    c5, k6 = Graph.cycle_graph(5), Graph.complete(6)
    for call in (lambda: decide_k_orientation(c5, 1, node_budget=-1),
                 lambda: decide_k_orientation(c5, 2, node_budget=-1),
                 lambda: proper_orientation_number(c5, node_budget=-5),
                 lambda: list(enumerate_proper_k_orientations(c5, 2, -1)),
                 lambda: fpt_chordal(k6, 3, node_budget=-1)):
        with pytest.raises(ValueError, match="node_budget must be non-negative"):
            call()


def test_fpt_chordal():
    # above the clique ceiling: answered without any search at all
    assert fpt_chordal(Graph.complete(6), 3, node_budget=0) is None
    assert fpt_chordal(Graph.complete(3), 2) is not None
    s3, _ = ladder_gadget(3)
    assert fpt_chordal(s3, 3) is not None
    with pytest.raises(NotChordal):
        fpt_chordal(Graph.cycle_graph(4), 2)


def test_fpt_chordal_rejects_a_negative_k_as_the_decision_does():
    for g in (Graph(0), Graph.complete(3)):
        with pytest.raises(ValueError, match="k must be non-negative"):
            fpt_chordal(g, -1)


def decision(call, *args, **kwargs):
    """("yes", the witness heads), ("no",) or ("budget", its message)."""
    try:
        d = call(*args, **kwargs)
    except BudgetExceeded as exc:
        return "budget", str(exc)
    return ("no",) if d is None else ("yes", d.heads)


def test_fpt_chordal_is_the_decision_under_a_budget(monkeypatch):
    # same answer, same witness, same budget left, at every k up to the
    # max degree: the floor on the chordal omega is the decision's own
    boxes = []
    box_of = exact._budget_box
    monkeypatch.setattr(exact, "_budget_box",
                        lambda nb: boxes.append(box_of(nb)) or boxes[-1])
    rng = random.Random(34)
    graphs = list(criterion_3_graphs())
    graphs += [random_tree(rng, rng.randint(1, 30)) for _ in range(40)]
    outcomes = set()
    for g in graphs:
        for k in range(g.max_degree() + 1):
            got = decision(fpt_chordal, g, k, node_budget=400)
            box = [400, 400]
            assert got == decision(decide_k_orientation, g, k, None,
                                   _budget=box)
            assert boxes.pop() == box
            outcomes.add(got[0])
    assert outcomes == {"yes", "no", "budget"}


def test_clique_number():
    assert clique_number(Graph.complete(5)) == 5
    assert clique_number(Graph.empty(4)) == 1
    assert clique_number(join(Graph.cycle_graph(5), Graph.complete(2))) == 4
    rng = random.Random(13)
    for _ in range(40):
        g = random_gnp(rng, rng.randint(1, 9), rng.uniform(0.2, 0.9))
        assert clique_number(g) == brute_clique_number(g)


def test_solver_equals_bruteforce_on_small_graphs():
    rng = random.Random(14)
    for _ in range(30):
        g = random_gnp(rng, rng.randint(1, 6), rng.uniform(0.2, 0.8))
        if g.m > 10:
            continue
        assert proper_orientation_number(g)[0] == brute_orientation_number(g)
        for k in range(g.max_degree() + 1):
            assert (decide_k_orientation(g, k) is not None) == brute_feasible(g, k)


def test_solver_equals_bruteforce_up_to_fourteen_edges():
    rng = random.Random(141)
    checked = 0
    while checked < 10:
        g = random_gnp(rng, rng.randint(5, 8), rng.uniform(0.4, 0.8))
        if not 13 <= g.m <= 14:
            continue
        checked += 1
        assert proper_orientation_number(g)[0] == brute_orientation_number(g)
        for k in range(g.max_degree() + 1):
            assert (decide_k_orientation(g, k) is not None) == brute_feasible(g, k)


def test_deterministic_results():
    rng = random.Random(15)
    for _ in range(10):
        g = random_gnp(rng, rng.randint(2, 7), rng.uniform(0.3, 0.8))
        v1, d1 = proper_orientation_number(g)
        v2, d2 = proper_orientation_number(g)
        assert v1 == v2 and d1.heads == d2.heads
