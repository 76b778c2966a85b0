"""The 3k-2 construction for k-uniform block graphs.

Its output is compared with the recursive reference in oracles.py,
arc for arc.  Further tests cover graphs too deep or too wide for
recursion, the split enumerator, the absence of whole-graph rebuilds and
of piece graphs, and the explicit output checks, which must hold under
``python -O`` as well.
"""

import contextlib
import io
import itertools
import random
import time

import pytest

from orientkit import construct
from orientkit.cli import dispatch
from orientkit.errors import ConstructionError
from orientkit.graph import Graph, write_graph
from orientkit.instances import block_tight_example, random_class_instance
from orientkit.orientation import (PartialOrientation, is_proper,
                                   max_indegree)
from orientkit.recognize import BlockCutTree
from oracles import relabeled, run_optimized, uniform_block_orient_oracle


def assert_matches_oracle(g, k):
    d = construct.uniform_block_orient(g, None, k)
    assert d.heads == uniform_block_orient_oracle(g, k).heads
    assert is_proper(d) and max_indegree(d) <= 3 * k - 2


def test_acceptance_corpora_match_oracle():
    for k in (3, 4):
        for seed in range(30):
            assert_matches_oracle(random_class_instance(
                "uniform-block", 2 + seed % 11, 1000 * k + seed, k), k)
        for seed in range(20):
            assert_matches_oracle(random_class_instance(
                "two-cut-block", 2 + seed % 11, 2000 * k + seed, k), k)
        assert_matches_oracle(block_tight_example(k), k)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_random_instances_match_oracle(k):
    for size in (2, 5, 13, 40, 100, 200):
        for seed in range(3):
            assert_matches_oracle(
                random_class_instance("uniform-block", size, seed, k), k)


@pytest.mark.parametrize("seed", [14, 20, 21, 31, 39])
def test_backtracking_relabelings_match_oracle(seed):
    # each of these labelings makes 9-29 re-attachments fail and backtrack
    g = random_class_instance("uniform-block", 200, 1)
    assert_matches_oracle(relabeled(g, seed), 3)


def test_deep_graph_has_no_recursion_limit():
    # 2,400 blocks and 4,801 vertices: the recursive construction overflowed
    g = random_class_instance("uniform-block", 2400, 1)
    d = construct.uniform_block_orient(g, None, 3)
    assert is_proper(d) and max_indegree(d) <= 7


def windmill(per_corner):
    """A triangle whose three corners each hold per_corner hanging
    triangles: 6 * per_corner + 3 vertices."""
    edges, n = [(0, 1), (0, 2), (1, 2)], 3
    for corner in range(3):
        for _ in range(per_corner):
            edges += [(corner, n), (corner, n + 1), (n, n + 1)]
            n += 2
    return Graph(n, edges)


def test_windmill_matches_oracle():
    assert_matches_oracle(windmill(300), 3)


def test_wide_windmill_orients_within_the_recursion_limit(tmp_path):
    # splitting a hub's gain over 1,200 pieces recursed once per piece
    g = windmill(1200)
    assert g.n == 7203
    path = tmp_path / "windmill.graph"
    write_graph(g, path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch(["orient", "--class", "auto", str(path)])
    report = dict(line.split("=", 1) for line in out.getvalue().splitlines())
    assert code == 0 and report["class"] == "uniform-block"
    assert int(report["max_indegree"]) <= 7


def test_wide_windmill_is_fast():
    # 7.9 s when every piece rebuilt an induced subgraph and a block-cut tree
    g = windmill(5000)
    started = time.perf_counter()
    d = construct.uniform_block_orient(g, None, 3)
    assert time.perf_counter() - started < 2.0
    assert is_proper(d) and max_indegree(d) <= 7


def test_splits_match_product():
    rng = random.Random(3)
    for _ in range(500):
        allowed = [sorted(rng.sample(range(5), rng.randint(0, 4)),
                          reverse=True) for _ in range(rng.randint(0, 5))]
        total = rng.randint(-1, 4 * len(allowed) + 1)
        want = [t for t in itertools.product(*allowed) if sum(t) == total]
        assert list(construct._splits(allowed, total)) == want


def test_reductions_do_not_rebuild_the_graph(monkeypatch):
    g = random_class_instance("uniform-block", 800, 1)
    sizes, trees, rooted = [], [], []
    real_induced, real_bct = Graph.induced, construct.block_cut_tree
    real_rooted = BlockCutTree.rooted

    def induced(self, vertices):
        sub, old = real_induced(self, vertices)
        sizes.append(sub.n)
        return sub, old

    def block_cut_tree(h):
        trees.append(h.n)
        return real_bct(h)

    def counted_rooted(self, root_block):
        rooted.append(root_block)
        return real_rooted(self, root_block)

    monkeypatch.setattr(Graph, "induced", induced)
    monkeypatch.setattr(construct, "block_cut_tree", block_cut_tree)
    monkeypatch.setattr(BlockCutTree, "rooted", counted_rooted)
    # the reductions undo in place: the library has no way to copy a
    # partial orientation
    assert not hasattr(PartialOrientation, "copy")
    construct.uniform_block_orient(g, None, 3)
    # pieces are read off the one block-cut tree and oriented in place
    assert trees == [g.n] and len(rooted) == 1
    assert sizes == []


@pytest.mark.parametrize("seed", [None, 14, 39])
def test_orient_builds_only_the_graph_it_reads(monkeypatch, tmp_path, seed):
    # every piece is oriented on the host's ids: no graph of its own
    g = random_class_instance("uniform-block", 200, 1)
    path = tmp_path / "g.graph"
    write_graph(g if seed is None else relabeled(g, seed), path)
    builds = []
    real_init = Graph.__init__

    def counted_init(self, *args, **kwargs):
        builds.append(args[0])
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counted_init)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch(["orient", str(path), "--class", "auto"])
    assert code == 0 and "class=uniform-block" in out.getvalue().splitlines()
    assert builds == [g.n]


# -- explicit checks that survive python -O ------------------------------------


def check_improper_pieces_raise():
    """Feed the construction improper pieces; it must raise
    ConstructionError from the check each case names.  Uses no assert, so
    it also checks under -O."""
    transitive = construct._transitive

    def reversed_transitive(p, clique_in_order):
        transitive(p, clique_in_order[::-1])

    cases = [
        # the piece check in _orient_compensated rejects the piece
        ({"_transitive": reversed_transitive},
         random_class_instance("uniform-block", 6, 2), "the piece for"),
        # a piece grown from a source whose greedy step orients nothing
        # leaves its other vertices tied: the check in _grow rejects it
        ({"_greedy_inward": lambda p, pending: None},
         random_class_instance("uniform-block", 6, 2), "the piece grown from"),
        # with the piece check off, the final check of uniform_block_orient
        # rejects the whole
        ({"_transitive": reversed_transitive,
          "_checked_compensated": lambda *args: None},
         random_class_instance("uniform-block", 11, 7),
         "uniform_block_orient built"),
    ]
    for faults, g, check in cases:
        construct.uniform_block_orient(g, None, 3)   # fine unpatched
        real = {name: getattr(construct, name) for name in faults}
        for name, faulty in faults.items():
            setattr(construct, name, faulty)
        try:
            construct.uniform_block_orient(g, None, 3)
        except ConstructionError as exc:
            if check not in str(exc):
                raise RuntimeError(f"not rejected by {check!r}: {exc}")
        else:
            raise RuntimeError(f"improper pieces were accepted ({check!r})")
        finally:
            for name, fn in real.items():
                setattr(construct, name, fn)


def test_improper_pieces_raise():
    check_improper_pieces_raise()


def test_improper_pieces_raise_under_optimize():
    run_optimized("test_uniform_block", "check_improper_pieces_raise")
