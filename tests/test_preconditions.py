"""Each precondition check of the package raises its own error and names
what is wrong.  One table of (call, error type, message fragment); the
block constructors' cases sit in test_constructors.py, next to the checks
of a supplied block-cut tree."""

import pytest

from orientkit import cli
from orientkit.construct import (cograph_join_orient, extend_partial,
                                 extend_to_path, low_degree_orient,
                                 outerplanar_strip_orient,
                                 path_block_compensated, path_block_sequence,
                                 split_orient)
from orientkit.errors import (BadParams, BadShape, HypothesisViolated,
                              NotACover, NotCubic, NotSplit, NotStrip,
                              OrientkitError, PreconditionViolated)
from orientkit.exact import decide_k_orientation
from orientkit.graph import Graph, disjoint_union
from orientkit.instances import (build_vc_certificate, double_clique_gadget,
                                 ladder_gadget, random_class_instance,
                                 reduce_vertex_cover, split_kernel)
from orientkit.orientation import (CompensationSpec, Orientation,
                                   PartialOrientation, is_compensated_proper)
from orientkit.recognize import SplitPartition, outerplanar_strip
from oracles import petersen_graph
from test_constructors import _fan_path_fixture

P3 = Graph.path_graph(3)


def _fan(flip=(), drop=(), orient=()):
    """extend_to_path's arguments on the fan with a path of length 6, its
    arcs in flip reversed, its edges in drop left unoriented and the path
    edges in orient oriented towards their larger end."""
    g, p = _fan_path_fixture(6, 2, 1, 2)
    q = PartialOrientation(g)
    for u, v, h in zip(g.lo, g.hi, p.heads):
        if h >= 0 and (u, v) not in drop:
            q.orient(u, v, u + v - h if (u, v) in flip else h)
    for u, v in orient:
        q.orient(u, v, v)
    return g, q, 0, 7, [1, 2, 3, 4, 5, 6], 8


def _swapped_ends():
    g, q, v, v0, path, vend = _fan()
    return extend_to_path(g, q, v, vend, path, v0)


def _oriented_once_more():
    p = PartialOrientation(P3)
    p.orient(0, 1, 1)
    p.orient(1, 0, 0)


def _generate(*argv):
    args = cli._PARSER.parse_args(["generate", *argv, "--out", "unused"])
    return cli._cmd_generate(args, cli.Report(["orientkit"]))


def _petersen_certificate(cover):
    return build_vc_certificate(reduce_vertex_cover(petersen_graph(), 6),
                                cover)


CASES = [
    # construct.py
    (lambda: extend_partial(P3, {0, 1, 2}, {(0, 2): 2}),
     PreconditionViolated, "non-edge (0, 2)"),
    (lambda: extend_partial(P3, {0, 1, 2}, {(0, 1): 1, (1, 0): 0}),
     PreconditionViolated, "orients edge (0, 1) twice"),
    (lambda: extend_partial(P3, {0, 1, 2}, {(0, 1): 2}),
     PreconditionViolated, "2 is not an endpoint of (0, 1)"),
    (lambda: extend_partial(P3, {0, 1, 2}, {(0, 1): 1}),
     PreconditionViolated, "cover exactly the edges inside S"),
    (lambda: extend_partial(P3, {0, 1, 2}, {(0, 1): 1, (1, 2): 2}),
     PreconditionViolated, "ds is not proper on G[S]"),
    (lambda: low_degree_orient(P3, 0), ValueError, "must be positive"),
    (lambda: split_orient(Graph.path_graph(4), SplitPartition(
        frozenset({0, 1}), frozenset({2, 3}))),
     NotSplit, "not a split partition"),
    (lambda: path_block_sequence([]), BadShape, "empty clique sequence"),
    (lambda: path_block_sequence([(0, 1, 2), (2, 3)]),
     BadShape, "the same size"),
    (lambda: path_block_sequence([(0, 0, 1)]),
     BadShape, "must not repeat vertices"),
    (lambda: path_block_sequence([(0, 1, 2), (3, 4, 5)]),
     BadShape, "share exactly one vertex"),
    (lambda: path_block_sequence([(0, 1, 2), (2, 3, 4), (2, 5, 6)]),
     BadShape, "non-consecutive cliques must be disjoint"),
    (lambda: path_block_compensated(
        path_block_sequence([(1, 2, 3), (3, 4, 5)]), 5, 3, 0),
     BadShape, "dense 0..n-1"),
    (lambda: extend_to_path(*_fan(drop={(0, 12)})),
     HypothesisViolated, "only the path edges"),
    (_swapped_ends, HypothesisViolated, "vertex 1 has extra neighbors"),
    (lambda: extend_to_path(*_fan(flip={(0, 1)})),
     HypothesisViolated, "spoke to 1 must point at the path"),
    (lambda: extend_to_path(*_fan(drop={(0, 12)}, orient={(1, 2)})),
     HypothesisViolated, "path edges must be unoriented"),
    (lambda: extend_to_path(*_fan(flip={(6, 8)})),
     HypothesisViolated, "last path vertex must have indegree 2"),
    (lambda: extend_to_path(*_fan(flip={(0, 12)})),
     HypothesisViolated, "hub must have indegree at least 4"),
    (lambda: outerplanar_strip_orient(
        random_class_instance("strip", 6, 0),
        outerplanar_strip(random_class_instance("strip", 5, 0))),
     NotStrip, "does not match"),
    (lambda: cograph_join_orient(
        Graph.complete(2), Graph.complete(3),
        Orientation(Graph.complete(3), [1, 2, 2]),
        Orientation(Graph.complete(2), [1])),
     PreconditionViolated, "must match the given graphs"),
    # instances.py
    (lambda: ladder_gadget(-1), BadParams, "non-negative"),
    (lambda: double_clique_gadget(1), BadParams, "at least 2"),
    (lambda: reduce_vertex_cover(
        disjoint_union(Graph.complete(4), Graph.complete(4)), 3),
     NotCubic, "connected"),
    (lambda: _petersen_certificate({0, 1, 3, 7, 8, 9, 10}),
     NotACover, "original vertices"),
    (lambda: _petersen_certificate(range(10)),
     NotACover, "cover has 10 > 6 vertices"),
    (lambda: split_kernel(Graph.cycle_graph(4), 1),
     NotSplit, "not a split graph"),
    (lambda: random_class_instance("uniform-block", 0, 0),
     BadParams, "at least one block"),
    (lambda: random_class_instance("strip", 0, 0),
     BadParams, "at least one triangle"),
    # orientation.py
    (lambda: PartialOrientation(P3).orient(0, 1, 2),
     ValueError, "head 2 not an endpoint of (0,1)"),
    (_oriented_once_more, ValueError, "edge (1,0) already oriented"),
    (lambda: PartialOrientation(P3).to_orientation(),
     ValueError, "2 edges still unoriented"),
    (lambda: CompensationSpec(0, -1, 0), ValueError, "non-negative"),
    (lambda: is_compensated_proper(Orientation(P3, [1, 1]),
                                   CompensationSpec(3, 0, 0)),
     PreconditionViolated, "vertex 3 not in graph"),
    # graph.py
    (lambda: Graph(0).diameter(), ValueError, "empty graph"),
    (lambda: Graph(2).diameter(), ValueError, "disconnected"),
    (lambda: P3.relabeled([0, 0, 1]), ValueError, "permutation of 0..n-1"),
    (lambda: Graph.cycle_graph(2), ValueError, "at least 3 vertices"),
    # exact.py
    (lambda: decide_k_orientation(P3, -1), ValueError, "non-negative"),
    # cli.py
    (lambda: _generate("--gadget", "S"), OrientkitError, "S needs --k"),
    (lambda: _generate("--gadget", "F", "--k", "3"),
     OrientkitError, "F needs --i and --k"),
    (lambda: _generate("--gadget", "Z"), OrientkitError, "Z needs --k"),
    (lambda: _generate("--tight", "split"),
     OrientkitError, "--tight needs --param"),
    (lambda: _generate("--random", "split"),
     OrientkitError, "--random needs --size"),
    (lambda: _generate("--reduce-vc", "unused.graph"),
     OrientkitError, "reduction needs --k"),
]


@pytest.mark.parametrize("call, error, fragment", CASES,
                         ids=[fragment for _, _, fragment in CASES])
def test_precondition_errors(call, error, fragment):
    with pytest.raises(error) as raised:
        call()
    assert fragment in str(raised.value)
