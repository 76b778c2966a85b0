"""Edge orientations: full, partial, and the library's one result check.

Both kinds store one head per edge, indexed by edge id; a partial
orientation marks an unoriented edge with -1.  An orientation is proper
when adjacent vertices receive distinct indegrees.  A compensated check
replaces one vertex's indegree with an override color before testing
properness; it is the interface used by the block-graph constructors to
stitch locally-built pieces together.  Every orientation the library
returns passes _verified first: properness, a bound on the max indegree
and the caller's stated property, checked also under ``python -O``.

Text format: first line "n m", then m lines "u v" meaning the arc u -> v.
Comments start with '#'.  Reads and writes go a piece at a time through
graph.py's read_pairs and format_pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConstructionError, PreconditionViolated
from .graph import Graph, format_pairs, parse_pairs, read_pairs


class Orientation:
    """Immutable direction assignment: heads[e] is the head of edge e, the
    pair (graph.lo[e], graph.hi[e])."""

    __slots__ = ("graph", "heads", "indegree")

    def __init__(self, graph: Graph, heads):
        if len(heads) != graph.m:
            raise ValueError("need one head per edge")
        indeg = [0] * graph.n
        for u, v, h in zip(graph.lo, graph.hi, heads):
            if h != u and h != v:
                raise ValueError(f"head {h} is not an endpoint of ({u},{v})")
            indeg[h] += 1
        self.graph = graph
        self.heads = tuple(heads)
        self.indegree = tuple(indeg)

    @classmethod
    def _counted(cls, graph: Graph, heads, indeg):
        """The orientation with these heads, whose indegrees indeg already
        counts; the caller has checked every head."""
        d = cls.__new__(cls)
        d.graph = graph
        d.heads = tuple(heads)
        d.indegree = tuple(indeg)
        return d

    @classmethod
    def from_arcs(cls, graph: Graph, arcs):
        """arcs: iterable of (tail, head); must cover every edge exactly once.

        Arcs listed in edge-id order, as every file the library writes
        lists them, give their heads and indegrees in one pass of endpoint
        checks; any other list takes the edge lookup per arc."""
        arcs = list(arcs)
        if len(arcs) == graph.m:
            indeg = _in_order_indegrees(graph, arcs)
            if indeg is not None:
                return cls._counted(graph, [h for _, h in arcs], indeg)
        return cls(graph, _looked_up(graph, arcs))

    def arcs(self):
        g = self.graph
        for u, v, h in zip(g.lo, g.hi, self.heads):
            yield (v if h == u else u), h

    def recompute_indegree(self):
        """Audit path: indegrees rebuilt from scratch, bypassing the cache."""
        indeg = [0] * self.graph.n
        for h in self.heads:
            indeg[h] += 1
        return indeg

    def reversed(self):
        g = self.graph
        return Orientation(g, [v if h == u else u
                               for u, v, h in zip(g.lo, g.hi, self.heads)])

    def __eq__(self, other):
        if not isinstance(other, Orientation):
            return NotImplemented
        return self.graph == other.graph and self.heads == other.heads


def _in_order_indegrees(graph: Graph, arcs):
    """The indegrees of arcs, graph.m (tail, head) pairs, when arc e is
    edge e either way round for every edge e; else None."""
    indeg = [0] * graph.n
    try:
        for (t, h), u, v in zip(arcs, graph.lo, graph.hi):
            if not ((t == u and h == v) or (t == v and h == u)):
                return None
            indeg[h] += 1
    except (TypeError, ValueError):
        return None  # malformed arcs: the lookup raises as it did
    return indeg


def _looked_up(graph: Graph, arcs):
    """Heads of arcs, (tail, head) pairs, by one edge lookup per arc."""
    heads = [None] * graph.m
    for t, h in arcs:
        try:
            e = graph.edge_id(t, h)
        except KeyError:
            raise ValueError(f"arc ({t},{h}) is not an edge") from None
        if heads[e] is not None:
            raise ValueError(f"edge ({t},{h}) oriented twice")
        heads[e] = h
    if any(h is None for h in heads):
        raise ValueError("arcs do not cover every edge")
    return heads


class PartialOrientation:
    """Mutable, single-owner orientation builder; -1 marks an unoriented edge."""

    __slots__ = ("graph", "heads", "indegree", "unoriented")

    def __init__(self, graph: Graph):
        self.graph = graph
        self.heads = [-1] * graph.m
        self.indegree = [0] * graph.n
        self.unoriented = graph.m

    def is_oriented(self, u, v):
        return self.heads[self.graph.edge_id(u, v)] >= 0

    def head_of(self, u, v):
        return self.heads[self.graph.edge_id(u, v)]

    def orient(self, u, v, head):
        if head not in (u, v):
            raise ValueError(f"head {head} not an endpoint of ({u},{v})")
        e = self.graph.edge_id(u, v)
        if self.heads[e] >= 0:
            raise ValueError(f"edge ({u},{v}) already oriented")
        self.heads[e] = head
        self.indegree[head] += 1
        self.unoriented -= 1

    def to_orientation(self) -> Orientation:
        if self.unoriented:
            raise ValueError(f"{self.unoriented} edges still unoriented")
        return Orientation(self.graph, self.heads)


@dataclass(frozen=True)
class CompensationSpec:
    """Override for one vertex: required indegree d, displayed color c."""

    u: int
    c: int
    d: int

    def __post_init__(self):
        if self.c < 0 or self.d < 0:
            raise ValueError("compensation color and indegree must be non-negative")


def is_proper(d: Orientation) -> bool:
    """True iff every edge joins vertices of distinct indegrees."""
    indeg, g = d.indegree, d.graph
    return all(indeg[u] != indeg[v] for u, v in zip(g.lo, g.hi))


def max_indegree(d: Orientation) -> int:
    return max(d.indegree, default=0)


def is_compensated_proper(d: Orientation, spec: CompensationSpec) -> bool:
    """Properness of the indegree coloring with spec.u recolored to spec.c.

    Requires spec.u to actually have indegree spec.d; colors are plain
    non-negative integers, zero included.
    """
    g = d.graph
    if not (0 <= spec.u < g.n):
        raise PreconditionViolated(f"vertex {spec.u} not in graph")
    if d.indegree[spec.u] != spec.d:
        return False
    color = list(d.indegree)
    color[spec.u] = spec.c
    return all(color[u] != color[v] for u, v in zip(g.lo, g.hi))


def _verified(d: Orientation, what, bound=None, *, holds=True):
    """d, once an explicit check that also runs under ``python -O`` passes:
    d is proper, its max indegree is at most bound (when given), and holds,
    the caller's own condition on d, is true.  Raises ConstructionError
    naming what otherwise."""
    if not is_proper(d):
        why = "is improper"
    elif bound is not None and max_indegree(d) > bound:
        why = f"exceeds indegree {bound}"
    elif not holds:
        why = "breaks its stated property"
    else:
        return d
    raise ConstructionError(f"{what} built an orientation that {why}")


# -- text I/O ----------------------------------------------------------


def _oriented(graph: Graph, tails, heads) -> Orientation:
    """The orientation of graph with the arcs tails[i] -> heads[i]."""
    indeg = _in_order_indegrees(graph, zip(tails, heads))
    if indeg is None:
        return Orientation(graph, _looked_up(graph, zip(tails, heads)))
    return Orientation._counted(graph, heads, indeg)


def _pieces(d: Orientation):
    """The pieces of d's text, its arcs in edge order."""
    g = d.graph
    tails = (v if h == u else u for u, v, h in zip(g.lo, g.hi, d.heads))
    return format_pairs(g.n, g.m, tails, d.heads)


def parse_orientation(text, graph: Graph) -> Orientation:
    _, _, tails, heads = parse_pairs(text, "orientation", (graph.n, graph.m))
    return _oriented(graph, tails, heads)


def format_orientation(d: Orientation) -> str:
    return "".join(_pieces(d))


def read_orientation(path, graph: Graph) -> Orientation:
    _, _, tails, heads = read_pairs(path, "orientation", (graph.n, graph.m))
    return _oriented(graph, tails, heads)


def write_orientation(d: Orientation, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_pieces(d))
