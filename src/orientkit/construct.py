"""Polynomial-time constructors of proper orientations, one per graph class.

Each public function returns an Orientation whose maximum indegree meets
the class bound:

    quasi-threshold         omega - 1          (optimal)
    split                   2*omega - 2
    k-uniform block          3k - 2
    two-cut k-uniform block  k + 1             (cut indegrees in {0, k, k+1})
    degree condition         c
    outerplane strip         13
    cograph (cotree), join   the smaller of the two cross directions, per join

Before it is returned, every result passes the library's one result check,
orientation._verified, for what its function promises (properness, the
bound, a stated indegree); the check also runs under ``python -O`` and
raises ConstructionError.  ORIENT_CLASSES pairs each class with its
recognizer, its constructor and the bound ``orient`` reports, in the order
``orient --class auto`` tries them.

The k-uniform block construction detaches the hanging path pieces or
crossroad structures around a deepest reducible cut vertex, again and
again, until the remaining core has max degree <= 3k-2 and is oriented
greedily.  It then re-attaches the pieces in reverse order, each with a
compensated orientation: the piece carries a prescribed indegree at the
attachment vertex and is proper when that vertex wears a prescribed color
equal to the vertex's eventual global indegree.  The block-cut tree is
built once, each detached piece's clique path is read off it, and each
piece is oriented in place on the graph's own ids.  The reductions form an
explicit stack over one undo log of reduction state (never of arcs), so a
failed re-attachment backtracks to its level's next candidate without
recursion.  Local extensions are found
by a small deterministic assignment search over clique positions, colors,
and per-piece indegree splits, the splits from one iterative enumerator.
Each re-attached piece is re-checked in the same way.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import (BadCompensation, BadShape, BudgetExceeded,
                     ConstructionError, DegreeConditionViolated,
                     HypothesisViolated, NotApplicable, NotSplit, NotStrip,
                     NotUniformBlock, PreconditionViolated, UnsupportedK)
from .exact import decide_k_orientation
from .graph import Graph, join
from .orientation import (Orientation, PartialOrientation, _verified,
                          max_indegree)
from .recognize import (BlockCutTree, CotreeJoin, CotreeLeaf, CotreeUnion,
                        SplitPartition, StripDecomposition, block_cut_tree,
                        chordal_peo, cograph_cotree, cotree_postorder,
                        evaluate_cotree, is_claw_free, is_k_uniform,
                        max_cut_vertices_per_block, outerplanar_strip,
                        quasi_threshold_cotree, split_partition)


# -- greedy extension of a partial orientation ----------------------------


def extend_partial(g: Graph, s, ds) -> Orientation:
    """Extend a proper orientation of G[S] to a proper max-degree orientation.

    ds maps each edge inside S (any endpoint order) to its head vertex and
    must cover exactly the edges of G[S].  Vertices of S keep their ds
    indegrees; every other vertex ends at most at its degree.  Requires,
    for every v outside S with a neighbor u in S, |N(v) & S| > indeg_ds(u).

    The completion repeatedly picks the vertex outside S maximizing
    current indegree + unoriented incident edges (ties to the smallest id)
    and orients all its remaining edges inward.  S must lie in 0..n-1.
    """
    sset = frozenset(s)
    if any(not 0 <= v < g.n for v in sset):
        raise PreconditionViolated(f"S must lie in 0..{g.n - 1}")
    heads = {}
    for (a, b), h in ds.items():
        e = (a, b) if a < b else (b, a)
        if not g.has_edge(*e):
            raise PreconditionViolated(f"ds contains non-edge {e}")
        if e in heads:
            raise PreconditionViolated(f"ds orients edge {e} twice")
        if h not in e:
            raise PreconditionViolated(f"{h} is not an endpoint of {e}")
        heads[e] = h
    inside = {(u, v) for u, v in zip(g.lo, g.hi) if u in sset and v in sset}
    if set(heads) != inside:
        raise PreconditionViolated("ds must cover exactly the edges inside S")

    p = PartialOrientation(g)
    for (u, v), h in sorted(heads.items()):
        p.orient(u, v, h)
    for u, v in inside:
        if p.indegree[u] == p.indegree[v]:
            raise PreconditionViolated(
                f"ds is not proper on G[S]: {u} and {v} both have "
                f"indegree {p.indegree[u]}")
    rest = set(range(g.n)) - sset
    for v in sorted(rest):
        ns = [u for u in g.adj[v] if u in sset]
        for u in ns:
            if len(ns) <= p.indegree[u]:
                raise PreconditionViolated(
                    f"vertex {v} has only {len(ns)} neighbors in S but "
                    f"{u} has indegree {p.indegree[u]}")
    _extend(p, sset, rest)
    return _verified(p.to_orientation(), "extend_partial")


def _greedy_inward(p: PartialOrientation, pending):
    """Orient every edge joining two vertices with pending edges.

    pending maps v to the count of its unoriented edges to other vertices
    with pending edges; a vertex it leaves out has none.  The vertex
    maximizing indegree + pending (ties to the smallest id) takes all its
    pending edges inward, until none is left.  Keys only fall, so a heap
    with lazy deletion finds each pick.
    """
    adj, indeg = p.graph.adj, p.indegree
    heap = [(-(indeg[v] + c), v) for v, c in pending.items() if c]
    heapq.heapify(heap)
    while heap:
        key, v = heapq.heappop(heap)
        if not pending[v] or -key != indeg[v] + pending[v]:
            continue   # v was picked, or its key fell since this entry
        for w in adj[v]:
            if pending.get(w):
                p.orient(v, w, v)
                pending[w] -= 1
                if pending[w]:
                    heapq.heappush(heap, (-(indeg[w] + pending[w]), w))
        pending[v] = 0


def _extend(p: PartialOrientation, s, rest):
    """The greedy completion the constructors share: each unoriented edge
    from the vertex set s into the vertex set rest points into rest, then
    _greedy_inward orients the edges inside rest, which must all be
    unoriented.  One pass over rest's neighbour lists does both."""
    adj = p.graph.adj
    pending = {}
    for v in rest:
        c = 0
        for w in adj[v]:
            if w in rest:
                c += 1
            elif w in s and not p.is_oriented(v, w):
                p.orient(w, v, v)
        pending[v] = c
    _greedy_inward(p, pending)


def _grow(p: PartialOrientation, source, rest):
    """Grow the piece rest from the source with _extend.  Raises
    ConstructionError unless the piece comes out proper under p's
    indegrees: extend_partial's check, as long as no vertex of the piece
    has an arc in from outside."""
    indeg, adj = p.indegree, p.graph.adj
    _extend(p, {source}, rest)
    if any(indeg[v] == indeg[w] for v in rest for w in adj[v]
           if w in rest or w == source):
        raise ConstructionError(f"the piece grown from {source} built an "
                                "orientation that is improper")


def low_degree_orient(g: Graph, c: int) -> Orientation:
    """Proper c-orientation when no two adjacent vertices have degree > c."""
    if c < 1:
        raise ValueError("the degree threshold c must be positive")
    s = {v for v, d in enumerate(g.degrees()) if d >= c + 1}
    for u, v in zip(g.lo, g.hi):
        if u in s and v in s:
            raise DegreeConditionViolated((u, v))
    return _verified(extend_partial(g, s, {}), "low_degree_orient", c)


# -- quasi-threshold graphs -----------------------------------------------


def quasi_threshold_orient(cotree) -> Orientation:
    """Optimal (omega-1)-orientation from a quasi-threshold cotree alone; it
    rebuilds the graph, so a caller holding it calls cograph_orient."""
    return cograph_orient(evaluate_cotree(cotree), cotree)


# -- split graphs ----------------------------------------------------------


def split_orient(g: Graph, part: SplitPartition) -> Orientation:
    """Proper (2*omega - 2)-orientation of a split graph; the partition's
    clique must be maximum, as split_partition's is."""
    adj = g.adj
    kv = sorted(part.clique)
    iv = frozenset(part.independent)
    if sorted([*kv, *iv]) != list(range(g.n)):
        raise PreconditionViolated("the partition's two sides must cover "
                                   f"0..{g.n - 1} once each")
    if not g.is_clique(kv) or any(g.has_edge(u, v)
                                  for u in iv for v in adj[u] if v in iv):
        raise NotSplit("partition is not a split partition")
    omega = len(kv)
    kset = set(kv)
    full = sorted(u for u in iv if len(kset.intersection(adj[u])) == omega)
    if full:
        raise PreconditionViolated(f"independent vertex {full[0]} sees the "
                                   "whole clique, which is not maximum")
    bound = max(2 * omega - 2, 0)
    p = PartialOrientation(g)
    heavy = [v for v in kv if len(adj[v]) >= bound]
    h, heavyset = len(heavy), set(heavy)
    light = [v for v in kv if v not in heavyset]
    picked = {}
    for v in heavy:
        inb = [w for w in adj[v] if w in iv]
        if len(inb) < omega - 1:
            raise ConstructionError(f"heavy clique vertex {v} has only "
                                    f"{len(inb)} independent neighbors")
        picked[v] = inb[:omega - 1]
    for v in heavy:
        for u in light:
            p.orient(u, v, v)
    _transitive(p, heavy)
    for v in heavy[1:]:
        for w in picked[v]:
            p.orient(v, w, v)
    if 0 < h < omega:
        for w in picked[heavy[0]]:
            p.orient(w, heavy[0], heavy[0])
    # the heavy vertices' other edges point away from them, the rest greedily
    _extend(p, heavyset, set(range(g.n)) - heavyset)
    return _verified(p.to_orientation(), "split_orient", bound)


# -- compensated orientations of path-of-cliques pieces --------------------


@dataclass(frozen=True)
class PathBlockSequence:
    """Cliques C_1..C_q, consecutive ones sharing exactly one connector."""

    cliques: tuple
    connectors: tuple

    @property
    def k(self):
        return len(self.cliques[0])


def path_block_sequence(cliques) -> PathBlockSequence:
    cliques = tuple(tuple(sorted(c)) for c in cliques)
    if not cliques:
        raise BadShape("empty clique sequence")
    k = len(cliques[0])
    if any(len(c) != k for c in cliques):
        raise BadShape("cliques must all have the same size")
    if any(len(set(c)) != k for c in cliques):
        raise BadShape("cliques must not repeat vertices")
    connectors = []
    for a, b in zip(cliques, cliques[1:]):
        inter = set(a) & set(b)
        if len(inter) != 1:
            raise BadShape("consecutive cliques must share exactly one vertex")
        connectors.append(inter.pop())
    for i in range(len(cliques)):
        for j in range(i + 2, len(cliques)):
            if set(cliques[i]) & set(cliques[j]):
                raise BadShape("non-consecutive cliques must be disjoint")
    if any(a == b for a, b in zip(connectors, connectors[1:])):
        raise BadShape("consecutive connectors must be distinct")
    return PathBlockSequence(cliques, tuple(connectors))


def _transitive(p: PartialOrientation, clique_in_order):
    """Orient a clique transitively: earlier vertices point at later ones."""
    for i in range(len(clique_in_order)):
        for j in range(i + 1, len(clique_in_order)):
            p.orient(clique_in_order[i], clique_in_order[j],
                     clique_in_order[j])


def _clique_order(verts, placed):
    """Total order on a clique respecting placed positions (vertex -> pos)."""
    k = len(verts)
    order = [None] * k
    for v, pos in placed.items():
        if order[pos] is not None:
            raise ConstructionError(f"two vertices at clique position {pos}")
        order[pos] = v
    rest = sorted(v for v in verts if v not in placed)
    it = iter(rest)
    for i in range(k):
        if order[i] is None:
            order[i] = next(it)
    return order


def _end_feasible(q, k, c, d):
    """Can a q-clique path with an end-attached target realize (color c, indeg d)?"""
    if d < 0 or d > k - 1 or c < 0:
        return False
    if c >= k or c == d:
        return True
    return q >= 2 and d == 0 and c == k - 1


def _mid_choices(k, q_left, q_right, c, d):
    """Position/color choices for a target sitting in a middle clique."""
    if d < 0 or d > k - 1:
        return
    positions = [x for x in range(k) if x != d]
    for alpha in positions:
        for beta in positions:
            if beta == alpha:
                continue
            noncut = set(positions) - {alpha, beta}
            if c in noncut:
                continue
            for cx in range(alpha, alpha + k):
                if not _end_feasible(q_left, k, cx, cx - alpha):
                    continue
                if cx == d or cx == c or cx in noncut:
                    continue
                for cy in range(beta, beta + k):
                    if not _end_feasible(q_right, k, cy, cy - beta):
                        continue
                    if cy in (d, c, cx) or cy in noncut:
                        continue
                    yield alpha, beta, cx, cy
                    return  # deterministic: first admissible choice


class PieceShape(NamedTuple):
    """A path-of-cliques piece on its host's ids: its cliques in path order,
    the index of the clique holding the attachment vertex, and that vertex,
    which lies in no other clique."""

    blocks: list
    target_index: int
    target: int

    @property
    def k(self):
        return len(self.blocks[0])

    def is_end(self):
        return self.target_index in (0, len(self.blocks) - 1)

    def side_sizes(self):
        return self.target_index, len(self.blocks) - 1 - self.target_index


def _piece_feasible(shape: PieceShape, c, d):
    k = shape.k
    if shape.is_end():
        return _end_feasible(len(shape.blocks), k, c, d)
    ql, qr = shape.side_sizes()
    return next(_mid_choices(k, ql, qr, c, d), None) is not None


def _orient_compensated(p: PartialOrientation, shape: PieceShape, c, d):
    """Orient the piece in p: indegree d at the target from the piece's
    edges, proper under color c, max indegree <= max(c, 2k-2).  Caller
    checks feasibility."""
    k, blocks = shape.k, shape.blocks
    if shape.is_end():
        if shape.target_index == 0:
            blocks = blocks[::-1]
        _orient_end(p, k, blocks, shape.target, c, d)
        return _checked_compensated(p, shape, c, d)
    ql, qr = shape.side_sizes()
    choice = next(_mid_choices(k, ql, qr, c, d), None)
    if choice is None:
        raise ConstructionError(f"no compensated extension for (c={c}, d={d})")
    alpha, beta, cx, cy = choice
    bi = shape.target_index
    block = blocks[bi]
    x = (set(block) & set(blocks[bi - 1])).pop()
    y = (set(block) & set(blocks[bi + 1])).pop()
    _transitive(p, _clique_order(block, {shape.target: d, x: alpha, y: beta}))
    # each side in path order toward the target's clique
    _orient_end(p, k, blocks[:bi], x, cx, cx - alpha)
    _orient_end(p, k, blocks[:bi:-1], y, cy, cy - beta)
    return _checked_compensated(p, shape, c, d)


def _checked_compensated(p: PartialOrientation, shape: PieceShape, c, d):
    """Raise ConstructionError unless the piece, as oriented in p, has
    indegree d at the target from its own edges, is proper when the target
    is recolored c, and has max indegree at most max(c, 2k-2).  Its other
    vertices must have no arc in from outside it yet."""
    t, indeg = shape.target, p.indegree
    d_t = sum(p.head_of(t, w) == t
              for w in shape.blocks[shape.target_index] if w != t)
    # the target's indegree from the piece is below k, and c within bound
    colors = [[c if v == t else indeg[v] for v in b] for b in shape.blocks]
    bound = max(c, 2 * shape.k - 2)
    if max(map(max, colors)) > bound:
        why = f"exceeds indegree {bound}"
    elif d_t != d or any(len(set(b)) < len(b) for b in colors):
        why = "breaks its stated property"
    else:
        return
    raise ConstructionError(f"the piece for (c={c}, d={d}) built an "
                            f"orientation that {why}")


def _orient_end(p: PartialOrientation, k, blocks, target, c, d):
    """Orient in p the path of blocks, the target in its last clique."""
    q = len(blocks)
    if not _end_feasible(q, k, c, d):
        raise ConstructionError(f"no end piece for (q={q}, k={k}, c={c}, d={d})")
    placed = {target: d}
    if q > 1:
        connector = (set(blocks[-1]) & set(blocks[-2])).pop()
        # the rest of the path first, while the connector has no arc in
        if d >= 1:
            _grow(p, connector,
                  {v for b in blocks[:-1] for v in b} - {connector})
            placed[connector] = 0
        else:
            c_sub = 2 * k - 2 if c != 2 * k - 2 else 2 * k - 3
            _orient_end(p, k, blocks[:-1], connector, c_sub, k - 1)
            placed[connector] = k - 1 if c != 2 * k - 2 else k - 2
    _transitive(p, _clique_order(blocks[-1], placed))


def path_block_compensated(seq: PathBlockSequence, u, c, d) -> Orientation:
    """Compensated orientation of a k-uniform path of cliques.

    u must be a non-cut vertex of the last clique; requires either
    c > k-1 >= d or c = d = k-1.  The result has indegree d at u, maximum
    indegree at most max(c, 2k-2), and the indegree coloring with u
    recolored to c is proper; the piece check raises ConstructionError
    otherwise.
    """
    seq = path_block_sequence(seq.cliques)
    k = seq.k
    if k < 3:
        raise BadShape("cliques must have size at least 3")
    last = seq.cliques[-1]
    if u not in last or (len(seq.cliques) > 1 and u == seq.connectors[-1]):
        raise BadShape("u must be a non-cut vertex of the last clique")
    if not ((c > k - 1 >= d >= 0) or (c == d == k - 1)):
        raise BadCompensation(f"(c, d) = ({c}, {d}) with k = {k}")
    verts = sorted({v for clique in seq.cliques for v in clique})
    if verts != list(range(len(verts))):
        raise BadShape("vertex ids must be dense 0..n-1")
    p = PartialOrientation(Graph(len(verts), {
        e for clique in seq.cliques for e in itertools.combinations(clique, 2)}))
    _orient_compensated(p, PieceShape(seq.cliques, len(seq.cliques) - 1, u),
                        c, d)
    return p.to_orientation()


# -- k-uniform block graphs: the general 3k-2 construction -----------------


def _plan_crosspoint(k, u, block_verts, cut_pieces, u_pos, u_final):
    """Plan one clique plus the path pieces hanging from its cut vertices.

    cut_pieces: cut vertex -> list of PieceShape (its hanging pieces).
    u sits at position u_pos of the transitive clique; u_final is u's
    eventual global indegree.  Returns the clique's order and a (shape,
    color, indegree) triple per hanging piece, or None when no assignment
    exists.  Writes nothing.
    """
    cuts = sorted(cut_pieces)
    slots = sorted(set(range(k)) - {u_pos})
    for pos_tuple in itertools.permutations(slots, len(cuts)):
        noncut = set(slots) - set(pos_tuple)
        if u_final in noncut:
            continue
        # per cut, its (color, split) options in the order they are tried;
        # the first product with pairwise distinct colors is the plan
        options = []
        for w, pos in zip(cuts, pos_tuple):
            shapes = cut_pieces[w]
            hi = min(pos + (k - 1) * len(shapes), 3 * k - 2)
            splits = ((cw, _feasible_split(shapes, k, cw, cw - pos))
                      for cw in range(pos, hi + 1)
                      if cw != u_final and cw not in noncut)
            options.append([(cw, split) for cw, split in splits
                            if split is not None])
        chosen = next((plan for plan in itertools.product(*options)
                       if len({cw for cw, _ in plan}) == len(plan)), None)
        if chosen is None:
            continue
        placed = {u: u_pos, **dict(zip(cuts, pos_tuple))}
        return (_clique_order(block_verts, placed),
                [(shape, cw, dd) for w, (cw, split) in zip(cuts, chosen)
                 for shape, dd in zip(cut_pieces[w], split)])
    return None


def _feasible_split(shapes, k, c, total):
    """Indegree split of `total` over the pieces, respecting feasibility."""
    return next(_splits([[d for d in range(k - 1, -1, -1)
                          if _piece_feasible(shape, c, d)]
                         for shape in shapes], total), None)


def _splits(allowed, total):
    """Every tuple t with t[i] in allowed[i] and sum(t) == total, in the
    order of itertools.product(*allowed).  Depth first over an explicit
    stack with a running sum; a value is skipped when the lists after it
    cannot make up the rest of total."""
    n = len(allowed)
    lo, hi = [0] * (n + 1), [0] * (n + 1)   # sums of the lists' min, max
    for i in reversed(range(n)):
        if not allowed[i]:
            return
        lo[i] = lo[i + 1] + min(allowed[i])
        hi[i] = hi[i + 1] + max(allowed[i])
    if not lo[0] <= total <= hi[0]:
        return
    t, s, at = [], 0, [0]   # the prefix, its sum, next choice per level
    while at:
        i = len(t)
        if i == n:
            yield tuple(t)
        else:
            opts, j = allowed[i], at[i]
            while j < len(opts) and not (lo[i + 1] <= total - s - opts[j]
                                         <= hi[i + 1]):
                j += 1
            if j < len(opts):
                at[i] = j + 1
                t.append(opts[j])
                s += opts[j]
                at.append(0)
                continue
        at.pop()
        if t:
            s -= t.pop()


# candidate classes of a cut vertex, in the order reductions try them:
# path connectors with >= 3 hanging paths (so later crossroad reductions
# meet only small connectors), crossroad cut vertices, other reducible cuts
_RULE_A, _RULE_B, _REST, _IRREDUCIBLE, _NOT_CUT = range(5)


@dataclass
class _Detached:
    """The hanging structure removed at cut vertex u, kept for re-attachment."""

    u: int
    kids: list      # (child block, its subtree's vertices minus u), in order
    paths: list     # per child: its PieceShape at u when its subtree is a
                    # path of cliques, else {child cut w: [PieceShapes
                    # hanging at w]}


@dataclass
class _Frame:
    """One reduction level: its undo-log mark and its candidate cursor."""

    mark: int
    cursor: int = -1   # the key of the last candidate taken
    detached: _Detached = None
    failure: Exception = None


class _UniformReducer:
    """The 3k-2 construction on one connected k-uniform block graph.

    The block-cut tree is built and rooted once.  Reducing at a cut vertex
    u detaches all of u's child subtrees: their vertices die, u and the cut
    vertices below it stop being cut vertices, and the other blocks, the
    root, the depths and the child orders stay as they were.  Only the
    flags of u's ancestors can change, so only they are recomputed.  Every
    change to this state goes on one undo log, which a failed re-attachment
    unwinds to its frame's mark.  Arcs come after the last descent, so each
    greedy core starts a fresh orientation instead of logging them.
    """

    def __init__(self, g: Graph, bct: BlockCutTree, k: int):
        self.g, self.k, self.bound = g, k, 3 * k - 2
        self.blocks = bct.blocks
        root = min(range(len(bct.blocks)), key=lambda i: bct.blocks[i])
        rooted = bct.rooted(root)
        self.child_cuts = rooted.block_children_cuts
        self.child_blocks = rooted.cut_children_blocks
        self.parent_block = rooted.cut_parent_block
        self.parent_cut = rooted.block_parent_cut
        self.log = []
        self.p = None   # the orientation under construction, per greedy core
        self.deg = g.degrees()   # degree among live vertices, 0 when dead
        self.over = [sum(d > self.bound for d in self.deg)]
        self.is_cut = [False] * g.n
        for v in bct.cut_vertices:
            self.is_cut[v] = True
        # per block: its subtree is a chain of single-child cliques, a path
        # of cliques (chain with up to two ends at the root), and path or
        # crossroad-shaped (all hanging structures below are paths)
        nb = len(self.blocks)
        self.chain, self.path, self.ok = [True] * nb, [True] * nb, [True] * nb
        # per cut vertex: children whose subtree is not a path / not ok
        self.npath, self.nbad = [0] * g.n, [0] * g.n
        for bi in reversed(rooted.order):   # children before parents
            for w in self.child_cuts[bi]:
                kids = self.child_blocks[w]
                self.npath[w] = sum(not self.path[c] for c in kids)
                self.nbad[w] = sum(not self.ok[c] for c in kids)
            self.chain[bi], self.path[bi], self.ok[bi] = self._block_flags(bi)
        # the candidates as one sorted list of keys class * |order| + rank:
        # by class, then deepest cuts first
        self.order = sorted(bct.cut_vertices,
                            key=lambda v: (-rooted.cut_depth[v], v))
        self.rank = {v: r for r, v in enumerate(self.order)}
        self.cls = [_NOT_CUT] * g.n
        for v in self.order:
            self.cls[v] = self._class_of(v)
        self.keys = sorted(self._key(v, self.cls[v]) for v in self.order
                           if self.cls[v] < _IRREDUCIBLE)

    # -- state with undo ------------------------------------------------

    def _set(self, arr, i, value):
        if arr[i] != value:
            self.log.append((arr, i, arr[i]))
            arr[i] = value

    def _key(self, v, cls):
        return cls * len(self.order) + self.rank[v]

    def _move(self, v, new):
        old, keys = self.cls[v], self.keys
        if old < _IRREDUCIBLE:
            del keys[bisect.bisect_left(keys, self._key(v, old))]
        if new < _IRREDUCIBLE:
            bisect.insort(keys, self._key(v, new))
        self.cls[v] = new

    def _reclassify(self, v):
        new = self._class_of(v) if self.is_cut[v] else _NOT_CUT
        if new != self.cls[v]:
            self.log.append((self.cls, v, self.cls[v]))
            self._move(v, new)

    def _undo_to(self, mark):
        log = self.log
        while len(log) > mark:
            arr, i, old = log.pop()
            if arr is self.cls:
                self._move(i, old)
            else:
                arr[i] = old

    # -- flags ----------------------------------------------------------

    def _block_flags(self, bi):
        """(chain, path, ok) of the subtree rooted at block bi."""
        chain = path = cross = True
        live = 0
        for w in self.child_cuts[bi]:
            if not self.is_cut[w]:
                continue
            live += 1
            kids = self.child_blocks[w]
            if len(kids) > 1 or not self.chain[kids[0]]:
                chain = path = False
            if self.npath[w]:
                cross = False
        path = path and live <= 2
        return chain and live <= 1, path, path or cross

    def _class_of(self, v):
        if not self.npath[v]:
            return _RULE_A if len(self.child_blocks[v]) >= 3 else _REST
        return _RULE_B if not self.nbad[v] else _IRREDUCIBLE

    def _path(self, bi):
        """The subtree at block bi, a path of cliques, as (cliques in path
        order, index of bi's clique).  The path runs down the chains below
        bi's at most two live child cuts and starts at the end block that
        sorts first."""
        chains = []
        for w in self.child_cuts[bi]:
            if not self.is_cut[w]:
                continue
            chain = []
            while w is not None:
                b = self.child_blocks[w][0]
                chain.append(b)
                w = next((x for x in self.child_cuts[b] if self.is_cut[x]),
                         None)
            chains.append(chain)
        up, down = (chains + [[], []])[:2]
        order = up[::-1] + [bi] + down
        index = len(up)
        if order[-1] < order[0]:
            order.reverse()
            index = len(order) - 1 - index
        return [self.blocks[b] for b in order], index

    def _subtree(self, bi):
        """Live vertices in blocks of the subtree rooted at block bi."""
        out, stack = set(), [bi]
        while stack:
            b = stack.pop()
            out.update(self.blocks[b])
            for w in self.child_cuts[b]:
                if self.is_cut[w]:
                    stack.extend(self.child_blocks[w])
        return out

    # -- one reduction ----------------------------------------------------

    def _detach(self, u):
        """Remove u's hanging subtrees; recompute flags up u's ancestors."""
        kids, paths = [], []
        for bi in self.child_blocks[u]:
            verts = self._subtree(bi)
            verts.discard(u)
            kids.append((bi, verts))
            paths.append(PieceShape(*self._path(bi), u) if self.path[bi] else
                         {w: [PieceShape(*self._path(bb), w)
                              for bb in self.child_blocks[w]]
                          for w in self.child_cuts[bi] if self.is_cut[w]})
        deg, over = self.deg, self.over
        for _, verts in kids:
            for x in verts:
                if self.is_cut[x]:
                    self._set(self.is_cut, x, False)
                    self._reclassify(x)
                if deg[x] > self.bound:
                    self._set(over, 0, over[0] - 1)
                self._set(deg, x, 0)
        self._set(self.is_cut, u, False)
        self._reclassify(u)
        left = deg[u] - (self.k - 1) * len(kids)
        if deg[u] > self.bound >= left:
            self._set(over, 0, over[0] - 1)
        self._set(deg, u, left)
        b = self.parent_block[u]
        while True:
            chain, path, ok = self._block_flags(b)
            was_path, was_ok = self.path[b], self.ok[b]
            if (chain, path, ok) == (self.chain[b], was_path, was_ok):
                break
            self._set(self.chain, b, chain)
            self._set(self.path, b, path)
            self._set(self.ok, b, ok)
            c = self.parent_cut.get(b)
            if c is None:
                break
            self._set(self.npath, c, self.npath[c] + was_path - path)
            self._set(self.nbad, c, self.nbad[c] + was_ok - ok)
            self._reclassify(c)
            b = self.parent_block[c]
        return _Detached(u, kids, paths)

    def _reattach(self, det):
        """Orient u's detached structure around the oriented core.

        u's final indegree becomes a + (gains from the re-attached blocks)
        for the first admissible value not colliding with its parent
        clique; the gains are split across the children by a
        feasibility-guided search.
        """
        p, k, u = self.p, self.k, det.u
        a = p.indegree[u]
        if a > k - 1:   # only the parent clique survives around u
            raise ConstructionError(f"cut vertex {u} has core indegree {a}")
        if a == 0 and (all(isinstance(shape, PieceShape)
                           for shape in det.paths) or len(det.kids) <= 3):
            # u a source of all it holds: hanging paths, or a hanging star
            # of max degree <= 3k-3
            _grow(p, u, set().union(*(verts for _, verts in det.kids)))
            return
        forbidden = {p.indegree[w] for w in self.blocks[self.parent_block[u]]
                     if w != u}
        cap = min(a + len(det.kids) * (k - 1), self.bound)
        for f in range(a, cap + 1):
            if f not in forbidden and self._promote(det, f, f - a):
                return
        raise ConstructionError(f"no admissible extension at cut vertex {u}")

    def _promote(self, det, c, total):
        """Give u indegree gains summing to `total` across all child blocks.
        Only a complete plan is written: child by child, a crosspoint's
        clique before its pieces."""
        k = self.k
        allowed = [[b for b in range(k - 1, -1, -1)
                    if not isinstance(shape, PieceShape)
                    or _piece_feasible(shape, c, b)]
                   for shape in det.paths]
        for attempt, assignment in enumerate(_splits(allowed, total)):
            if attempt >= 500:
                break
            plan = []
            for (bi, _), shape, b in zip(det.kids, det.paths, assignment):
                step = (((), [(shape, c, b)]) if isinstance(shape, PieceShape)
                        else _plan_crosspoint(k, det.u, self.blocks[bi],
                                              shape, b, c))
                if step is None:
                    break
                plan.append(step)
            else:
                for order, pieces in plan:
                    _transitive(self.p, order)
                    for piece in pieces:
                        _orient_compensated(self.p, *piece)
                return True
        return False

    # -- the whole construction -----------------------------------------

    def _advance(self, frame):
        """Detach the frame's next cut vertex in rule order, the first key
        after its cursor; False when none is left."""
        i = bisect.bisect_right(self.keys, frame.cursor)
        if i == len(self.keys):
            return False
        frame.cursor = self.keys[i]
        frame.detached = self._detach(
            self.order[frame.cursor % len(self.order)])
        return True

    def run(self) -> Orientation:
        """Descend to a core of max degree <= 3k-2, orient it greedily,
        then re-attach the detached structures in reverse order.  A failed
        re-attachment restores its frame and tries the frame's next
        candidate; a frame out of candidates fails its parent's attempt."""
        frames, error = [], None
        while True:
            while self.over[0] and error is None:
                frame = _Frame(len(self.log))
                if self._advance(frame):
                    frames.append(frame)
                else:
                    error = _exhausted(frame)
            if error is None:
                self.p = PartialOrientation(self.g)
                _greedy_inward(self.p, dict(enumerate(self.deg)))
            while frames:
                frame = frames[-1]
                if error is None:
                    try:
                        self._reattach(frame.detached)
                    except ConstructionError as exc:
                        error = exc
                    else:
                        frames.pop()
                        continue
                frame.failure = error
                self._undo_to(frame.mark)
                if self._advance(frame):
                    error = None
                    break
                frames.pop()
                error = _exhausted(frame)
            else:
                if error is not None:
                    raise error
                return self.p.to_orientation()


def _exhausted(frame):
    return ConstructionError(f"no reducible cut vertex admits an extension "
                             f"({frame.failure})")


def _block_input(g: Graph, bct, k):
    """(block-cut tree of g, k) for a connected k-uniform block graph with
    k >= 3, k worked out from g when None.  A supplied bct is only
    compared with g's, by its blocks and cut vertices; raises when they
    differ, or when g is not such a graph."""
    computed = block_cut_tree(g)
    if bct is not None and (set(map(tuple, bct.blocks)) != set(computed.blocks)
                            or bct.cut_vertices != computed.cut_vertices):
        raise PreconditionViolated("block-cut tree is of another graph")
    bct = computed
    if k is None:
        k = len(bct.blocks[0]) if bct.blocks else 0
    if k < 3:
        raise UnsupportedK("block size must be at least 3 "
                           "(use low_degree_orient or the exact solver for trees)")
    # the blocks cover V and meet at cut vertices in a forest, so g has
    # n - sum(|B| - 1) components
    if sum(len(blk) - 1 for blk in bct.blocks) != g.n - 1:
        raise NotUniformBlock("graph must be connected")
    if not is_k_uniform(bct, k):
        raise NotUniformBlock(f"not every block is a {k}-clique")
    return bct, k


def uniform_block_orient(g: Graph, bct: BlockCutTree = None,
                         k: int = None) -> Orientation:
    """Proper (3k-2)-orientation of a connected k-uniform block graph."""
    return _orient_uniform(g, *_block_input(g, bct, k))


def _orient_uniform(g: Graph, bct: BlockCutTree, k: int) -> Orientation:
    """uniform_block_orient on the block-cut tree block_cut_tree(g)."""
    return _verified(_UniformReducer(g, bct, k).run(),
                     "uniform_block_orient", 3 * k - 2)


# -- two cut vertices per block: the k+1 construction ----------------------


def two_cut_block_orient(g: Graph, bct: BlockCutTree = None,
                         k: int = None) -> Orientation:
    """Proper (k+1)-orientation when every block has at most 2 cut vertices.

    Cut vertices end with indegree 0, k, or k+1; the orientation restricted
    to every clique is transitive.
    """
    bct, k = _block_input(g, bct, k)
    if max_cut_vertices_per_block(bct) > 2:
        raise NotUniformBlock("a block has more than two cut vertices")
    return _orient_two_cut(g, bct, k)


def _orient_two_cut(g: Graph, bct: BlockCutTree, k: int) -> Orientation:
    """two_cut_block_orient on block_cut_tree(g), whose blocks have at most
    two cut vertices: one transitive clique per block, in walk order from
    the first leaf block.  A block's clique order follows from its parent
    cut's position t in the parent's and whether it is that cut's first
    child block."""
    cuts = bct.cut_vertices
    p = PartialOrientation(g)
    if not cuts:
        _transitive(p, sorted(bct.blocks[0]))
        return _verified(p.to_orientation(), "two_cut_block_orient", k + 1)
    leaf = min(bi for bi, blk in enumerate(bct.blocks)
               if sum(1 for v in blk if v in cuts) == 1)
    rooted = bct.rooted(leaf)
    orders = {}
    for bi in rooted.order:
        x = rooted.block_parent_cut.get(bi)
        if x is None:   # the leaf root, its one cut first
            px, pnext = None, 0
        elif (t := orders[rooted.cut_parent_block[x]].index(x)) == 0:
            px, pnext = 0, 1
        elif rooted.cut_children_blocks[x][0] == bi:
            px, pnext = k - 1, 0
        else:
            px, pnext = 0, 2 if t == 1 else 1
        # the block's other cut, its child cut if any, goes at pnext
        placed = dict.fromkeys(rooted.block_children_cuts[bi], pnext)
        if x is not None:
            placed[x] = px
        orders[bi] = _clique_order(bct.blocks[bi], placed)
        _transitive(p, orders[bi])
    d = p.to_orientation()
    return _verified(d, "two_cut_block_orient", k + 1,
                     holds=all(d.indegree[v] in (0, k, k + 1) for v in cuts))


# -- fan paths and the outerplanar strip bound -----------------------------


def extend_to_path(g: Graph, p: PartialOrientation, v, v0, path, vend) -> Orientation:
    """Complete a partial orientation over the edges of a fan path.

    Hypotheses: the path has length >= 6; each path vertex's neighborhood
    is {previous, v, next}; all spokes already point at the path; the first
    path vertex has indegree 1 or 2 so far, the last exactly 2, and the hub
    v at least 4.  The path edges are chosen by one scan along the path,
    which finds a proper completion whenever there is one.
    """
    if p.unoriented != len(path) - 1:
        raise HypothesisViolated("only the path edges may remain unoriented")
    _extend_path(g, p, v, v0, path, vend)
    return _verified(p.to_orientation(), "extend_to_path")


def _extend_path(g: Graph, p: PartialOrientation, v, v0, path, vend):
    """extend_to_path on p in place; edges outside the fan may be unoriented."""
    ell = len(path)
    if ell < 6:
        raise HypothesisViolated(f"path length {ell} < 6")
    for i, w in enumerate(path):
        prev = v0 if i == 0 else path[i - 1]
        nxt = vend if i == ell - 1 else path[i + 1]
        if sorted(g.adj[w]) != sorted({prev, v, nxt}):
            raise HypothesisViolated(f"vertex {w} has extra neighbors")
        if p.head_of(v, w) != w:
            raise HypothesisViolated(f"spoke to {w} must point at the path")
    for i in range(ell - 1):
        if p.is_oriented(path[i], path[i + 1]):
            raise HypothesisViolated("path edges must be unoriented")
    d1 = p.indegree[path[0]]
    if d1 not in (1, 2):
        raise HypothesisViolated(f"first path vertex has indegree {d1}")
    if p.indegree[path[-1]] != 2:
        raise HypothesisViolated("last path vertex must have indegree 2")
    if p.indegree[v] < 4:
        raise HypothesisViolated("hub must have indegree at least 4")

    # A state at path[i] is (whether the edge from path[i] to path[i + 1]
    # points on at path[i + 1], path[i]'s final indegree); steps[i] maps
    # each state reached there to the first state at path[i - 1] that
    # reaches it.  The last vertex has no edge on, which counts as one that
    # points on.
    hub, dl, last = p.indegree[v], p.indegree[vend], ell - 1
    states, steps = {(0, p.indegree[v0]): None}, []
    for i, w in enumerate(path):
        reached = {}
        for into, before in states:
            for on in (0, 1) if i < last else (1,):
                d = p.indegree[w] + into + 1 - on
                if d != before and d != hub and (i < last or d != dl):
                    reached.setdefault((on, d), (into, before))
        steps.append(reached)
        states = reached
    if not states:
        raise ConstructionError("the fan path has no proper completion")
    state = next(iter(states))
    for i in range(last, 0, -1):
        state = steps[i][state]
        p.orient(path[i - 1], path[i], path[i] if state[0] else path[i - 1])


def _strip_orient(g: Graph, strip: StripDecomposition) -> Orientation:
    # A vertex's triangles are consecutive in the strip order, so its degree
    # in a piece is 1 + its triangles there, and cutting a hub's triangles
    # [a, b] out of its piece clips only the fan's two end pairs.  The heap
    # replays the choice, in each piece, of the hub of largest degree, least
    # id first.
    tris = strip.triangles
    first, last = [len(tris)] * g.n, [-1] * g.n
    for i, tri in enumerate(tris):
        for w in tri:
            first[w] = min(first[w], i)
            last[w] = i
    heap = [(first[w] - last[w] - 2, w) for w in range(g.n)]
    heapq.heapify(heap)
    fans, cut = [], set()
    while heap[0][0] < -13:
        key, v = heapq.heappop(heap)
        a, b = first[v], last[v]
        if key != a - b - 2:
            continue   # v's degree fell since this entry
        fan = [w for w in tris[a] if w not in tris[a + 1]]
        for tri in tris[a:b + 1]:
            fan.append(next(w for w in tri if w != v and w != fan[-1]))
        for w in fan[:2]:
            last[w] = a - 1
        for w in fan[-2:]:
            first[w] = b + 1
        for w in fan[:2] + fan[-2:]:
            heapq.heappush(heap, (first[w] - last[w] - 2, w))
        cut.update([v] + fan[2:-2])
        fans.append((v, fan if fan[0] < fan[-1] else fan[::-1]))
    # the pieces are what is left of g without the hubs and fan interiors
    sub, old = g.induced([w for w in range(g.n) if w not in cut])
    p = PartialOrientation(g)
    for comp in sub.connected_components():
        # old is increasing, so this is sub.induced(comp) under old ids
        part, part_old = g.induced([old[i] for i in comp])
        try:
            d = decide_k_orientation(part, part.max_degree(), node_budget=20000)
        except BudgetExceeded:
            # the greedy on the piece alone: no piece vertex has an arc yet
            _extend(p, (), set(part_old))
            continue
        for lu, lv, h in zip(part.lo, part.hi, d.heads):
            p.orient(part_old[lu], part_old[lv], part_old[h])
    # Inner fans first: a fan reads only the final indegrees of its four
    # end vertices, and writes heads only on its hub and interior.
    for v, fan in reversed(fans):
        ends = fan[:2] + fan[-2:]
        for w in ends:
            p.orient(w, v, v)
        p.orient(fan[1], fan[2], fan[2])
        p.orient(fan[-2], fan[-3], fan[-3])
        s_vals = {p.indegree[w] for w in ends}
        t = next(t for t in range(5) if 4 + t not in s_vals)
        for j, w in enumerate(fan[2:-2]):
            p.orient(w, v, v if j < t else w)
        for prev, w, nxt in zip(fan[1:], fan[2:2 + t], fan[3:]):
            p.orient(w, nxt, w if p.indegree[w] == p.indegree[prev] else nxt)
        _extend_path(g, p, v, fan[1 + t], fan[2 + t:-2], fan[-2])
    return p.to_orientation()


def outerplanar_strip_orient(g: Graph, strip=None) -> Orientation:
    """Proper 13-orientation of a maximal outerplane graph with path dual,
    in one pass over the recognizer's triangle order, with no recursion.
    A supplied strip is only compared, as a set of triangles, with the
    recognizer's (NotStrip when they differ); its order is not used."""
    computed = outerplanar_strip(g)
    if computed is None:
        raise NotStrip("graph is not a triangle strip")
    if strip is not None and set(strip.triangles) != set(computed.triangles):
        raise NotStrip("supplied strip does not match the graph")
    return _orient_strip(g, computed)


def _orient_strip(g: Graph, strip: StripDecomposition) -> Orientation:
    """outerplanar_strip_orient on the strip outerplanar_strip(g) returned."""
    return _verified(_strip_orient(g, strip), "outerplanar_strip_orient", 13)


# -- cographs ---------------------------------------------------------------


def cograph_bounds(cotree):
    """(lower, upper) sandwich on the orientation number of a cograph.

    The lower bound is exact at unions and uses the edge-density argument
    at joins; the upper bound is cograph_upper_bound.  Lower is an exact
    rational, upper an integer.
    """
    _, nodes = cotree_postorder(cotree)
    folded = {}   # id(node) -> (edge count, lower)
    for node, bounds in nodes:
        if isinstance(node, CotreeLeaf):
            folded[id(node)] = (0, Fraction(0))
            continue
        subs = [folded[id(ch)] for ch in node.children]
        if isinstance(node, CotreeUnion):
            folded[id(node)] = (sum(s[0] for s in subs),
                                max((s[1] for s in subs), default=Fraction(0)))
            continue
        sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        total_n = bounds[-1] - bounds[0]
        total_m = (sum(s[0] for s in subs)
                   + (total_n * total_n - sum(ni * ni for ni in sizes)) // 2)
        lower = Fraction(0)
        for ni, (mi, _) in zip(sizes, subs):
            if not 0 < ni < total_n:
                continue   # a child holding no vertex or every vertex
            rest_n = total_n - ni
            rest_m = total_m - mi - ni * rest_n
            ad_i = Fraction(mi, ni)
            ad_rest = Fraction(rest_m, rest_n)
            lower = max(lower, min(ad_i + Fraction(rest_n, 2),
                                   ad_rest + Fraction(ni, 2)))
        folded[id(node)] = (total_m, lower)
    return folded[id(cotree)][1], cograph_upper_bound(cotree)


def cograph_upper_bound(cotree) -> int:
    """The upper bound of cograph_bounds: a union's is its children's max,
    and a join's folds the one-sided cross orientation over its children,
    as cograph_orient orients them."""
    return _cograph_fold(cotree)[2]


def _join_step(a, n_a, b, n_b):
    """(max indegree, whether the cross edges go into the second side) of
    the join of sides of n_a and n_b vertices whose own max indegrees are a
    and b.  The cross edges take the direction whose max indegree is
    smaller, ties into the second.  A side's max indegree is below its size
    (or 0), so sending them into the second side gives b + n_a, into the
    first a + n_b."""
    return min(b + n_a, a + n_b), b + n_a <= a + n_b


def _cograph_fold(cotree):
    """cograph_orient's fold, children first: (leaves, shift, the root's
    max indegree, cross pairs).  A leaf's rank is its position plus the
    prefix sum of shift up to it."""
    leaves, nodes = cotree_postorder(cotree)
    shift = [0] * (len(leaves) + 1)   # rank minus leaf position
    maxin = []              # max indegree of each child of an open node
    pairs = 0
    for node, bounds in nodes:
        if isinstance(node, CotreeLeaf):
            maxin.append(0)
            continue
        k = len(bounds) - 1
        subs = maxin[len(maxin) - k:]
        del maxin[len(maxin) - k:]
        if isinstance(node, CotreeJoin) and k > 1:
            a, n_a = subs[0], bounds[1] - bounds[0]
            front, back = [], []
            for i in range(1, k):
                b, n_b = subs[i], bounds[i + 1] - bounds[i]
                pairs += n_a * n_b
                a, into_second = _join_step(a, n_a, b, n_b)
                (back if into_second else front).append(i)
                n_a += n_b
            maxin.append(a)
            at = bounds[0]
            for i in itertools.chain(reversed(front), (0,), back):
                lo, hi = bounds[i], bounds[i + 1]
                shift[lo] += at - lo
                shift[hi] -= at - lo
                at += hi - lo
        else:
            maxin.append(max(subs, default=0))
    return leaves, shift, maxin[0], pairs


def cograph_orient(g: Graph, cotree) -> Orientation:
    """Proper orientation of a cograph from its cotree, children first.

    Each join is realized as a chain over its children: the vertices of
    the children already folded in form one side, the next child the
    other, and every cross edge between them goes one way.  The fold is
    acyclic, so it is read off one vertex rank: each join lays its
    children out, the incoming child behind the folded ones when the cross
    edges go into it and in front otherwise, and every edge points to the
    endpoint laid out later.  One post-order pass gives each node's max
    indegree and layout, and one pass over the edges gives the heads.

    On a quasi-threshold cotree every join is Join((Leaf(v), rest)) and
    rest's max indegree is below |rest|, so every cross edge leaves v.  An
    indegree then counts the joins above a vertex: optimal, omega - 1.

    The cotree must have the leaves 0..n-1 and as many cross pairs as g has
    edges; PreconditionViolated otherwise.
    """
    leaves, shift, _, pairs = _cograph_fold(cotree)
    n = g.n
    if len(leaves) != n or set(leaves) != set(range(n)):
        raise PreconditionViolated("cotree leaves are not the vertices "
                                   f"0..{n - 1} of the graph")
    if pairs != g.m:
        raise PreconditionViolated(f"cotree has {pairs} cross pairs, the "
                                   f"graph {g.m} edges")
    rank = [0] * n
    for pos, (v, s) in enumerate(zip(leaves, itertools.accumulate(shift))):
        rank[v] = pos + s
    heads = [v if rank[v] > rank[u] else u for u, v in zip(g.lo, g.hi)]
    return _verified(Orientation(g, heads), "cograph_orient")


def cograph_join_orient(g1: Graph, g2: Graph, d1: Orientation,
                        d2: Orientation) -> Orientation:
    """Proper orientation of the join, sending all cross edges one way."""
    if d1.graph != g1 or d2.graph != g2:
        raise PreconditionViolated("orientations must match the given graphs")
    jg = join(g1, g2)
    _, into_second = _join_step(max_indegree(d1), g1.n,
                                max_indegree(d2), g2.n)
    heads = []
    for u, v in zip(jg.lo, jg.hi):
        if v < g1.n:
            heads.append(d1.heads[g1.edge_id(u, v)])
        elif u >= g1.n:
            heads.append(d2.heads[g2.edge_id(u - g1.n, v - g1.n)] + g1.n)
        else:
            heads.append(v if into_second else u)
    return _verified(Orientation(jg, heads), "cograph_join_orient")


# -- claw-free chordal graphs -----------------------------------------------


def claw_free_chordal_bound(g: Graph) -> int:
    """Max degree, certified <= 3*omega via a 3-clique neighborhood cover;
    the check also runs under ``python -O`` and raises ConstructionError."""
    check = chordal_peo(g)
    if check.peo is None:
        raise NotApplicable("graph is not chordal")
    if not is_claw_free(g):
        raise NotApplicable("graph has an induced claw")
    omega = check.omega
    adjset = [set(a) for a in g.adj]

    def covered(nb):
        """nb is a clique, has at most 3 vertices, or splits into 3 cliques
        by adjacency to its first non-adjacent pair u, w."""
        if g.is_clique(nb) or len(nb) <= 3:
            return True
        u, w = next((u, w) for i, u in enumerate(nb) for w in nb[i + 1:]
                    if w not in adjset[u])
        part_u = {x for x in nb if x in adjset[u] and x not in adjset[w]}
        part_w = {x for x in nb if x in adjset[w] and x not in adjset[u]}
        rest = set(nb) - {u, w} - part_u - part_w
        return all(g.is_clique(sorted(c))
                   for c in (part_u | {u}, part_w | {w}, rest) if c)

    if g.max_degree() > 3 * omega or not all(covered(nb) for nb in g.adj):
        raise ConstructionError("claw_free_chordal_bound could not certify "
                                "max degree <= 3*omega")
    return g.max_degree()


# -- the class table ---------------------------------------------------------


class OrientClass(NamedTuple):
    """One constructive result: a class, its recognizer, its constructor,
    and the bound ``orient`` reports.

    recognize(g, c) returns a certificate, or None when g is not in the
    class; only the degree condition reads c, its threshold (None picks the
    least that holds).  orient(g, certificate) returns the orientation and
    bound(certificate, orientation) the bound.  Quasi-threshold and cograph
    read the orientation: its max indegree is the optimum omega - 1 on a
    quasi-threshold graph and cograph_upper_bound on a cograph.
    """

    name: str
    recognize: Callable
    orient: Callable
    bound: Callable


def _uniform_blocks(g: Graph, c=None):
    """(block-cut tree, k) when g is a connected k-uniform block graph with
    k >= 3, else None.  Such a graph has 2m = k(n - 1), so the counts rule
    most graphs out before the block-cut tree is built.  The count also
    makes g connected once its b blocks are k-cliques: b(k - 1) = n - 1."""
    twice_m, rest = 2 * g.m, g.n - 1
    if rest < 1 or twice_m % rest or twice_m < 3 * rest:
        return None
    bct, k = block_cut_tree(g), twice_m // rest
    return (bct, k) if is_k_uniform(bct, k) else None


def _two_cut_blocks(g: Graph, c=None):
    """As _uniform_blocks, when no block has more than two cut vertices."""
    got = _uniform_blocks(g)
    return got if got and max_cut_vertices_per_block(got[0]) <= 2 else None


def _degree_threshold(g: Graph, c):
    """c, or when None the least c >= 1 with no edge between two vertices
    of degree above c."""
    if c is not None:
        return c
    deg = g.degrees()
    worst = max((min(deg[u], deg[v]) for u, v in zip(g.lo, g.hi)),
                default=0)
    return max(worst, 1)


# in the order orient --class auto tries them
ORIENT_CLASSES = (
    OrientClass("quasi-threshold", lambda g, c: quasi_threshold_cotree(g),
                cograph_orient, lambda cotree, d: max_indegree(d)),
    OrientClass("split", lambda g, c: split_partition(g), split_orient,
                lambda part, d: max(2 * len(part.clique) - 2, 0)),
    OrientClass("two-cut-block", _two_cut_blocks,
                lambda g, bk: _orient_two_cut(g, *bk),
                lambda bk, d: bk[1] + 1),
    OrientClass("uniform-block", _uniform_blocks,
                lambda g, bk: _orient_uniform(g, *bk),
                lambda bk, d: 3 * bk[1] - 2),
    OrientClass("outerplanar-strip", lambda g, c: outerplanar_strip(g),
                _orient_strip, lambda strip, d: 13),
    OrientClass("cograph", lambda g, c: cograph_cotree(g).cotree,
                cograph_orient, lambda cotree, d: max_indegree(d)),
    OrientClass("low-degree", _degree_threshold, low_degree_orient,
                lambda c, d: c),
)
