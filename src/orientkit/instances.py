"""Instance generators: forcing gadgets, the vertex-cover reduction,
kernelizers, tight examples, and seeded random class instances.

The ladder gadget pins the indegrees of a distinguished clique (spine) to
0..k in every proper k-orientation; the head gadget uses it to forbid one
indegree value at a host vertex; the double-clique gadget forces its
shared vertex to be a source at the tight orientation bound.  The
reduction composes these around a split graph encoding of vertex cover.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from dataclasses import dataclass, field

from .errors import (BadK, BadParams, ConstructionError, NotACover,
                     NotCobipartite, NotCubic, NotSplit)
from .exact import clique_number
from .graph import Graph
from .orientation import Orientation, _verified
from .recognize import split_partition, twin_partition


@dataclass
class GadgetMeta:
    kind: str                      # "S", "F", or "Z"
    params: dict
    spine: tuple = ()              # forced-indegree clique, indegrees 0..k
    head: int | None = None        # head vertex of an F gadget
    shared: int | None = None      # shared vertex of a Z gadget


def ladder_gadget(k: int):
    """Gadget whose spine vertices are forced to indegrees 0..k.

    Structure: a (k+1)-clique spine v_0..v_k; for each j < k a side clique
    of size k+1-j meeting the rest only at v_j; and edges from v_j to every
    side clique with larger index.  Vertex count (k+1) + k(k+1)/2.
    """
    if k < 0:
        raise BadParams("k must be non-negative")
    spine = tuple(range(k + 1))
    meta = GadgetMeta("S", {"k": k}, spine=spine)
    extras = _ladder_extras(meta)
    edges = set(itertools.combinations(spine, 2))
    for j, side in enumerate(extras):
        edges.update(itertools.combinations((j, *side), 2))
        edges.update((j, x) for later in extras[j + 1:] for x in later)
    return Graph((k + 1) * (k + 2) // 2, edges), meta


def _ladder_arcs(meta: GadgetMeta, extras):
    """Canonical proper k-orientation arcs: spine transitive, spine[0..j]
    into side j, side j transitive."""
    spine = meta.spine
    arcs = list(itertools.combinations(spine, 2))
    for j, side in enumerate(extras):
        arcs += [(a, x) for a in spine[:j + 1] for x in side]
        arcs += itertools.combinations(side, 2)
    return arcs


def _ladder_extras(meta: GadgetMeta):
    k = meta.params["k"]
    base = meta.spine[-1] + 1
    extras = []
    for j in range(k):
        extras.append(list(range(base, base + k - j)))
        base += k - j
    return extras


def head_gadget(i: int, k: int):
    """Ladder gadget plus a head adjacent to spine vertices 1..i-1.

    Pendant at a host vertex u (single edge u-head), it forces the head to
    indegree i with the host edge absorbed, forbidding indegree i at u.
    """
    if not 2 <= i <= k:
        raise BadParams(f"need 2 <= i <= k, got i={i}, k={k}")
    g, meta = ladder_gadget(k)
    head = g.n
    edges = itertools.chain(zip(g.lo, g.hi),
                            ((meta.spine[j], head) for j in range(1, i)))
    out = Graph(g.n + 1, edges)
    return out, GadgetMeta("F", {"i": i, "k": k}, spine=meta.spine, head=head)


def double_clique_gadget(size: int):
    """Two cliques of the given size sharing one vertex (the shared vertex)."""
    if size < 2:
        raise BadParams("clique size must be at least 2")
    a = list(range(size))
    b = [0] + list(range(size, 2 * size - 1))
    edges = set()
    for blk in (a, b):
        for x, y in itertools.combinations(blk, 2):
            edges.add((min(x, y), max(x, y)))
    g = Graph(2 * size - 1, edges)
    return g, GadgetMeta("Z", {"size": size}, shared=0)


# -- vertex cover reduction ------------------------------------------------


@dataclass
class ReductionOutput:
    graph: Graph
    k_prime: int
    clique_vertices: tuple        # images of the cubic graph's vertices
    independent_vertices: tuple   # one per original edge
    iset_edge: dict               # independent vertex -> original edge
    pendants: list = field(default_factory=list)  # (host, GadgetMeta)
    zgadgets: list = field(default_factory=list)  # (host, GadgetMeta)


class _Builder:
    """Edge columns of the reduction under construction: edge e is
    (lo[e], hi[e]), lo[e] < hi[e].  Each gadget shape is built once per
    builder, as a template that paste copies onto fresh ids."""

    def __init__(self, n):
        self.n = n
        self.lo, self.hi = [], []
        self.templates = {}

    def template(self, make, *args):
        key = (make, args)
        if key not in self.templates:
            self.templates[key] = make(*args)
        return self.templates[key]

    def paste(self, local: Graph, host, port):
        """Copy local onto the next local.n ids and join its vertex port to
        host; returns the id that local's vertex 0 received."""
        base = self.n
        self.n += local.n
        # one int object per new id, shared by all of its edges
        ids = list(range(base, self.n))
        self.lo += [ids[u] for u in local.lo]
        self.hi += [ids[v] for v in local.hi]
        self.add(host, ids[port])
        return base

    def add(self, u, v):
        """Edge (u, v) with u < v; a host is below every id pasted after
        it, so paste's edges to hosts qualify."""
        self.lo.append(u)
        self.hi.append(v)

    def graph(self):
        return Graph._of_columns(self.n, self.lo, self.hi)


def _attach_head_gadget(b: _Builder, host, i, k):
    local, meta = b.template(head_gadget, i, k)
    base = b.paste(local, host, meta.head)
    return GadgetMeta("F", dict(meta.params),
                      spine=tuple(base + x for x in meta.spine),
                      head=base + meta.head)


def _attach_double_clique(b: _Builder, host, size):
    local, meta = b.template(double_clique_gadget, size)
    base = b.paste(local, host, meta.shared)
    return GadgetMeta("Z", dict(meta.params), shared=base + meta.shared)


def reduce_vertex_cover(g: Graph, k: int) -> ReductionOutput:
    """Vertex-cover-to-proper-orientation reduction for cubic graphs.

    Produces a chordal graph together with k' = n + 2 such that the input
    has a vertex cover of size k exactly when the output admits a proper
    k'-orientation.  The paper states diameter at most 9; this construction
    measures 11 (a side-clique vertex sits 4 hops from its host, and two
    hosts can be 3 apart).  The head gadgets take i = k - 1 and k + 1,
    which must lie in 2..k', so BadK unless 3 <= k <= n + 1.
    """
    if any(d != 3 for d in g.degrees()):
        raise NotCubic("every vertex must have degree 3")
    if not g.is_connected():
        raise NotCubic("input must be connected")
    n = g.n
    if not 3 <= k <= n + 1:
        raise BadK(f"cover budget must satisfy 3 <= k <= n + 1 = {n + 1}, "
                   f"got k={k}")
    kp = n + 2
    b = _Builder(n + g.m)
    clique = tuple(range(n))
    iset = tuple(range(n, n + g.m))
    iset_edge = {}
    for u, v in itertools.combinations(clique, 2):
        b.add(u, v)
    for ev, u, v in zip(iset, g.lo, g.hi):
        iset_edge[ev] = (u, v)
        b.add(u, ev)
        b.add(v, ev)
    pendants = []
    for v in clique:
        for i in (k, k + 1):
            pendants.append((v, _attach_head_gadget(b, v, i, kp)))
    zgadgets = []
    for ev in iset:
        pendants.append((ev, _attach_head_gadget(b, ev, k - 1, kp)))
        for _ in range(k - 1):
            zgadgets.append((ev, _attach_double_clique(b, ev, kp)))
    return ReductionOutput(b.graph(), kp, clique, iset, iset_edge,
                           pendants, zgadgets)


def build_vc_certificate(red: ReductionOutput, cover) -> Orientation:
    """Proper k'-orientation of the reduction output from a vertex cover."""
    cover = set(cover)
    if not cover <= set(red.clique_vertices):
        raise NotACover("cover must name original vertices")
    # the smaller head parameter attached to clique vertices is the budget k
    k = min(meta.params["i"] for host, meta in red.pendants
            if host in red.clique_vertices)
    for ev, (u, v) in red.iset_edge.items():
        if u not in cover and v not in cover:
            raise NotACover(f"edge {(u, v)} is uncovered")
    if len(cover) > k:
        raise NotACover(f"cover has {len(cover)} > {k} vertices")
    for v in red.clique_vertices:
        if len(cover) == k:
            break
        if v not in cover:
            cover.add(v)
    arcs = []
    for host, meta in red.pendants:
        extras = _ladder_extras(meta)
        arcs.extend(_ladder_arcs(meta, extras))
        for j in range(1, meta.params["i"]):
            arcs.append((meta.spine[j], meta.head))
        arcs.append((host, meta.head))
    for host, meta in red.zgadgets:
        s, size = meta.shared, meta.params["size"]
        for block in (range(s + 1, s + size),
                      range(s + size, s + 2 * size - 1)):
            arcs += itertools.combinations((s, *block), 2)
        arcs.append((s, host))
    # the original clique is one transitive order: the cover, then the rest
    arcs += itertools.combinations(
        sorted(cover) + [v for v in red.clique_vertices if v not in cover], 2)
    for ev, (u, v) in red.iset_edge.items():
        for w in (u, v):
            if w in cover:
                arcs.append((w, ev))
            else:
                arcs.append((ev, w))
    return _verified(Orientation.from_arcs(red.graph, arcs),
                     "build_vc_certificate", red.k_prime)


# -- kernels ----------------------------------------------------------------


def split_kernel(g: Graph, k: int):
    """Twin-class truncation kernel for split graphs; preserves the answer."""
    if k < 0:
        raise BadK("k must be non-negative")
    part = split_partition(g)
    if part is None:
        raise NotSplit("input is not a split graph")
    omega = len(part.clique)
    if omega >= k + 2:
        return Graph.complete(k + 2), k
    m_cap = k * omega - omega * (omega - 1) // 2
    classes = twin_partition(g, part.independent)
    keep = set(part.clique)
    dropped = False
    for members in classes:
        kept = list(members)[:m_cap + 1]
        if len(kept) < len(members):
            dropped = True
        keep.update(kept)
    if not dropped:
        return g, k
    sub, _ = g.induced(sorted(keep))
    return sub, k


def cobipartite_kernel(g: Graph, k: int):
    """Either the trivial No instance K_{k+2} or the input (already linear)."""
    if k < 0:
        raise BadK("k must be non-negative")
    comp = g.complement()
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            x = stack.pop()
            for y in comp.adj[x]:
                if color[y] < 0:
                    color[y] = 1 - color[x]
                    stack.append(y)
                elif color[y] == color[x]:
                    raise NotCobipartite("complement is not bipartite")
    if clique_number(g) >= k + 2:
        return Graph.complete(k + 2), k
    # both sides are cliques of at most k + 1 vertices
    if g.n > 2 * (k + 1):
        raise ConstructionError(f"a cobipartite graph with clique number "
                                f"below {k + 2} has {g.n} vertices")
    return g, k


# -- tight examples ----------------------------------------------------------


def split_tight_example(omega: int) -> Graph:
    """Split graph with clique number omega meeting the 2*omega-2 bound.

    A clique of size omega plus, for every size s < omega, omega*(omega-1)
    copies of an independent family with one vertex per s-subset of the
    clique.
    """
    if omega < 2:
        raise BadParams("omega must be at least 2")
    clique = list(range(omega))
    edges = list(itertools.combinations(clique, 2))
    nxt = omega
    for s in range(1, omega):
        for _ in range(omega * (omega - 1)):
            for subset in itertools.combinations(clique, s):
                for w in subset:
                    edges.append((w, nxt))
                nxt += 1
    return Graph(nxt, edges)


def block_tight_example(k: int) -> Graph:
    """k-uniform block graph, two cut vertices per block, needing k+1.

    A base clique with two distinguished vertices, k+1 pendant cliques on
    each, and one more pendant clique hanging from each non-base pendant.
    """
    if k < 2:
        raise BadParams("k must be at least 2")
    edges = list(itertools.combinations(range(k), 2))
    nxt = k

    def attach(at):
        nonlocal nxt
        fresh = list(range(nxt, nxt + k - 1))
        nxt += k - 1
        blk = [at] + fresh
        edges.extend((min(a, b), max(a, b))
                     for a, b in itertools.combinations(blk, 2))
        return fresh

    for w in (0, 1):
        for i in range(k + 1):
            fresh = attach(w)
            if i >= 1:
                attach(fresh[0])
    return Graph(nxt, edges)


# -- seeded random instances --------------------------------------------------


RANDOM_CLASSES = ("split", "quasi-threshold", "cograph", "uniform-block",
                  "two-cut-block", "strip")


def random_class_instance(kind: str, size: int, seed: int, k: int = 3) -> Graph:
    """Deterministic seeded generator for one of the supported classes.

    size means vertices for split/quasi-threshold/cograph, blocks for the
    block-graph kinds, and triangles for strips.
    """
    if size < 0:
        raise BadParams("size must be non-negative")
    rng = random.Random(seed)
    if kind == "split":
        return _random_split(rng, size)
    if kind == "quasi-threshold":
        return _random_cotree_graph(rng, size, single_vertex_joins=True)
    if kind == "cograph":
        return _random_cotree_graph(rng, size, single_vertex_joins=False)
    if kind == "uniform-block":
        return _random_uniform_block(rng, size, k, two_cut=False)
    if kind == "two-cut-block":
        return _random_uniform_block(rng, size, k, two_cut=True)
    if kind == "strip":
        return _random_strip(rng, size)
    raise BadParams(f"unknown class {kind!r}")


def _random_split(rng, n):
    omega = rng.randint(2, max(2, min(n - 1, 5))) if n >= 3 else 2
    omega = min(omega, n)
    edges = list(itertools.combinations(range(omega), 2))
    for v in range(omega, n):
        deg = rng.randint(1, omega - 1)
        for w in rng.sample(range(omega), deg):
            edges.append((w, v))
    return Graph(n, edges)


def _random_cotree_graph(rng, n, single_vertex_joins):
    # the recursion is a module-level function, not a closure: a closure
    # that calls itself is a reference cycle, which would keep the unsorted
    # columns alive until the next cycle collection
    ids, lo, hi = list(range(n)), [], []
    _random_cotree_edges(rng, single_vertex_joins, ids, 0, n, lo, hi)
    return Graph._of_columns(n, lo, hi)


def _random_cotree_edges(rng, single_vertex_joins, ids, base, sz, lo, hi):
    """Append to the columns lo, hi the edges of a random cotree graph on
    ids[base:base + sz]."""
    if sz <= 1:
        return
    if single_vertex_joins and rng.random() < 0.6:
        _random_cotree_edges(rng, single_vertex_joins, ids, base + 1, sz - 1,
                             lo, hi)
        a, joined = 1, True
    else:
        a = rng.randint(1, sz - 1)
        _random_cotree_edges(rng, single_vertex_joins, ids, base, a, lo, hi)
        _random_cotree_edges(rng, single_vertex_joins, ids, base + a, sz - a,
                             lo, hi)
        joined = not single_vertex_joins and rng.random() < 0.5
    if joined:
        later = ids[base + a:base + sz]
        for u in ids[base:base + a]:
            lo += itertools.repeat(u, len(later))
            hi += later


def _random_uniform_block(rng, blocks, k, two_cut):
    if k < 2 or blocks < 1:
        raise BadParams("need k >= 2 and at least one block")
    edges = list(itertools.combinations(range(k), 2))
    nxt = k
    # Each new block hangs from a vertex picked uniformly from `eligible`,
    # which stays sorted: every cut vertex, and every other vertex unless
    # two_cut holds and its block (home[v]) already has two cut vertices.
    eligible = list(range(k))
    home = [0] * k
    cuts = [0]  # cut vertices per block
    is_cut = bytearray(k)
    for _ in range(blocks - 1):
        at = rng.choice(eligible)
        fresh = range(nxt, nxt + k - 1)
        blk = [at, *fresh]
        edges.extend(itertools.combinations(blk, 2))
        if not is_cut[at]:
            is_cut[at] = 1
            b = home[at]
            cuts[b] += 1
            if two_cut and cuts[b] == 2:
                # a block's vertices other than the one it hangs from are
                # consecutive ids; drop those that are not cut vertices
                lo = bisect_left(eligible, k + (b - 1) * (k - 1) if b else 0)
                hi = bisect_left(eligible, k + b * (k - 1))
                eligible[lo:hi] = [v for v in eligible[lo:hi] if is_cut[v]]
        eligible.extend(fresh)
        home.extend([len(cuts)] * (k - 1))
        cuts.append(1)
        is_cut.extend(bytes(k - 1))
        nxt += k - 1
    return Graph(nxt, edges)


def _random_strip(rng, triangles):
    if triangles < 1:
        raise BadParams("need at least one triangle")
    edges = [(0, 1), (0, 2), (1, 2)]
    free = (1, 2)  # edge of the last triangle available for stacking
    other = (0, 1)
    nxt = 3
    for _ in range(triangles - 1):
        base = free if rng.random() < 0.8 else other
        a, b = base
        edges.append((min(a, nxt), max(a, nxt)))
        edges.append((min(b, nxt), max(b, nxt)))
        free = (a, nxt)
        other = (b, nxt)
        nxt += 1
    return Graph(nxt, edges)
