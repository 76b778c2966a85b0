"""Brute-force reference implementations, independent of the library's
search and recognizer code paths.  Only feasible for tiny inputs."""

import bisect
import itertools
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

# the clique orders and feasibility rules that choose each piece's layout
from orientkit.construct import (_clique_order, _end_feasible,
                                 _feasible_split, _mid_choices,
                                 _piece_feasible, _transitive,
                                 path_block_sequence)
from orientkit.errors import (BadCompensation, BadShape, BudgetExceeded,
                              ConstructionError)
from orientkit.graph import Graph, disjoint_union
from orientkit.instances import (GadgetMeta, ReductionOutput,
                                 block_tight_example, double_clique_gadget,
                                 head_gadget, random_class_instance)
from orientkit.orientation import (CompensationSpec, PartialOrientation,
                                   is_compensated_proper, max_indegree)
from orientkit.recognize import (CotreeJoin, CotreeLeaf, CotreeUnion,
                                 StripDecomposition, block_cut_tree)


def all_orientation_indegrees(g):
    """Indegree vectors of all 2^m orientations, with properness flags."""
    out = []
    for bits in itertools.product((False, True), repeat=g.m):
        indeg = [0] * g.n
        for (u, v), b in zip(g.edges, bits):
            indeg[v if b else u] += 1
        proper = all(indeg[u] != indeg[v] for u, v in g.edges)
        out.append((tuple(indeg), proper))
    return out


def brute_feasible(g, k):
    return any(proper and max(indeg, default=0) <= k
               for indeg, proper in all_orientation_indegrees(g))


def brute_count(g, k):
    return sum(1 for indeg, proper in all_orientation_indegrees(g)
               if proper and max(indeg, default=0) <= k)


def brute_orientation_number(g):
    best = None
    for indeg, proper in all_orientation_indegrees(g):
        if proper:
            worst = max(indeg, default=0)
            best = worst if best is None else min(best, worst)
    return best


def brute_clique_number(g):
    best = 0
    for r in range(g.n, 0, -1):
        for comb in itertools.combinations(range(g.n), r):
            if g.is_clique(comb):
                return r
    return best


def brute_has_chordless_cycle(g):
    """Exhaustive search for a chordless cycle of length >= 4."""
    adj = [set(a) for a in g.adj]
    for length in range(4, g.n + 1):
        for verts in itertools.permutations(range(g.n), length):
            if verts[0] != min(verts):
                continue
            cyc = list(verts)
            ok_cycle = all(cyc[(i + 1) % length] in adj[cyc[i]]
                           for i in range(length))
            if not ok_cycle:
                continue
            chords = any(cyc[j] in adj[cyc[i]]
                         for i in range(length) for j in range(i + 2, length)
                         if not (i == 0 and j == length - 1))
            if not chords:
                return True
    return False


def lex_bfs_oracle(g):
    """Lexicographic BFS visit order (ties broken by smallest vertex id),
    taking each front vertex with min() over its whole class."""
    n = g.n
    if n == 0:
        return []
    cls_of = [0] * n
    classes = {0: set(range(n))}
    seq = [0]
    next_id = 1
    visited = [False] * n
    order = []
    while seq:
        cid = seq[0]
        bucket = classes[cid]
        v = min(bucket)
        bucket.discard(v)
        if not bucket:
            del classes[cid]
            seq.pop(0)
        visited[v] = True
        order.append(v)
        moved = {}
        for w in g.adj[v]:
            if not visited[w]:
                moved.setdefault(cls_of[w], []).append(w)
        for bcid, members in moved.items():
            src = classes.get(bcid)
            if src is None or len(members) == len(src):
                continue  # whole class is adjacent: its position is unchanged
            nid = next_id
            next_id += 1
            classes[nid] = set(members)
            for w in members:
                src.discard(w)
                cls_of[w] = nid
            seq.insert(seq.index(bcid), nid)
    return order


def brute_is_split(g):
    """Exhaustive partition check: some subset is a clique with stable rest."""
    verts = range(g.n)
    for r in range(g.n + 1):
        for comb in itertools.combinations(verts, r):
            kset = set(comb)
            rest = [v for v in verts if v not in kset]
            if not g.is_clique(comb):
                continue
            if all(not g.has_edge(u, v) for i, u in enumerate(rest)
                   for v in rest[i + 1:]):
                return True
    return False


def brute_is_quasi_threshold(g, verts=None):
    """Exhaustive decomposition attempt: unions and single-vertex joins."""
    if verts is None:
        verts = list(range(g.n))
    if len(verts) <= 1:
        return True
    sub, old = g.induced(verts)
    comps = sub.connected_components()
    if len(comps) > 1:
        return all(brute_is_quasi_threshold(g, [old[v] for v in comp])
                   for comp in comps)
    for v in range(sub.n):
        if sub.degree(v) == sub.n - 1:
            if brute_is_quasi_threshold(g, [old[w] for w in range(sub.n)
                                            if w != v]):
                return True
    return False


def quasi_threshold_cotree_oracle(g):
    """Reference quasi-threshold cotree: recursive split into components
    and the smallest universal vertex, over induced copies."""

    def build(verts):
        if len(verts) == 1:
            return CotreeLeaf(verts[0])
        sub, old = g.induced(verts)
        comps = sub.connected_components()
        if len(comps) > 1:
            children = []
            for comp in comps:
                ch = build([old[v] for v in comp])
                if ch is None:
                    return None
                children.append(ch)
            return CotreeUnion(tuple(children))
        universal = [old[v] for v in range(sub.n) if sub.degree(v) == sub.n - 1]
        if not universal:
            return None
        v = min(universal)
        rest = build([w for w in verts if w != v])
        if rest is None:
            return None
        return CotreeJoin((CotreeLeaf(v), rest))

    if g.n == 0:
        return CotreeUnion(())
    return build(list(range(g.n)))


def cograph_cotree_oracle(g):
    """Reference cograph cotree, or None: recursive split into components,
    then into co-components of the complement, over induced copies."""

    def build(verts):
        if len(verts) == 1:
            return CotreeLeaf(verts[0])
        sub, old = g.induced(verts)
        comps = sub.connected_components()
        kind = CotreeUnion
        if len(comps) == 1:
            comps = sub.complement().connected_components()
            kind = CotreeJoin
            if len(comps) == 1:
                return None
        children = []
        for comp in comps:
            ch = build([old[v] for v in comp])
            if ch is None:
                return None
            children.append(ch)
        return kind(tuple(children))

    if g.n == 0:
        return CotreeUnion(())
    return build(list(range(g.n)))


def find_induced_p4_oracle(g):
    """Vertices (a, b, c, d) of an induced path, or None: every edge (b, c)
    against both endpoints' neighbour lists."""
    adjset = [set(x) for x in g.adj]
    for b, c in zip(g.lo, g.hi):
        for b_, c_ in ((b, c), (c, b)):
            for a in g.adj[b_]:
                if a == c_ or a in adjset[c_]:
                    continue
                for d in g.adj[c_]:
                    if d == b_ or d == a or d in adjset[b_] or d in adjset[a]:
                        continue
                    return (a, b_, c_, d)
    return None


def random_gnp(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def threshold_graph(n):
    """Vertices alternately isolated and dominating: a cotree of depth ~n
    and a clique of n // 2 + 1 vertices."""
    return Graph(n, [(u, v) for v in range(1, n, 2) for u in range(v)])


def relabeled(g, seed):
    """An isomorphic copy of g under a seeded random vertex permutation."""
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabeled(perm)


def graph_init_oracle(n, edges):
    """(edges, adj) of Graph(n, edges), sorting every input and scanning it
    for duplicates pair by pair, with the library's errors: range, then
    loop, edge by edge in input order; then the first duplicate in sorted
    order."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    adj = [[] for _ in range(n)]
    canon = []
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        canon.append((u, v) if u < v else (v, u))
    canon.sort()
    for e, f in itertools.pairwise(canon):
        if e == f:
            raise ValueError(f"duplicate edge {e}")
    for u, v in canon:
        adj[u].append(v)
        adj[v].append(u)
    return canon, adj


def eager_adjacency_oracle(g):
    """(adj, off) as Graph built them eagerly from its ascending columns:
    each vertex's sorted neighbour list, and the offsets that make
    off[u] + bisect_left(adj[u], v) the id of edge (u, v), u < v."""
    ids = list(range(g.n))
    adj = [[] for _ in ids]
    for u, v in zip(g.lo, g.hi):
        adj[u].append(v)
        adj[v].append(u)
    below = list(map(bisect.bisect_left, adj, ids))
    above = [len(a) - b for a, b in zip(adj, below)]
    return adj, [s - b for s, b in zip(itertools.accumulate(above, initial=0),
                                       below)]


def parse_pairs_oracle(text, what, header=None):
    """parse_pairs on the whole text at once: one token list, and one int()
    pass over the whole body on any miss in the id table."""
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    toks = text.split()
    if len(toks) < 2:
        raise ValueError(f"{what} text needs a header 'n m'")
    n, m = int(toks[0]), int(toks[1])
    if header is not None and (n, m) != header:
        raise ValueError(f"{what} header ({n},{m}) does not match graph "
                         f"({header[0]},{header[1]})")
    if len(toks) - 2 != 2 * m:
        raise ValueError(f"expected {2 * m} endpoint tokens, "
                         f"got {len(toks) - 2}")
    table = {s: i for i, s in enumerate(map(str, range(min(n, 2 * m))))}
    body = toks[2:]
    try:
        firsts = list(map(table.__getitem__, body[0::2]))
        seconds = list(map(table.__getitem__, body[1::2]))
    except KeyError:
        ints = list(map(int, body))
        firsts, seconds = ints[0::2], ints[1::2]
    return n, m, firsts, seconds


CLASS_KINDS = ("split", "quasi-threshold", "cograph", "uniform-block",
               "two-cut-block", "strip")


def recognizer_corpus():
    """Seeded random graphs, every graph on 5 vertices with 4 or 6 edges,
    and every class instance kind at three sizes with a relabelled copy."""
    rng = random.Random(4)
    for _ in range(300):
        yield random_gnp(rng, rng.randint(0, 30), rng.uniform(0.05, 0.9))
    for m in (4, 6):
        yield from graphs_with_edges(5, m)
    for kind in CLASS_KINDS:
        for size in (5, 20, 100):
            for seed in range(3):
                g = random_class_instance(kind, size, seed)
                yield g
                yield relabeled(g, seed)


def orient_large_corpus():
    """The benchmark's orient --class auto inputs: every class instance kind
    at sizes 200 and 800 with generator seed 1, and a deep threshold graph."""
    for kind in CLASS_KINDS:
        for size in (200, 800):
            yield random_class_instance(kind, size, 1)
    yield threshold_graph(250)


def criterion_3_graphs():
    """The 80 split graphs with n <= 14 that criterion 3 solves exactly."""
    for s in range(200):
        n = 6 + (s * 7) % 35
        if n <= 14:
            yield random_class_instance("split", n, s)


def criterion_8_cobipartite_graphs():
    """(seed, graph, k) for the 50 cobipartite instances of criterion 8."""
    rng = random.Random(808)
    for seed in range(50):
        k = 2 + seed % 3
        a, b = rng.randint(1, k + 3), rng.randint(1, k + 3)
        cross = [(u, a + v) for u in range(a) for v in range(b)
                 if rng.random() < 0.5]
        g = Graph(a + b, [(u, v) for u in range(a) for v in range(u + 1, a)]
                  + [(a + u, a + v) for u in range(b) for v in range(u + 1, b)]
                  + cross)
        yield seed, g, k


def capacity_floor_oracle(g, cover, omega):
    """The least k >= omega - 1 at which the cliques of cover can hold m
    arcs, each clique's largest sum of distinct indegrees under the caps
    min(k, deg v) found by trying every injective assignment."""
    def most(clique, k):
        caps = [min(k, len(g.adj[v])) for v in clique]
        return max(sum(vals) for vals in
                   itertools.permutations(range(k + 1), len(clique))
                   if all(x <= c for x, c in zip(vals, caps)))

    k = max(omega - 1, 0)
    while sum(most(c, k) for c in cover) < g.m:
        k += 1
    return k


def random_tree(rng, n, no_adjacent_degree_at_least=None):
    """Random tree; when a threshold t is given, growth never creates two
    adjacent vertices both of degree >= t (always possible for t >= 3,
    since attaching to a leaf keeps its degree at 2)."""
    edges = []
    deg = [0] * n
    nbrs = [[] for _ in range(n)]
    for v in range(1, n):
        candidates = list(range(v))
        rng.shuffle(candidates)
        for u in candidates:
            t = no_adjacent_degree_at_least
            if t is not None and deg[u] + 1 >= t and any(
                    deg[w] >= t for w in nbrs[u]):
                continue
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
            nbrs[u].append(v)
            nbrs[v].append(u)
            break
        else:
            raise AssertionError("tree growth got stuck")
    return Graph(n, edges)


# -- split graphs -------------------------------------------------------------


def split_orient_oracle(g, part):
    """Reference (2*omega - 2)-orientation of a split graph: the candidates'
    ranks come from repeated linear scans for the vertex with the most
    unoriented edges left, ties to the smallest id."""
    kv = sorted(part.clique)
    iv = frozenset(part.independent)
    omega = len(kv)
    bound = max(2 * omega - 2, 0)
    p = PartialOrientation(g)
    heavy = [v for v in kv if g.degree(v) >= bound]
    h = len(heavy)
    light = [v for v in kv if v not in set(heavy)]
    picked = {v: [w for w in g.adj[v] if w in iv][:omega - 1] for v in heavy}
    for v in heavy:
        for u in light:
            p.orient(u, v, v)
    for i, v in enumerate(heavy):
        if i == 0:
            continue
        for w in picked[v]:
            p.orient(v, w, v)
        for j in range(i):
            p.orient(heavy[j], v, v)
    if h == omega and h > 0:
        for u, v in g.edges:
            if not p.is_oriented(u, v):
                p.orient(u, v, v if v in iv else u)
        return p.to_orientation()
    if h > 0:
        for w in picked[heavy[0]]:
            p.orient(w, heavy[0], heavy[0])
    heavyset = set(heavy)
    pend = [0] * g.n
    for u, v in g.edges:
        if not p.is_oriented(u, v):
            pend[u] += 1
            pend[v] += 1
    candidates = [v for v in range(g.n) if v not in heavyset]
    rank = {}
    alive = set(candidates)
    for r in range(len(candidates), 0, -1):
        pick = max(alive, key=lambda v: (pend[v], -v))
        rank[pick] = r
        alive.discard(pick)
        for w in g.adj[pick]:
            if not p.is_oriented(pick, w) and w in alive:
                pend[w] -= 1
    for u, v in g.edges:
        if p.is_oriented(u, v):
            continue
        if u in heavyset:
            p.orient(u, v, v)
        elif v in heavyset:
            p.orient(u, v, u)
        else:
            p.orient(u, v, v if rank[v] > rank[u] else u)
    return p.to_orientation()


# -- the recursive 3k-2 construction for k-uniform block graphs ---------------


def subtree_vertices(rooted, block_index):
    """All graph vertices in blocks of the rooted block-cut subtree at
    block_index."""
    out = set()
    stack = [block_index]
    while stack:
        bi = stack.pop()
        out.update(rooted.bct.blocks[bi])
        for v in rooted.block_children_cuts[bi]:
            stack.extend(rooted.cut_children_blocks[v])
    return out


def copy_partial(p):
    """An independent copy of the PartialOrientation p."""
    q = PartialOrientation(p.graph)
    q.heads = list(p.heads)
    q.indegree = list(p.indegree)
    q.unoriented = p.unoriented
    return q


def extend_partial_oracle(g, s):
    """Reference greedy extension from an edgeless set S (ds = {}): a
    linear scan for the vertex maximizing indegree + unoriented edges."""
    sset = frozenset(s)
    p = PartialOrientation(g)
    for v in sorted(sset):
        for w in g.adj[v]:
            if w not in sset:
                p.orient(v, w, w)
    pending = [0] * g.n
    for (u, v) in g.edges:
        if u not in sset and v not in sset:
            pending[u] += 1
            pending[v] += 1
    live = [v for v in range(g.n) if pending[v]]
    while live:
        pick = max(live, key=lambda v: (p.indegree[v] + pending[v], -v))
        for w in g.adj[pick]:
            if w not in sset and not p.is_oriented(pick, w):
                p.orient(pick, w, pick)
                pending[w] -= 1
        pending[pick] = 0
        live = [v for v in live if pending[v]]
    return p.to_orientation()


# -- uniform-block pieces on graphs of their own, as before they were ----------
# -- oriented in place on the host's ids ----------------------------------------


@dataclass
class PieceShape:
    """Structure of a path-of-cliques piece around its attachment vertex."""

    graph: Graph
    old_ids: list
    blocks: list        # local vertex tuples in path order
    target: int         # local id of the attachment vertex
    target_index: int   # position of the target's block on the path

    @property
    def k(self):
        return len(self.blocks[0])

    def is_end(self):
        return self.target_index in (0, len(self.blocks) - 1)

    def side_sizes(self):
        return self.target_index, len(self.blocks) - 1 - self.target_index


def _clique_union(cliques):
    """The graph of a union of cliques on ids of its own: (graph, the old id
    of each new id in increasing order, each clique as a sorted tuple of new
    ids).  Cliques of a block graph give the subgraph they induce."""
    old = sorted({v for c in cliques for v in c})
    pos = {v: i for i, v in enumerate(old)}
    local = [tuple(pos[v] for v in sorted(c)) for c in cliques]
    edges = {e for c in local for e in itertools.combinations(c, 2)}
    return Graph(len(old), edges), old, local


def _piece_shape(cliques, target_index, target):
    """The piece made of cliques in path order, attached at target, a vertex
    of cliques[target_index] alone."""
    graph, old, blocks = _clique_union(cliques)
    return PieceShape(graph, old, blocks, bisect.bisect_left(old, target),
                      target_index)


def _copy_arcs(p, old_ids, d_sub):
    """Orient in p the edges of d_sub's graph as d_sub does; old_ids maps
    that graph's vertex ids to p's."""
    for (lu, lv), h in zip(d_sub.graph.edges, d_sub.heads):
        p.orient(old_ids[lu], old_ids[lv], old_ids[h])


def _orient_compensated(shape, c, d):
    """Orientation of the piece with indegree d at the target, proper under
    color c, max indegree <= max(c, 2k-2).  Caller checks feasibility."""
    g, k = shape.graph, shape.k
    blocks = shape.blocks
    if shape.is_end():
        if shape.target_index == 0:
            blocks = list(reversed(blocks))
        return _checked_compensated(
            shape, c, d, _orient_end(g, k, blocks, shape.target, c, d))
    ql, qr = shape.side_sizes()
    choice = next(_mid_choices(k, ql, qr, c, d), None)
    if choice is None:
        raise ConstructionError(f"no compensated extension for (c={c}, d={d})")
    alpha, beta, cx, cy = choice
    bi = shape.target_index
    block = blocks[bi]
    x = (set(block) & set(blocks[bi - 1])).pop()
    y = (set(block) & set(blocks[bi + 1])).pop()
    p = PartialOrientation(g)
    _transitive(p, _clique_order(block, {shape.target: d, x: alpha, y: beta}))
    for side, tgt, cc, dd in ((blocks[:bi], x, cx, cx - alpha),
                              (blocks[:bi:-1], y, cy, cy - beta)):
        sub, old, loc_blocks = _clique_union(side)
        _copy_arcs(p, old, _orient_end(sub, k, loc_blocks,
                                       bisect.bisect_left(old, tgt), cc, dd))
    return _checked_compensated(shape, c, d, p.to_orientation())


def _checked_compensated(shape, c, d, out):
    """out, once verified: indegree d at the target, proper when the target
    is recolored c, and max indegree at most max(c, 2k-2)."""
    bound = max(c, 2 * shape.k - 2)
    if max_indegree(out) > bound:
        why = f"exceeds indegree {bound}"
    elif not is_compensated_proper(out, CompensationSpec(shape.target, c, d)):
        why = "breaks its stated property"
    else:
        return out
    raise ConstructionError(f"the piece for (c={c}, d={d}) built an "
                            f"orientation that {why}")


def _orient_end(g, k, blocks, target, c, d):
    """blocks in path order with the target in the last clique."""
    q = len(blocks)
    if not _end_feasible(q, k, c, d):
        raise ConstructionError(f"no end piece for (q={q}, k={k}, c={c}, d={d})")
    last = blocks[-1]
    p = PartialOrientation(g)
    if q == 1:
        _transitive(p, _clique_order(last, {target: d}))
        return p.to_orientation()
    connector = (set(last) & set(blocks[-2])).pop()
    sub, old, loc_blocks = _clique_union(blocks[:-1])
    loc_connector = bisect.bisect_left(old, connector)
    if d >= 1:
        d_inner = extend_partial_oracle(sub, {loc_connector})
        _transitive(p, _clique_order(last, {connector: 0, target: d}))
    else:
        c_sub = 2 * k - 2 if c != 2 * k - 2 else 2 * k - 3
        d_inner = _orient_end(sub, k, loc_blocks, loc_connector, c_sub, k - 1)
        conn_pos = k - 1 if c != 2 * k - 2 else k - 2
        _transitive(p, _clique_order(last, {target: 0, connector: conn_pos}))
    _copy_arcs(p, old, d_inner)
    return p.to_orientation()


def path_block_compensated_oracle(seq, u, c, d):
    """path_block_compensated on the piece's own graph, the way the library
    built it before pieces were oriented in place."""
    seq = path_block_sequence(seq.cliques)
    k = seq.k
    if k < 3:
        raise BadShape("cliques must have size at least 3")
    last = seq.cliques[-1]
    if u not in last or (len(seq.cliques) > 1 and u == seq.connectors[-1]):
        raise BadShape("u must be a non-cut vertex of the last clique")
    if not ((c > k - 1 >= d >= 0) or (c == d == k - 1)):
        raise BadCompensation(f"(c, d) = ({c}, {d}) with k = {k}")
    shape = _piece_shape(seq.cliques, len(seq.cliques) - 1, u)
    if shape.old_ids != list(range(len(shape.old_ids))):
        raise BadShape("vertex ids must be dense 0..n-1")
    return _orient_compensated(shape, c, d)


def _assign_crosspoint(p, k, u, block_verts, cut_pieces, u_pos, u_final):
    """Orient one clique plus the path pieces hanging from its cut vertices.

    cut_pieces: cut vertex -> list of PieceShape (its hanging pieces).
    u sits at position u_pos of the transitive clique; u_final is u's
    eventual global indegree.  Returns True and writes the arcs on
    success, False when no assignment exists.
    """
    cuts = sorted(cut_pieces)
    slots = sorted(set(range(k)) - {u_pos})

    def colors_for(shapes, pos):
        hi = min(pos + (k - 1) * len(shapes), 3 * k - 2)
        return range(pos, hi + 1)

    for pos_tuple in itertools.permutations(slots, len(cuts)):
        noncut = set(slots) - set(pos_tuple)
        if u_final in noncut:
            continue
        chosen = []

        def solve(i):
            if i == len(cuts):
                return True
            w = cuts[i]
            pos = pos_tuple[i]
            shapes = cut_pieces[w]
            for cw in colors_for(shapes, pos):
                if cw == u_final or cw in noncut or cw in (x[1] for x in chosen):
                    continue
                split = _feasible_split(shapes, k, cw, cw - pos)
                if split is None:
                    continue
                chosen.append((w, cw, pos, split))
                if solve(i + 1):
                    return True
                chosen.pop()
            return False

        if not solve(0):
            continue
        placed = {u: u_pos}
        for w, _, pos, _ in chosen:
            placed[w] = pos
        _transitive(p, _clique_order(block_verts, placed))
        for w, cw, _, split in chosen:
            for shape, dd in zip(cut_pieces[w], split):
                _copy_arcs(p, shape.old_ids,
                           _orient_compensated(shape, cw, dd))
        return True
    return False


def piece_shape_oracle(g, verts, target):
    """The PieceShape of the path of cliques g induces on verts, attached at
    target: the path order comes from a block-cut tree of the induced
    subgraph, walked from the end block that sorts first."""
    from orientkit.recognize import block_cut_tree

    sub, old = g.induced(verts)
    pos = {v: i for i, v in enumerate(old)}
    bct = block_cut_tree(sub)
    blocks = list(bct.blocks)
    if len(blocks) == 1:
        ordered = blocks
    else:
        incidence = {i: set() for i in range(len(blocks))}
        for v, bids in bct.blocks_of.items():
            for a in bids:
                for b in bids:
                    if a != b:
                        incidence[a].add(b)
        if any(len(s) > 2 for s in incidence.values()):
            raise BadShape("piece is not a path of cliques")
        ends = sorted(i for i, s in incidence.items() if len(s) == 1)
        if len(ends) != 2:
            raise ConstructionError("piece's blocks do not form a path")
        ordered, seen = [ends[0]], {ends[0]}
        while len(ordered) < len(blocks):
            nxt = [x for x in incidence[ordered[-1]] if x not in seen]
            ordered.append(nxt[0])
            seen.add(nxt[0])
        ordered = [blocks[i] for i in ordered]
    t = pos[target]
    holding = [i for i, blk in enumerate(ordered) if t in blk]
    if len(holding) != 1:
        raise BadShape("attachment vertex must be a non-cut vertex")
    return PieceShape(sub, old, ordered, t, holding[0])


def uniform_block_orient_oracle(g, k):
    """Reference 3k-2 construction: one recursion level per reduction, each
    rebuilding the induced core, its block-cut tree and every flag; each
    promotion attempt tries a copy of the partial orientation, and each
    piece is oriented on a graph of its own."""
    from orientkit.recognize import block_cut_tree

    def children_map(rooted):
        out = {}
        for v, kids in rooted.cut_children_blocks.items():
            out[v] = [(bi, subtree_vertices(rooted, bi) - {v}) for bi in kids]
        return out

    def is_path_subtree(rooted, block_id):
        if len(rooted.block_children_cuts[block_id]) > 2:
            return False
        stack = [(block_id, True)]
        while stack:
            bi, is_root = stack.pop()
            kids = rooted.block_children_cuts[bi]
            if len(kids) > (2 if is_root else 1):
                return False
            for v in kids:
                blocks_below = rooted.cut_children_blocks[v]
                if len(blocks_below) > 1:
                    return False
                stack.extend((b, False) for b in blocks_below)
        return True

    def crosspoint_shaped(rooted, block_id):
        return all(all(is_path_subtree(rooted, bb)
                       for bb in rooted.cut_children_blocks[w])
                   for w in rooted.block_children_cuts[block_id])

    def uniform(g):
        if g.max_degree() <= 3 * k - 2:
            return extend_partial_oracle(g, ())
        bct = block_cut_tree(g)
        root = min(range(len(bct.blocks)), key=lambda i: bct.blocks[i])
        rooted = bct.rooted(root)
        kids_of = children_map(rooted)
        path_child = {v: [is_path_subtree(rooted, bi) for bi, _ in kids]
                      for v, kids in kids_of.items()}
        path_connector = {v: all(flags) for v, flags in path_child.items()}

        def depth_key(v):
            return (-rooted.cut_depth[v], v)

        def qualifies(v):
            return all(flag or crosspoint_shaped(rooted, bi)
                       for (bi, _), flag in zip(kids_of[v], path_child[v]))

        rule_a = sorted((v for v in kids_of
                         if path_connector[v] and len(kids_of[v]) >= 3),
                        key=depth_key)
        rule_b = sorted((v for v in kids_of
                         if not path_connector[v] and qualifies(v)),
                        key=depth_key)
        seen = set(rule_a) | set(rule_b)
        rest = sorted((v for v in kids_of if v not in seen and qualifies(v)),
                      key=depth_key)
        failure = None
        for u in rule_a + rule_b + rest:
            try:
                return reduce_at_cut(g, rooted, kids_of, path_child, u)
            except ConstructionError as exc:
                failure = exc
        raise ConstructionError(f"no reducible cut vertex admits an "
                                f"extension ({failure})")

    def reduce_at_cut(g, rooted, kids_of, path_child, u):
        kids = kids_of[u]
        flags = path_child[u]
        removed = set().union(*(verts for _, verts in kids))
        core, old = g.induced(sorted(set(range(g.n)) - removed))
        p = PartialOrientation(g)
        _copy_arcs(p, old, uniform(core))
        a = p.indegree[u]
        if a > k - 1:
            raise ConstructionError(f"cut vertex {u} has core indegree {a}")
        if a == 0:
            if all(flags):
                for _, verts in kids:
                    shape = piece_shape_oracle(g, verts | {u}, u)
                    _copy_arcs(p, shape.old_ids,
                               extend_partial_oracle(shape.graph,
                                                     {shape.target}))
                return p.to_orientation()
            if len(kids) <= 3:
                sub, old = g.induced(sorted(removed | {u}))
                _copy_arcs(p, old,
                           extend_partial_oracle(sub, {old.index(u)}))
                return p.to_orientation()
        forbidden = {p.indegree[w]
                     for w in rooted.bct.blocks[rooted.cut_parent_block[u]]
                     if w != u}
        cap = min(a + len(kids) * (k - 1), 3 * k - 2)
        for f in range(a, cap + 1):
            if f in forbidden:
                continue
            if try_cluster_promotion(p, g, rooted, kids_of, path_child,
                                     u, f, f - a):
                return p.to_orientation()
        raise ConstructionError(f"no admissible extension at cut vertex {u}")

    def try_cluster_promotion(p, g, rooted, kids_of, path_child, u, c, total):
        kids = kids_of[u]
        flags = path_child[u]
        if not 0 <= total <= (k - 1) * len(kids):
            return False
        shapes = [piece_shape_oracle(g, verts | {u}, u) if is_path else bi
                  for (bi, verts), is_path in zip(kids, flags)]

        def assignments(i, remaining):
            if i == len(kids):
                if remaining == 0:
                    yield []
                return
            tail = (k - 1) * (len(kids) - i - 1)
            for b in range(min(k - 1, remaining), -1, -1):
                if remaining - b > tail:
                    continue
                if flags[i] and not _piece_feasible(shapes[i], c, b):
                    continue
                for rest in assignments(i + 1, remaining - b):
                    yield [b] + rest

        for attempt, assignment in enumerate(assignments(0, total)):
            if attempt >= 500:
                break
            trial = copy_partial(p)
            ok = True
            for (bi, verts), is_path, shape, b in zip(kids, flags, shapes,
                                                      assignment):
                if is_path:
                    _copy_arcs(trial, shape.old_ids,
                               _orient_compensated(shape, c, b))
                    continue
                cut_pieces = {
                    w: [piece_shape_oracle(g, vs | {w}, w)
                        for _, vs in kids_of[w]]
                    for w in rooted.block_children_cuts[bi]}
                if not _assign_crosspoint(trial, k, u, rooted.bct.blocks[bi],
                                          cut_pieces, b, c):
                    ok = False
                    break
            if ok:
                p.heads[:] = trial.heads
                p.indegree[:] = trial.indegree
                p.unoriented = trial.unoriented
                return True
        return False

    return uniform(g)


# -- the exact search as it was before the incremental rewrite ----------------


def search_oracle(g, k, budget, symmetry_breaking):
    """Reference branch and bound: every proper k-orientation of g as a
    heads list, recomputing capacities and scanning decided neighbours at
    every node.  Same contract as ``exact._search``, including the budget
    box (decremented per node tried, -1 after BudgetExceeded)."""
    n, m = g.n, g.m
    if k < 0:
        return
    if m == 0:
        yield []
        return
    deg = g.degrees()
    edges = g.edges  # a new list on every read: read it once

    def edge_key(e):
        u, v = edges[e]
        a, b = deg[u], deg[v]
        hi, lo = (a, b) if a >= b else (b, a)
        return (-hi, -lo, u, v)

    order = sorted(range(m), key=edge_key)
    eu = [edges[e][0] for e in order]
    ev = [edges[e][1] for e in order]
    adj = g.adj
    indeg = [0] * n
    rem = g.degrees()
    heads = [-1] * m
    capacity = sum(min(d, k) for d in rem)
    if capacity < m:
        return

    pairs = []
    if symmetry_breaking:
        classes = {}
        for v in range(n):
            classes.setdefault(tuple(adj[v]), []).append(v)
        for members in classes.values():
            pairs.extend(zip(members, members[1:]))
    pairs_at = [[] for _ in range(n)]
    for i, (a, b) in enumerate(pairs):
        pairs_at[a].append(i)
        pairs_at[b].append(i)

    mark = [0] * (k + 2)
    stamp = 0

    def vertex_ok(x):
        nonlocal stamp
        lo = indeg[x]
        if lo > k:
            return False
        hi = min(lo + rem[x], k)
        span = hi - lo + 1
        stamp += 1
        hit = 0
        for y in adj[x]:
            if rem[y] == 0:
                d = indeg[y]
                if lo <= d <= hi and mark[d] != stamp:
                    mark[d] = stamp
                    hit += 1
                    if hit == span:
                        return False
        return True

    def pair_ok(i):
        a, b = pairs[i]
        return indeg[a] + rem[a] >= indeg[b]

    def state_ok(u, v):
        if not (vertex_ok(u) and vertex_ok(v)):
            return False
        for x in (u, v):
            for i in pairs_at[x]:
                if not pair_ok(i):
                    return False
            if rem[x] == 0:
                for y in adj[x]:
                    if rem[y] and not vertex_ok(y):
                        return False
        return True

    def cap(x):
        return min(indeg[x] + rem[x], k)

    def assign(pos, head):
        nonlocal capacity
        u, v = eu[pos], ev[pos]
        heads[order[pos]] = head
        capacity -= cap(u) + cap(v)
        indeg[head] += 1
        rem[u] -= 1
        rem[v] -= 1
        capacity += cap(u) + cap(v)

    def undo(pos):
        nonlocal capacity
        u, v = eu[pos], ev[pos]
        capacity -= cap(u) + cap(v)
        indeg[heads[order[pos]]] -= 1
        rem[u] += 1
        rem[v] += 1
        capacity += cap(u) + cap(v)
        heads[order[pos]] = -1

    tried = [0] * m
    pos = 0
    while True:
        if pos == m:
            yield list(heads)
            pos -= 1
            undo(pos)
            continue
        advanced = False
        while tried[pos] < 2:
            head = ev[pos] if tried[pos] == 0 else eu[pos]
            tried[pos] += 1
            if budget is not None:
                budget[0] -= 1
                if budget[0] < 0:
                    raise BudgetExceeded(budget[1])
            assign(pos, head)
            if capacity >= m and state_ok(eu[pos], ev[pos]):
                pos += 1
                advanced = True
                break
            undo(pos)
        if advanced:
            if pos < m:
                tried[pos] = 0
            continue
        pos -= 1
        if pos < 0:
            return
        undo(pos)


def random_uniform_block_oracle(rng, blocks, k, two_cut):
    """The quadratic uniform-block generator that instances used before
    its eligible list became incremental: every new block rescans all
    earlier blocks for its attachment candidates."""
    edges = list(itertools.combinations(range(k), 2))
    nxt = k
    block_list = [tuple(range(k))]
    cut_count = {0: 0}
    is_cut = set()
    for _ in range(blocks - 1):
        candidates = []
        for bi, blk in enumerate(block_list):
            for v in blk:
                if two_cut and v not in is_cut and cut_count[bi] >= 2:
                    continue
                candidates.append(v)
        at = rng.choice(sorted(set(candidates)))
        fresh = list(range(nxt, nxt + k - 1))
        nxt += k - 1
        blk = tuple([at] + fresh)
        edges.extend((min(a, b), max(a, b))
                     for a, b in itertools.combinations(blk, 2))
        for bi, old in enumerate(block_list):
            if at in old and at not in is_cut:
                cut_count[bi] += 1
        if at not in is_cut:
            is_cut.add(at)
        block_list.append(blk)
        cut_count[len(block_list) - 1] = 1
    return Graph(nxt, edges)


# -- block-graph status by the per-block checks the edge count replaced ----


def block_graph_oracle(bct):
    """Every block a clique, checked pair by pair."""
    return all(bct.graph.is_clique(blk) for blk in bct.blocks)


def k_uniform_oracle(bct, k):
    """Every block a clique of exactly k vertices, checked pair by pair."""
    return all(len(blk) == k and bct.graph.is_clique(blk)
               for blk in bct.blocks)


def uniform_blocks_oracle(g):
    """(block-cut tree, k), or None, by the count pre-check and then the
    constructor's input check: k from the first block, at least 3, g
    connected, every block a k-clique."""
    twice_m, rest = 2 * g.m, g.n - 1
    if rest < 1 or twice_m % rest or twice_m < 3 * rest:
        return None
    bct = block_cut_tree(g)
    k = len(bct.blocks[0]) if bct.blocks else 0
    if k < 3 or not g.is_connected() or not k_uniform_oracle(bct, k):
        return None
    return bct, k


def two_cut_blocks_oracle(g):
    """uniform_blocks_oracle(g) when no block has three cut vertices."""
    got = uniform_blocks_oracle(g)
    if got is None:
        return None
    bct = got[0]
    cuts = [sum(v in bct.cut_vertices for v in blk) for blk in bct.blocks]
    return got if max(cuts) <= 2 else None


def recognize_block_keys_oracle(g):
    """The block_graph and k_uniform keys of the recognize report."""
    bct = block_cut_tree(g)
    keys = {"block_graph": str(block_graph_oracle(bct)).lower()}
    if block_graph_oracle(bct) and bct.blocks:
        sizes = {len(blk) for blk in bct.blocks}
        keys["k_uniform"] = str(sizes.pop()) if len(sizes) == 1 else "none"
    return keys


def block_status_corpus():
    """Every graph on at most 6 vertices up to isomorphism; 3,000 seeded
    G(n, p) with n <= 25; the six class kinds at sizes up to 200 with block
    size k = 2..5, each also relabelled, doubled and with one edge removed;
    block_tight_example(2..4); and 200 seeded random trees."""
    yield from graphs_up_to_isomorphism(6)
    rng = random.Random(34)
    for _ in range(3000):
        yield random_gnp(rng, rng.randint(0, 25), rng.uniform(0.05, 0.95))
    for kind in CLASS_KINDS:
        for size in (1, 2, 3, 7, 20, 60, 200):
            for k in range(2, 6):
                g = random_class_instance(kind, size, size + k, k)
                yield g
                yield relabeled(g, k)
                yield disjoint_union(g, g)
                edges = g.edges
                if edges:
                    del edges[rng.randrange(len(edges))]
                    yield Graph(g.n, edges)
    for k in (2, 3, 4):
        yield block_tight_example(k)
    for _ in range(200):
        yield random_tree(rng, rng.randint(1, 60))


# -- cotree constructions that cograph_orient has replaced ----------------


def quasi_threshold_orient_oracle(cotree):
    """The join-count quasi-threshold constructor: the graph is rebuilt
    from the cotree, and every edge points at the endpoint with more joins
    above it."""
    from orientkit.orientation import Orientation
    from orientkit.recognize import cotree_postorder, evaluate_cotree

    leaves, nodes = cotree_postorder(cotree)
    g = evaluate_cotree(cotree)
    step = [0] * (len(leaves) + 1)   # joins above each leaf, as differences
    for node, bounds in nodes:
        if isinstance(node, CotreeJoin):
            assert len(bounds) == 3 and isinstance(node.children[0],
                                                   CotreeLeaf)
            step[bounds[1]] += 1
            step[bounds[2]] -= 1
    above = dict(zip(leaves, itertools.accumulate(step)))
    return Orientation(g, [v if above[v] > above[u] else u
                           for u, v in g.edges])


def cograph_orient_oracle(g, cotree):
    """The cograph fold one join step at a time: the max indegree of each
    side is read off the partial orientation, the cross edges take the
    direction whose max indegree is smaller (ties into the incoming side),
    and every cross edge goes through PartialOrientation.orient."""
    from orientkit.recognize import cotree_postorder

    leaves, nodes = cotree_postorder(cotree)
    p = PartialOrientation(g)
    for node, bounds in nodes:
        if not isinstance(node, CotreeJoin):
            continue
        start = bounds[0]
        for lo, hi in zip(bounds[1:], bounds[2:]):
            folded, incoming = leaves[start:lo], leaves[lo:hi]
            a = max((p.indegree[v] for v in folded), default=0)
            b = max((p.indegree[v] for v in incoming), default=0)
            into_incoming = (max(a, b + len(folded))
                             <= max(b, a + len(incoming)))
            for x in folded:
                for y in incoming:
                    p.orient(x, y, y if into_incoming else x)
    return p.to_orientation()


def is_acyclic(d):
    """Whether the orientation d has no directed cycle (Kahn's algorithm)."""
    g = d.graph
    out = [[] for _ in range(g.n)]
    indeg = list(d.indegree)
    for t, h in d.arcs():
        out[t].append(h)
    ready = [v for v in range(g.n) if indeg[v] == 0]
    done = 0
    while ready:
        v = ready.pop()
        done += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return done == g.n


def random_cotree_graph_oracle(rng, n, single_vertex_joins):
    """The cotree generator that built a new Graph at every cotree node
    through join and disjoint_union."""
    from orientkit.graph import disjoint_union, join

    def build(sz):
        if sz == 1:
            return Graph(1)
        if single_vertex_joins:
            if rng.random() < 0.6:
                return join(Graph(1), build(sz - 1))
            a = rng.randint(1, sz - 1)
            return disjoint_union(build(a), build(sz - a))
        a = rng.randint(1, sz - 1)
        parts = build(a), build(sz - a)
        if rng.random() < 0.5:
            return join(*parts)
        return disjoint_union(*parts)

    return build(n)


# -- the strip recognizer with its ring checks and ear peel ------------------


def outerplanar_strip_oracle(g):
    """The strip recognizer as it was before its dual-path walk was taken as
    proof: it also checks that the edges on one triangle form a Hamiltonian
    cycle, and peels ears down to a single edge (quadratic)."""
    n = g.n
    if n < 3 or g.m != 2 * n - 3 or not g.is_connected():
        return None
    adjset = [set(a) for a in g.adj]
    tri_of_edge = {}
    triangles = set()
    for u, v in g.edges:
        common = adjset[u] & adjset[v]
        if not 1 <= len(common) <= 2:
            return None
        tri_of_edge[(u, v)] = [tuple(sorted((u, v, w))) for w in sorted(common)]
        triangles.update(tri_of_edge[(u, v)])
    if len(triangles) != n - 2:
        return None
    outer = [e for e, ts in tri_of_edge.items() if len(ts) == 1]
    if len(outer) != n:
        return None
    ring = {v: [] for v in range(n)}
    for u, v in outer:
        ring[u].append(v)
        ring[v].append(u)
    if any(len(nb) != 2 for nb in ring.values()):
        return None
    cycle = [0, min(ring[0])]
    while len(cycle) < n:
        prev, cur = cycle[-2], cycle[-1]
        nxt = ring[cur][0] if ring[cur][0] != prev else ring[cur][1]
        cycle.append(nxt)
    if len(set(cycle)) != n or cycle[0] not in ring[cycle[-1]]:
        return None
    tris = sorted(triangles)
    tix = {t: i for i, t in enumerate(tris)}
    dual = {i: set() for i in range(len(tris))}
    for e, ts in tri_of_edge.items():
        if len(ts) == 2:
            a, b = tix[ts[0]], tix[ts[1]]
            dual[a].add(b)
            dual[b].add(a)
    if any(len(nb) > 2 for nb in dual.values()):
        return None
    ends = [i for i, nb in dual.items() if len(nb) <= 1]
    if len(tris) == 1:
        order = [0]
    else:
        if len(ends) != 2:
            return None
        start = min(ends)
        order = [start]
        seen = {start}
        while len(order) < len(tris):
            cur = order[-1]
            nxt = [x for x in dual[cur] if x not in seen]
            if not nxt:
                return None
            order.append(nxt[0])
            seen.add(nxt[0])
    if not _peels_to_edge(g):
        return None
    return StripDecomposition(tuple(tris[i] for i in order), tuple(cycle))


def _peels_to_edge(g):
    """Repeatedly delete a degree-2 vertex whose neighbours are adjacent;
    True when exactly one edge remains."""
    adj = [set(a) for a in g.adj]
    alive = set(range(g.n))
    while len(alive) > 2:
        ear = None
        for v in sorted(alive):
            if len(adj[v]) == 2:
                a, b = sorted(adj[v])
                if b in adj[a]:
                    ear = v
                    break
        if ear is None:
            return False
        for w in adj[ear]:
            adj[w].discard(ear)
        adj[ear].clear()
        alive.discard(ear)
    rest = sorted(alive)
    return len(rest) == 2 and rest[1] in adj[rest[0]]


# -- the strip constructor as a recursion over induced pieces ----------------


def zigzag_strip(tops):
    """A strip of 2 + 15 * tops vertices in which every top but the last
    has degree 16-17.  From an edge a-b, each round joins 14 new vertices
    to a and b, each becoming the new b, then one more that becomes the new
    a, the round's top."""
    edges, a, b, n = [(0, 1)], 0, 1, 2
    for _ in range(tops):
        for new_a in [False] * 14 + [True]:
            edges += [(a, n), (b, n)]
            a, b = (n, b) if new_a else (a, n)
            n += 1
    return Graph(n, edges)


def _fan_order(g, v):
    """Neighbors of v ordered along the induced path they form."""
    nb = g.adj[v]
    nbset = set(nb)
    deg_in = {w: sum(1 for x in g.adj[w] if x in nbset) for w in nb}
    ends = sorted(w for w in nb if deg_in[w] == 1)
    assert len(ends) == 2, "neighborhood of a strip vertex must be a path"
    order = [ends[0]]
    seen = {ends[0]}
    while len(order) < len(nb):
        cur = order[-1]
        nxt = [x for x in g.adj[cur] if x in nbset and x not in seen]
        assert len(nxt) >= 1
        order.append(nxt[0])
        seen.add(nxt[0])
    return order


def strip_orient_oracle(g):
    """The strip constructor before it became one pass over the triangle
    order: it splits off the fan of the largest-degree hub (least id first)
    by two induced copies and recurses on both pieces (quadratic)."""
    from orientkit.construct import extend_partial, extend_to_path
    from orientkit.exact import decide_k_orientation

    delta = g.max_degree()
    if delta <= 13:
        if g.m:
            try:
                d = decide_k_orientation(g, delta, node_budget=20000)
                if d is not None:
                    return d
            except BudgetExceeded:
                pass
        return extend_partial(g, frozenset(), {})
    v = min(w for w in range(g.n) if g.degree(w) == delta)
    fan = _fan_order(g, v)
    interior = fan[2:-2]
    keep = set(range(g.n)) - {v} - set(interior)
    sub, old = g.induced(keep)
    comps = sub.connected_components()
    assert len(comps) == 2
    p = PartialOrientation(g)
    for comp in comps:
        part, part_old = g.induced([old[i] for i in comp])
        d = strip_orient_oracle(part)
        for (lu, lv), h in zip(part.edges, d.heads):
            p.orient(part_old[lu], part_old[lv], part_old[h])
    for w in (fan[0], fan[1], fan[-2], fan[-1]):
        p.orient(w, v, v)
    p.orient(fan[1], fan[2], fan[2])
    p.orient(fan[-2], fan[-3], fan[-3])
    s_vals = {p.indegree[fan[0]], p.indegree[fan[1]],
              p.indegree[fan[-2]], p.indegree[fan[-1]]}
    t = next(t for t in range(5) if 4 + t not in s_vals)
    for j, w in enumerate(interior):
        p.orient(w, v, v if j < t else w)
    for j in range(t):
        w = fan[2 + j]
        prev_final = p.indegree[fan[1 + j]]
        nxt = fan[3 + j]
        if p.indegree[w] == prev_final:
            p.orient(w, nxt, w)
        else:
            p.orient(w, nxt, nxt)
    return extend_to_path(g, p, v, fan[1 + t], fan[2 + t:-2], fan[-2])


def graphs_with_edges(n, m):
    """Every labelled graph on n vertices with exactly m edges."""
    pairs = list(itertools.combinations(range(n), 2))
    for chosen in itertools.combinations(pairs, m):
        yield Graph(n, list(chosen))


def graphs_up_to_isomorphism(max_n):
    """At least one labelled graph per isomorphism class with at most max_n
    vertices.  Deleting vertex n - 1 from a graph on n vertices leaves one
    on n - 1, so every class on n vertices has a member that is a class
    representative on n - 1 vertices plus vertex n - 1 with some
    neighbours; representatives are picked by their least relabelled edge
    set."""
    reps = [()]
    for n in range(1, max_n + 1):
        grown = [edges + tuple((u, n - 1) for u in range(n - 1)
                               if mask >> u & 1)
                 for edges in reps for mask in range(1 << (n - 1))]
        for edges in grown:
            yield Graph(n, list(edges))
        if n == max_n:
            break
        canon = {}
        for edges in grown:
            key = min(sorted((min(p[u], p[v]), max(p[u], p[v]))
                             for u, v in edges)
                      for p in itertools.permutations(range(n)))
            canon.setdefault(tuple(key), edges)
        reps = list(canon.values())


def moved_edges(g, rng, moves):
    """g with up to moves edges each replaced by a random non-edge."""
    edges = set(g.edges)
    for _ in range(moves):
        non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                     if (u, v) not in edges]
        if not non_edges:
            break
        edges.remove(rng.choice(sorted(edges)))
        edges.add(rng.choice(non_edges))
    return Graph(g.n, sorted(edges))


# -- vertex-cover reduction -----------------------------------------------


def cubic_graph(n, seed):
    """Seeded connected cubic graph: an n-cycle plus a random perfect
    matching (the generator of the benchmark's reduction inputs)."""
    rng = random.Random(seed)
    cycle = {(i, (i + 1) % n) if i < (i + 1) % n else ((i + 1) % n, i)
             for i in range(n)}
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        pairs = [tuple(sorted(perm[i:i + 2])) for i in range(0, n, 2)]
        if not cycle.intersection(pairs):
            return Graph(n, sorted(cycle) + pairs)


def petersen_graph():
    return Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)])


def reduce_vertex_cover_oracle(g, k):
    """The reduction with one freshly built gadget per attachment, each
    copied edge by edge through an id list.  Valid inputs only: a connected
    cubic g and 3 <= k <= g.n + 1."""
    n = g.n
    kp = n + 2
    nxt = n + g.m
    edges = list(itertools.combinations(range(n), 2))
    iset_edge = {}
    for idx, (u, v) in enumerate(g.edges):
        iset_edge[n + idx] = (u, v)
        edges += [(u, n + idx), (v, n + idx)]

    def attach(host, local, port):
        nonlocal nxt
        ids = list(range(nxt, nxt + local.n))
        nxt += local.n
        edges.extend((ids[u], ids[v]) for u, v in local.edges)
        edges.append((host, ids[port]))
        return ids

    def attach_head(host, i):
        local, meta = head_gadget(i, kp)
        ids = attach(host, local, meta.head)
        return (host, GadgetMeta("F", dict(meta.params),
                                 spine=tuple(ids[x] for x in meta.spine),
                                 head=ids[meta.head]))

    pendants, zgadgets = [], []
    for v in range(n):
        pendants += [attach_head(v, k), attach_head(v, k + 1)]
    for ev in range(n, n + g.m):
        pendants.append(attach_head(ev, k - 1))
        for _ in range(k - 1):
            local, meta = double_clique_gadget(kp)
            ids = attach(ev, local, meta.shared)
            zgadgets.append((ev, GadgetMeta("Z", dict(meta.params),
                                            shared=ids[meta.shared])))
    return ReductionOutput(Graph(nxt, edges), kp, tuple(range(n)),
                           tuple(range(n, n + g.m)), iset_edge,
                           pendants, zgadgets)


def from_arcs_oracle(graph, arcs):
    """Heads of arcs by one edge lookup per arc, with the library's errors."""
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


# -- checks under python -O ---------------------------------------------------


def run_optimized(module, check):
    """Run the no-argument function check of the test module under
    ``python -O``, where assert statements are gone; fails when asserts are
    still on or the check raises.  Checks run this way use no assert."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "tests")]))
    code = (f"import {module} as t\n"
            "if __debug__: raise SystemExit('asserts are on')\n"
            f"t.{check}()\n")
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
