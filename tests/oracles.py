"""Brute-force reference implementations, independent of the library's
search and recognizer code paths.  Only feasible for tiny inputs."""

import itertools

from orientkit.graph import Graph
from orientkit.recognize import CotreeJoin, CotreeLeaf, CotreeUnion


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


def random_gnp(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


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
