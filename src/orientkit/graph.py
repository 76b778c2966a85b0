"""Undirected simple graphs over dense integer vertex ids.

Vertices are 0..n-1.  The edges are two int lists, lo and hi: edge e is
(lo[e], hi[e]) with lo[e] < hi[e], and the pairs ascend, so edge ids follow
the sorted pair order.  Each vertex keeps a sorted neighbour list in adj.
Every entry of lo, hi and adj is its vertex's one shared int object, so an
edge costs four list slots and no tuple or int of its own.  The edges
property returns a new list of the pairs, for callers that want them.

Edge (u, v), u < v, has id _off[u] + bisect_left(adj[u], v): the edges with
smaller endpoint u are contiguous, ordered like u's larger neighbours,
which end adj[u]; _off[u] is the first one's id minus the count of u's
smaller neighbours.

Instances are immutable after construction and safe to share across
threads.  A graph holds one cache, the cotree insertion tree that
recognize builds on first use; it is a pure function of the graph, so a
racing fill stores an equal value.

Text format: first line "n m", then m lines "u v" (0-based endpoints).
Blank lines and '#' comments are ignored; token spacing is free-form.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from itertools import accumulate, compress, islice, repeat
from operator import eq, lt, sub


class Graph:
    __slots__ = ("n", "m", "lo", "hi", "adj", "_off", "_cotree")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        ids = list(range(n))  # the one int object of each vertex
        lo, hi = [], []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if u > v:
                u, v = v, u
            lo.append(ids[u])
            hi.append(ids[v])
        self._store(ids, lo, hi)

    @classmethod
    def _of_columns(cls, n, lo, hi):
        """The graph whose edge e is (lo[e], hi[e]): lo[e] < hi[e] < n, in
        any order, one int object per vertex; duplicates raise as in
        Graph(n, edges).  The columns become the graph's own."""
        g = cls.__new__(cls)
        g._store(list(range(n)), lo, hi)
        return g

    def _store(self, ids, lo, hi):
        n = len(ids)
        if not all(map(lt, zip(lo, hi), islice(zip(lo, hi), 1, None))):
            # sort on the int keys lo * n + hi, never on pairs
            keys = [u * n + v for u, v in zip(lo, hi)]
            keys.sort()
            for dup in compress(keys, map(eq, keys, islice(keys, 1, None))):
                raise ValueError(f"duplicate edge {divmod(dup, n)}")
            lo = [ids[k // n] for k in keys]
            hi = [ids[k % n] for k in keys]
            del keys  # before adj is built: one int object per edge
        # the pairs ascend, so each vertex receives its smaller neighbours
        # first, ascending, then its larger ones, ascending: adj is sorted
        adj = [[] for _ in ids]
        for u, v in zip(lo, hi):
            adj[u].append(v)
            adj[v].append(u)
        below = list(map(bisect_left, adj, ids))
        above = map(sub, map(len, adj), below)
        self.n = n
        self.m = len(lo)
        self.lo = lo
        self.hi = hi
        self.adj = adj
        # an array, not a list: offsets above 256 would each be an int object
        self._off = array("q", map(sub, accumulate(above, initial=0), below))
        self._cotree = None

    @property
    def edges(self):
        """A new list of the canonical pairs (lo[e], hi[e]), by edge id."""
        return list(zip(self.lo, self.hi))

    # -- basic queries ------------------------------------------------

    def degree(self, v):
        return len(self.adj[v])

    def degrees(self):
        return [len(a) for a in self.adj]

    def max_degree(self):
        return max((len(a) for a in self.adj), default=0)

    def has_edge(self, u, v):
        a = self.adj[u] if 0 <= u < self.n else ()  # adj[-1] would be read
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def edge_id(self, u, v):
        if u > v:
            u, v = v, u
        a = self.adj[u] if 0 <= u < self.n else ()
        i = bisect_left(a, v)
        if i < len(a) and a[i] == v:
            return self._off[u] + i
        raise KeyError((u, v))

    def is_clique(self, vertices):
        vs = list(vertices)
        return all(self.has_edge(vs[i], vs[j])
                   for i in range(len(vs)) for j in range(i + 1, len(vs)))

    # -- traversal ----------------------------------------------------

    def connected_components(self):
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = [s]
            seen[s] = True
            queue = deque([s])
            while queue:
                x = queue.popleft()
                for y in self.adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        comp.append(y)
                        queue.append(y)
            comps.append(sorted(comp))
        return comps

    def is_connected(self):
        return self.n <= 1 or len(self.connected_components()) == 1

    def bfs_distances(self, source):
        dist = [-1] * self.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            x = queue.popleft()
            for y in self.adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return dist

    def diameter(self):
        """Max eccentricity; raises on disconnected or empty graphs."""
        if self.n == 0:
            raise ValueError("diameter of the empty graph is undefined")
        best = 0
        for s in range(self.n):
            dist = self.bfs_distances(s)
            worst = max(dist)
            if min(dist) < 0:
                raise ValueError("graph is disconnected")
            best = max(best, worst)
        return best

    # -- derived graphs -----------------------------------------------

    def induced(self, vertices):
        """Induced subgraph plus the list mapping new ids to old ids.

        Walks only the chosen vertices' neighbor lists, so the cost is their
        total degree, not the size of the whole graph.
        """
        old = sorted(set(vertices))
        new = list(range(len(old)))
        pos = dict(zip(old, new))
        lo, hi = [], []
        for i, v in zip(new, old):
            ws = [pos[w] for w in self.adj[v] if w > v and w in pos]
            lo += repeat(i, len(ws))
            hi += ws
        return Graph._of_columns(len(old), lo, hi), old

    def relabeled(self, perm):
        """Copy under the permutation perm (old id -> new id)."""
        ids = list(range(self.n))
        if sorted(perm) != ids:
            raise ValueError("perm must be a permutation of 0..n-1")
        to = [ids[v] for v in perm]
        a = [to[u] for u in self.lo]
        b = [to[v] for v in self.hi]
        return Graph._of_columns(self.n,
                                 [x if x < y else y for x, y in zip(a, b)],
                                 [y if x < y else x for x, y in zip(a, b)])

    def complement(self):
        ids = list(range(self.n))
        lo, hi = [], []
        for u in ids:
            ws = [v for v in islice(ids, u + 1, None)
                  if not self.has_edge(u, v)]
            lo += repeat(u, len(ws))
            hi += ws
        return Graph._of_columns(self.n, lo, hi)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.lo == other.lo
                and self.hi == other.hi)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    # -- stock constructions -------------------------------------------

    @staticmethod
    def empty(n):
        return Graph(n)

    @staticmethod
    def complete(n):
        return Graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))

    @staticmethod
    def path_graph(n):
        return Graph(n, ((i, i + 1) for i in range(n - 1)))

    @staticmethod
    def cycle_graph(n):
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return Graph(n, ((i, (i + 1) % n) for i in range(n)))

    @staticmethod
    def star(leaves):
        return Graph(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def _union_columns(g1: Graph, g2: Graph):
    """(ids, lo, hi) of the vertex-disjoint union, g2's ids shifted by g1.n."""
    ids = list(range(g1.n + g2.n))
    shifted = ids[g1.n:]
    lo = [ids[u] for u in g1.lo] + [shifted[u] for u in g2.lo]
    hi = [ids[v] for v in g1.hi] + [shifted[v] for v in g2.hi]
    return ids, lo, hi


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Vertex-disjoint copy; g2's ids are shifted by g1.n."""
    ids, lo, hi = _union_columns(g1, g2)
    return Graph._of_columns(len(ids), lo, hi)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every cross edge."""
    ids, lo, hi = _union_columns(g1, g2)
    shifted = ids[g1.n:]
    for u in islice(ids, g1.n):
        lo += repeat(u, g2.n)
        hi += shifted
    return Graph._of_columns(len(ids), lo, hi)


def generic_bounds(g: Graph, omega: int):
    """(omega - 1, max degree): the universal sandwich for the orientation number."""
    return omega - 1, g.max_degree()


# -- text I/O ----------------------------------------------------------


def format_pairs(n, firsts, seconds):
    """Text of a graph or an orientation: the header "n m", then one line
    per pair (firsts[i], seconds[i]) of ids below n.  Each line is joined
    from its two halves, "i " and "j\\n", made once per id."""
    ids = list(map(str, range(n)))
    first = [s + " " for s in ids]
    second = [s + "\n" for s in ids]
    lines = [None] * (2 * len(firsts) + 1)
    lines[0] = f"{n} {len(firsts)}\n"
    lines[1::2] = [first[u] for u in firsts]
    lines[2::2] = [second[v] for v in seconds]
    return "".join(lines)


def parse_pairs(text, what, header=None):
    """(n, m, firsts, seconds) from the text of a graph or an orientation
    (what): a header "n m", equal to header when given, then m pairs of
    ints, pair i being (firsts[i], seconds[i]).

    Endpoint tokens are looked up in a table of the ids' plain decimal
    strings, sized by the smaller of n and the token count; on any miss
    (another spelling, a sign, an out-of-range id, a non-number) the whole
    body is parsed with int() instead, so results and errors are int()'s."""
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
    try:
        firsts = list(map(table.__getitem__, islice(toks, 2, None, 2)))
        seconds = list(map(table.__getitem__, islice(toks, 3, None, 2)))
    except KeyError:
        ints = list(map(int, islice(toks, 2, None)))
        firsts, seconds = ints[0::2], ints[1::2]
    return n, m, firsts, seconds


def parse_graph(text) -> Graph:
    n, _, firsts, seconds = parse_pairs(text, "graph")
    return Graph(n, zip(firsts, seconds))


def format_graph(g: Graph) -> str:
    return format_pairs(g.n, g.lo, g.hi)


def read_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def write_graph(g: Graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))
