"""Undirected simple graphs over dense integer vertex ids.

Vertices are 0..n-1.  Edges are stored canonically as (min, max) pairs in a
sorted list, and each vertex keeps a sorted neighbor list.  Instances are
immutable after construction and safe to share across threads.  A graph
holds one cache, the cotree insertion tree that recognize builds on first
use; it is a pure function of the graph, so a racing fill stores an equal
value.  Edge (u, v), u < v, has id _off[u] + bisect_left(adj[u], v): the
edges with smaller endpoint u are contiguous in edges, ordered like u's
larger neighbours, which end adj[u]; _off[u] is the first one's id minus
the count of u's smaller neighbours.

Text format: first line "n m", then m lines "u v" (0-based endpoints).
Blank lines and '#' comments are ignored; token spacing is free-form.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from itertools import accumulate, compress, islice
from operator import eq, lt, sub


class Graph:
    __slots__ = ("n", "m", "adj", "edges", "_off", "_cotree")

    def __init__(self, n, edges=()):
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
        if not all(map(lt, canon, islice(canon, 1, None))):
            canon.sort()
            for dup in compress(canon, map(eq, canon, islice(canon, 1, None))):
                raise ValueError(f"duplicate edge {dup}")
        # canon is sorted, so each vertex receives its smaller neighbours
        # first, ascending, then its larger ones, ascending: adj is sorted
        for u, v in canon:
            adj[u].append(v)
            adj[v].append(u)
        below = list(map(bisect_left, adj, range(n)))
        above = map(sub, map(len, adj), below)
        self.n = n
        self.m = len(canon)
        self.adj = adj
        self.edges = canon
        # an array, not a list: offsets above 256 would each be an int object
        self._off = array("q", map(sub, accumulate(above, initial=0), below))
        self._cotree = None

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
        pos = {v: i for i, v in enumerate(old)}
        es = [(i, pos[w]) for i, v in enumerate(old)
              for w in self.adj[v] if w > v and w in pos]
        return Graph(len(old), es), old

    def relabeled(self, perm):
        """Copy under the permutation perm (old id -> new id)."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self.edges])

    def complement(self):
        es = [(u, v) for u in range(self.n) for v in range(u + 1, self.n)
              if not self.has_edge(u, v)]
        return Graph(self.n, es)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    # -- stock constructions -------------------------------------------

    @staticmethod
    def empty(n):
        return Graph(n)

    @staticmethod
    def complete(n):
        return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @staticmethod
    def path_graph(n):
        return Graph(n, [(i, i + 1) for i in range(n - 1)])

    @staticmethod
    def cycle_graph(n):
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])

    @staticmethod
    def star(leaves):
        return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Vertex-disjoint copy; g2's ids are shifted by g1.n."""
    es = list(g1.edges) + [(u + g1.n, v + g1.n) for u, v in g2.edges]
    return Graph(g1.n + g2.n, es)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every cross edge."""
    es = list(g1.edges) + [(u + g1.n, v + g1.n) for u, v in g2.edges]
    es += [(u, v + g1.n) for u in range(g1.n) for v in range(g2.n)]
    return Graph(g1.n + g2.n, es)


def generic_bounds(g: Graph, omega: int):
    """(omega - 1, max degree): the universal sandwich for the orientation number."""
    return omega - 1, g.max_degree()


# -- text I/O ----------------------------------------------------------


def id_strings(n):
    """The two halves of a pair line, "i " and "i\\n", for every id i < n."""
    ids = list(map(str, range(n)))
    return [s + " " for s in ids], [s + "\n" for s in ids]


def parse_pairs(text, what, header=None):
    """(n, m, pairs) from the text of a graph or an orientation (what): a
    header "n m", equal to header when given, then m pairs of ints.

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
    body = toks[2:]
    table = {s: i for i, s in enumerate(map(str, range(min(n, len(body)))))}
    try:
        ints = map(table.__getitem__, body)
        pairs = list(zip(ints, ints))
    except KeyError:
        ints = map(int, body)
        pairs = list(zip(ints, ints))
    return n, m, pairs


def parse_graph(text) -> Graph:
    n, _, edges = parse_pairs(text, "graph")
    return Graph(n, edges)


def format_graph(g: Graph) -> str:
    first, second = id_strings(g.n)
    lines = [f"{g.n} {g.m}\n"]
    lines += [first[u] + second[v] for u, v in g.edges]
    return "".join(lines)


def read_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def write_graph(g: Graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))
