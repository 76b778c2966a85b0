"""Undirected simple graphs over dense integer vertex ids.

Vertices are 0..n-1.  The edges are two int lists, lo and hi: edge e is
(lo[e], hi[e]) with lo[e] < hi[e], and the pairs ascend, so edge ids follow
the sorted pair order.  Every entry of lo and hi is its vertex's one shared
int object, so an edge costs two list slots and no tuple or int of its own.
The edges property returns a new list of the pairs, for callers that want
them.

The neighbour lists are built from the columns on first use: the adj
property, has_edge and edge_id fill adj (each vertex's sorted neighbour
list, whose entries are again the shared ints) and the offsets _off
together, so a graph that is only written, counted or walked edge by edge
never holds them.  Edge (u, v), u < v, has id _off[u] + bisect_left(adj[u],
v): the edges with smaller endpoint u are contiguous, ordered like u's
larger neighbours, which end adj[u]; _off[u] is the first one's id minus
the count of u's smaller neighbours.

Instances are immutable after construction and safe to share across
threads.  A graph holds two caches, the neighbour lists and the cotree
insertion tree that recognize builds on first use; each is a pure function
of the graph, so a racing fill stores an equal value.

Text format: first line "n m", then m lines "u v" (0-based endpoints).
Blank lines and '#' comments are ignored; token spacing is free-form.
Text is read a piece of about 64 Ki characters at a time, each piece
ending at a newline, and written 64 Ki lines at a time, so no read or
write holds the token list or the text of a whole large file.  The id
table is sized by the smallest of n, 2m and the text's length (a file's
size), so a header larger than its body allocates nothing large, and the
errors come in the order they would from the whole text at once.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left
from collections import deque
from itertools import accumulate, compress, islice, repeat
from operator import eq, lt, sub


class Graph:
    """n vertices and the edge columns lo and hi.  The neighbour lists adj
    and their offsets are filled from the columns by the first neighbour
    read, and the cotree by recognize's first use."""

    __slots__ = ("n", "m", "lo", "hi", "_adj", "_off", "_cotree")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        ids = []  # one int object per vertex, up to the edges' reach
        lo, hi = [], []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if u > v:
                u, v = v, u
            try:
                hi.append(ids[v])
            except IndexError:  # ids at least doubles: O(log n) raises
                ids += range(len(ids), min(max(v + 1, 2 * len(ids)), n))
                hi.append(ids[v])
            lo.append(ids[u])
        self._store(n, lo, hi)

    @classmethod
    def _of_columns(cls, n, lo, hi):
        """The graph whose edge e is (lo[e], hi[e]): lo[e] < hi[e] < n, in
        any order, one int object per vertex; duplicates raise as in
        Graph(n, edges).  The columns become the graph's own."""
        g = cls.__new__(cls)
        g._store(n, lo, hi)
        return g

    def _store(self, n, lo, hi):
        if not all(map(lt, zip(lo, hi), islice(zip(lo, hi), 1, None))):
            # the vertex ints before the keys' ints, which are freed below:
            # made after them, they kept orient-large's peak RSS 1-2 MB up
            ids = list(range(max(hi) + 1))
            # sort on the int keys lo * n + hi, never on pairs
            keys = [u * n + v for u, v in zip(lo, hi)]
            keys.sort()
            for dup in compress(keys, map(eq, keys, islice(keys, 1, None))):
                raise ValueError(f"duplicate edge {divmod(dup, n)}")
            lo = [ids[k // n] for k in keys]
            hi = [ids[k % n] for k in keys]
        self.n = n
        self.m = len(lo)
        self.lo = lo
        self.hi = hi
        self._adj = None
        self._off = None
        self._cotree = None

    def _fill(self):
        """Build adj and _off from the columns and return adj; _off is
        stored first, so a set _adj always has its offsets."""
        # the pairs ascend, so each vertex receives its smaller neighbours
        # first, ascending, then its larger ones, ascending: adj is sorted
        adj = [[] for _ in range(self.n)]
        for u, v in zip(self.lo, self.hi):
            adj[u].append(v)
            adj[v].append(u)
        below = list(map(bisect_left, adj, range(self.n)))
        above = map(sub, map(len, adj), below)
        # an array, not a list: offsets above 256 would each be an int object
        self._off = array("q", map(sub, accumulate(above, initial=0), below))
        self._adj = adj
        return adj

    @property
    def adj(self):
        """Each vertex's sorted neighbour list, built on the first read."""
        adj = self._adj
        return self._fill() if adj is None else adj

    @property
    def edges(self):
        """A new list of the canonical pairs (lo[e], hi[e]), by edge id."""
        return list(zip(self.lo, self.hi))

    # -- basic queries ------------------------------------------------

    def degree(self, v):
        if not 0 <= v < self.n:
            raise ValueError(f"vertex must lie in 0..n-1 for n={self.n}")
        return len(self.adj[v])

    def degrees(self):
        return [len(a) for a in self.adj]

    def max_degree(self):
        return max((len(a) for a in self.adj), default=0)

    def has_edge(self, u, v):
        adj = self._adj
        if adj is None:
            adj = self._fill()
        a = adj[u] if 0 <= u < self.n else ()  # adj[-1] would be read
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def edge_id(self, u, v):
        if u > v:
            u, v = v, u
        adj = self._adj
        if adj is None:
            adj = self._fill()
        a = adj[u] if 0 <= u < self.n else ()
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
        adj = self.adj
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
                for y in adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        comp.append(y)
                        queue.append(y)
            comps.append(sorted(comp))
        return comps

    def is_connected(self):
        return self.n <= 1 or len(self.connected_components()) == 1

    def bfs_distances(self, source):
        if not 0 <= source < self.n:
            raise ValueError(f"source must lie in 0..n-1 for n={self.n}")
        adj = self.adj
        dist = [-1] * self.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
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
        if old and not (0 <= old[0] and old[-1] < self.n):
            raise ValueError(f"vertices must lie in 0..n-1 for n={self.n}")
        adj = self.adj
        new = list(range(len(old)))
        pos = dict(zip(old, new))
        lo, hi = [], []
        for i, v in zip(new, old):
            ws = [pos[w] for w in adj[v] if w > v and w in pos]
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
    """(max(omega - 1, 0), max degree): the orientation number's sandwich."""
    return max(omega - 1, 0), g.max_degree()


# -- text I/O ----------------------------------------------------------

# Text is read a piece of about this many characters at a time, each piece
# ending at a newline, and written this many lines to a piece.
_PIECE = 1 << 16


def format_pairs(n, m, firsts, seconds):
    """Pieces of the text of a graph or an orientation: the header "n m",
    then one line per pair (firsts[i], seconds[i]) of the m pairs of ids
    below n, _PIECE lines to a piece.  Each line is joined from its two
    halves, "i " and "j\\n", made once per id."""
    ids = list(map(str, range(n)))
    first = [s + " " for s in ids]
    second = [s + "\n" for s in ids]
    yield f"{n} {m}\n"
    firsts, seconds = iter(firsts), iter(seconds)
    for done in range(0, m, _PIECE):
        lines = [None] * (2 * min(_PIECE, m - done))
        lines[0::2] = [first[u] for u in islice(firsts, _PIECE)]
        lines[1::2] = [second[v] for v in islice(seconds, _PIECE)]
        yield "".join(lines)


def _split(piece):
    """The tokens of a piece of text, '#' comments dropped line by line."""
    if "#" in piece:
        piece = "\n".join(line.split("#", 1)[0]
                          for line in piece.splitlines())
    return piece.split()


def _text_pieces(text):
    """text cut after the first newline past every _PIECE characters."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _PIECE - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def _file_pieces(fh):
    """The text file fh in pieces of _PIECE characters, each read on to
    the end of its line."""
    while piece := fh.read(_PIECE):
        yield piece + fh.readline()


def _parse_pieces(pieces, size, what, header):
    """parse_pairs on a text of at most size characters, given as pieces
    that each end at a line break, so that no line spans two of them."""
    splits = map(_split, pieces)
    toks = []
    for more in splits:
        toks = toks + more if toks else more
        if len(toks) >= 2:
            break
    more = None  # the first piece's tokens are held by toks alone
    if len(toks) < 2:
        raise ValueError(f"{what} text needs a header 'n m'")
    n, m = int(toks[0]), int(toks[1])
    if header is not None and (n, m) != header:
        raise ValueError(f"{what} header ({n},{m}) does not match graph "
                         f"({header[0]},{header[1]})")
    # no more ids than the text has characters, however large the header
    table = {s: i for i, s in enumerate(map(str, range(min(n, 2 * m,
                                                           size))))}
    get = table.__getitem__
    firsts, seconds = [], []
    # body tokens so far, the first in toks, int()'s first error message
    count, start, bad = 0, 2, None
    while toks is not None:
        # tokens past the 2m-th are counted, not stored
        end = min(len(toks), start + max(2 * m - count, 0))
        if start < end:
            evens, odds = (firsts, seconds) if count % 2 == 0 else (
                seconds, firsts)
            kept = len(evens), len(odds)
            try:
                evens += map(get, islice(toks, start, end, 2))
                odds += map(get, islice(toks, start + 1, end, 2))
            except KeyError:  # another spelling, or no id: int() decides
                del evens[kept[0]:], odds[kept[1]:]
                ids = []
                for tok in islice(toks, start, end):
                    i = table.get(tok)
                    if i is None:
                        try:
                            i = int(tok)
                        except ValueError as err:
                            bad = bad or str(err)
                    ids.append(i)
                evens += islice(ids, 0, None, 2)
                odds += islice(ids, 1, None, 2)
        count += len(toks) - start
        start, toks = 0, next(splits, None)
    if count != 2 * m:
        raise ValueError(f"expected {2 * m} endpoint tokens, got {count}")
    if bad is not None:
        raise ValueError(bad)
    return n, m, firsts, seconds


def parse_pairs(text, what, header=None):
    """(n, m, firsts, seconds) from the text of a graph or an orientation
    (what): a header "n m", equal to header when given, then m pairs of
    ints, pair i being (firsts[i], seconds[i]).

    The text is split a piece at a time.  Endpoint tokens are looked up in
    a table of the ids' plain decimal strings, sized by the smallest of n,
    2m and the text's length; a token the table lacks (another spelling, a
    sign, an out-of-range id, a non-number) is read with int() instead, so
    results and errors are int()'s.  The errors come in this order: no
    header, int()'s on n and m, a header unequal to header, a token count
    other than 2m, then int()'s on the first bad endpoint token."""
    return _parse_pieces(_text_pieces(text), len(text), what, header)


def read_pairs(path, what, header=None):
    """parse_pairs on the text of the file at path, read a piece at a time;
    the file's size bounds the id table."""
    with open(path, "r", encoding="utf-8") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size <= _PIECE:  # at most one piece, or not a regular file
            return parse_pairs(fh.read(), what, header)
        return _parse_pieces(_file_pieces(fh), size, what, header)


def parse_graph(text) -> Graph:
    n, _, firsts, seconds = parse_pairs(text, "graph")
    return Graph(n, zip(firsts, seconds))


def format_graph(g: Graph) -> str:
    return "".join(format_pairs(g.n, g.m, g.lo, g.hi))


def read_graph(path) -> Graph:
    n, _, firsts, seconds = read_pairs(path, "graph")
    return Graph(n, zip(firsts, seconds))


def write_graph(g: Graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(format_pairs(g.n, g.m, g.lo, g.hi))
