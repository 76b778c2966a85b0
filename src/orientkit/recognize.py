"""Recognition and decomposition of the graph classes the constructors need.

Each recognizer either produces the decomposition its constructor consumes
(perfect elimination ordering, split partition, cotree, block-cut tree,
triangle strip) or a failure value.  chordal_peo and cograph_cotree carry
their witness, a chordless cycle or an induced P4, in the same result, and
chordal_peo the clique number of a chordal graph.
Block-graph status is a count on the block-cut tree, whose blocks
partition the edges.  All functions are pure and deterministic.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple, Optional

from .errors import ConstructionError, InvalidPEO, PreconditionViolated
from .graph import Graph


# -- chordality via Lex-BFS ---------------------------------------------


def lex_bfs(g: Graph):
    """Lexicographic BFS visit order (ties broken by smallest vertex id).

    Partition refinement over a linked list of classes, front first: a
    visit moves its unvisited neighbours in each class to a new class right
    in front of that one.  A class stacks its members by decreasing id (the
    first class is n-1..0, and a split takes them in reverse adjacency
    order), so its least live id is on top once the entries of vertices
    visited or moved on are popped, each once: the pass is O(n + m).
    """
    n = g.n
    cls_of = [0] * n            # -1 once visited
    stack = [list(range(n - 1, -1, -1))]
    prev, nxt = [-1], [-1]      # the class list; -1 ends it
    front = 0 if n else -1
    order = []
    while front >= 0:
        top = stack[front]
        while top and cls_of[top[-1]] != front:
            top.pop()
        if not top:
            front = nxt[front]
            if front >= 0:
                prev[front] = -1
            continue
        v = top.pop()
        cls_of[v] = -1
        order.append(v)
        moved = {}
        for w in reversed(g.adj[v]):
            if cls_of[w] >= 0:
                moved.setdefault(cls_of[w], []).append(w)
        for src, ws in moved.items():
            nid, before = len(stack), prev[src]
            stack.append(ws)
            for w in ws:
                cls_of[w] = nid
            prev.append(before)
            nxt.append(src)
            prev[src] = nid
            if before < 0:
                front = nid
            else:
                nxt[before] = nid
    return order


def _verify_peo(g: Graph, peo):
    """(None, omega) if peo is perfect elimination, else (a violating
    (v, p, w), None).  A clique lies in its first vertex's later
    neighbourhood, a clique here: omega is 1 + the most later neighbours."""
    pos = [0] * g.n
    for i, v in enumerate(peo):
        pos[v] = i
    adjset = [set(a) for a in g.adj]
    widest = 0
    for v in peo:
        later = [w for w in g.adj[v] if pos[w] > pos[v]]
        if not later:
            continue
        if len(later) > widest:
            widest = len(later)
        p = min(later, key=lambda w: pos[w])
        for w in later:
            if w != p and w not in adjset[p]:
                return (v, p, w), None
    return None, widest + 1 if g.n else 0


def _chordless_cycle(g: Graph, peo, v, p, w):
    """v followed by a shortest p-w path through the vertices visited
    before w and outside N(v): a chordless cycle.  None would mean the
    argument below is wrong.

    Write x < y when Lex-BFS visits x before y, and x ~ y for adjacency.
    (v, p, w) is _verify_peo's violation of the reversed visit order:
    w < p < v, p ~ v, w ~ v and not p ~ w.  Lex-BFS has this property: if
    x < y < z, x ~ z and not x ~ y, the first-visited vertex t of
    N(y) sym-diff N(z) visited before y is in N(y) minus N(z), t < x, and
    every u < t is adjacent to y iff to z (when y was picked, its label
    was at least z's).

    Set q0 = v, q1 = p, q2 = w.  While not q_i ~ q_(i-1), let q_(i+1) be
    that t for (q_i, q_(i-1), q_(i-2)).  Visits fall strictly, so the chain
    stops.  Each q_(j+2) ~ q_j, so the odd-indexed vertices give a path
    from p, the even-indexed ones a path from w, and the last edge joins
    them.  Every q_j with j >= 3 is visited before w.  q3 is not adjacent
    to v; for j >= 4, the clauses "adjacent to q_(i-1) iff to q_(i-2)" of
    the steps before chain q_j ~ v iff q_j ~ q_(j-3), and its own step has
    q_j not adjacent to q_(j-3).  So no q_j with j >= 3 is adjacent to v,
    such a p-w path exists, a shortest one is induced, and with v it is a
    chordless cycle of length >= 4 (Tarjan & Yannakakis 1984).  One BFS,
    O(n + m).
    """
    allowed = set(peo[peo.index(w) + 1:]).difference(g.adj[v])
    allowed.add(w)
    parent = {p: p}
    queue = deque([p])
    while queue and w not in parent:
        a = queue.popleft()
        for b in g.adj[a]:
            if b in allowed:
                allowed.remove(b)
                parent[b] = a
                queue.append(b)
    if w not in parent:
        return None
    path = [w]
    while path[-1] != p:
        path.append(parent[path[-1]])
    return [v] + path[::-1]


class ChordalCheck(NamedTuple):
    peo: Optional[list]
    chordless_cycle: Optional[list]
    omega: Optional[int] = None  # the clique number, when g is chordal


def chordal_peo(g: Graph) -> ChordalCheck:
    """A perfect elimination ordering and the clique number, or a
    chordless cycle witness."""
    peo = lex_bfs(g)[::-1]
    violation, omega = _verify_peo(g, peo)
    if violation is None:
        return ChordalCheck(peo, None, omega)
    cycle = _chordless_cycle(g, peo, *violation)
    if cycle is None:
        raise ConstructionError("a failed PEO check left no chordless cycle")
    return ChordalCheck(None, cycle)


def clique_number_chordal(g: Graph, peo) -> int:
    """Exact clique number from a caller's perfect elimination ordering;
    chordal_peo(g).omega gives it without one."""
    if sorted(peo) != list(range(g.n)):
        raise InvalidPEO("ordering is not a permutation of the vertices")
    violation, omega = _verify_peo(g, peo)
    if violation is not None:
        raise InvalidPEO("ordering is not a perfect elimination ordering")
    return omega


# -- split graphs --------------------------------------------------------


@dataclass(frozen=True)
class SplitPartition:
    clique: frozenset
    independent: frozenset


def split_partition(g: Graph) -> Optional[SplitPartition]:
    """Degree-sequence split test; K is a maximum (hence maximal) clique."""
    n = g.n
    if n == 0:
        return SplitPartition(frozenset(), frozenset())
    adj = g.adj
    deg = g.degrees()
    order = sorted(range(n), key=lambda v: (-deg[v], v))
    degs = [deg[v] for v in order]
    m_star = max(i + 1 for i in range(n) if degs[i] >= i)
    lhs = sum(degs[:m_star])
    rhs = m_star * (m_star - 1) + sum(degs[m_star:])
    if lhs != rhs:
        return None
    clique = order[:m_star]
    rest = order[m_star:]
    kset = frozenset(clique)
    # The degree equality makes K a clique, leaves no edge inside I, and
    # lets no vertex of I see all of K (that would extend the maximum
    # clique).  Check all three in O(n + m), also under python -O.
    if (any(sum(x in kset for x in adj[c]) != m_star - 1 for c in clique)
            or any(len(adj[v]) >= m_star
                   or not all(x in kset for x in adj[v]) for v in rest)):
        raise ConstructionError("the degree test accepted a graph that is "
                                "not split")
    return SplitPartition(kset, frozenset(rest))


# -- cotrees (quasi-threshold and cograph decompositions) ----------------


@dataclass(frozen=True)
class CotreeLeaf:
    vertex: int


@dataclass(frozen=True)
class CotreeUnion:
    children: tuple


@dataclass(frozen=True)
class CotreeJoin:
    children: tuple


def cotree_postorder(root):
    """Leaf order plus every node with its child spans, children first.

    Returns (leaves, nodes).  leaves lists the vertices left to right, and
    nodes holds a (node, bounds) pair per node in post-order: the vertices
    under the node's i-th child are leaves[bounds[i]:bounds[i + 1]], so the
    node itself covers leaves[bounds[0]:bounds[-1]].  The walk keeps its own
    stack, so cotrees of any depth are fine.  A node that is not a leaf,
    union or join raises PreconditionViolated.
    """
    leaves, nodes = [], []
    stack = [(root, None)]
    while stack:
        node, bounds = stack.pop()
        if node is None:              # a child of the bounds' owner ended
            bounds.append(len(leaves))
        elif bounds is not None:      # every child of node ended
            nodes.append((node, bounds))
        elif isinstance(node, CotreeLeaf):
            nodes.append((node, [len(leaves), len(leaves) + 1]))
            leaves.append(node.vertex)
        elif not isinstance(node, (CotreeUnion, CotreeJoin)):
            raise PreconditionViolated(f"cotree node {node!r} is not a "
                                       "leaf, union or join")
        else:
            bounds = [len(leaves)]
            stack.append((node, bounds))
            for child in reversed(node.children):
                stack.append((None, bounds))
                stack.append((child, None))
    return leaves, nodes


def evaluate_cotree(node, n=None) -> Graph:
    """Rebuild the graph a cotree denotes; leaves name the vertex ids, each
    at most once and below n.

    Each vertex collects its larger neighbours: at a join, a child's
    vertices meet every later sibling's, so both spans are sorted and each
    vertex takes the other span's tail past it.  Sorting each vertex's list
    then gives the canonical edge order, and the graph takes the columns
    without a sort of its own."""
    leaves, nodes = cotree_postorder(node)
    if n is None:
        n = max(leaves) + 1 if leaves else 0
    ids = list(range(n))
    seen = [False] * n
    for v in leaves:
        if not 0 <= v < n:
            raise ValueError(f"cotree leaf {v} out of range for n={n}")
        if seen[v]:
            raise ValueError(f"cotree leaf {v} repeats")
        seen[v] = True
    up = [[] for _ in ids]
    for nd, bounds in nodes:
        if not isinstance(nd, CotreeJoin):
            continue
        for i, j in zip(bounds, bounds[1:-1]):
            a, b = sorted(leaves[i:j]), sorted(leaves[j:bounds[-1]])
            if a and b:
                for x in a[:bisect_left(a, b[-1])]:
                    up[x] += b[bisect_left(b, x):]
                for x in b[:bisect_left(b, a[-1])]:
                    up[x] += a[bisect_left(a, x):]
    lo, hi = [], []
    for u, ws in zip(ids, up):
        ws.sort()
        lo += repeat(u, len(ws))
        hi += map(ids.__getitem__, ws)
        ws.clear()  # each edge held once: in up or in the columns
    return Graph._of_columns(n, lo, hi)


def _insert_cotree(g: Graph):
    """(tree, None) for a cograph g, else (None, an induced P4 of g).

    Corneil, Perl & Stewart (1985).  Vertices are added in id order.  For
    the new vertex x, a node is full when x is adjacent to all its leaves,
    empty when to none, partial otherwise.  G + x is a cograph exactly
    when the partial nodes form a path from the root on which no union
    has a full child beside the next partial node and no join has an
    empty one.  x then goes in at the end of the path.  On that path every
    join has a full child, so a cograph insertion marks at most 2 deg(x)
    partial nodes and costs O(1 + deg x).  The first insertion that fails
    marks at most every node and hands its violation to _p4: O(n), once.

    tree is (root, kids, is_join).  Node ids 0..n-1 are the leaves, with
    kids None; internal nodes have a set of children and alternate between
    union and join, each with at least two children.
    """
    n = g.n
    kids = [None] * n
    is_join = [False] * n
    parent = [-1] * n

    def make(join, children):
        node = len(kids)
        kids.append(set(children))
        is_join.append(join)
        parent.append(-1)
        for c in children:
            parent[c] = node
        return node

    def adopt(node, child):
        kids[node].add(child)
        parent[child] = node

    def swap(old, new):
        """Hang new where old hangs, leaving old detached."""
        nonlocal root
        above = parent[old]
        if above < 0:
            root = new
        else:
            kids[above].discard(old)
            adopt(above, new)

    def attach(node, join, x):
        """Give x and node a common parent of the given kind: node itself
        when it already is one, else a new node in node's place."""
        if kids[node] is not None and is_join[node] == join:
            adopt(node, x)
        else:
            up = make(join, (x,))
            swap(node, up)
            adopt(up, node)

    root = 0
    for x in range(1, n):
        nb = g.adj[x]
        nbrs = nb[:bisect_left(nb, x)]
        # full nodes, bottom-up
        full_count = {}
        full = list(nbrs)
        for c in full:
            p = parent[c]
            if p >= 0:
                full_count[p] = full_count.get(p, 0) + 1
                if full_count[p] == len(kids[p]):
                    full.append(p)
        if not nbrs or full[-1] == root:   # a full root is marked last
            attach(root, bool(nbrs), x)
            continue
        # partial nodes: the non-full ancestors of full nodes
        full_kids, partial_kids, partial = {}, {}, set()
        for c in full:
            u = parent[c]
            if full_count.get(u, 0) == len(kids[u]):
                continue
            full_kids.setdefault(u, []).append(c)
            while u >= 0 and u not in partial:
                partial.add(u)
                above = parent[u]
                if above >= 0:
                    partial_kids.setdefault(above, []).append(u)
                u = above
        # descend the partial path and insert x at its end
        u = root
        while True:
            pk = partial_kids.get(u, ())
            fk = full_kids.get(u, ())
            if pk:
                # pk[0] must be u's only partial child, and beside it a
                # join may have only full children, a union only empty ones
                if len(pk) > 1 or (len(kids[u]) > len(fk) + 1
                                   if is_join[u] else fk):
                    return None, _p4(kids, is_join, nbrs, x, u, pk[0])
                u = pk[0]
                continue
            if is_join[u]:
                empty = kids[u].difference(fk)
                if len(empty) == 1:
                    attach(empty.pop(), False, x)
                else:
                    # u keeps the empty children under a union with x;
                    # a new join over that and the full children takes
                    # u's place
                    kids[u].difference_update(fk)
                    top = make(True, fk)
                    swap(u, top)
                    adopt(top, make(False, (u, x)))
            else:
                if len(fk) == 1:
                    attach(fk[0], True, x)
                else:
                    kids[u].difference_update(fk)
                    adopt(u, make(True, (x, make(False, fk))))
            break
    return (root, kids, is_join), None


def _p4(kids, is_join, nbrs, x, u, px):
    """An induced P4 through x, at the partial node u whose partial child
    px _insert_cotree could not descend past.

    Children of a union are joins or leaves, and vice versa.  px is
    partial, so some leaf a under it is in N(x) and some leaf b is not.
    They can be taken under two different children of px: were every
    such pair under one child, px's other children would have no leaves.
    So a ~ b exactly when px is a join, which is exactly when u is a
    union.  Beside px, u has a second partial child, or is a join with an
    empty child or a union with a full child; so u has another child
    holding a leaf y in N(x) when u is a union, and outside N(x) when u is
    a join.  At a union, y - x - a - b is induced: x misses b, and y
    misses a and b, which lie under another child of the union.  At a
    join, x - a - y - b is induced: the join makes y adjacent to a and b,
    x misses y and b, and a misses b.  O(n).
    """
    inside = set(nbrs)

    def leaf(node, in_nbrs):
        """A leaf under node that is in N(x) iff in_nbrs, or None."""
        stack = [node]
        while stack:
            v = stack.pop()
            if kids[v] is not None:
                stack.extend(kids[v])
            elif (v in inside) == in_nbrs:
                return v
        return None

    found = [(c, leaf(c, True), leaf(c, False)) for c in kids[px]]
    a, b = next((a, b) for ca, a, _ in found if a is not None
                for cb, _, b in found if cb != ca and b is not None)
    ys = (leaf(c, not is_join[u]) for c in kids[u] if c != px)
    y = next(y for y in ys if y is not None)
    return (x, a, y, b) if is_join[u] else (y, x, a, b)


def _graph_cotree(g: Graph):
    """_insert_cotree(g), built once per graph: g holds the result, so the
    quasi-threshold and cograph recognizers share it and it dies with g."""
    if g._cotree is None:
        g._cotree = _insert_cotree(g)
    return g._cotree


def _assemble(tree, quasi_threshold=False):
    """Dataclass cotree with children ordered by their smallest vertex.

    With quasi_threshold, each join is instead nested over its leaf
    children, smallest first, as Join((Leaf(v), rest)); the result is None
    when some join has two children that are not leaves.
    """
    root, kids, is_join = tree
    order = [root]
    for u in order:
        if kids[u] is not None:
            order.extend(kids[u])
    low = {}
    built = {}
    for u in reversed(order):
        if kids[u] is None:
            low[u] = u
            built[u] = CotreeLeaf(u)
            continue
        ch = sorted(kids[u], key=low.__getitem__)
        low[u] = low[ch[0]]
        if not is_join[u]:
            built[u] = CotreeUnion(tuple(built[c] for c in ch))
        elif not quasi_threshold:
            built[u] = CotreeJoin(tuple(built[c] for c in ch))
        else:
            inner = [c for c in ch if kids[c] is not None]
            if len(inner) > 1:
                return None
            heads = [c for c in ch if kids[c] is None]
            node = built[inner[0] if inner else heads.pop()]
            for v in reversed(heads):
                node = CotreeJoin((built[v], node))
            built[u] = node
    return built[root]


def quasi_threshold_cotree(g: Graph):
    """Cotree with union nodes and single-vertex joins, or None.

    Quasi-threshold graphs are the cographs whose canonical cotree has at
    most one non-leaf child per join; O(n + m) time.
    """
    if g.n == 0:
        return CotreeUnion(())
    tree, _ = _graph_cotree(g)
    return None if tree is None else _assemble(tree, quasi_threshold=True)


class CographCheck(NamedTuple):
    cotree: Optional[object]
    p4: Optional[tuple]


def cograph_cotree(g: Graph) -> CographCheck:
    """Union/join cotree for a cograph, or an induced-P4 witness.

    The cotree is canonical: unions and joins alternate and children are
    ordered by their smallest vertex.  The P4 is read off the insertion
    that failed and recounted here.  O(n + m) time either way.
    """
    if g.n == 0:
        return CographCheck(CotreeUnion(()), None)
    tree, p4 = _graph_cotree(g)
    if tree is not None:
        return CographCheck(_assemble(tree), None)
    a, b, c, d = p4
    if ([g.has_edge(*e) for e in ((a, b), (b, c), (c, d), (a, c), (b, d),
                                  (a, d))] != [True] * 3 + [False] * 3):
        raise ConstructionError("a failed cotree left no induced P4")
    return CographCheck(None, p4)


def is_claw_free(g: Graph) -> bool:
    """No vertex has three pairwise non-adjacent neighbors."""
    adjset = [set(x) for x in g.adj]
    for v in range(g.n):
        nb = g.adj[v]
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                if nb[j] in adjset[nb[i]]:
                    continue
                for l in range(j + 1, len(nb)):
                    w = nb[l]
                    if w not in adjset[nb[i]] and w not in adjset[nb[j]]:
                        return False
    return True


def twin_partition(g: Graph, s):
    """Partition an independent set of ids in 0..n-1 into classes of equal
    neighborhoods.  A repeated id counts once, as in Graph.induced."""
    sset = set(s)
    s = sorted(sset)
    if s and not (0 <= s[0] and s[-1] < g.n):
        raise PreconditionViolated(f"set must lie in 0..{g.n - 1}")
    if any(w in sset for v in s for w in g.adj[v]):
        raise PreconditionViolated("set is not independent")
    classes = {}
    for v in s:
        classes.setdefault(tuple(g.adj[v]), []).append(v)
    return [tuple(members) for _, members in sorted(classes.items())]


# -- block-cut trees -----------------------------------------------------


@dataclass
class BlockCutTree:
    graph: Graph
    blocks: list           # sorted vertex tuples
    cut_vertices: frozenset
    blocks_of: dict = field(default_factory=dict)  # vertex -> [block ids]

    def __post_init__(self):
        if not self.blocks_of:
            for bi, blk in enumerate(self.blocks):
                for v in blk:
                    self.blocks_of.setdefault(v, []).append(bi)

    def rooted(self, root_block: int) -> "RootedBlockCutTree":
        return RootedBlockCutTree(self, root_block)


class RootedBlockCutTree:
    """Parent/children view of the block-cut tree, with ordered children."""

    def __init__(self, bct: BlockCutTree, root_block: int):
        self.bct = bct
        self.root_block = root_block
        self.block_parent_cut = {}   # block id -> cut vertex (absent for root)
        self.cut_parent_block = {}   # cut vertex -> block id
        self.block_children_cuts = {bi: [] for bi in range(len(bct.blocks))}
        self.cut_children_blocks = {v: [] for v in bct.cut_vertices}
        self.block_depth = {root_block: 0}
        self.cut_depth = {}
        queue = deque([("b", root_block)])
        seen_b = {root_block}
        seen_c = set()
        while queue:
            kind, x = queue.popleft()
            if kind == "b":
                cuts = sorted(v for v in bct.blocks[x] if v in bct.cut_vertices
                              and v != self.block_parent_cut.get(x))
                for v in cuts:
                    if v in seen_c:
                        continue
                    seen_c.add(v)
                    self.block_children_cuts[x].append(v)
                    self.cut_parent_block[v] = x
                    self.cut_depth[v] = self.block_depth[x] + 1
                    queue.append(("c", v))
            else:
                kids = sorted((bi for bi in bct.blocks_of[x] if bi not in seen_b),
                              key=lambda bi: bct.blocks[bi])
                for bi in kids:
                    seen_b.add(bi)
                    self.cut_children_blocks[x].append(bi)
                    self.block_parent_cut[bi] = x
                    self.block_depth[bi] = self.cut_depth[x] + 1
                    queue.append(("b", bi))


def block_cut_tree(g: Graph) -> BlockCutTree:
    """Biconnected decomposition; isolated vertices form singleton blocks."""
    n, adj = g.n, g.adj
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    blocks = []
    is_cut = [False] * n
    timer = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        if not adj[root]:
            blocks.append((root,))
            continue
        disc[root] = low[root] = timer
        timer += 1
        estack = []
        work = [(root, iter(adj[root]))]
        root_children = 0
        while work:
            v, it = work[-1]
            pushed = False
            for w in it:
                if disc[w] < 0:
                    estack.append((v, w))
                    parent[w] = v
                    disc[w] = low[w] = timer
                    timer += 1
                    work.append((w, iter(adj[w])))
                    pushed = True
                    break
                if w != parent[v] and disc[w] < disc[v]:
                    estack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if pushed:
                continue
            work.pop()
            if not work:
                continue
            u = work[-1][0]
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:
                if u == root:
                    root_children += 1
                    if root_children > 1:
                        is_cut[u] = True
                else:
                    is_cut[u] = True
                verts = set()
                while True:
                    a, b = estack.pop()
                    verts.add(a)
                    verts.add(b)
                    if (a, b) == (u, v):
                        break
                blocks.append(tuple(sorted(verts)))
        if estack:
            raise ConstructionError("edges left over after the last block")
    blocks.sort()
    cuts = frozenset(v for v in range(n) if is_cut[v])
    return BlockCutTree(g, blocks, cuts)


def is_block_graph(bct: BlockCutTree) -> bool:
    """Every block is a clique.  The blocks partition the edges, and a
    block on b vertices holds at most b(b - 1)/2 of them, so the edge
    count reaches that sum over the blocks exactly when each is full."""
    return 2 * bct.graph.m == sum(len(b) * (len(b) - 1) for b in bct.blocks)


def is_k_uniform(bct: BlockCutTree, k: int) -> bool:
    """Every block is a clique of size exactly k."""
    return all(len(blk) == k for blk in bct.blocks) and is_block_graph(bct)


def max_cut_vertices_per_block(bct: BlockCutTree) -> int:
    return max((sum(1 for v in blk if v in bct.cut_vertices)
                for blk in bct.blocks), default=0)


# -- maximal outerplane triangle strips -----------------------------------


@dataclass(frozen=True)
class StripDecomposition:
    triangles: tuple   # ordered along the dual path
    outer_cycle: tuple


def outerplanar_strip(g: Graph) -> Optional[StripDecomposition]:
    """Triangle strip of a maximal outerplane graph whose weak dual is a path.

    Returns the inner faces ordered along the dual path plus the outer
    (Hamiltonian) cycle order, or None when the graph is not of this shape.
    """
    n = g.n
    if n < 3 or g.m != 2 * n - 3 or not g.is_connected():
        return None
    adjset = [set(a) for a in g.adj]
    # every subgraph triangle of a maximal outerplane graph is an inner face
    tri_of_edge = {}
    triangles = set()
    for u, v in zip(g.lo, g.hi):
        common = adjset[u] & adjset[v]
        if not 1 <= len(common) <= 2:
            return None
        tri_of_edge[(u, v)] = [tuple(sorted((u, v, w))) for w in sorted(common)]
        triangles.update(tri_of_edge[(u, v)])
    if len(triangles) != n - 2:
        return None
    # weak dual: triangles sharing a chord; must be a path
    tris = sorted(triangles)
    tix = {t: i for i, t in enumerate(tris)}
    dual = [[] for _ in tris]
    for ts in tri_of_edge.values():
        if len(ts) == 2:
            a, b = tix[ts[0]], tix[ts[1]]
            dual[a].append(b)
            dual[b].append(a)
    if any(len(nb) > 2 for nb in dual):
        return None
    ends = [i for i, nb in enumerate(dual) if len(nb) <= 1]
    if len(ends) != min(2, len(tris)):
        return None
    order = ends[:1]
    seen = set(order)
    while len(order) < len(tris):
        nxt = [x for x in dual[order[-1]] if x not in seen]
        if not nxt:
            return None
        order.append(nxt[0])
        seen.add(nxt[0])
    # The walk proves the shape.  g is connected and every edge has a
    # common neighbour, so the n - 2 triangles walked cover all n vertices;
    # each shares a chord with the one before it, so each adds exactly one
    # new vertex and two new edges, 3 + 2(n - 3) = m edges in all.  No
    # edge lies on three triangles, so each sits on an outer edge of the
    # stack before it: g is maximal outerplanar, its weak dual is the walk,
    # and its edges on one triangle form the Hamiltonian outer cycle.
    ring = [[] for _ in range(n)]
    for (u, v), ts in tri_of_edge.items():
        if len(ts) == 1:
            ring[u].append(v)
            ring[v].append(u)
    cycle = [0, min(ring[0])]
    while len(cycle) < n:
        prev, (a, b) = cycle[-2], ring[cycle[-1]]
        cycle.append(b if a == prev else a)
    return StripDecomposition(tuple(tris[i] for i in order), tuple(cycle))
