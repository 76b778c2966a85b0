"""Exact decision, optimization, and enumeration of proper k-orientations.

The search branches on edges in a static order (edges with the most
constrained, i.e. highest-degree, endpoints first), trying the second
endpoint as the head first.  After each assignment an endpoint is pruned
when its indegree interval [current, min(current + pending, k)] admits no
value distinct from all fully-decided neighbors, or its current indegree
already exceeds k.  A global capacity bound prunes too: the final indegrees
sum to m and each is at most min(current + pending, k).  To decide, the
search also breaks symmetry: within each class of mutually non-adjacent
vertices with identical neighborhoods it forces a non-increasing indegree
order by vertex id.  Enumeration turns this off, so that it lists every
orientation.

The search state is incremental, so a node costs O(1) plus the degree of
an endpoint whose last edge it orients:
- only the tail's capacity term can change, and it drops by at most one;
- each vertex keeps a bitmask of its decided neighbors' indegrees, backed
  by per-value counts so it can be taken back, and a bitmask of its
  interval, so the interval test is one mask operation;
- a head is judged from reads alone: both ends' intervals, the twin
  order, and the neighbors of an end it decides, tested against their
  masks plus the new values.  Only an accepted head is applied and its
  decided ends published, so a rejected head changes no state;
- one undo step takes back an applied head, whether it led to a complete
  orientation or was exhausted further down.

A split graph with an edge between its clique K and its independent side
I is decided by a DP instead.  It fixes a target indegree for each clique
vertex, folds over I keeping the arcs each clique vertex has received so
far, and accepts when the rest is the score sequence of a tournament on K
(Landau 1953).  One DP state counts as one node against node_budget.
Cliques, with or without isolated vertices, stay on the edge search,
which decides them in about m nodes.  One switch, _decide, picks the
engine and checks its result.

Each engine counts down a budget box [remaining, allowance]; an unlimited
box holds inf, which never runs out.  Either engine stops the same way
when the box is spent: it reads -1, and BudgetExceeded names the allowance.

Both engines sit behind a capacity floor.  The vertices of a clique take
pairwise distinct indegrees, each at most min(k, deg v), and all indegrees
sum to m; so for a partition of V into cliques, m is at most the sum over
the cliques of the largest sum of distinct values under those caps.  The
floor is the least k at which a greedy clique cover passes that test,
and at least omega - 1.  A k below it is answered No without spending
budget; at k >= the max degree the answer is always Yes and the floor is
not computed.

Everything is deterministic: no randomization, fixed tie-breaks, and the
optimizer climbs k upward from the capacity floor, so No answers at cheap
small k are settled first.  Every witness and enumerated orientation
passes orientation._verified, the library's one result check, which also
runs under ``python -O``.
"""

from __future__ import annotations

from itertools import combinations
from math import inf

from .errors import BudgetExceeded, NotChordal
from .graph import Graph
from .orientation import Orientation, _verified
from .recognize import chordal_peo, split_partition


def _edge_order(g: Graph):
    """Edge ids, those with the highest-degree endpoints first."""
    deg, lo, hi = g.degrees(), g.lo, g.hi

    def key(e):
        u, v = lo[e], hi[e]
        a, b = deg[u], deg[v]
        return (-max(a, b), -min(a, b), u, v)

    return sorted(range(g.m), key=key)


def _stable_twin_pairs(g: Graph):
    """Consecutive pairs inside each class of false twins (N(u) == N(v))."""
    classes = {}
    for v in range(g.n):
        classes.setdefault(tuple(g.adj[v]), []).append(v)
    pairs = []
    for members in classes.values():
        for a, b in zip(members, members[1:]):
            pairs.append((a, b))
    return pairs


def _search(g: Graph, k, budget, symmetry_breaking):
    """Yield every proper k-orientation of g as a heads list (edge-id indexed).

    budget: a box [remaining, allowance] from _budget_box.  Its first
    entry is decremented once per node tried, is current at every yield
    and exit, and reads -1 when BudgetExceeded is raised.
    With symmetry_breaking the yielded set is a complete system of
    representatives for the decision problem only.
    """
    n, m = g.n, g.m
    if k < 0:
        return
    if m == 0:
        yield []
        return
    order = _edge_order(g)
    eu = [g.lo[e] for e in order]
    ev = [g.hi[e] for e in order]
    adj = g.adj
    indeg = [0] * n
    rem = g.degrees()
    # global pigeonhole: final indegrees sum to m, each capped at
    # min(indeg + pending, k); only the tail's term can drop, by one
    capacity = sum(min(d, k) for d in rem)
    if capacity < m:
        return
    # values of decided neighbours: cnt[y*w + d] counts y's decided
    # neighbours of indegree d; bit d of fmask[y] is set while it is positive
    w = min(k, max(rem)) + 1
    cnt = [0] * (n * w)
    fmask = [0] * n
    # win[y]: the bits of y's window [indeg, min(indeg + rem, k)]
    win = [(2 << min(d, k)) - 1 for d in rem]
    mark = [-1] * n  # mark[y] == x only when y is a neighbour of x
    # twin order (a, b): indeg[a] + rem[a] >= indeg[b].  Twins are never
    # adjacent, so a pair can only break when a is the tail or b the head.
    twin_next = [-1] * n
    twin_prev = [-1] * n
    if symmetry_breaking:
        for a, b in _stable_twin_pairs(g):
            twin_next[a] = b
            twin_prev[b] = a

    at = [0] * m  # at[e]: the depth at which edge e is oriented
    for p, e in enumerate(order):
        at[e] = p
    hd = [-1] * m  # hd[pos]: the head applied at depth pos
    # tried[pos]: head choices tried at depth pos, v first, then u.  A depth
    # reading 2 is finished: the loop steps back and undoes the depth above
    # it.  tried[m] stays 2, so a complete orientation is undone the same way.
    tried = [0] * m + [2]
    left = budget[0]
    pos = 0
    while True:
        t = tried[pos]
        if t == 2:
            # the one undo step: take back the head applied at depth pos - 1
            pos -= 1
            if pos < 0:
                break
            head = hd[pos]
            tail = eu[pos] + ev[pos] - head
            for x in (head, tail):
                if not rem[x]:
                    d = indeg[x]
                    bit = 1 << d
                    for y in adj[x]:
                        i = y * w + d
                        c = cnt[i] - 1
                        cnt[i] = c
                        if not c:
                            fmask[y] ^= bit
            d = indeg[head] - 1
            indeg[head] = d
            rem[head] += 1
            win[head] ^= 1 << d
            r = rem[tail]
            rem[tail] = r + 1
            d = indeg[tail] + r
            if d < k:
                capacity += 1
                win[tail] ^= 2 << d
            continue
        tried[pos] = t + 1
        left -= 1
        if left < 0:
            _exhausted(budget)
        if t:
            head, tail = eu[pos], ev[pos]
        else:
            head, tail = ev[pos], eu[pos]
        # judge the head from reads only: a rejected one changes nothing
        dh = indeg[head] + 1
        rh = rem[head] - 1
        dt = indeg[tail]
        rt = rem[tail] - 1
        # the head's window loses its lowest value, and is empty when
        # dh > k; the tail's loses its highest when min(dt + rt, k) drops,
        # and so does the capacity
        wh = win[head] ^ (1 << (dh - 1))
        wt = win[tail]
        drop = dt + rt < k
        if drop:
            if capacity == m:
                continue
            wt ^= 2 << (dt + rt)
        bh = 0 if rh else 1 << dh  # the value a decided end publishes
        bt = 0 if rt else 1 << dt
        if not (wh & ~(fmask[head] | bt) and wt & ~(fmask[tail] | bh)):
            continue
        # a twin is never adjacent to its pair, so b and a are not ends
        b = twin_next[tail]
        a = twin_prev[head]
        if ((b >= 0 and dt + rt < indeg[b])
                or (a >= 0 and indeg[a] + rem[a] < dh)):
            continue
        # a neighbour of a decided end needs a free value beside that end's
        # value, and beside both values when it neighbours both ends.
        # Testing every neighbour gives the verdict of testing only those
        # whose mask grows: an unchanged one passed before; a decided one's
        # window is its own value, which the ends' tests kept apart from
        # theirs; the other end still has its wider window from before this
        # edge, which passes when its new one did.
        ok = True
        if bt:
            for y in adj[tail]:
                mark[y] = tail
                if not win[y] & ~(fmask[y] | bt):
                    ok = False
                    break
        if bh and ok:
            for y in adj[head]:
                f = fmask[y] | bh
                if mark[y] == tail:
                    f |= bt
                if not win[y] & ~f:
                    ok = False
                    break
        if not ok:
            continue
        # accepted: apply the head, then publish each decided end's value
        if drop:
            capacity -= 1
        indeg[head] = dh
        rem[head] = rh
        rem[tail] = rt
        win[head] = wh
        win[tail] = wt
        hd[pos] = head
        for x in (head, tail):
            if not rem[x]:
                d = indeg[x]
                bit = 1 << d
                for y in adj[x]:
                    i = y * w + d
                    c = cnt[i]
                    cnt[i] = c + 1
                    if not c:
                        fmask[y] |= bit
        pos += 1
        if pos < m:
            tried[pos] = 0
        else:
            budget[0] = left
            yield [hd[p] for p in at]
            left = budget[0]
    budget[0] = left


def _budget_box(node_budget):
    """[remaining, allowance], both inf when unlimited."""
    if node_budget is None:
        return [inf, inf]
    if node_budget < 0:
        raise ValueError("node_budget must be non-negative")
    return [node_budget, node_budget]


# -- split graphs: a DP over the independent side --------------------------


def _targets(top, twin_prev):
    """Injective t with t[p] <= top[p], in lexicographic order, where
    t[p] > t[twin_prev[p]] whenever twin_prev[p] >= 0.  Yields one list,
    updated in place between yields."""
    w = len(top)
    t = [-1] * w
    used = 0  # bit v is set while some position holds value v
    p = 0
    while p >= 0:
        v = t[p]
        if v >= 0:
            used ^= 1 << v
        v += 1
        q = twin_prev[p]
        if q >= 0 and v <= t[q]:
            v = t[q] + 1
        while v <= top[p] and used >> v & 1:
            v += 1
        if v > top[p]:
            t[p] = -1
            p -= 1
            continue
        t[p] = v
        used |= 1 << v
        if p + 1 == w:
            yield t
        else:
            p += 1


def _is_score_sequence(scores):
    """Landau (1953): the indegrees of some tournament on len(scores)
    vertices, iff the j smallest sum to at least C(j, 2) for every j, and
    all of them to exactly C(len, 2)."""
    total = 0
    for j, s in enumerate(sorted(scores)):
        total += s
        if total < j * (j + 1) // 2:
            return False
    return total == len(scores) * (len(scores) - 1) // 2


def _split_witness(g: Graph, clique, into, scores):
    """Heads list (edge-id indexed) of the DP's orientation.

    clique lists K; into maps each independent vertex with a neighbour to
    the set of its neighbours it sends an arc to, and the rest send an arc
    to it; scores[p] is the indegree clique[p] still needs inside K.  The
    tournament on K is built Havel-Hakimi style: the vertex needing the
    fewest arcs takes them from the others needing the fewest, and sends
    an arc to each of the rest, which then need one fewer.
    """
    heads = [-1] * g.m
    for i, cs in into.items():
        for c in g.adj[i]:
            heads[g.edge_id(i, c)] = c if c in cs else i
    need = list(scores)
    alive = list(range(len(clique)))
    while alive:
        alive.sort(key=lambda q: (need[q], q))
        p = alive.pop(0)
        for j, q in enumerate(alive):
            e = g.edge_id(clique[p], clique[q])
            if j < need[p]:
                heads[e] = clique[p]
            else:
                heads[e] = clique[q]
                need[q] -= 1
    return heads


def _split_decide(g: Graph, k, part, budget):
    """Heads list of a proper k-orientation of split g, or None.

    part is a split partition (K, I) of g in which some vertex of I has a
    neighbour.  For each injective target t: K -> {0..k} (t[c] <= deg c;
    clique vertices with the same neighbours in I are interchangeable, so
    their targets increase with their position), fold over the vertices of
    I that have neighbours, fewest neighbours first.  A state is the number
    of arcs each clique vertex has received from I so far.  Vertex i sends
    its arcs to some of its neighbours and receives from the rest; its
    indegree r needs r <= k and r != t[c] for every neighbour c.  Clique
    vertex c keeps t[c] - (|K| - 1) - (neighbours in I still to come) <=
    arcs received <= t[c], so that a tournament on K can make up the rest,
    and the arcs into K must total sum(t) - C(|K|, 2).  A final state is
    accepted when t - state is a tournament's score sequence.  The budget
    box counts down as in _search; every state created, the empty state of
    each target included, costs one unit.
    """
    clique = sorted(part.clique)
    w = len(clique)
    at = {c: p for p, c in enumerate(clique)}
    ind = sorted((v for v in part.independent if g.adj[v]),
                 key=lambda v: (len(g.adj[v]), v))
    nbrs = [[at[c] for c in g.adj[i]] for i in ind]
    deg = [len(g.adj[c]) for c in clique]
    top = [min(k, d) for d in deg]
    twin_prev = [-1] * w
    last = {}
    for p, c in enumerate(clique):
        key = tuple(x for x in g.adj[c] if x not in at)
        twin_prev[p] = last.get(key, -1)
        last[key] = p
    # a state packs one field of b bits per clique position, and above
    # them the total number of arcs into K so far
    b = max(top).bit_length() or 1
    field = (1 << b) - 1
    shift = [p * b for p in range(w)]
    above = w * b
    units = [[(1 << shift[p]) + (1 << above) for p in ps] for ps in nbrs]
    pairs = w * (w - 1) // 2
    left = budget[0]
    for t in _targets(top, twin_prev):
        left -= 1
        if left < 0:
            _exhausted(budget)
        # the tournament takes C(w, 2) of the sum of t, and I the rest, so
        # the arcs I sends into K must add up to `want`
        want = sum(t) - pairs
        # sizes[j]: how many arcs the j-th vertex of I may send into K,
        # ascending; never empty, as its d <= |K| - 1 <= k neighbours take
        # at most d of the d + 1 indegrees 0..d
        sizes = []
        for ps in nbrs:
            taken = 0
            for p in ps:
                taken |= 1 << t[p]
            d = len(ps)
            sizes.append([d - r for r in range(min(k, d), -1, -1)
                          if not taken >> r & 1])
        least, most = [0], [0]  # over the layers still to come
        for sz in reversed(sizes):
            least.append(least[-1] + sz[0])
            most.append(most[-1] + sz[-1])
        least.reverse()
        most.reverse()
        if not least[0] <= want <= most[0]:
            continue
        # deg c = |K| - 1 + (neighbours in I), all of them still to come
        lo = [t[p] - deg[p] for p in range(w)]
        layer = {0: None}
        back = []
        for j, (ps, us) in enumerate(zip(nbrs, units)):
            nxt = {}
            for state in layer:
                # arcs i -> c: forced when c cannot keep its count, barred
                # when c cannot take one more, free otherwise
                base = state
                forced = 0
                free = []
                for p, u in zip(ps, us):
                    a = state >> shift[p] & field
                    if a < t[p]:
                        if a > lo[p]:
                            free.append(u)
                        else:
                            base += u
                            forced += 1
                    elif a <= lo[p]:
                        break
                else:
                    rest = want - (state >> above)
                    for size in sizes[j]:
                        if not most[j + 1] >= rest - size >= least[j + 1]:
                            continue
                        size -= forced
                        if 0 <= size <= len(free):
                            for arcs in combinations(free, size):
                                new = base + sum(arcs)
                                if new not in nxt:
                                    nxt[new] = state
                                    left -= 1
                                    if left < 0:
                                        _exhausted(budget)
            for p in ps:
                lo[p] += 1
            back.append(nxt)
            layer = nxt
            if not layer:
                break
        else:
            for state in layer:
                scores = [t[p] - (state >> shift[p] & field)
                          for p in range(w)]
                if _is_score_sequence(scores):
                    break
            else:
                continue
            budget[0] = left
            # follow the back-pointers: the clique vertices each i sends to
            into = {}
            for j in range(len(ind) - 1, -1, -1):
                prev = back[j][state]
                into[ind[j]] = {clique[p] for p in nbrs[j]
                                if (state - prev) >> shift[p] & field}
                state = prev
            return _split_witness(g, clique, into, scores)
    budget[0] = left
    return None


def _exhausted(budget):
    # the one way out of either engine when its allowance runs out: the box
    # reads -1, and the message names the allowance
    budget[0] = -1
    raise BudgetExceeded(budget[1])


def _decide(g: Graph, k, part, budget):
    """The one engine switch: a verified proper k-orientation of g, or
    None.  part is split_partition(g); a split graph with an edge between
    its sides goes to the split DP, any other graph to the edge search,
    and either counts down the budget box."""
    if part is not None and any(g.adj[v] for v in part.independent):
        heads = _split_decide(g, k, part, budget)
    else:
        heads = next(_search(g, k, budget, True), None)
    if heads is None:
        return None
    return _verified(Orientation(g, heads), "the search", k)


def decide_k_orientation(g: Graph, k: int, node_budget=None, _budget=None):
    """A verified proper k-orientation of g, or None if none exists.

    Answers No outright, spending no budget, below the capacity floor: the
    clique floor omega - 1 (any clique of size w needs indegrees 0..w-1),
    raised where a clique cover cannot hold m arcs with distinct capped
    indegrees in each clique.  The floor is not computed at k >= the max
    degree, where the answer is always Yes.  Raises BudgetExceeded when
    node_budget (search nodes, or DP states) runs out before an answer.
    _budget, when given, is a box from _budget_box to count down instead.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    budget = _budget or _budget_box(node_budget)
    part = split_partition(g)
    if k < g.max_degree() and k < _capacity_floor(g, _omega(g, part)):
        return None
    return _decide(g, k, part, budget)


def _omega(g: Graph, part):
    """The clique number: |K| for a split partition, else branch and bound."""
    return len(part.clique) if part is not None else clique_number(g)


def _clique_cover(g: Graph):
    """A partition of V into cliques, as lists of vertices.

    Start vertices are taken in one static order, highest degree first,
    then by id; each clique grows by the candidate with the most neighbours
    among the remaining candidates, ties to the smallest id.
    """
    bits = _neighbour_bits(g)
    free = (1 << g.n) - 1
    cover = []
    for s in sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v)):
        if not free >> s & 1:
            continue
        free ^= 1 << s
        clique = [s]
        cand = bits[s] & free
        while cand:
            best, most = -1, -1
            rest = cand
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                c = (bits[v] & cand).bit_count()
                if c > most:
                    best, most = v, c
            free ^= 1 << best
            clique.append(best)
            cand &= bits[best]
        cover.append(clique)
    return cover


def _capacity_floor(g: Graph, omega):
    """The least k >= omega - 1 at which _clique_cover(g) can hold m arcs.

    A clique whose degrees, in descending order, are d_0 >= d_1 >= ...
    holds at most sum_i min(k - i, b_i) arcs, where b_0 = d_0 and
    b_i = min(d_i, b_{i-1} - 1): the i-th value greedily takes the largest
    value below the previous one within its cap min(k, d_i), which is the
    largest sum of distinct values under the caps.  Every term is
    non-negative once k >= omega - 1.
    """
    terms = []
    for clique in _clique_cover(g):
        b = inf
        for i, d in enumerate(sorted((len(g.adj[v]) for v in clique),
                                     reverse=True)):
            b = min(d, b - 1)
            terms.append((i, b))
    # the capacity grows with k and reaches m at the max degree, where a
    # proper orientation always exists
    lo, hi = max(omega - 1, 0), g.max_degree()
    while lo < hi:
        mid = (lo + hi) // 2
        if sum(min(mid - i, b) for i, b in terms) >= g.m:
            hi = mid
        else:
            lo = mid + 1
    return lo


def proper_orientation_number(g: Graph, node_budget=None):
    """Exact minimum k admitting a proper k-orientation, with a witness.

    Climbs k from the capacity floor (computed once, on the exact omega,
    from one split partition) up to the max degree; the first Yes is
    optimal.  The node budget, when set, is shared across the whole climb.
    """
    budget = _budget_box(node_budget)
    part = split_partition(g)
    for k in range(_capacity_floor(g, _omega(g, part)), g.max_degree() + 1):
        witness = _decide(g, k, part, budget)
        if witness is not None:
            return k, witness
    raise AssertionError("a proper max-degree orientation always exists")


def enumerate_proper_k_orientations(g: Graph, k: int, node_budget=None):
    """Every proper k-orientation exactly once, in deterministic order.

    Symmetry breaking is disabled so the stream is exhaustive; guard large
    inputs with node_budget (BudgetExceeded aborts the stream).
    """
    for heads in _search(g, k, _budget_box(node_budget),
                         symmetry_breaking=False):
        yield _verified(Orientation(g, heads), "the enumeration", k)


def fpt_chordal(g: Graph, k: int, node_budget=None):
    """Decision for chordal g: the capacity floor taken on the omega of
    the elimination check, which answers No below omega - 1 without
    spending budget, then the engine switch of decide_k_orientation.

    Returns a witness Orientation or None, like decide_k_orientation, and
    raises as it does.  Raises NotChordal for non-chordal input.
    """
    budget = _budget_box(node_budget)
    check = chordal_peo(g)
    if check.peo is None:
        raise NotChordal(f"input has chordless cycle {check.chordless_cycle}")
    if k < 0:
        raise ValueError("k must be non-negative")
    if k < _capacity_floor(g, check.omega):
        return None
    return _decide(g, k, split_partition(g), budget)


# -- exact clique number (plumbing for the optimizer's lower bound) -----


def _neighbour_bits(g: Graph):
    """bits[v]: the neighbours of v as a bitset."""
    bits = [0] * g.n
    for u, v in zip(g.lo, g.hi):
        bits[u] |= 1 << v
        bits[v] |= 1 << u
    return bits


def clique_number(g: Graph) -> int:
    """Exact max clique size via branch and bound with a coloring bound.

    Depth-first over candidate bitsets with an explicit stack, so the depth
    of the search (the clique size) is not limited by Python's recursion.
    The coloring stops as soon as it cannot prune, and a candidate set
    that is a clique is taken whole, so a large clique costs one pass.
    """
    n = g.n
    if n == 0:
        return 0
    if g.m == 0:
        return 1
    bits = _neighbour_bits(g)
    order = sorted(range(n), key=lambda v: (len(g.adj[v]), v))
    best = 1

    def colors_exceed(cand, limit):
        # greedy coloring of the candidate set; its class count bounds the
        # clique, and only whether it exceeds limit matters
        classes = []
        rest = cand
        while rest:
            v = rest & -rest
            rest ^= v
            nbrs = bits[v.bit_length() - 1]
            for i, cls in enumerate(classes):
                if not (cls & nbrs):
                    classes[i] |= v
                    break
            else:
                classes.append(v)
                if len(classes) > limit:
                    return True
        return False

    def is_clique(cand):
        rest = cand
        while rest:
            v = rest & -rest
            rest ^= v
            if cand & ~bits[v.bit_length() - 1] != v:
                return False
        return True

    # frames (size, cand, i): a clique of `size` vertices, the candidates
    # that extend it, and the next position in `order`; i == 0 on entry
    stack = [(0, (1 << n) - 1, 0)]
    while stack:
        size, cand, i = stack.pop()
        if not cand:
            best = max(best, size)
            continue
        if size + cand.bit_count() <= best:
            continue
        if i == 0:
            # a branch whose candidates already form a clique ends here
            if is_clique(cand):
                best = max(best, size + cand.bit_count())
                continue
            if not colors_exceed(cand, best - size):
                continue
        while i < n:
            v = order[i]
            i += 1
            bit = 1 << v
            if cand & bit:
                cand ^= bit
                stack.append((size, cand, i))
                stack.append((size + 1, cand & bits[v], 0))
                break
    return best
