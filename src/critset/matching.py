"""Maximum matchings: bipartite (Hopcroft-Karp), general (blossom), Hall queries.

Every routine works on the graph's sorted neighbour lists and none recurses,
so the depth of a search does not grow with n. One Hopcroft-Karp kernel
serves both the matchings between two vertex sets of a graph (Hall queries
and maximum_matching_bipartite) and the matching of the double cover, which
is never built: critical.py runs the kernel once per graph with the plus and
minus copies both numbered by the graph's ids, and memoises the result on
the Graph. The kernel returns the left ids of its final BFS, the phase that
finds no free vertex: the alternating reach of the unmatched left ids. On
the double cover that reach is ker, which also gives the Ore side sets;
between two vertex sets it is the Hall violator; and oracle.py reads the
ker characterization's per-vertex condition from it, run on a matching of
N(a) into a that is already maximum.
"""

from __future__ import annotations

from itertools import compress

from .graphs import (BipartitePartition, Graph, VertexSet, _check_subset,
                     vflags, vset)


class Matching:
    """Pairwise non-incident edges, stored as their mate map over the host
    graph's ids: mate[v] is v's partner, or -1 when v is unmatched."""

    __slots__ = ("mate",)

    def __init__(self, n: int, pairs: list[tuple[int, int]]):
        mate = [-1] * n
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if mate[u] != -1 or mate[v] != -1:
                raise ValueError(f"incident edges at ({u},{v})")
            mate[u], mate[v] = v, u
        self.mate = tuple(mate)

    @classmethod
    def _of(cls, mate: list[int]) -> "Matching":
        """Wrap a symmetric mate array that the library built, unchecked."""
        m = object.__new__(cls)
        m.mate = tuple(mate)
        return m

    @property
    def n(self) -> int:
        return len(self.mate)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The matched pairs (u, v) with u < v."""
        return frozenset([(u, v) for u, v in enumerate(self.mate) if v > u])

    def __len__(self) -> int:
        mate = self.mate
        return (len(mate) - mate.count(-1)) // 2

    def __repr__(self) -> str:
        return f"Matching({sorted(self.edges)})"


def _max_matching_lists(adj, left, mate_l: list[int],
                        mate_r: list[int]) -> list[int]:
    """Hopcroft-Karp over neighbour lists: grow the matching held in mate_l
    (left id to right id, -1 when unmatched) and mate_r (the reverse) to a
    maximum one, using the edges from each left id u to adj[u], and return
    the left ids of its final BFS.

    `left` lists the left ids in the order roots are tried; left and right ids
    may share one numbering (the double cover) or be disjoint ids of one graph,
    in which case mate_l and mate_r may be the same list. Each phase layers the
    left vertices by BFS from the unmatched ones, then runs one DFS per
    unmatched root. The DFS keeps an explicit stack but visits exactly as the
    recursive form would: it takes the first neighbour, in adj order, that is
    free or whose mate lies one layer deeper and leads to a free vertex, and
    it retires a vertex whose neighbours are exhausted. The matching is
    therefore reproducible from the order of left and adj alone.

    The final BFS meets no free right id, so it walks the whole alternating
    reach of the unmatched left ids: from a reached left id u an edge to a
    right id in adj[u], then the matching edge back to a left id. It returns
    that reach, the unmatched left ids first. On a matching that is already
    maximum only this BFS runs.
    """
    inf = len(mate_l) + 1  # deeper than any BFS layer
    dist = [inf] * len(mate_l)
    while True:
        queue = []
        for u in left:
            if mate_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = inf
        found = False
        for u in queue:
            deeper = dist[u] + 1
            for v in adj[u]:
                w = mate_r[v]
                if w == -1:
                    found = True
                elif dist[w] == inf:
                    dist[w] = deeper
                    queue.append(w)
        if not found:
            return queue
        for root in left:
            if mate_l[root] != -1:
                continue
            # stack[k] descended through its neighbour adj[stack[k]][pos[k] - 1]
            stack, pos = [root], [0]
            while stack:
                u = stack[-1]
                nb = adj[u]
                i = pos[-1]
                deeper = dist[u] + 1
                descend = free = False
                while i < len(nb):
                    w = mate_r[nb[i]]
                    i += 1
                    if w == -1:
                        free = True
                        break
                    if dist[w] == deeper:
                        descend = True
                        break
                pos[-1] = i
                if free:
                    for x, k in zip(stack, pos):
                        y = adj[x][k - 1]
                        mate_l[x], mate_r[y] = y, x
                    break
                if descend:
                    stack.append(w)
                    pos.append(0)
                else:
                    dist[u] = inf
                    stack.pop()
                    pos.pop()


def _hopcroft_karp(g: Graph, left: VertexSet, right: VertexSet):
    """Maximum matching between left and right using only left-right edges.

    Returns the mate array over all of g's ids (-1 for unmatched or outside)
    and the left ids that alternating paths reach from the unmatched ones.
    Vertices are scanned in increasing id order so the result is
    reproducible.
    """
    ids = list(compress(range(g.n), vflags(left, g.n)))
    in_right = vflags(right, g.n)
    nbrs = g.nbrs
    adj: list = [()] * g.n
    for u in ids:
        adj[u] = [v for v in nbrs[u] if in_right[v]]
    mate = [-1] * g.n
    return mate, _max_matching_lists(adj, ids, mate, mate)


def maximum_matching_bipartite(g: Graph, parts: BipartitePartition) -> Matching:
    """Return a maximum matching of a bipartite graph."""
    _check_parts(g, parts)
    return Matching._of(_hopcroft_karp(g, parts.side_a, parts.side_b)[0])


def _check_parts(g: Graph, parts: BipartitePartition) -> None:
    """Raise ValueError unless parts splits V with no edge inside a side. An
    edge inside side_a is named first, even when side_b has one too."""
    a, b = parts
    if a & b or (a | b) != g.full:
        raise ValueError("partition sides must split V")
    in_a = vflags(a, g.n)
    inner_b = False
    for side, nb in zip(in_a, g.nbrs):
        for v in nb:
            if in_a[v] == side:
                if side:
                    raise ValueError("edge inside side_a")
                inner_b = True
                break
    if inner_b:
        raise ValueError("edge inside side_b")


def maximum_matching_general(g: Graph) -> Matching:
    """Return a maximum matching of an arbitrary simple graph (blossoms handled).

    Edmonds' algorithm: a greedy start, then one alternating-tree search per
    vertex still unmatched, in increasing id order. A search marks only the
    vertices its tree reaches, and only those are reset after it. A tree
    that fails to augment holds no vertex of a later augmenting path
    (Edmonds 1965), so later searches skip its vertices in neighbour lists.
    A blossom's base is the root of its union-find set, and two tree paths
    meet where walks up both by turns first cross (Gabow 1976).
    """
    n = g.n
    adj = g.nbrs
    mate = [-1] * n
    # greedy warm start, scanning ids upward
    for u in range(n):
        if mate[u] == -1:
            for v in adj[u]:
                if mate[v] == -1:
                    mate[u], mate[v] = v, u
                    break

    parent = [-1] * n
    link = list(range(n))  # x's base is the root of its link chain
    used = bytearray(n)
    dead = bytearray(n)  # the vertices of failed trees
    stamp, calls = [0] * n, 0  # the lca call that last walked each base

    def find(x: int) -> int:
        while link[x] != x:  # path halving
            link[x] = x = link[link[x]]
        return x

    def lca(a: int, b: int) -> int:
        # the first base a walk finds stamped is the lowest common one; once
        # a walk passes the root, which has no mate, the other goes on alone
        nonlocal calls
        calls += 1
        x, y = find(a), find(b)
        while stamp[x] != calls:
            stamp[x] = calls
            x = find(parent[mate[x]]) if mate[x] != -1 else -1
            if y != -1:
                x, y = y, x
        return x

    def mark_path(x: int, b_vertex: int, child: int, blossom: set) -> None:
        while (base_x := find(x)) != b_vertex:
            blossom.add(base_x)
            blossom.add(find(mate[x]))
            parent[x] = child
            child = mate[x]
            x = parent[child]

    def find_augmenting_path(root: int, queue: list[int],
                             inner: list[int]) -> int:
        """Grow the tree at root; queue collects the even vertices and inner
        the odd ones, which together are every vertex the search marks."""
        used[root] = 1
        queue.append(root)
        for u in queue:
            # mate[u] is fixed during a search; u's base moves only when a
            # blossom holding u is contracted, and is found again after that
            mate_u, base_u = mate[u], link[u]
            if base_u != link[base_u]:
                base_u = find(base_u)
            for v in adj[u]:
                # a v in u's blossom whose link is not the base falls through
                # to the contraction below, whose lca is base_u: a no-op
                if dead[v] or v == mate_u or link[v] == base_u:
                    continue
                mate_v = mate[v]
                if v == root or (mate_v != -1 and parent[mate_v] != -1):
                    # odd cycle: contract the blossom at the lca; its unused
                    # bases are singletons, queued in increasing id order
                    curbase = lca(u, v)
                    blossom: set[int] = set()
                    mark_path(u, curbase, v, blossom)
                    mark_path(v, curbase, u, blossom)
                    for b in sorted(blossom):
                        link[b] = curbase
                        if not used[b]:
                            used[b] = 1
                            queue.append(b)
                    base_u = find(u)
                elif parent[v] == -1:
                    parent[v] = u
                    inner.append(v)
                    if mate_v == -1:
                        return v
                    used[mate_v] = 1
                    queue.append(mate_v)
        return -1

    for u in range(n):
        if mate[u] == -1:
            queue: list[int] = []
            inner: list[int] = []
            v = find_augmenting_path(u, queue, inner)
            if v == -1:
                for x in queue + inner:
                    dead[x] = 1
            while v != -1:
                pv = parent[v]
                ppv = mate[pv]
                mate[v], mate[pv] = pv, v
                v = ppv
            for x in queue + inner:
                parent[x] = -1
                link[x] = x
                used[x] = 0
    return Matching._of(mate)


def saturating_matching(
        g: Graph, from_set: VertexSet,
        into: VertexSet) -> tuple[Matching | None, VertexSet | None]:
    """Match every vertex of from_set into into, or give a Hall violator.

    Returns (matching, None) on success, else (None, B) with B a nonempty
    subset of from_set such that |N(B) & into| < |B|.
    """
    if (from_set | into) >> g.n:
        _check_subset(g, from_set if from_set >> g.n else into)
    if from_set & into:
        raise ValueError("from_set and into must be disjoint")
    mate, reached = _hopcroft_karp(g, from_set, into)
    if reached:
        return None, vset(reached)
    return Matching._of(mate), None
