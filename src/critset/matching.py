"""Maximum matchings: bipartite (Hopcroft-Karp), general (blossom), Hall queries."""

from __future__ import annotations

from .graphs import BipartitePartition, Graph, VertexSet, iter_bits

_INF = float("inf")


class Matching:
    """Pairwise non-incident edges with a mate map over the host graph's ids."""

    __slots__ = ("n", "edges", "mate")

    def __init__(self, n: int, pairs: list[tuple[int, int]]):
        mate = [-1] * n
        edges = set()
        for u, v in pairs:
            if mate[u] != -1 or mate[v] != -1:
                raise ValueError(f"incident edges at ({u},{v})")
            mate[u], mate[v] = v, u
            edges.add((min(u, v), max(u, v)))
        self.n = n
        self.edges = frozenset(edges)
        self.mate = tuple(mate)

    def __len__(self) -> int:
        return len(self.edges)

    def covered(self) -> VertexSet:
        """Bitmask of saturated vertices."""
        mask = 0
        for u, v in self.edges:
            mask |= 1 << u | 1 << v
        return mask

    def saturates(self, x: VertexSet) -> bool:
        return x & ~self.covered() == 0

    def matched_into(self, x: VertexSet) -> VertexSet:
        """Return M(x): vertices matched with members of x."""
        out = 0
        for v in iter_bits(x):
            if self.mate[v] != -1:
                out |= 1 << self.mate[v]
        return out

    def __repr__(self) -> str:
        return f"Matching({sorted(self.edges)})"


def _hopcroft_karp(g: Graph, left: VertexSet, right: VertexSet) -> list[int]:
    """Maximum matching between left and right using only left-right edges.

    Returns the mate array over all of g's ids (-1 for unmatched or outside).
    Vertices are scanned in increasing id order so the result is reproducible.
    """
    left_ids = list(iter_bits(left))
    adj = {u: list(iter_bits(g.adj[u] & right)) for u in left_ids}
    mate = [-1] * g.n
    dist: dict[int, float] = {}

    def bfs() -> bool:
        queue = []
        for u in left_ids:
            if mate[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        found = False
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in adj[u]:
                w = mate[v]
                if w == -1:
                    found = True
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = mate[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                mate[u], mate[v] = v, u
                return True
        dist[u] = _INF
        return False

    while bfs():
        for u in left_ids:
            if mate[u] == -1:
                dfs(u)
    return mate


def _mate_pairs(mate: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for u, v in enumerate(mate) if v > u]


def maximum_matching_bipartite(g: Graph, parts: BipartitePartition) -> Matching:
    """Return a maximum matching of a bipartite graph."""
    _check_parts(g, parts)
    mate = _hopcroft_karp(g, parts.side_a, parts.side_b)
    return Matching(g.n, _mate_pairs(mate))


def _check_parts(g: Graph, parts: BipartitePartition) -> None:
    a, b = parts
    if a & b or (a | b) != g.full:
        raise ValueError("partition sides must split V")
    for u in iter_bits(a):
        if g.adj[u] & a:
            raise ValueError("edge inside side_a")
    for u in iter_bits(b):
        if g.adj[u] & b:
            raise ValueError("edge inside side_b")


def _unmatched(mate: list[int], x: VertexSet) -> VertexSet:
    """Members of x that the mate array leaves unmatched."""
    return sum(1 << v for v in iter_bits(x) if mate[v] == -1)


def _alternating_reach(g: Graph, mate: list[int], start: VertexSet,
                       right: VertexSet) -> VertexSet:
    """Vertices reachable from start by alternating paths: any edge from a
    reached vertex into right, then the matching edge back out of right."""
    reach = start
    stack = list(iter_bits(start))
    while stack:
        u = stack.pop()
        for v in iter_bits(g.adj[u] & right & ~reach):
            reach |= 1 << v
            w = mate[v]
            if w != -1 and not reach >> w & 1:
                reach |= 1 << w
                stack.append(w)
    return reach


def maximum_matching_general(g: Graph) -> Matching:
    """Return a maximum matching of an arbitrary simple graph (blossoms handled)."""
    n = g.n
    adj = [list(iter_bits(g.adj[u])) for u in range(n)]
    mate = [-1] * n
    # greedy warm start, scanning ids upward
    for u in range(n):
        if mate[u] == -1:
            for v in adj[u]:
                if mate[v] == -1:
                    mate[u], mate[v] = v, u
                    break

    parent = [-1] * n
    base = list(range(n))

    def find_augmenting_path(root: int) -> int:
        for i in range(n):
            parent[i] = -1
            base[i] = i
        used = [False] * n
        used[root] = True
        queue = [root]
        head = 0

        def lca(a: int, b: int) -> int:
            used_path = [False] * n
            x = a
            while True:
                x = base[x]
                used_path[x] = True
                if mate[x] == -1:
                    break
                x = parent[mate[x]]
            y = b
            while True:
                y = base[y]
                if used_path[y]:
                    return y
                y = parent[mate[y]]

        def mark_path(x: int, b_vertex: int, child: int) -> None:
            while base[x] != b_vertex:
                blossom[base[x]] = True
                blossom[base[mate[x]]] = True
                parent[x] = child
                child = mate[x]
                x = parent[mate[x]]

        while head < len(queue):
            u = queue[head]
            head += 1
            for v in adj[u]:
                if base[u] == base[v] or mate[u] == v:
                    continue
                if v == root or (mate[v] != -1 and parent[mate[v]] != -1):
                    # odd cycle: contract the blossom at the lca
                    curbase = lca(u, v)
                    blossom = [False] * n
                    mark_path(u, curbase, v)
                    mark_path(v, curbase, u)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[v] == -1:
                    parent[v] = u
                    if mate[v] == -1:
                        return v
                    used[mate[v]] = True
                    queue.append(mate[v])
        return -1

    for u in range(n):
        if mate[u] == -1:
            v = find_augmenting_path(u)
            while v != -1:
                pv = parent[v]
                ppv = mate[pv]
                mate[v], mate[pv] = pv, v
                v = ppv
    return Matching(n, _mate_pairs(mate))


def deficiency(g: Graph) -> int:
    """Return def(g) = |V| - 2 mu(g)."""
    return g.n - 2 * len(maximum_matching_general(g))


def saturating_matching(
        g: Graph, from_set: VertexSet,
        into: VertexSet) -> tuple[Matching | None, VertexSet | None]:
    """Match every vertex of from_set into into, or give a Hall violator.

    Returns (matching, None) on success, else (None, B) with B a nonempty
    subset of from_set such that |N(B) & into| < |B|.
    """
    if from_set & into:
        raise ValueError("from_set and into must be disjoint")
    mate = _hopcroft_karp(g, from_set, into)
    unmatched = _unmatched(mate, from_set)
    if not unmatched:
        pairs = [(u, mate[u]) for u in iter_bits(from_set) if mate[u] != -1]
        return Matching(g.n, pairs), None
    reach = _alternating_reach(g, mate, unmatched, into)
    violator = from_set & reach
    return None, violator
