"""The search tier: the independence number alpha, exact, by branch and reduce.

alpha is exponential in the worst case and guarded by ALPHA_LIMIT. Vertices
with at most one live neighbour are taken without branching, and a greedy
clique cover, which stops counting as soon as it can no longer prune, bounds
every branch. The search nodes sit on an explicit stack, so nothing
recurses. The enumeration of the maximum independent sets, with core and
corona, prunes with the same bound and lives in oracle.py.
"""

from __future__ import annotations

from .graphs import Graph, LimitExceeded, VertexSet

ALPHA_LIMIT = 40


def _greedy_clique_cover(adj: tuple[VertexSet, ...], avail: VertexSet,
                         cap: int) -> int:
    """Greedily partition avail into cliques and count them; the full count
    is an upper bound on the independence number of the induced subgraph.

    The count stops as soon as it passes cap, so the result is at most cap
    exactly when the full count is, and a caller pruning on "count <= cap"
    never pays for the cliques beyond that point.
    """
    bound = 0
    rest = avail
    while rest and bound <= cap:
        low = rest & -rest
        rest ^= low
        cand = rest & adj[low.bit_length() - 1]
        while cand:
            low = cand & -cand
            rest ^= low
            cand &= adj[low.bit_length() - 1] & rest
        bound += 1
    return bound


def alpha(g: Graph, limit: int = ALPHA_LIMIT) -> int:
    """Independence number, by branch and reduce.

    Each search node scans the live vertices once for their live degrees. A
    vertex with at most one live neighbour lies in some maximum independent
    set of what is left, so it is taken without a branch and the scan
    repeats. Otherwise the node branches on the first vertex of maximum live
    degree, taking it first, after pruning with the greedy clique cover
    bound, which stops counting once it can no longer prune.
    """
    if g.n > limit:
        raise LimitExceeded(f"n={g.n} exceeds alpha limit {limit}")
    adj = g.adj
    best = 0
    # search nodes still to run, as (live vertices, size taken so far); a
    # branch vertex's exclude node waits here while its include node runs
    todo = [(g.full, 0)]
    while todo:
        avail, size = todo.pop()
        while avail:
            top = -1
            rest = avail
            while rest:
                low = rest & -rest
                rest ^= low
                u = low.bit_length() - 1
                d = (adj[u] & avail).bit_count()
                if d <= 1:
                    avail &= ~(adj[u] | low)
                    size += 1
                    break
                if d > top:
                    top, v = d, u
            else:
                # every live vertex has two or more live neighbours
                cap = best - size
                if _greedy_clique_cover(adj, avail, cap) <= cap:
                    break  # pruned: the node ends without a leaf
                todo.append((avail ^ 1 << v, size))
                avail &= ~(adj[v] | 1 << v)
                size += 1
        else:
            if size > best:
                best = size
    return best
