"""Brute-force reference answers for cross-checking the library.

Every function works on the bare pair (n, adj), where adj[v] is the neighbor
bitmask of vertex v. Nothing here imports the package under test, so the two
sides of each cross-check stay independent. Runtime is exponential in n by
design; callers keep n small.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def neigh(adj: list[int], x: int) -> int:
    out = 0
    for v in bits(x):
        out |= adj[v]
    return out


def d_of(adj: list[int], x: int) -> int:
    return x.bit_count() - neigh(adj, x).bit_count()


def is_independent(adj: list[int], x: int) -> bool:
    return neigh(adj, x) & x == 0


def include_first(n: int, masks) -> list[int]:
    """masks in the order the library's DFSs yield them: of two masks, the
    one holding the lowest vertex where they differ comes first."""
    return sorted(masks, key=lambda m: [not m >> v & 1 for v in range(n)])


def all_independent_sets(n: int, adj: list[int]) -> list[int]:
    return [x for x in range(1 << n) if is_independent(adj, x)]


def brute_d(n: int, adj: list[int]) -> int:
    return max(d_of(adj, x) for x in range(1 << n))


def brute_d_independent(n: int, adj: list[int]) -> int:
    return max(d_of(adj, x) for x in all_independent_sets(n, adj))


def brute_critical_independent_sets(n: int, adj: list[int]) -> list[int]:
    target = brute_d(n, adj)
    return [x for x in all_independent_sets(n, adj) if d_of(adj, x) == target]


def brute_ker(n: int, adj: list[int]) -> int:
    out = (1 << n) - 1
    for x in brute_critical_independent_sets(n, adj):
        out &= x
    return out


def brute_diadem(n: int, adj: list[int]) -> int:
    out = 0
    for x in brute_critical_independent_sets(n, adj):
        out |= x
    return out


def brute_alpha(n: int, adj: list[int]) -> int:
    return max(x.bit_count() for x in all_independent_sets(n, adj))


def brute_mis_family(n: int, adj: list[int]) -> list[int]:
    target = brute_alpha(n, adj)
    return [x for x in all_independent_sets(n, adj)
            if x.bit_count() == target]


def brute_core(n: int, adj: list[int]) -> int:
    out = (1 << n) - 1
    for x in brute_mis_family(n, adj):
        out &= x
    return out


def brute_corona(n: int, adj: list[int]) -> int:
    out = 0
    for x in brute_mis_family(n, adj):
        out |= x
    return out


def brute_mu(n: int, adj: list[int]) -> int:
    adj_t = tuple(adj)

    @lru_cache(maxsize=None)
    def rec(avail: int) -> int:
        v = -1
        for cand in bits(avail):
            if adj_t[cand] & avail:
                v = cand
                break
        if v == -1:
            return 0
        rest = avail & ~(1 << v)
        best = rec(rest)  # v stays unmatched
        for u in bits(adj_t[v] & avail):
            score = 1 + rec(rest & ~(1 << u))
            if score > best:
                best = score
        return best

    return rec((1 << n) - 1)


def brute_deficiency(n: int, adj: list[int]) -> int:
    return n - 2 * brute_mu(n, adj)


def brute_is_ke(n: int, adj: list[int]) -> bool:
    return brute_alpha(n, adj) + brute_mu(n, adj) == n


def brute_minimal_positive(n: int, adj: list[int]) -> list[int]:
    positives = [x for x in all_independent_sets(n, adj) if d_of(adj, x) > 0]
    return [s for s in positives
            if not any(p != s and p & ~s == 0 for p in positives)]


def brute_max_critical_independent_sets(n: int, adj: list[int]) -> list[int]:
    family = brute_critical_independent_sets(n, adj)
    top = max(x.bit_count() for x in family)
    return [x for x in family if x.bit_count() == top]


def submasks(side: int) -> list[int]:
    out = []
    sub = side
    while True:
        out.append(sub)
        if sub == 0:
            return out
        sub = (sub - 1) & side


def brute_delta0(n: int, adj: list[int], side: int) -> int:
    return max(d_of(adj, x) for x in submasks(side))


def brute_side_critical_sets(n: int, adj: list[int], side: int) -> list[int]:
    target = brute_delta0(n, adj, side)
    return [x for x in submasks(side) if d_of(adj, x) == target]


def brute_side_kernel(n: int, adj: list[int], side: int) -> int:
    out = (1 << n) - 1
    for x in brute_side_critical_sets(n, adj, side):
        out &= x
    return out


def brute_side_diadem(n: int, adj: list[int], side: int) -> int:
    out = 0
    for x in brute_side_critical_sets(n, adj, side):
        out |= x
    return out


# -- one walk over the independent sets: the enumeration readers' reference --

def independent_masks(n: int, adj: list[int]) -> list[int]:
    """Every independent mask, each grown from the one without its top
    vertex; by size, so every mask comes after the masks it holds."""
    found = [0]
    for m in found:
        found += [m | 1 << v for v in range(m.bit_length(), n)
                  if not adj[v] & m]
    return found


class Families(NamedTuple):
    critical: list[int]  # the critical independent sets, include-first
    max_critical: int  # the largest, least sorted id list among equals
    mis: list[int]  # the maximum independent sets, include-first
    alpha: int
    core: int
    corona: int


def independent_families(n: int, adj: list[int]) -> Families:
    """The critical and maximum independent families, read off
    independent_masks with d_of alone: as the paper defines them, a critical
    set attains the largest d over the independent sets."""
    ind = independent_masks(n, adj)
    ds = [d_of(adj, x) for x in ind]
    top, alpha = max(ds), max(map(int.bit_count, ind))
    critical = include_first(n, [x for x, d in zip(ind, ds) if d == top])
    size = max(map(int.bit_count, critical))
    mis = include_first(n, [x for x in ind if x.bit_count() == alpha])
    core, corona = (1 << n) - 1, 0
    for x in mis:
        core &= x
        corona |= x
    return Families(critical, min((x for x in critical
                                   if x.bit_count() == size), key=bits),
                    mis, alpha, core, corona)


# -- per-vertex rules: polynomial references past the subset oracles' reach --

def bipartite_mu(rows: dict[int, int]) -> int:
    """Matching number of a bipartite graph given as left id -> bitmask of
    right ids (the two id spaces are separate), by Kuhn's augmenting paths."""
    owner: dict[int, int] = {}

    def augment(u: int, seen: set[int]) -> bool:
        for v in bits(rows[u]):
            if v not in seen:
                seen.add(v)
                if v not in owner or augment(owner[v], seen):
                    owner[v] = u
                    return True
        return False

    return sum(1 for u in rows if augment(u, set()))


def cover_d(n: int, adj: list[int], gone: int = 0) -> int:
    """d(G - gone) = |V'| - mu of the double cover of G - gone."""
    alive = ((1 << n) - 1) & ~gone
    return alive.bit_count() - bipartite_mu(
        {u: adj[u] & alive for u in bits(alive)})


def deletion_ker(n: int, adj: list[int]) -> int:
    """ker by the deletion rule: v belongs iff d(G - v) = d(G) - 1."""
    d0 = cover_d(n, adj)
    return sum(1 << v for v in range(n) if cover_d(n, adj, 1 << v) == d0 - 1)


def forcing_diadem(n: int, adj: list[int]) -> int:
    """diadem by the forcing rule: v belongs iff
    1 - |N(v)| + d(G - N[v]) = d(G)."""
    d0 = cover_d(n, adj)
    return sum(1 << v for v in range(n)
               if 1 - adj[v].bit_count() + cover_d(n, adj, adj[v] | 1 << v)
               == d0)


def side_delta0(adj: list[int], side: int, gone: int = 0) -> int:
    """Largest deficiency over the side within G - gone, for bipartite G:
    the side's surviving size minus the matching number between the sides."""
    rest = side & ~gone
    return rest.bit_count() - bipartite_mu(
        {u: adj[u] & ~gone for u in bits(rest)})


def deletion_side_kernel(adj: list[int], side: int) -> int:
    """Side kernel by the deletion rule: v belongs iff deleting it drops the
    side's deficiency maximum by exactly 1."""
    d0 = side_delta0(adj, side)
    return sum(1 << v for v in bits(side)
               if side_delta0(adj, side, 1 << v) == d0 - 1)


def forcing_side_diadem(adj: list[int], side: int) -> int:
    """Side diadem by the forcing rule: v belongs iff
    1 - |N(v)| + delta0 of the side in G - N[v] equals delta0 of the side."""
    d0 = side_delta0(adj, side)
    return sum(1 << v for v in bits(side)
               if 1 - adj[v].bit_count()
               + side_delta0(adj, side, adj[v] | 1 << v) == d0)


def search_minimal_positive(n: int, adj: list[int]) -> list[int]:
    """The inclusion-minimal independent sets with d >= 1 in include-first
    order, by a DFS that reaches past brute_minimal_positive's sizes. A node
    branches on its lowest candidate, taking it first, and stops once the
    chosen set has d >= 1, as every superset has it as a subset. That set is
    minimal iff no S - v holds a subset of positive difference; for an
    independent X the largest d over its subsets is |X| - mu(X, N(X)), by
    the defect form of Hall's theorem."""
    def best_subset_d(x: int) -> int:
        return x.bit_count() - bipartite_mu({u: adj[u] for u in bits(x)})

    out = []
    todo = [((1 << n) - 1, 0)]  # (candidates, chosen set)
    while todo:
        avail, chosen = todo.pop()
        while True:
            d = d_of(adj, chosen)
            if d >= 1:
                if all(best_subset_d(chosen & ~(1 << v)) <= 0
                       for v in bits(chosen)):
                    out.append(chosen)
                break
            if d + avail.bit_count() < 1:
                break
            low = avail & -avail
            todo.append((avail ^ low, chosen))
            avail &= ~(adj[low.bit_length() - 1] | low)
            chosen |= low
    return out


# -- one alternating search per vertex: the reference for diadem's SCC pass --

def cover_matching(n: int, adj: list[int]) -> list[int]:
    """A maximum matching of the double cover as w -> v for each matched
    pair v+ w- (-1 for an unmatched w-), by one breadth-first augmenting
    search per plus copy; nothing recurses, so long paths are fine."""
    mate_plus, mate_minus = [-1] * n, [-1] * n
    for root in range(n):
        came_from: dict[int, int] = {}  # minus copy -> plus copy before it
        queue, free = [root], -1
        for u in queue:
            for w in bits(adj[u]):
                if w not in came_from:
                    came_from[w] = u
                    if mate_minus[w] == -1:
                        free = w
                        break
                    queue.append(mate_minus[w])
            if free != -1:
                break
        while free != -1:
            u = came_from[free]
            mate_minus[free], mate_plus[u], free = u, free, mate_plus[u]
    return mate_minus


def _plus_reach(adj: list[int], mate_minus: list[int],
                start: list[int]) -> set[int]:
    """Plus copies that alternating paths reach from the plus copies in
    start, each step an edge u+ w- and then the matching edge from w- back
    to a plus copy."""
    seen, todo = set(start), list(start)
    while todo:
        for w in bits(adj[todo.pop()]):
            v = mate_minus[w]
            if v != -1 and v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def _reach_ker(n: int, adj: list[int], mate_minus: list[int]) -> set[int]:
    matched = set(mate_minus)
    return _plus_reach(adj, mate_minus,
                       [v for v in range(n) if v not in matched])


def search_ker(n: int, adj: list[int]) -> int:
    """ker as the plus copies that alternating paths reach from the
    unmatched ones. O(m) after the matching, so it reaches past the deletion
    rule's sizes."""
    return sum(1 << v for v in _reach_ker(n, adj, cover_matching(n, adj)))


def search_diadem(n: int, adj: list[int]) -> int:
    """diadem by one alternating search per vertex: v belongs iff no
    neighbour of v lies in ker or in the plus copies reached from v+, where
    ker is the reach of the unmatched plus copies. O(n m)."""
    mate_minus = cover_matching(n, adj)
    ker = _reach_ker(n, adj, mate_minus)
    out = 0
    for v in range(n):
        if not any(u in ker for u in bits(adj[v])):
            reach = _plus_reach(adj, mate_minus, [v])
            if not any(u in reach for u in bits(adj[v])):
                out |= 1 << v
    return out
