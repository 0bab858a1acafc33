"""Exact maximum-independent-set engine: alpha, enumeration, core, corona.

Everything here is exponential by nature and guarded by explicit limits; the
rest of the library leans on these routines as reference answers. alpha is a
branch-and-reduce search: vertices with at most one live neighbour are taken
without branching, and a greedy clique cover, which stops counting as soon as
it can no longer prune, bounds every branch. The enumeration of maximum
independent sets prunes with the same bound. Both keep their search nodes on
an explicit stack, so neither recurses.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple

from .critical import ORACLE_LIMIT, enumerate_critical_independent_sets
from .graphs import Graph, LimitExceeded, VertexSet, vlist

ALPHA_LIMIT = 40


class MisProfile(NamedTuple):
    """Summary of the family of maximum independent sets."""

    alpha: int
    core: VertexSet
    corona: VertexSet


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


def enumerate_maximum_independent_sets(
        g: Graph, limit: int = ORACLE_LIMIT) -> Iterator[VertexSet]:
    """Yield every independent set of size alpha(g), each exactly once, in
    include-first DFS order over vertex ids."""
    yield from _maximum_independent_sets(g, limit)


def _maximum_independent_sets(
        g: Graph, limit: int,
        known_alpha: Callable[[], int] | None = None) -> Iterator[VertexSet]:
    """enumerate_maximum_independent_sets for a caller that may already know
    alpha(g): known_alpha returns it, and is called after the limit check.
    Both limits are checked at the call, not at the first set asked for."""
    if g.n > limit:
        raise LimitExceeded(f"n={g.n} exceeds enumeration limit {limit}")
    target = alpha(g) if known_alpha is None else known_alpha()
    adj = g.adj

    def search() -> Iterator[VertexSet]:
        # nodes as (live vertices, chosen set); a node takes its lowest live
        # vertex first while its exclude node waits on the stack
        todo = [(g.full, 0)]
        while todo:
            avail, chosen = todo.pop()
            while True:
                cap = target - chosen.bit_count() - 1
                if _greedy_clique_cover(adj, avail, cap) <= cap:
                    break
                if not avail:
                    yield chosen
                    break
                low = avail & -avail
                todo.append((avail ^ low, chosen))
                avail &= ~(adj[low.bit_length() - 1] | low)
                chosen |= low

    return search()


def core_and_corona(g: Graph, limit: int = ORACLE_LIMIT) -> MisProfile:
    """Intersection and union of all maximum independent sets; the
    enumeration stops once the core is empty and the corona is all of V."""
    a = alpha(g)
    sets = _maximum_independent_sets(g, limit, lambda: a)
    return _core_and_corona(g, a, sets)


def _core_and_corona(g: Graph, a: int,
                     sets: Iterable[VertexSet]) -> MisProfile:
    """core_and_corona for a caller that already knows a = alpha(g) and
    hands over g's maximum independent sets, in include-first order."""
    core = g.full
    corona = 0
    for s in sets:
        core &= s
        corona |= s
        if core == 0 and corona == g.full:
            break
    return MisProfile(a, core, corona)


def maximum_critical_independent_set(g: Graph,
                                     limit: int = ORACLE_LIMIT) -> VertexSet:
    """A largest independent set attaining the critical difference.

    Ties break toward the lexicographically least sorted id list, so the
    answer is stable across runs.
    """
    return _maximum_critical(enumerate_critical_independent_sets(g, limit))


def _maximum_critical(sets: Iterable[VertexSet]) -> VertexSet:
    """The largest of a graph's critical independent sets, all given in
    `sets`, by the tie rule of maximum_critical_independent_set."""
    best: VertexSet | None = None
    for s in sets:
        if (best is None or s.bit_count() > best.bit_count()
                or (s.bit_count() == best.bit_count()
                    and vlist(s) < vlist(best))):
            best = s
    if best is None:
        raise AssertionError("the empty set always attains d when d(g) = 0")
    return best
