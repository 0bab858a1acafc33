"""Exact maximum-independent-set engine: alpha, enumeration, core, corona.

Everything here is exponential by nature and guarded by explicit limits; the
rest of the library leans on these routines as reference answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .critical import enumerate_critical_independent_sets
from .graphs import Graph, LimitExceeded, VertexSet, vlist

ALPHA_LIMIT = 40
ENUM_LIMIT = 20


@dataclass(frozen=True)
class MisProfile:
    """Summary of the family of maximum independent sets.

    count is None when enumeration stopped early: core and corona were already
    settled (empty intersection, full union) and the exact count was not asked
    for.
    """

    alpha: int
    count: int | None
    core: VertexSet
    corona: VertexSet


def _greedy_clique_cover(g: Graph, avail: VertexSet) -> int:
    """Greedily partition avail into cliques; the clique count is an upper
    bound on the independence number of the induced subgraph."""
    adj = g.adj
    bound = 0
    rest = avail
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest ^= 1 << v
        cand = rest & adj[v]
        while cand:
            u = (cand & -cand).bit_length() - 1
            rest ^= 1 << u
            cand &= adj[u] & rest
        bound += 1
    return bound


def alpha(g: Graph, limit: int = ALPHA_LIMIT) -> int:
    """Independence number, by branch and bound.

    Branches on a vertex of maximum degree in the remaining subgraph (lowest
    id on ties), pruning with the greedy clique cover bound.
    """
    if g.n > limit:
        raise LimitExceeded(f"n={g.n} exceeds alpha limit {limit}")
    adj = g.adj
    best = 0

    def rec(avail: VertexSet, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if not avail or size + _greedy_clique_cover(g, avail) <= best:
            return
        v = max(vlist(avail),
                key=lambda u: ((adj[u] & avail).bit_count(), -u))
        rec(avail & ~(adj[v] | 1 << v), size + 1)
        rec(avail & ~(1 << v), size)

    rec(g.full, 0)
    return best


def enumerate_maximum_independent_sets(
        g: Graph, limit: int = ENUM_LIMIT) -> Iterator[VertexSet]:
    """Yield every independent set of size alpha(g), each exactly once, in
    include-first DFS order over vertex ids."""
    yield from _maximum_independent_sets(g, limit)


def _maximum_independent_sets(g: Graph, limit: int,
                              target: int | None = None) -> Iterator[VertexSet]:
    """enumerate_maximum_independent_sets for a caller that may already know
    target = alpha(g)."""
    if g.n > limit:
        raise LimitExceeded(f"n={g.n} exceeds enumeration limit {limit}")
    if target is None:
        target = alpha(g)
    adj, n = g.adj, g.n

    def rec(idx: int, chosen: VertexSet) -> Iterator[VertexSet]:
        avail = 0
        for j in range(idx, n):
            if not chosen & adj[j]:
                avail |= 1 << j
        if chosen.bit_count() + _greedy_clique_cover(g, avail) < target:
            return
        if idx == n:
            if chosen.bit_count() == target:
                yield chosen
            return
        if not chosen & adj[idx]:
            yield from rec(idx + 1, chosen | 1 << idx)
        yield from rec(idx + 1, chosen)

    yield from rec(0, 0)


def core_and_corona(g: Graph, limit: int = ENUM_LIMIT,
                    full: bool = False) -> MisProfile:
    """Intersection and union of all maximum independent sets.

    With full=False the enumeration stops as soon as both answers are settled
    (intersection empty, union everything) and count comes back None; full=True
    always enumerates the whole family and counts it.
    """
    return _core_and_corona(g, alpha(g), limit, full)


def _core_and_corona(g: Graph, a: int, limit: int,
                     full: bool = False) -> MisProfile:
    """core_and_corona for a caller that already knows a = alpha(g)."""
    core = g.full
    corona = 0
    count = 0
    for s in _maximum_independent_sets(g, limit, a):
        core &= s
        corona |= s
        count += 1
        if not full and core == 0 and corona == g.full:
            return MisProfile(a, None, core, corona)
    return MisProfile(a, count, core, corona)


def maximum_critical_independent_set(g: Graph,
                                     limit: int = ENUM_LIMIT) -> VertexSet:
    """A largest independent set attaining the critical difference.

    Ties break toward the lexicographically least sorted id list, so the
    answer is stable across runs.
    """
    best: VertexSet | None = None
    for s in enumerate_critical_independent_sets(g, limit):
        if (best is None or s.bit_count() > best.bit_count()
                or (s.bit_count() == best.bit_count()
                    and vlist(s) < vlist(best))):
            best = s
    if best is None:
        raise AssertionError("the empty set always attains d when d(g) = 0")
    return best
