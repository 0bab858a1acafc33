"""Per-side deficiency theory on a fixed bipartition.

For bipartite g = (A, B, E) and X inside one side, the deficiency of X is
|X| - |N(X)|; its maximum over one side is delta0, and d(g) is the sum of
the two sides' maxima. The sets attaining it are closed under union and
intersection. The smallest (side kernel) and the largest (side diadem) are
read off one maximum matching between the sides by alternating reachability.
ore_profile computes delta0, the kernel and the diadem of both sides from
that one matching; the tests check all six against subset enumeration and
against the per-vertex deletion and forcing rules. How the sides' kernels
and diadems make up ker and diadem is checked by the registry property
bipartite.kernel_split.
"""

from __future__ import annotations

from typing import Callable, Iterator, Literal, NamedTuple

from .critical import ORACLE_LIMIT, _enumerate_target_sets
from .graphs import (BipartitePartition, Graph, LimitExceeded, VertexSet,
                     difference, vset)
from .matching import _alternating_reach, _check_parts, _hopcroft_karp

Side = Literal["A", "B"]


class OreProfile(NamedTuple):
    delta0_a: int
    delta0_b: int
    ker_a: VertexSet
    ker_b: VertexSet
    diadem_a: VertexSet
    diadem_b: VertexSet


def _side_index(side: Side) -> int:
    if side == "A":
        return 0
    if side == "B":
        return 1
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def ore_profile(g: Graph, parts: BipartitePartition) -> OreProfile:
    """delta0, side kernel and side diadem of both sides from one maximum
    matching between the sides.

    delta0 of a side is its size minus the matching number. A side's kernel
    is what alternating paths reach in the side from its unmatched vertices;
    a side's diadem is the side minus what they reach in it from the other
    side's unmatched vertices.
    """
    in_a = _check_parts(g, parts)
    mate = _hopcroft_karp(g, parts.side_a, parts.side_b)
    free_a = [v for v in range(g.n) if mate[v] == -1 and in_a[v]]
    free_b = [v for v in range(g.n) if mate[v] == -1 and not in_a[v]]
    mu = (g.n - len(free_a) - len(free_b)) // 2
    seen = bytearray(g.n)
    a_from_a, b_from_a = _alternating_reach(g.nbrs, mate, free_a, seen, seen)
    seen = bytearray(g.n)
    b_from_b, a_from_b = _alternating_reach(g.nbrs, mate, free_b, seen, seen)
    side_a, side_b = parts
    return OreProfile(side_a.bit_count() - mu, side_b.bit_count() - mu,
                      vset(a_from_a), vset(b_from_b),
                      side_a & ~vset(a_from_b), side_b & ~vset(b_from_a))


def is_side_critical(g: Graph, parts: BipartitePartition, side: Side,
                     x: VertexSet) -> bool:
    """True iff x lies within the side and attains its deficiency maximum."""
    i = _side_index(side)
    if x & ~parts[i]:
        raise ValueError("x is not contained in the chosen side")
    p = ore_profile(g, parts)
    return difference(g, x) == (p.delta0_a, p.delta0_b)[i]


def enumerate_side_critical_sets(
        g: Graph, parts: BipartitePartition, side: Side,
        limit: int = ORACLE_LIMIT) -> Iterator[VertexSet]:
    """Yield every X within the side attaining its deficiency maximum."""
    _check_parts(g, parts)
    yield from _side_critical_sets(g, parts, side, limit,
                                   lambda: ore_profile(g, parts))


def _side_critical_sets(
        g: Graph, parts: BipartitePartition, side: Side, limit: int,
        profile: Callable[[], OreProfile]) -> Iterator[VertexSet]:
    """enumerate_side_critical_sets for a caller whose parts are checked and
    who may already hold the profile: profile returns ore_profile(g, parts),
    and is called after the side-size limit check."""
    i = _side_index(side)
    s = parts[i]
    if s.bit_count() > limit:
        raise LimitExceeded(
            f"side size {s.bit_count()} exceeds oracle limit {limit}")
    p = profile()
    yield from _enumerate_target_sets(g, s, (p.delta0_a, p.delta0_b)[i],
                                      False)
