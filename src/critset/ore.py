"""Per-side deficiency theory on a fixed bipartition.

For bipartite g = (A, B, E) and X inside one side, the deficiency of X is
|X| - |N(X)|; its maximum over one side is delta0, and d(g) is the sum of
the two sides' maxima. The sets attaining it are closed under union and
intersection; the smallest is the side kernel and the largest the side
diadem. The double cover of g is two copies of g, A+ with B- and B+ with A-,
so the cover matching that critical.py memoises on g holds a maximum
matching between the sides in each direction, and its one alternating reach
gives every side set: a side's kernel is ker within the side, and its diadem
is the side minus N(ker). ore_profile reads delta0, the kernel and the
diadem of both sides off that memo. The sides' kernels therefore make up ker
by construction; the tests check all six values against subset enumeration
and against the per-vertex deletion and forcing rules. The enumeration of a
side's critical sets lives in oracle.py, which this module never imports.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

from .critical import _ker_matching, critical_difference
from .graphs import BipartitePartition, Graph, VertexSet, difference, vmask
from .matching import _check_parts

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
    """delta0, side kernel and side diadem of both sides, read off the
    double cover's memoised matching: a side's delta0 is its size minus the
    matching number (n - d) / 2, its kernel is ker within it, and its diadem
    is the side minus N(ker)."""
    _check_parts(g, parts)
    cover = _ker_matching(g)
    mu = (g.n - critical_difference(g)) // 2
    kr, near = cover.ker, vmask(cover.near_ker)
    side_a, side_b = parts
    return OreProfile(side_a.bit_count() - mu, side_b.bit_count() - mu,
                      kr & side_a, kr & side_b,
                      side_a & ~near, side_b & ~near)


def is_side_critical(g: Graph, parts: BipartitePartition, side: Side,
                     x: VertexSet) -> bool:
    """True iff x lies within the side and attains its deficiency maximum."""
    i = _side_index(side)
    if x & ~parts[i]:
        raise ValueError("x is not contained in the chosen side")
    p = ore_profile(g, parts)
    return difference(g, x) == (p.delta0_a, p.delta0_b)[i]
