"""Brute-force reference answers for cross-checking the library.

Every function works on bare bitmasks: adj, where adj[v] is the neighbor
bitmask of vertex v (the graph's own adj tuple, which keys brute_profile's
cache), with n where it needs the order. Nothing here imports the package
under test, so the two sides of each cross-check stay independent. Runtime
is exponential in n by design, and callers keep n small; only the
per-vertex rules at the end are polynomial, for the graphs past that reach.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def neigh(adj: tuple[int, ...], x: int) -> int:
    out = 0
    while x:
        low = x & -x
        out |= adj[low.bit_length() - 1]
        x ^= low
    return out


def d_of(adj: tuple[int, ...], x: int) -> int:
    return x.bit_count() - neigh(adj, x).bit_count()


def is_independent(adj: tuple[int, ...], x: int) -> bool:
    return neigh(adj, x) & x == 0


def include_first(n: int, masks) -> list[int]:
    """masks in the order the library's DFSs yield them: of two masks, the
    one holding the lowest vertex where they differ comes first."""
    return sorted(masks, key=lambda m: [not m >> v & 1 for v in range(n)])


def d_table(n: int, adj: tuple[int, ...]) -> list[int]:
    """|X| - |N(X)| for every mask X; nbhd[X] = N(X), the masks holding v
    being those without it, each joined by N(v)."""
    nbhd = [0]
    for v in range(n):
        nbhd += [m | adj[v] for m in nbhd]
    return [x.bit_count() - m.bit_count() for x, m in enumerate(nbhd)]


def brute_d(n: int, adj: tuple[int, ...]) -> int:
    """The largest |X| - |N(X)| over all 2^n subsets X."""
    return max(d_table(n, adj))


def brute_mu(n: int, adj: tuple[int, ...]) -> int:
    @lru_cache(maxsize=None)
    def rec(avail: int) -> int:
        if not avail:
            return 0
        low = avail & -avail
        v, rest = low.bit_length() - 1, avail ^ low
        best = rec(rest)  # v stays unmatched
        for u in bits(adj[v] & rest):
            best = max(best, 1 + rec(rest & ~(1 << u)))
        return best

    return rec((1 << n) - 1)


def meet_and_join(n: int, family: list[int]) -> tuple[int, int]:
    """The intersection and the union of a family of masks."""
    meet, join = (1 << n) - 1, 0
    for x in family:
        meet &= x
        join |= x
    return meet, join


# -- one walk over the independent sets: the brute answers about a graph --

def independent_masks(n: int, adj: tuple[int, ...]) -> list[int]:
    """Every independent mask, each grown from the one without its top
    vertex; by size, so every mask comes after the masks it holds."""
    found = [0]
    for m in found:
        found += [m | 1 << v for v in range(m.bit_length(), n)
                  if not adj[v] & m]
    return found


class Profile:
    """The brute answers about one graph. The fields set at construction
    are read off one independent_masks walk with d_of alone, as the paper
    defines them: the critical sets attain d_independent, the largest d over
    the independent sets, and the maximum ones have size alpha. Families
    are in include-first order. d, over all 2^n subsets, and mu are each
    computed when first read, so a caller past their reach pays for the
    walk only; d and d_independent stay two computations, as Zhang's
    identity compares them. brute_profile hands one profile to every
    caller, so callers only read its lists."""

    def __init__(self, n: int, adj: tuple[int, ...]):
        self.n, self.adj = n, adj
        ind = independent_masks(n, adj)
        ds = [d_of(adj, x) for x in ind]
        self.d_independent = top = max(ds)
        self.alpha = max(map(int.bit_count, ind))
        self.critical = include_first(
            n, [x for x, d in zip(ind, ds) if d == top])
        self.ker, self.diadem = meet_and_join(n, self.critical)
        size = max(map(int.bit_count, self.critical))
        # the largest critical set, least sorted id list among equals
        self.max_critical = min((x for x in self.critical
                                 if x.bit_count() == size), key=bits)
        self.mis = include_first(
            n, [x for x in ind if x.bit_count() == self.alpha])
        self.core, self.corona = meet_and_join(n, self.mis)
        # the walk puts every set after its subsets, so a positive set is
        # minimal iff it holds none of the minimal ones kept before it
        minimal: list[int] = []
        for x, d in zip(ind, ds):
            if d > 0 and not any(p & ~x == 0 for p in minimal):
                minimal.append(x)
        self.minimal_positive = include_first(n, minimal)

    @cached_property
    def d(self) -> int:
        return brute_d(self.n, self.adj)

    @cached_property
    def mu(self) -> int:
        return brute_mu(self.n, self.adj)

    @property
    def ke(self) -> bool:
        return self.alpha + self.mu == self.n


@lru_cache(maxsize=4096)
def brute_profile(n: int, adj: tuple[int, ...]) -> Profile:
    return Profile(n, adj)


# -- one walk over the subsets of a side: the brute answers about a side --

def submasks(side: int) -> list[int]:
    out = []
    sub = side
    while True:
        out.append(sub)
        if sub == 0:
            return out
        sub = (sub - 1) & side


class SideProfile(NamedTuple):
    delta0: int  # the largest d over the subsets of the side
    critical: list[int]  # the subsets attaining it, include-first
    kernel: int
    diadem: int


def side_profile(n: int, adj: tuple[int, ...], side: int) -> SideProfile:
    """The side-critical sets of one side of a bipartite graph, off one
    submasks walk."""
    subs = submasks(side)
    ds = [d_of(adj, x) for x in subs]
    top = max(ds)
    critical = include_first(n, [x for x, d in zip(subs, ds) if d == top])
    return SideProfile(top, critical, *meet_and_join(n, critical))


# -- per-vertex rules: polynomial references past the subset oracles' reach --

def deficiency(adj: tuple[int, ...], left: int, gone: int = 0) -> int:
    """The largest |S| - |N(S) - gone| over S inside left - gone. By Koenig's
    theorem it is |left - gone| less the matching number of the rows
    u -> adj[u] & ~gone for u in left - gone, right ids a space apart from
    the left ones. With left all of G it is d(G - gone); with left a side of
    a bipartite G, the side's delta0 in G - gone. The matching is Kuhn's:
    a row takes a free neighbour if it has one, and else asks the owners of
    its unseen neighbours to move on."""
    owner = [-1] * len(adj)  # right id -> the row that holds it
    taken = seen = 0

    def augment(u: int) -> bool:
        nonlocal taken, seen
        row = adj[u] & ~gone & ~seen
        free = row & ~taken
        if free:
            v = (free & -free).bit_length() - 1
            owner[v], taken = u, taken | 1 << v
            return True
        seen |= row
        for v in bits(row):
            if augment(owner[v]):
                owner[v] = u
                return True
        return False

    rows = left & ~gone
    matched = 0
    for u in bits(rows):
        seen = 0
        matched += augment(u)
    return rows.bit_count() - matched


def deletion_rule(adj: tuple[int, ...], left: int) -> int:
    """ker, or the side kernel with left a side: v of left belongs iff
    deleting it drops the deficiency by exactly 1."""
    d0 = deficiency(adj, left)
    return sum(1 << v for v in bits(left)
               if deficiency(adj, left, 1 << v) == d0 - 1)


def forcing_rule(adj: tuple[int, ...], left: int) -> int:
    """diadem, or the side diadem with left a side: v of left belongs iff
    1 - |N(v)| plus the deficiency left in G - N[v] is the deficiency."""
    d0 = deficiency(adj, left)
    return sum(1 << v for v in bits(left)
               if 1 - adj[v].bit_count()
               + deficiency(adj, left, adj[v] | 1 << v) == d0)
