"""The oracle tier: every exponential routine behind `--oracle-limit`, and the
per-graph fact cache that runs them.

The critical independent sets, the maximum independent sets (core and corona
are their intersection and union) and a bipartite side's critical sets each
come from one pruned DFS over an explicit stack of bitmasks, include-first,
with no recursion; besides its bound, each DFS drops the exclude branches a
free vertex dominates, which changes no stream, for any target.
`Facts` caches per graph the polynomial facts, alpha, these families, the
brute-force d table over the 2^n vertex subsets and the square test's
verdict on it, which both th4 checks read.
`Facts` is the one place that computes each family and checks its limit;
the public readers of the maximum independent sets, core and corona, the
maximum critical set and the KE-via-critical route read a fresh `Facts`.
No polynomial module (graphs, matching, critical, ore) imports this
module; tests/test_startup.py checks it.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain, islice, tee
from typing import Callable, Iterator, NamedTuple

from . import critical, ke, mis, ore
from .graphs import (BipartitePartition, Graph, LimitExceeded, VertexSet,
                     bipartition, neighborhood, vlist)
from .matching import _max_matching_lists, maximum_matching_general
from .mis import _greedy_clique_cover

ORACLE_LIMIT = 20
FAMILY_CAP = 20000


class Config(NamedTuple):
    oracle_limit: int = ORACLE_LIMIT
    use_oracle: bool = True
    workers: int = 1


# -- critical independent sets ---------------------------------------------------

def _enumerate_target_sets(g: Graph, universe: VertexSet,
                           target: int) -> Iterator[VertexSet]:
    """DFS all independent subsets of universe with d = target,
    include-first, pruned by d(chosen) + |remaining candidates| < target.
    A node's candidates are the members of universe above its last branch
    vertex with no chosen neighbour; it takes the lowest first while its
    exclude node waits on the stack. On an independent universe, such as a
    side of a bipartition, that is every subset.

    A branch vertex v is free when all its neighbours lie in N(chosen):
    taking it raises d by exactly 1 and drops no candidate, so each set S
    of its exclude subtree has S + v in its include subtree, one higher.
    The DFS counts the leaves whose d passes the target. A free vertex's
    exclude node carries the count at its push and is dropped at its pop
    when the count has not moved: its include subtree, walked in between,
    then held no leaf past the target (by induction on subtree size, a
    subtree holding one counts one), so the exclude subtree holds no set
    at the target or past it. The stream is the same, in the same order,
    for every target, a wrong one included."""
    adj = g.adj
    above = 0  # leaves with d past the target so far
    # nodes (candidates, chosen, N(chosen), d(chosen), mark), where the
    # mark is the count at the push of a free vertex's exclude node, else -1
    todo = [(universe, 0, 0, 0, -1)]
    while todo:
        avail, chosen, nbhd, d_now, mark = todo.pop()
        if mark == above:
            continue
        while True:
            # each added vertex raises d by at most 1
            if d_now + avail.bit_count() < target:
                break
            if not avail:
                if d_now == target:
                    yield chosen
                elif d_now > target:
                    above += 1
                break
            low = avail & -avail
            # no candidate lies in N(chosen), so only fresh neighbours go
            fresh = adj[low.bit_length() - 1] & ~nbhd
            todo.append((avail ^ low, chosen, nbhd, d_now,
                         -1 if fresh else above))
            avail &= ~(fresh | low)
            chosen |= low
            nbhd |= fresh
            d_now += 1 - fresh.bit_count()


def enumerate_critical_independent_sets(
        g: Graph, limit: int = ORACLE_LIMIT) -> Iterator[VertexSet]:
    """Yield every independent set attaining d(g), each exactly once."""
    if g.n > limit:
        raise LimitExceeded(f"n={g.n} exceeds oracle limit {limit}")
    yield from _enumerate_target_sets(g, g.full,
                                      critical.critical_difference(g))


def maximum_critical_independent_set(g: Graph,
                                     limit: int = ORACLE_LIMIT) -> VertexSet:
    """A largest independent set attaining the critical difference.

    Ties break toward the lexicographically least sorted id list, so the
    answer is stable across runs.
    """
    return Facts(g, Config(oracle_limit=limit)).max_critical_ind()


def is_ke_via_critical(g: Graph, limit: int = ORACLE_LIMIT) -> bool:
    """Equivalent recognition route: some critical independent set is maximum."""
    return Facts(g, Config(oracle_limit=limit)).ke_via_critical()


def verify_ker_characterization(
        g: Graph, a: VertexSet,
        limit: int = ORACLE_LIMIT) -> tuple[bool, dict | None]:
    """Decide whether a critical independent set a equals ker(g).

    Evaluates two equivalent conditions and insists they agree:
    no nonempty B inside N(a) with |N(B) & a| = |B| (tight set), and
    a matching from N(a) into a - v for every v in a. On a negative answer the
    witness carries either the tight set or the unmatched vertex.

    A set that is not critical independent raises ValueError; the
    conditions themselves are _ker_conditions.
    """
    if not critical.is_critical_independent(g, a):
        raise ValueError("a must be a critical independent set")
    return _ker_conditions(g, a, limit)


def _ker_conditions(g: Graph, a: VertexSet,
                    limit: int) -> tuple[bool, dict | None]:
    """verify_ker_characterization's two conditions on a set a the caller
    has found critical independent.

    The matching condition starts from one matching of N(a) into a,
    critical._neighborhood_matching's. Some matching of N(a) into a leaves
    v free iff an even alternating path runs to v from a member of a this
    one leaves free (Berge 1957). It saturates N(a), so Hopcroft-Karp on a
    copy runs only its final BFS, the reach from those members: every v
    that passes, and the first member of a it misses is unmatchable. With
    no matching into a at all, none into a - v exists either, and the first
    v of a is unmatchable. The tight-set condition is an exhaustive walk
    over the subsets of N(a), so the two stay independent.
    """
    boundary = neighborhood(g, a)
    if boundary.bit_count() > limit:
        raise LimitExceeded("neighborhood too large for the tight-set search")

    # the nonempty subsets of the boundary, in increasing order
    tight: VertexSet | None = None
    b = -boundary & boundary
    while b:
        if (neighborhood(g, b) & a).bit_count() == b.bit_count():
            tight = b
            break
        b = (b - boundary) & boundary

    unmatchable: int | None = None
    members = vlist(a)
    base = critical._neighborhood_matching(g, a, boundary)
    if base is None:  # N(a) is not empty, so neither is a
        unmatchable = members[0]
    else:
        # a is independent, so its members' neighbours all lie in N(a), and
        # from there the base leads back into a; a and N(a) share no id
        mate = list(base.mate)
        reached = set(_max_matching_lists(g.nbrs, members, mate, mate))
        unmatchable = next((v for v in members if v not in reached), None)

    if (tight is None) != (unmatchable is None):
        raise RuntimeError("tight-set and matching conditions disagree")
    if tight is not None:
        return False, {"tight_set": tight, "unmatchable_vertex": unmatchable}
    return True, None


# -- maximum independent sets: core and corona -----------------------------------

class MisProfile(NamedTuple):
    """Summary of the family of maximum independent sets."""

    alpha: int
    core: VertexSet
    corona: VertexSet


def enumerate_maximum_independent_sets(
        g: Graph, limit: int = ORACLE_LIMIT) -> Iterator[VertexSet]:
    """Yield every independent set of size alpha(g), each exactly once, in
    include-first DFS order over vertex ids."""
    yield from Facts(g, Config(oracle_limit=limit))._maximum_independent_sets()


def _search_maximum_independent_sets(g: Graph,
                                     target: int) -> Iterator[VertexSet]:
    """The independent sets of size target, target = alpha(g), by DFS over
    nodes (live vertices, chosen set); a node takes its lowest live vertex
    first while its exclude node waits on the stack. A leaf is reached only
    at size target or more, and yielded.

    A branch vertex with no live neighbour is free, and its exclude node is
    dropped as in _enumerate_target_sets: taking it adds 1 to the size and
    leaves the same live vertices, and the DFS counts the leaves past
    target, so a count unmoved over the include subtree means the exclude
    subtree holds no leaf. The stream is the same for every target."""
    adj = g.adj
    above = 0  # leaves past the target so far
    # nodes (live vertices, chosen, target - |chosen| - 1, mark), the mark
    # as in _enumerate_target_sets
    todo = [(g.full, 0, target - 1, -1)]
    while todo:
        avail, chosen, cap, mark = todo.pop()
        if mark == above:
            continue
        while True:
            if _greedy_clique_cover(adj, avail, cap) <= cap:
                break
            if not avail:
                if cap < -1:
                    above += 1
                yield chosen
                break
            low = avail & -avail
            nb = adj[low.bit_length() - 1]
            todo.append((avail ^ low, chosen, cap, -1 if nb & avail else above))
            avail &= ~(nb | low)
            chosen |= low
            cap -= 1


def core_and_corona(g: Graph, limit: int = ORACLE_LIMIT) -> MisProfile:
    """Intersection and union of all maximum independent sets; the
    enumeration stops once the core is empty and the corona is all of V."""
    return Facts(g, Config(oracle_limit=limit)).mis_profile()


# -- side-critical sets of a bipartite graph --------------------------------------

def enumerate_side_critical_sets(
        g: Graph, parts: BipartitePartition, side: ore.Side,
        limit: int = ORACLE_LIMIT) -> Iterator[VertexSet]:
    """Yield every X within the side attaining its deficiency maximum."""
    yield from _side_critical_sets(g, parts, side, limit,
                                   ore.ore_profile(g, parts))


def _side_critical_sets(
        g: Graph, parts: BipartitePartition, side: ore.Side, limit: int,
        profile: ore.OreProfile) -> Iterator[VertexSet]:
    """enumerate_side_critical_sets given ore_profile(g, parts), which
    checks the parts."""
    i = ore._side_index(side)
    s = parts[i]
    if s.bit_count() > limit:
        raise LimitExceeded(
            f"side size {s.bit_count()} exceeds oracle limit {limit}")
    yield from _enumerate_target_sets(
        g, s, (profile.delta0_a, profile.delta0_b)[i])


# -- per-graph fact cache --------------------------------------------------------

# the one order held: its byte planes, |m| + n lanes and bit planes or None
_lanes: dict[int, list] = {}

# the largest n at which th4 first checks the 2x2 squares of the subset
# lattice on the table read as one integer (BENCH_19.json); above it,
# th4.supermodular decides its 128-mask sample at once off two cached
# gathers (BENCH_30.json). Either way a pair scan runs only where that
# test fails
LATTICE_MAX_N = 12

# the lane tests are exact while every lane holds 0..63; deleting those
# values leaves nothing of such a table
_LANES_IN_RANGE = bytes(range(64))


def _subset_lanes(n: int) -> list:
    """Byte-lane integers over the 2^n subset masks of n vertices, lane m
    being byte m: for each v the plane whose lane m is 1 iff v is in m, and
    their sum plus n in each lane, |m| + n in lane m. Every table at order n
    starts from them: n + 1 integers of 2^n bytes. Only the order last asked
    for is kept, and it is dropped before another order's lanes are built,
    so a switch never holds two orders; a run that comes back to an order
    builds its lanes again."""
    if n not in _lanes:
        _lanes.clear()
        size = 1 << n
        planes = tuple(int.from_bytes(
            (bytes(1 << v) + b"\1" * (1 << v)) * (size >> v + 1), "little")
            for v in range(n))
        ones = int.from_bytes(b"\1" * size, "little")
        _lanes[n] = [planes, sum(planes) + n * ones, None]
    return _lanes[n]


def _bit_planes(n: int) -> tuple[int, ...]:
    """Per v the 2^n-bit integer whose bit m is 1 iff v is in m, held with
    the byte lanes of order n once asked for; built from byte patterns."""
    held = _subset_lanes(n)
    if held[2] is None:
        size, low = 1 << n, (b"\xaa", b"\xcc", b"\xf0")
        held[2] = tuple(int.from_bytes(
            low[v] * max(size >> 3, 1) if v < 3 else
            (bytes(1 << v - 3) + b"\xff" * (1 << v - 3)) * (size >> v + 1),
            "little") & (1 << size) - 1 for v in range(n))
    return held[2]


@lru_cache(maxsize=None)
def _square_masks(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """For the square test on n vertices (Facts.squares_hold): 0x80 in each
    of the 2^n byte lanes, and per u, one per v > u, 0x80 in each lane X
    that holds neither u nor v. Kept per n: under 300 KB at n = 12."""
    planes = _subset_lanes(n)[0]
    ones = int.from_bytes(b"\1" * (1 << n), "little")
    return ones << 7, tuple(tuple((ones ^ (planes[u] | planes[v])) << 7
                                  for v in range(u + 1, n))
                            for u in range(n))


def _squares_hold(table: bytes, n: int) -> bool:
    """Whether t(X+u+v) + t(X) >= t(X+u) + t(X+v) for every X and u != v
    outside X, which on the subset lattice is supermodularity over all pairs
    (Topkis, Oper. Res. 26, 1978; Lovász 1983).

    The lanes of table are read as one integer t, and pad holds 128 in
    each lane. Per u, m = (t shifted down 2^u lanes) + pad - t holds
    t(X+u) - t(X) + 128 in each lane X without u; per v > u,
    (m shifted down 2^v lanes) + pad - m holds m(X+v) - m(X) + 128, which
    has its 0x80 bit set in a lane X without u and v iff the square at X
    holds. A lane of a graph's table holds 0..2n, and the caller
    (Facts.squares_hold) sees to 0..63, so each lane of m, and each lane of
    the second sum below its top 2^v, stays in 0..255. Those top lanes,
    where the shift reads past m, can fall below 0, but they all hold v,
    and a borrow runs only upward.
    """
    pad, masks = _square_masks(n)
    t = int.from_bytes(table, "little")
    for u, row in enumerate(masks):
        m = (t >> (8 << u)) + pad - t
        rest = pad - m
        for v, valid in enumerate(row, u + 1):
            if ((m >> (8 << v)) + rest) & valid != valid:
                return False
    return True


class Facts:
    """Lazily computed invariants for one graph, shared across checks."""

    def __init__(self, g: Graph, config: Config | None = None):
        self.g = g
        self.config = config if config is not None else Config()
        self._cache: dict[str, object] = {}

    def _get(self, key: str, compute: Callable[[], object]):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def require_oracle(self) -> None:
        if not self.config.use_oracle:
            raise LimitExceeded("oracle disabled")

    # polynomial facts

    def d(self) -> int:
        return self._get("d", lambda: critical.critical_difference(self.g))

    def ker(self) -> VertexSet:
        return self._get("ker", lambda: critical.ker(self.g))

    def diadem(self) -> VertexSet:
        return self._get("diadem", lambda: critical.diadem(self.g))

    def mu(self) -> int:
        return len(self.matching())

    def matching(self):
        return self._get("matching", lambda: maximum_matching_general(self.g))

    def parts(self):
        return self._get("parts", lambda: bipartition(self.g))

    def alpha(self) -> int:
        return self._get("alpha", lambda: mis.alpha(self.g))

    def is_ke(self) -> bool:
        # ke.is_koenig_egervary's rule on the cached parts, alpha and mu
        return self._get("is_ke", lambda: self.parts() is not None
                         or self.alpha() + self.mu() == self.g.n)

    def ore_profile(self) -> ore.OreProfile:
        def compute():
            parts = self.parts()
            if parts is None:
                raise ValueError("not bipartite")
            return ore.ore_profile(self.g, parts)
        return self._get("ore_profile", compute)

    # enumeration-backed facts, all behind the oracle limit

    def mis_profile(self) -> MisProfile:
        """Alpha, then core and corona off the maximum independent sets; the
        scan stops once the core is empty and the corona is all of V. Alpha
        is read first, so an alpha limit is reported before the
        enumeration limit."""
        def compute():
            self.require_oracle()
            a, full = self.alpha(), self.g.full
            core, corona = full, 0
            for s in self._maximum_independent_sets():
                core &= s
                corona |= s
                if core == 0 and corona == full:
                    break
            return MisProfile(a, core, corona)
        return self._get("mis_profile", compute)

    def core(self) -> VertexSet:
        return self.mis_profile().core

    def corona(self) -> VertexSet:
        return self.mis_profile().corona

    def _maximum_independent_sets(self) -> Iterator[VertexSet]:
        """The maximum independent sets in include-first order, found once
        per graph by one DFS that runs only as far as the readers ask. The
        enumeration limit is checked at the call, then the cached alpha is
        read; the cache holds a tee of the DFS that nothing advances, and
        each reader gets a copy, which starts at the first set. Not guarded
        by the oracle switch."""
        def compute():
            g, limit = self.g, self.config.oracle_limit
            if g.n > limit:
                raise LimitExceeded(
                    f"n={g.n} exceeds enumeration limit {limit}")
            return tee(_search_maximum_independent_sets(g, self.alpha()),
                       1)[0]
        return self._get("mis_sets", compute).__copy__()

    def first_mis(self) -> VertexSet:
        """The first maximum independent set; {} if there is none, which
        only a wrong alpha gives, so the checks fail with a witness."""
        def compute():
            self.require_oracle()
            return next(self._maximum_independent_sets(), 0)
        return self._get("first_mis", compute)

    def ke_identity_checks(self) -> list[dict]:
        """ke.identity_checks on a KE graph from the cached facts, behind the
        oracle switch; alpha is read first, so its limit is reported first."""
        self.require_oracle()
        return ke.identity_checks(
            self.g, self.alpha(), self.mu(), self.d(), self.core(),
            self.corona(), self.ker(), self.diadem())

    def tables(self) -> bytes:
        """d(X) + n for every subset mask X, in byte X; the brute-force
        ground truth, behind the oracle switch.

        Built in byte lanes, one lane per mask: d(m) + n lies in 0..2n, so
        no lane carries into the next. Lane m of the plane of w is 1 iff w
        is in N(m), the OR of the planes of w's neighbours; the planes of
        all w sum to |N(m)|, which comes off |m| + n. That is 2m whole-table
        operations: deg(w) - 1 ORs and one subtraction per non-isolated w.
        The lanes are read out as bytes, which the whole-table checks
        search in C.
        """
        self.require_oracle()

        def compute():
            g = self.g
            if g.n > self.config.oracle_limit:
                raise LimitExceeded(
                    f"n={g.n} exceeds oracle limit {self.config.oracle_limit}")
            planes, lanes, _ = _subset_lanes(g.n)
            for vs in g.nbrs:
                if vs:  # an isolated w is in no N(m)
                    hit = planes[vs[0]]
                    for v in vs[1:]:
                        hit |= planes[v]
                    lanes -= hit
            return lanes.to_bytes(1 << g.n, "little")
        return self._get("tables", compute)

    def top_lane(self) -> int:
        """The largest lane of the table: past 2n only if corrupted, found
        by deleting lanes 0..2n, else by byte searches from 2n down."""
        def compute():
            table, n = self.tables(), self.g.n
            top = table.translate(None, bytes(range(2 * n + 1)))
            return max(top) if top else next(
                v for v in range(2 * n, -1, -1) if v in table)
        return self._get("top_lane", compute)

    def squares_hold(self) -> bool:
        """Whether the square test passes: n <= LATTICE_MAX_N, every lane
        in 0..63, so none carries, and every square holds, which makes the
        table supermodular over all pairs. Both th4 checks read it; False
        above LATTICE_MAX_N, where no square test runs."""
        def compute():
            table, n = self.tables(), self.g.n
            return n <= LATTICE_MAX_N and not table.translate(
                None, _LANES_IN_RANGE) and _squares_hold(table, n)
        return self._get("squares_hold", compute)

    def _critical_pass(self) -> tuple[list[VertexSet] | None, VertexSet]:
        """One run of the critical independent sets' DFS: the family, or
        None past FAMILY_CAP members, and the maximum one, uncapped, with
        maximum_critical_independent_set's tie rule: the DFS yields
        include-first, and of two sets of one size the one holding the
        lowest vertex where they differ has the least sorted id list, so
        the first largest set wins. Every graph has a critical independent
        set, so the stream is empty only under a wrong d, and then the
        family is empty and the largest set is {}: the checks fail with a
        witness. Not guarded by the oracle switch; the readers that need it
        check it."""
        def compute():
            sets = enumerate_critical_independent_sets(
                self.g, self.config.oracle_limit)
            fam = list(islice(sets, FAMILY_CAP + 1))
            best = max(chain(fam, sets), key=int.bit_count, default=0)
            return (fam if len(fam) <= FAMILY_CAP else None), best
        return self._get("critical_pass", compute)

    def critical_ind_family(self) -> list[VertexSet]:
        self.require_oracle()
        fam, _ = self._critical_pass()
        if fam is None:
            raise LimitExceeded(
                f"more than {FAMILY_CAP} critical independent sets")
        return fam

    def ker_oracle(self) -> VertexSet:
        def compute():
            inter = self.g.full
            for s in self.critical_ind_family():
                inter &= s
            return inter
        return self._get("ker_oracle", compute)

    def maximal_critical_ind(self) -> list[VertexSet]:
        """Inclusion-maximal members of the critical independent family.

        Scans by size descending; a candidate is maximal iff it sits inside no
        already accepted maximal set, since any strict superset contains one.
        """
        def compute():
            fam = sorted(self.critical_ind_family(),
                         key=lambda s: (-s.bit_count(), s))
            out: list[VertexSet] = []
            for s in fam:
                if not any(s & ~m == 0 for m in out):
                    out.append(s)
            return out
        return self._get("maximal_critical_ind", compute)

    def ke_via_critical(self) -> bool:
        """Whether some critical independent set is maximum: the largest
        one has size alpha. Not guarded by the oracle switch."""
        return self._critical_pass()[1].bit_count() == self.alpha()

    def minimal_positives(self) -> list[VertexSet]:
        """The inclusion-minimal independent sets with d >= 1, in
        include-first order, off the table as 2^n-bit integers, bit m for
        mask m: p, the independent masks whose lane is above n, less the
        masks above one of them, found by n shift-ORs (a zeta transform)."""
        def compute():
            table, n = self.tables(), self.g.n
            if self.top_lane() <= n:
                return []
            flags = table.translate(bytes(n + 1) + b"\1" * (255 - n))
            planes, p, above = _bit_planes(n), 0, 0
            for k in range(8):  # byte j of the k-th slice is lane 8j + k
                p |= int.from_bytes(flags[k::8], "little") << k
            for u, v in self.g.edge_pairs():  # drop the dependent masks
                p ^= p & planes[u] & planes[v]
            for v, plane in enumerate(planes):
                above |= ((p | above) << (1 << v)) & plane
            bits = f"{p ^ (p & above):b}"[::-1]
            return sorted((x.start() for x in re.finditer("1", bits)),
                          key=lambda m: f"{m:0{n}b}"[::-1], reverse=True)
        return self._get("minimal_positives", compute)

    def max_critical_ind(self) -> VertexSet:
        self.require_oracle()
        return self._critical_pass()[1]

    def side_critical_samples(self, side: ore.Side) -> list[VertexSet]:
        def compute():
            self.require_oracle()
            return list(islice(_side_critical_sets(
                self.g, self.parts(), side, self.config.oracle_limit,
                self.ore_profile()), 16))
        return self._get(f"side_crit_{side}", compute)

    def labels(self, mask: VertexSet) -> list[str]:
        return self.g.label_list(mask)
