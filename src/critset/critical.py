"""Critical difference machinery: d(G), ker, diadem, enumerations.

The polynomial routes all reduce to one maximum matching of the bipartite
double cover H (v+ w- adjacent iff vw is an edge) and alternating
reachability over it. H is never built: its plus and minus copies are both
numbered by g's ids, and g's neighbour lists are its adjacency. The matching
is computed once per graph and memoised on the Graph, so d, the witness, ker
and diadem of one graph share it. The enumeration routes exist as oracles and
are cross-checked in the tests.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .graphs import (Graph, LimitExceeded, VertexSet, difference,
                     is_independent, iter_bits, neighborhood, vlist, vset)
from .matching import (_alternating_reach, _hopcroft_karp,
                       _max_matching_lists, _unmatched, saturating_matching)

ORACLE_LIMIT = 20


class CriticalProfile(NamedTuple):
    d: int
    a_witness: VertexSet
    ker: VertexSet
    diadem: VertexSet
    method: str


class _CoverMatching(NamedTuple):
    """A maximum matching of the double cover and the ker it yields."""

    mate_plus: list[int]   # v+ -> w when v+ w- is matched, else -1
    mate_minus: list[int]  # w- -> v
    in_ker: bytearray      # 1 at the members of ker
    ker: VertexSet


def _greedy_cover_matching(nbrs, mate_plus: list[int],
                           mate_minus: list[int]) -> None:
    """Fill the empty mate arrays with a maximal matching of the double cover
    by the Karp-Sipser rules: while some free copy has exactly one free
    neighbour, match the two, which some maximum matching does too; otherwise
    take the next free plus copy by degree ascending, ties by id, and match it
    to its free neighbour with the fewest free neighbours left.

    A copy joins the pendant stack at most once, when its count of free
    neighbours drops to one, so the pass is linear in the size of g. On sparse
    graphs it leaves Hopcroft-Karp little or nothing to augment; on forests
    and cycles it is maximum.
    """
    n = len(nbrs)
    left_plus = list(map(len, nbrs))  # free minus neighbours per plus copy
    left_minus = left_plus[:]         # free plus neighbours per minus copy
    # copies with one free neighbour left: plus v as v, minus w as ~w
    pendant = [v for v in range(n) if left_plus[v] == 1]
    pendant += [~v for v in pendant]

    def match(u: int, w: int) -> None:
        mate_plus[u], mate_minus[w] = w, u
        for x in nbrs[u]:
            if mate_minus[x] == -1:
                left_minus[x] -= 1
                if left_minus[x] == 1:
                    pendant.append(~x)
        for y in nbrs[w]:
            if mate_plus[y] == -1:
                left_plus[y] -= 1
                if left_plus[y] == 1:
                    pendant.append(y)

    for root in sorted(range(n), key=left_plus.__getitem__):
        while pendant:
            v = pendant.pop()
            if v >= 0:
                if mate_plus[v] == -1:
                    for w in nbrs[v]:
                        if mate_minus[w] == -1:
                            match(v, w)
                            break
            elif mate_minus[~v] == -1:
                for u in nbrs[~v]:
                    if mate_plus[u] == -1:
                        match(u, ~v)
                        break
        if mate_plus[root] == -1:
            best = -1
            for w in nbrs[root]:
                if mate_minus[w] == -1 and (
                        best == -1 or left_minus[w] < left_minus[best]):
                    best = w
            if best != -1:
                match(root, best)


def _ker_matching(g: Graph) -> _CoverMatching:
    """Match the double cover and take ker as the plus copies that
    alternating paths reach from the unmatched ones; memoised on g.

    Hopcroft-Karp starts from the greedy matching; d, ker and diadem are
    invariants of g, so which maximum matching it ends with does not matter.
    """
    memo = g._cover
    if memo is None:
        n = g.n
        nbrs = g.nbrs
        mate_plus, mate_minus = [-1] * n, [-1] * n
        _greedy_cover_matching(nbrs, mate_plus, mate_minus)
        _max_matching_lists(nbrs, range(n), mate_plus, mate_minus)
        in_ker = bytearray(n)
        members, _ = _alternating_reach(
            nbrs, mate_minus, _unmatched(mate_plus, range(n)), in_ker,
            bytearray(n))
        memo = g._cover = _CoverMatching(mate_plus, mate_minus, in_ker,
                                         vset(members))
    return memo


def critical_difference(g: Graph) -> int:
    """Return d(g) = alpha(double cover) - |V|, via bipartite matching.

    Every X gives the H-independent set X+ union (V-N(X))-, so alpha(H) =
    n + d(g); with H bipartite, alpha(H) = 2n - mu(H), hence d = n - mu(H),
    the number of unmatched plus copies.
    """
    return _ker_matching(g).mate_plus.count(-1)


def critical_independent_witness(g: Graph) -> VertexSet:
    """Return an independent J with d(J) = d(g): the smallest critical set,
    which is ker(g) and is empty when d(g) = 0."""
    return _ker_matching(g).ker


def is_critical_set(g: Graph, x: VertexSet) -> bool:
    """Return True iff d(x) = d(g)."""
    return difference(g, x) == critical_difference(g)


def is_critical_independent(g: Graph, x: VertexSet) -> bool:
    """Return True iff x is independent and d(x) = d(g)."""
    return is_independent(g, x) and is_critical_set(g, x)


def ker(g: Graph) -> VertexSet:
    """Return ker(g), the intersection of all critical independent sets.

    A critical set's plus copies hold the unmatched plus copies and match
    their minus neighbours back into themselves, so they hold the alternating
    reach of the unmatched ones; that reach is critical and independent.
    """
    return _ker_matching(g).ker


def diadem(g: Graph) -> VertexSet:
    """Return diadem(g), the union of all critical independent sets.

    v belongs iff no neighbour of v lies in ker or among the plus copies that
    alternating paths reach from v+. Those copies and ker then form a critical
    set S, and S - N(S) is a critical independent set holding v. The reach
    meets no unmatched minus copy: a path to one would start at a neighbour
    of v in ker, since by the + / - symmetry of the cover the minus copies
    that some maximum matching misses are those of ker.

    The reaches of all v at once come from the alternating digraph on the
    plus copies, u -> mate_minus[w] for each neighbour w of u: one iterative
    Tarjan pass finds its strongly connected components, sinks first, and
    each component's reach is its members OR the reaches of the components
    its edges enter. The pass starts only at candidates, the vertices with no
    neighbour in ker, so it is linear in the part of the digraph they reach,
    plus one bitmask OR per pair of components joined by an edge; the masks
    take O(n) bits per component.
    """
    cover = _ker_matching(g)
    nbrs = g.nbrs
    mate_minus, in_ker = cover.mate_minus, cover.in_ker
    candidate = bytearray(not any(in_ker[u] for u in nbrs[v])
                          for v in range(g.n))
    if not any(candidate):
        return 0
    order = [0] * g.n  # 1 + discovery number, 0 while unvisited
    low = [0] * g.n
    comp = [-1] * g.n  # component id, -1 while unvisited or on the stack
    reach: list[VertexSet] = []  # reach[c]: plus copies reachable from c
    stack: list[int] = []
    members = []
    count = 0
    for root in range(g.n):
        if order[root] or not candidate[root]:
            continue
        count += 1
        order[root] = low[root] = count
        stack.append(root)
        path = [(root, iter(nbrs[root]))]
        while path:
            u, edges = path[-1]
            for w in edges:
                x = mate_minus[w]
                if x == -1:
                    continue
                if not order[x]:
                    count += 1
                    order[x] = low[x] = count
                    stack.append(x)
                    path.append((x, iter(nbrs[x])))
                    break
                if comp[x] == -1 and order[x] < low[u]:
                    low[u] = order[x]
            else:
                path.pop()
                if path and low[u] < low[path[-1][0]]:
                    low[path[-1][0]] = low[u]
                if low[u] != order[u]:
                    continue
                # u roots a component; every edge leaving it enters one
                # that is already complete
                c = len(reach)
                scc = []
                mask = 0
                while True:
                    x = stack.pop()
                    comp[x] = c
                    scc.append(x)
                    mask |= 1 << x
                    if x == u:
                        break
                entered = set()
                for x in scc:
                    for w in nbrs[x]:
                        y = mate_minus[w]
                        if y != -1 and comp[y] != c:
                            entered.add(comp[y])
                for e in entered:
                    mask |= reach[e]
                reach.append(mask)
                members += [x for x in scc if candidate[x] and not any(
                    mask >> w & 1 for w in nbrs[x])]
    return vset(members)


def critical_profile(g: Graph) -> CriticalProfile:
    """Bundle d, a witness, ker and diadem, all by the polynomial routes."""
    return CriticalProfile(critical_difference(g), critical_independent_witness(g),
                           ker(g), diadem(g), "polynomial")


def _enumerate_target_sets(g: Graph, universe: VertexSet, target: int,
                           independent_only: bool) -> Iterator[VertexSet]:
    """DFS all subsets of universe with d = target, include-first, pruned by
    d(chosen) + |remaining candidates| < target."""
    order = vlist(universe)
    adj = g.adj

    def rec(idx: int, chosen: VertexSet, nbhd: VertexSet) -> Iterator[VertexSet]:
        d_now = chosen.bit_count() - nbhd.bit_count()
        if independent_only:
            remaining = sum(1 for j in range(idx, len(order))
                            if not chosen & adj[order[j]])
        else:
            remaining = len(order) - idx
        # each added vertex raises d by at most 1
        if d_now + remaining < target:
            return
        if idx == len(order):
            if d_now == target:
                yield chosen
            return
        v = order[idx]
        if not independent_only or not chosen & adj[v]:
            yield from rec(idx + 1, chosen | 1 << v, nbhd | adj[v])
        yield from rec(idx + 1, chosen, nbhd)

    yield from rec(0, 0, 0)


def enumerate_critical_independent_sets(
        g: Graph, limit: int = ORACLE_LIMIT) -> Iterator[VertexSet]:
    """Yield every independent set attaining d(g), each exactly once."""
    if g.n > limit:
        raise LimitExceeded(f"n={g.n} exceeds oracle limit {limit}")
    yield from _enumerate_target_sets(g, g.full, critical_difference(g), True)


def enumerate_critical_sets(g: Graph,
                            limit: int = ORACLE_LIMIT) -> Iterator[VertexSet]:
    """Yield every subset attaining d(g), independence not required."""
    if g.n > limit:
        raise LimitExceeded(f"n={g.n} exceeds oracle limit {limit}")
    yield from _enumerate_target_sets(g, g.full, critical_difference(g), False)


def max_subset_difference(g: Graph, x: VertexSet) -> int:
    """Return max{d(T) : T subset of x} for independent x, via the defect form
    of Hall's theorem: the max equals |x| - mu(x, N(x))."""
    if not is_independent(g, x):
        raise ValueError("defect form needs an independent base set")
    mate = _hopcroft_karp(g, x, neighborhood(g, x))
    matched = sum(1 for v in iter_bits(x) if mate[v] != -1)
    return x.bit_count() - matched


def minimal_positive_independent_sets(
        g: Graph, limit: int = ORACLE_LIMIT) -> Iterator[VertexSet]:
    """Yield all inclusion-minimal independent sets with positive difference.

    Minimality is exact: S qualifies iff no proper subset has d > 0, checked
    through max_subset_difference on S - v for each v (every proper subset of
    S lies under some S - v).
    """
    if g.n > limit:
        raise LimitExceeded(f"n={g.n} exceeds oracle limit {limit}")
    adj, n = g.adj, g.n

    def rec(idx: int, chosen: VertexSet, nbhd: VertexSet) -> Iterator[VertexSet]:
        d_now = chosen.bit_count() - nbhd.bit_count()
        if d_now >= 1:
            # any strict superset has this positive set as a proper subset
            if all(max_subset_difference(g, chosen ^ (1 << v)) <= 0
                   for v in iter_bits(chosen)):
                yield chosen
            return
        remaining = sum(1 for j in range(idx, n) if not chosen & adj[j])
        if d_now + remaining < 1 or idx == n:
            return
        if not chosen & adj[idx]:
            yield from rec(idx + 1, chosen | 1 << idx, nbhd | adj[idx])
        yield from rec(idx + 1, chosen, nbhd)

    yield from rec(0, 0, 0)


def verify_ker_characterization(
        g: Graph, a: VertexSet,
        limit: int = ORACLE_LIMIT) -> tuple[bool, dict | None]:
    """Decide whether a critical independent set a equals ker(g).

    Evaluates two equivalent conditions and insists they agree:
    no nonempty B inside N(a) with |N(B) & a| = |B| (tight set), and
    a matching from N(a) into a - v for every v in a. On a negative answer the
    witness carries either the tight set or the unmatched vertex.
    """
    if not is_critical_independent(g, a):
        raise ValueError("a must be a critical independent set")
    boundary = neighborhood(g, a)
    if boundary.bit_count() > limit:
        raise LimitExceeded("neighborhood too large for the tight-set search")

    tight: VertexSet | None = None
    members = vlist(boundary)
    for code in range(1, 1 << len(members)):
        b = 0
        for k, v in enumerate(members):
            if code >> k & 1:
                b |= 1 << v
        if (neighborhood(g, b) & a).bit_count() == b.bit_count():
            tight = b
            break

    unmatchable: int | None = None
    for v in iter_bits(a):
        found, _ = saturating_matching(g, boundary, a & ~(1 << v))
        if found is None:
            unmatchable = v
            break

    if (tight is None) != (unmatchable is None):
        raise RuntimeError("tight-set and matching conditions disagree")
    if tight is not None:
        return False, {"tight_set": tight, "unmatchable_vertex": unmatchable}
    return True, None
