"""Critical difference machinery: d(G), the witness, ker and diadem.

Every route here is polynomial and reduces to one maximum matching of the
bipartite double cover H (v+ w- adjacent iff vw is an edge) and alternating
reachability over it. H is never built: its plus and minus copies are both
numbered by g's ids, and g's neighbour lists are its adjacency. The matching
is computed once per graph and memoised on the Graph, so d, the witness, ker,
diadem and the Ore side profile of a bipartite graph (ore.py) share it. The
enumerations of critical sets that check these routes live in oracle.py,
which this module never imports.
"""

from __future__ import annotations

from itertools import compress, filterfalse
from typing import NamedTuple

from .graphs import (Graph, VertexSet, difference, is_independent, vlist,
                     vmask, vset)
from .matching import Matching, _max_matching_lists, saturating_matching


class _CoverMatching(NamedTuple):
    """A maximum matching of the double cover and the ker it yields."""

    mate_plus: list[int]   # v+ -> w when v+ w- is matched, else -1
    mate_minus: list[int]  # w- -> v
    in_ker: bytearray      # 1 at the members of ker
    near_ker: bytearray    # 1 at the members of N(ker)
    ker: VertexSet


def _greedy_cover_matching(nbrs, mate_plus: list[int],
                           mate_minus: list[int]) -> None:
    """Fill the empty mate arrays with a maximal matching of the double cover:
    a maximal matching of g by the Karp-Sipser rules, mirrored. While some
    free vertex has exactly one free neighbour, match the two, which some
    maximum matching of g does too; otherwise take the next free vertex by
    degree ascending, ties by id, and match it to its free neighbour with the
    fewest free neighbours left. Each matched edge uw gives the cover edges
    u+ w- and w+ u-, so mate_plus doubles as g's mate array.

    A vertex joins the pendant stack at most once, when its count of free
    neighbours drops to one, so the pass is linear in the size of g. On
    forests the mirror is a maximum matching of the cover; an odd cycle of g,
    which the cover matches perfectly, leaves Hopcroft-Karp an augmenting path
    to find, since g's matching misses one of its vertices.
    """
    n = len(nbrs)
    left = list(map(len, nbrs))  # free neighbours per vertex
    pendant = [v for v in range(n) if left[v] == 1]

    def match(u: int, w: int) -> None:
        mate_plus[u] = mate_minus[u] = w
        mate_plus[w] = mate_minus[w] = u
        for x in nbrs[u] + nbrs[w]:
            if mate_plus[x] == -1:
                left[x] -= 1
                if left[x] == 1:
                    pendant.append(x)

    for root in sorted(range(n), key=left.__getitem__):
        while pendant:
            v = pendant.pop()
            if mate_plus[v] == -1:
                for w in nbrs[v]:
                    if mate_plus[w] == -1:
                        match(v, w)
                        break
        if mate_plus[root] == -1:
            best = -1
            for w in nbrs[root]:
                if mate_plus[w] == -1 and (
                        best == -1 or left[w] < left[best]):
                    best = w
            if best != -1:
                match(root, best)


def _ker_matching(g: Graph) -> _CoverMatching:
    """Match the double cover and take ker as the plus copies of
    Hopcroft-Karp's final BFS, those that alternating paths reach from the
    unmatched ones, and N(ker) as the minus copies that BFS meets; memoised
    on g.

    Hopcroft-Karp starts from the greedy matching; d, ker and diadem are
    invariants of g, so which maximum matching it ends with does not matter.
    """
    memo = g._cover
    if memo is None:
        n = g.n
        nbrs = g.nbrs
        mate_plus, mate_minus = [-1] * n, [-1] * n
        _greedy_cover_matching(nbrs, mate_plus, mate_minus)
        in_ker, near_ker = bytearray(n), bytearray(n)
        for u in _max_matching_lists(nbrs, range(n), mate_plus, mate_minus):
            in_ker[u] = 1
            for w in nbrs[u]:
                near_ker[w] = 1
        memo = g._cover = _CoverMatching(mate_plus, mate_minus, in_ker,
                                         near_ker, vmask(in_ker))
    return memo


def _augment_from(nbrs, mate_l: list[int], mate_r: list[int], root: int,
                  skip: int) -> None:
    """Augment the cover matching along one path from the unmatched copy
    root, if there is one; leave it as it is otherwise.

    Call root's side left: a left copy x has edges to the right copies
    numbered nbrs[x], mate_l maps left ids to right ones and mate_r right
    to left. g's neighbour lists serve both sides of the cover, so either
    can be left. The search is breadth first, marks right ids in a dict
    read for membership only, and never enters the right id skip, a deleted
    copy.
    """
    parent: dict[int, int] = {}  # right id -> the left id it was reached from
    queue = [root]
    for x in queue:
        for y in nbrs[x]:
            if y == skip or y in parent:
                continue
            parent[y] = x
            if mate_r[y] != -1:
                queue.append(mate_r[y])
                continue
            while y != -1:  # flip the path back to root
                u = parent[y]
                nxt = mate_l[u]
                mate_l[u], mate_r[y] = y, u
                y = nxt
            return


def _d_without(g: Graph, v: int) -> int:
    """d(g - v), from a copy of g's memoised cover matching.

    The copies of v leave one at a time. Deleting v+ frees its partner w-;
    the matching was maximum, so any augmenting path left ends at w- (Berge
    1957), and one search from w- restores a maximum matching of the cover
    less v+. Deleting v- then frees its partner in that matching, and one
    search from it gives a maximum matching of the cover of g - v. Each
    search skips the deleted copy's id. v stays as an unmatched plus copy,
    one more than g - v has. The first search ends at a free plus copy, so
    it runs only when ker, the plus copies reached from the free ones, is
    nonempty: with d(g) = 0 there is none to reach.
    """
    cover = _ker_matching(g)
    nbrs = g.nbrs
    mate_plus, mate_minus = cover.mate_plus[:], cover.mate_minus[:]
    w = mate_plus[v]
    if w != -1:
        mate_plus[v] = mate_minus[w] = -1
        if cover.ker:
            _augment_from(nbrs, mate_minus, mate_plus, w, v)
    u = mate_minus[v]
    if u != -1:
        mate_minus[v] = mate_plus[u] = -1
        _augment_from(nbrs, mate_plus, mate_minus, u, v)
    return mate_plus.count(-1) - 1


def _neighborhood_matching(g: Graph, s: VertexSet,
                           nb: VertexSet) -> Matching | None:
    """A matching of nb = N(s) into s, or None when there is none; s is
    independent, and the caller has computed nb.

    For a critical s, s+ with (V - N(s))- is a maximum independent set of
    the cover, so by Koenig's theorem every copy outside it, N(s)- among
    them, is matched, and to a copy inside it: every w- of N(s)- has its
    partner in s+. So the memoised cover matching's partners of N(s) are
    tried first. Each pair is checked, not trusted: w's partner must lie
    in s and be a neighbour of w, and no partner may serve twice. Where a
    pair fails, as under a wrong memo or for a set that is not critical,
    one saturating_matching decides instead. So a matching this returns is
    real whatever the memo holds.
    """
    partner, adj = _ker_matching(g).mate_minus, g.adj
    mate = [-1] * g.n
    for w in vlist(nb):
        p = partner[w]
        if p == -1 or not s >> p & 1 or not adj[w] >> p & 1 or mate[p] != -1:
            return saturating_matching(g, nb, s)[0]
        mate[w], mate[p] = p, w
    return Matching._of(mate)


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
    that some maximum matching misses are those of ker. So for v outside ker
    and N(ker), v- is matched, to sigma(v) = mate_minus[v], a neighbour of v.
    Any neighbour w of v in the reach has the alternating step w+ v- to
    sigma(v), so the reach holds a neighbour of v iff it holds sigma(v), and
    one bit decides v.

    The reaches of all v at once come from the alternating digraph on the
    plus copies, u -> mate_minus[w] for each neighbour w of u: one iterative
    Tarjan pass finds its strongly connected components, sinks first, and
    carries reach forward. Each vertex on the path gathers the reaches of the
    complete components its edges enter, those its children close included,
    and hands what it gathered to its parent when it returns inside the
    parent's component; a component's reach is then its members OR what its
    root gathered, and is stored on every member. ker lies in diadem, and
    every edge out of a ker member ends in ker, so the test, which never
    looks at ker, reads the same from the reach outside ker: the members of
    ker are marked complete with an empty reach before the pass, and the
    answer is ker plus the candidates that pass. The pass starts only at
    candidates, the vertices outside ker and N(ker), so it is linear in the
    part of the digraph they reach outside ker, plus one bitmask OR per edge
    that leaves a component; the masks take O(n) bits per component.
    """
    cover = _ker_matching(g)
    n, nbrs = g.n, g.nbrs
    mate_minus, near = cover.mate_minus, cover.near_ker
    order = [0] * n  # 1 + discovery number, 0 while unvisited
    low = [0] * n
    reach = [-1] * n  # the component's reach once it is complete, else -1
    for k in compress(range(n), cover.in_ker):
        # ker is in diadem and no edge leaves it, so it is never walked
        order[k] = 1
        reach[k] = 0
    gathered = [0] * n  # reach gathered below a vertex still on the path
    stack: list[int] = []
    members = []
    count = 0
    for root in filterfalse(near.__getitem__, range(n)):
        if order[root]:
            continue
        count += 1
        order[root] = low[root] = count
        stack.append(root)
        path = [root]
        edges = [iter(nbrs[root])]
        while path:
            u = path[-1]
            for w in edges[-1]:
                x = mate_minus[w]
                if not order[x]:
                    count += 1
                    order[x] = low[x] = count
                    stack.append(x)
                    path.append(x)
                    edges.append(iter(nbrs[x]))
                    break
                r = reach[x]
                if r != -1:
                    gathered[u] |= r
                elif order[x] < low[u]:
                    low[u] = order[x]
            else:
                path.pop()
                edges.pop()
                if low[u] != order[u]:
                    # u's component holds its parent too
                    p = path[-1]
                    if low[u] < low[p]:
                        low[p] = low[u]
                    gathered[p] |= gathered[u]
                    gathered[u] = 0
                    continue
                # u roots a component; its members have handed u the
                # reaches of every complete component they entered
                mask = gathered[u]
                gathered[u] = 0
                scc = []
                while True:
                    x = stack.pop()
                    scc.append(x)
                    mask |= 1 << x
                    if x == u:
                        break
                for x in scc:
                    reach[x] = mask
                    if not near[x] and not mask >> mate_minus[x] & 1:
                        members.append(x)
                if path:
                    gathered[path[-1]] |= mask
    return cover.ker | vset(members)
