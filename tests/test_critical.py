import copy
import pickle
import random
import time
from itertools import compress, product

import pytest

import oracles as o
from conftest import (analyze_sample, chain_answers, count_calls,
                      every_bipartition, mask_of, masks_built, mid_sample,
                      random_pairs, random_sample, shuffled_chain,
                      small_corpus)
from critset import critical
from critset.critical import (_augment_from, _d_without,
                              _greedy_cover_matching, _ker_matching,
                              critical_difference,
                              critical_independent_witness, diadem,
                              is_critical_independent, is_critical_set, ker)
from critset.fixtures import load
from critset.graphs import (Graph, LimitExceeded, bipartition,
                            complete_graph, cycle_graph, delete_vertices,
                            difference, empty_graph, is_independent,
                            neighborhood, parse_graph, path_graph,
                            random_bipartite, random_graph, to_edge_list,
                            vflags, vlist, vset)
from critset.matching import maximum_matching_general, saturating_matching
from critset.mis import _greedy_clique_cover, alpha
from critset.oracle import (Facts, _enumerate_target_sets,
                            _search_maximum_independent_sets,
                            enumerate_critical_independent_sets,
                            verify_ker_characterization)
from critset.ore import ore_profile


# -- d(G) ---------------------------------------------------------------------------

def test_critical_difference_known_values():
    assert critical_difference(empty_graph(4)) == 4
    assert critical_difference(complete_graph(4)) == 0
    assert critical_difference(path_graph(5)) == 1
    assert critical_difference(cycle_graph(6)) == 0
    assert critical_difference(empty_graph(0)) == 0


# -- criticality predicates ---------------------------------------------------------

def test_fig511_example_sets():
    g = load("fig511").graph
    x = mask_of(g, ["v1", "v2", "v3", "v4"])
    i = mask_of(g, ["v1", "v2", "v3", "v6", "v7"])
    assert is_critical_set(g, x)
    assert not is_critical_independent(g, x)  # v3 v4 is an edge
    assert is_critical_set(g, i) and is_critical_independent(g, i)
    assert is_critical_independent(g, 0) is False  # d(fig511) = 1 != 0


def test_empty_set_critical_iff_d_zero():
    assert is_critical_set(cycle_graph(4), 0)
    assert not is_critical_set(path_graph(5), 0)


# -- ker and diadem ------------------------------------------------------------------

def test_ker_and_diadem_on_random_graphs():
    for g in random_sample(25, 8, 11, seed=17):
        want = o.brute_profile(g.n, g.adj)
        assert ker(g) == want.ker
        assert diadem(g) == want.diadem


def assert_cover_matching_is_maximum(g, size):
    # the warm-started matching of the double cover is a matching of it,
    # of the size a reference gives: n - d
    cover = _ker_matching(g)
    pairs = [(v, w) for v, w in enumerate(cover.mate_plus) if w != -1]
    assert all(w in g.nbrs[v] and cover.mate_minus[w] == v for v, w in pairs)
    assert len(pairs) == size


def test_ker_and_diadem_match_per_vertex_rules_past_oracle_reach():
    # the deletion and forcing rules recompute d once per vertex, so they
    # check the one-matching routes on graphs too big for subset enumeration
    for g in mid_sample(seed=41):
        adj = g.adj
        assert_cover_matching_is_maximum(g, g.n - o.deficiency(adj, g.full))
        assert ker(g) == o.deletion_rule(adj, g.full), g.adj
        assert diadem(g) == o.forcing_rule(adj, g.full), g.adj


def test_diadem_matches_per_vertex_rules_on_analyze_shapes():
    # the shapes `critset analyze` is timed on, plus graphs whose ker is
    # empty (even cycle, dense G(n, p)) and whose diadem is empty (odd cycle,
    # complete graph, the empty graph)
    graphs = [*analyze_sample(seed=53, count=8), cycle_graph(120),
              cycle_graph(121), complete_graph(7), empty_graph(0),
              random_graph(70, 0.1, 5)]
    kers, diadems = set(), set()
    for g in graphs:
        adj = g.adj
        assert_cover_matching_is_maximum(g, g.n - o.deficiency(adj, g.full))
        got = diadem(g)
        assert got == o.forcing_rule(adj, g.full), g.adj
        kers.add(ker(g) != 0)
        diadems.add(got != 0)
    assert kers == diadems == {False, True}


def test_per_vertex_rules_match_brute_force(graphs_n5):
    # the reference past the subset oracles' reach, held to them: d, ker and
    # diadem on every labeled graph with n <= 5, and delta0, the side kernel
    # and the side diadem on each side of every valid bipartition
    def rules(adj, left):
        return (o.deficiency(adj, left), o.deletion_rule(adj, left),
                o.forcing_rule(adj, left))

    for g in graphs_n5:
        brute = o.brute_profile(g.n, g.adj)
        assert rules(g.adj, g.full) == (brute.d, brute.ker, brute.diadem)
        for parts in every_bipartition(g) if bipartition(g) else ():
            for side in parts:
                want = o.side_profile(g.n, g.adj, side)
                assert rules(g.adj, side) == (
                    want.delta0, want.kernel, want.diadem), (g.adj, side)


def test_chain_closed_forms_match_brute_force():
    # chain_answers stands in for a reference on the long chains below, so
    # it is held to the subset oracles on every path and cycle up to n = 12
    for closed in (False, True):
        for n, seed in product(range(3 * closed, 13), range(3)):
            g = shuffled_chain(n, closed, seed)
            *want, d_without = chain_answers(n, closed, seed)
            brute = o.brute_profile(g.n, g.adj)
            assert want == [brute.d, brute.ker, brute.diadem], (n, closed)
            assert d_without == [
                o.brute_d(n - 1, delete_vertices(g, 1 << v)[0].adj)
                for v in range(n)], (n, closed)


@pytest.mark.parametrize("n", [501, 502, 1001, 2000])
@pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
def test_diadem_matches_per_vertex_search_on_long_chains(n, closed):
    # on a shuffled path the alternating digraph is a long chain of
    # components, which the one-pass route ORs reach sets along; on a cycle
    # it is one or two large components; the closed forms are the reference
    g = shuffled_chain(n, closed, seed=n + closed)
    d, k, dia, _ = chain_answers(n, closed, seed=n + closed)
    assert (critical_difference(g), ker(g), diadem(g)) == (d, k, dia)
    assert_cover_matching_is_maximum(g, n - d)


def disjoint_cycles(count: int, length: int, seed: int) -> Graph:
    """count disjoint cycles of the given length under a random relabelling,
    with their edges listed in random order."""
    rng = random.Random(seed)
    order = list(range(count * length))
    rng.shuffle(order)
    edges = [(order[c * length + i], order[c * length + (i + 1) % length])
             for c in range(count) for i in range(length)]
    rng.shuffle(edges)
    return Graph(count * length, edges)


@pytest.mark.parametrize("build, parts", [
    (lambda: disjoint_cycles(6, 3, seed=1), 6),
    (lambda: disjoint_cycles(4, 5, seed=2), 4),
    (lambda: shuffled_chain(7, True, seed=3), 1),
    (lambda: complete_graph(7), 1),
    (lambda: disjoint_cycles(1000, 3, seed=4), 1000),
    (lambda: disjoint_cycles(400, 5, seed=5), 400),
    (lambda: shuffled_chain(2001, True, seed=6), 1),
], ids=["triangles6", "pentagons4", "cycle7", "K7", "triangles1000",
        "pentagons400", "cycle2001"])
def test_cover_matching_past_a_mirrored_greedy_start(build, parts):
    # the greedy start matches g and mirrors it into the cover, so each of
    # the graph's odd parts (odd cycles, K7), which the cover matches
    # perfectly, leaves an augmenting path for Hopcroft-Karp; d, ker and
    # diadem are 0 on these graphs
    g = build()
    mate_plus, mate_minus = [-1] * g.n, [-1] * g.n
    _greedy_cover_matching(g.nbrs, mate_plus, mate_minus)
    assert mate_plus.count(-1) == parts
    assert_cover_matching_is_maximum(g, g.n)
    assert (critical_difference(g), ker(g), diadem(g)) == (0, 0, 0)


def gnm(n: int, m: int, seed: int) -> Graph:
    """m distinct pairs of n points drawn uniformly."""
    return Graph(n, sorted(random_pairs(random.Random(seed), n, m)))


@pytest.mark.parametrize("build", [
    lambda: shuffled_chain(2001, False, seed=8),
    lambda: shuffled_chain(2000, True, seed=9),
    lambda: gnm(3000, 3750, seed=10),
    lambda: gnm(5000, 6250, seed=11),
], ids=["path2001", "cycle2000", "gnm3000", "gnm5000"])
def test_metamorphic_relations_past_oracle_reach(build):
    # relations that hold by definition check d, mu, ker and diadem at sizes
    # no oracle reaches: a relabelling pi keeps d and mu and maps ker and
    # diadem by pi; G + G doubles d and mu, and its ker and diadem are G's
    # and a shifted copy; an isolated vertex adds 1 to d and joins both sets.
    # Each graph is fresh, so none reads another's memoised matching
    g = build()
    n, edges = g.n, g.edge_pairs()

    def profile(h):
        return (critical_difference(h), len(maximum_matching_general(h)),
                ker(h), diadem(h))

    d, mu, k, dia = profile(g)
    pi = list(range(n))
    random.Random(n).shuffle(pi)

    def mapped(mask):
        return vset(pi[v] for v in compress(range(n), vflags(mask, n)))

    relabelled = Graph(n, [(pi[u], pi[v]) for u, v in edges])
    assert profile(relabelled) == (d, mu, mapped(k), mapped(dia))
    doubled = Graph(2 * n, edges + [(u + n, v + n) for u, v in edges])
    assert profile(doubled) == (2 * d, 2 * mu, k | k << n, dia | dia << n)
    grown = Graph(n + 1, edges)
    assert profile(grown) == (d + 1, mu, k | 1 << n, dia | 1 << n)


def test_reused_graph_answers_like_a_fresh_one():
    # d, the witness, ker and diadem share one matching memoised on the
    # Graph; reuse, pickling and deleting vertices must not change any answer
    graphs = [load("fig511").graph, *mid_sample(seed=43, per_density=2)]
    graphs.append(delete_vertices(graphs[0], 0b101)[0])
    for g in graphs:
        def fresh():
            return Graph(g.n, g.edge_pairs(), g.labels)
        state = pickle.dumps(fresh())
        want = (critical_difference(fresh()),
                critical_independent_witness(fresh()), ker(fresh()),
                diadem(fresh()))
        got = (critical_difference(g), critical_independent_witness(g),
               ker(g), diadem(g))
        assert got == want
        assert pickle.dumps(g) == state
        clone = pickle.loads(pickle.dumps(g))
        assert clone == g and hash(clone) == hash(g)
        assert (critical_difference(clone), critical_independent_witness(clone),
                ker(clone), diadem(clone)) == want
        # a parsed graph builds its masks on first read; they, equality, the
        # hash and the pickled bytes match a graph built from its edges
        parsed = parse_graph(to_edge_list(g))
        eager = Graph(g.n, g.edge_pairs(), g.labels)
        assert (critical_difference(parsed), critical_independent_witness(parsed),
                ker(parsed)) == want[:3]
        assert not masks_built(parsed)
        assert parsed.adj == eager.adj and masks_built(parsed)
        assert parsed == eager and hash(parsed) == hash(eager)
        assert pickle.dumps(parsed) == pickle.dumps(eager) == state
        # pickling or copying a parsed graph before any read of its masks
        # gives the same bytes and an equal plain Graph
        unread = parse_graph(to_edge_list(g))
        assert pickle.dumps(unread) == state
        assert type(copy.deepcopy(parse_graph(to_edge_list(g)))) is Graph


def test_profile_is_consistent():
    # the fact cache's polynomial readers give the library routes' answers,
    # and the witness is a critical independent set between ker and diadem
    g = load("fig1777").graph
    f = Facts(g)
    witness = critical_independent_witness(g)
    assert f.d() == critical_difference(g) == 1
    assert f.ker() == ker(g)
    assert f.diadem() == diadem(g)
    assert is_independent(g, witness)
    assert difference(g, witness) == f.d()
    assert f.ker() & ~witness == 0 and witness & ~f.diadem() == 0


# -- enumeration ---------------------------------------------------------------------

def _unpruned_target_sets(g, universe, target):
    """The critical DFS as it ran before the dominance prune: the sets with
    d = target, include-first, pruned by the d bound alone."""
    adj = g.adj
    todo = [(universe, 0, 0)]
    while todo:
        avail, chosen, nbhd = todo.pop()
        while True:
            d_now = chosen.bit_count() - nbhd.bit_count()
            if d_now + avail.bit_count() < target:
                break
            if not avail:
                if d_now == target:
                    yield chosen
                break
            low = avail & -avail
            todo.append((avail ^ low, chosen, nbhd))
            nb = adj[low.bit_length() - 1]
            avail &= ~(nb | low)
            chosen |= low
            nbhd |= nb


def _unpruned_maximum_sets(g, target):
    """The maximum independent sets' DFS as it ran before the dominance
    prune: every leaf the clique-cover bound leaves, size target or more."""
    adj = g.adj
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


def test_dominance_prune_keeps_both_streams_for_every_target():
    # the dropped exclude nodes hold no set the stream would yield, whatever
    # the target: the true d or alpha, one above it (no set at all) and one
    # or two below it (sets of lower d, and larger independent sets in the
    # maximum DFS's stream); the same sets in the same order, on every
    # labeled graph with n <= 5, 600 G(n, p) with n = 6..15 and both sides
    # of 200 bipartite graphs; about 0.5 s on 2 CPUs
    rng = random.Random(37)
    corpus = [*small_corpus(5), *(
        random_graph(6 + k % 10, rng.choice([0.1, 0.2, 0.3, 0.4, 0.5]),
                     rng.getrandbits(32)) for k in range(600))]
    for g in corpus:
        d, a = critical_difference(g), alpha(g)
        for t in range(d - 2, d + 2):
            got = list(_enumerate_target_sets(g, g.full, t))
            assert got == list(_unpruned_target_sets(g, g.full, t)), (g.adj, t)
        for t in range(a - 2, a + 2):
            got = list(_search_maximum_independent_sets(g, t))
            assert got == list(_unpruned_maximum_sets(g, t)), (g.adj, t)
    for _ in range(200):
        g = random_bipartite(rng.randrange(1, 9), rng.randrange(1, 9),
                             rng.choice([0.1, 0.2, 0.3, 0.5]),
                             rng.getrandbits(32))
        parts = bipartition(g)
        profile = ore_profile(g, parts)
        for side, top in zip(parts, (profile.delta0_a, profile.delta0_b)):
            for t in range(top - 2, top + 2):
                got = list(_enumerate_target_sets(g, side, t))
                assert got == list(_unpruned_target_sets(g, side, t)), (
                    g.adj, side, t)


def test_enumeration_respects_limit():
    g = path_graph(7)
    with pytest.raises(LimitExceeded):
        list(enumerate_critical_independent_sets(g, 6))


# -- minimal positive independent sets -------------------------------------------------

def test_minimal_positive_fixture_values():
    g = load("fig177").graph
    got = {frozenset(g.label_list(s)) for s in Facts(g).minimal_positives()}
    assert got == {frozenset({"x", "y"}), frozenset({"u", "v", "w"})}


def test_minimal_positive_empty_when_d_is_zero():
    assert Facts(cycle_graph(4)).minimal_positives() == []


# -- ker characterization (tight sets / per-vertex matchings) ---------------------------

def test_ker_characterization_accepts_ker(graphs_n5):
    for g in graphs_n5[::6]:
        ok, witness = verify_ker_characterization(g, ker(g), 6)
        assert ok and witness is None


def test_ker_characterization_rejects_larger_critical_sets():
    g = load("fig511").graph
    s = mask_of(g, ["v1", "v2", "v3"])
    assert is_critical_independent(g, s)
    ok, witness = verify_ker_characterization(g, s, 20)
    assert not ok and witness is not None
    # the witness is a tight subset of N(S) or an unmatchable vertex
    if witness["tight_set"]:
        b = witness["tight_set"]
        assert b & neighborhood(g, s) == b
        assert (neighborhood(g, b) & s).bit_count() == b.bit_count()


def first_tight_set_by_counter(g, a):
    """The first nonempty B inside N(a) with |N(B) & a| = |B|, or None, by
    the loop verify_ker_characterization ran before it walked the submasks:
    each subset rebuilt bit by bit from a counter over N(a)'s members in
    increasing id order."""
    members = vlist(neighborhood(g, a))
    for code in range(1, 1 << len(members)):
        b = 0
        for k, v in enumerate(members):
            if code >> k & 1:
                b |= 1 << v
        if (neighborhood(g, b) & a).bit_count() == b.bit_count():
            return b
    return None


def grown_from_ker(g):
    """ker, each critical independent ker + v, and the critical independent
    set that adding vertices to ker in increasing id order reaches."""
    k = grown = ker(g)
    sets = [k]
    for v in range(g.n):
        if not k >> v & 1 and is_critical_independent(g, k | 1 << v):
            sets.append(k | 1 << v)
        if is_critical_independent(g, grown | 1 << v):
            grown |= 1 << v
    return sets + [grown]


def test_tight_set_walk_matches_the_counter_loop():
    # the submask walk meets the subsets of N(a) in the counter's order, so
    # the first tight set, and with it every th9 witness, stays the same:
    # on every critical independent set of every graph with n <= 6, and on
    # sets grown from ker past the oracle's reach
    cases = [(g, a) for g in small_corpus(6)
             for a in Facts(g).critical_ind_family()]
    cases += [(g, a) for g in mid_sample(5) for a in grown_from_ker(g)
              if neighborhood(g, a).bit_count() <= 14]
    tight = 0
    for g, a in cases:
        ok, witness = verify_ker_characterization(g, a, 14)
        want = first_tight_set_by_counter(g, a)
        assert (None if ok else witness["tight_set"]) == want
        tight += want is not None
    assert (len(cases), tight) == (117605, 83679)


def verify_ker_by_matching_per_vertex(g, a):
    """verify_ker_characterization's answer by the route it took before it
    grew every matching from one: the first tight set by the counter loop,
    and one saturating_matching(g, N(a), a - v) per v of a."""
    boundary = neighborhood(g, a)
    tight = first_tight_set_by_counter(g, a)
    unmatchable = next((v for v in vlist(a) if saturating_matching(
        g, boundary, a & ~(1 << v))[0] is None), None)
    assert (tight is None) == (unmatchable is None), (g.adj, a)
    if tight is not None:
        return False, {"tight_set": tight, "unmatchable_vertex": unmatchable}
    return True, None


def test_matching_condition_matches_one_matching_per_vertex(graphs_n5):
    # the per-vertex condition, decided by one alternating search from v's
    # partner in one matching of N(a) into a, gives what a fresh matching
    # into a - v per v gave, unmatchable vertex included: on every critical
    # independent set of every graph with n <= 5, and on sets grown from
    # ker past the oracle's reach; about 0.3 s on 2 CPUs
    started = time.perf_counter()
    cases = [(g, a) for g in graphs_n5
             for a in Facts(g).critical_ind_family()]
    cases += [(g, a) for g in mid_sample(5) for a in grown_from_ker(g)
              if neighborhood(g, a).bit_count() <= 14]
    unmatchable = 0
    for g, a in cases:
        got = verify_ker_characterization(g, a, 14)
        assert got == verify_ker_by_matching_per_vertex(g, a), (g.adj, a)
        unmatchable += got[1] is not None
    assert (len(cases), unmatchable) == (2507, 1349)
    assert time.perf_counter() - started < 5


def test_matching_condition_with_no_matching_into_the_set(monkeypatch):
    # only a wrong d passes a set that N(a) cannot match into; then no
    # a - v takes a matching either, and the first v of a is unmatchable
    g, a = path_graph(3), 0b010
    monkeypatch.setattr(critical, "critical_difference", lambda g: -1)
    assert verify_ker_characterization(g, a, 5) == (
        verify_ker_by_matching_per_vertex(g, a)) == (
        False, {"tight_set": 0b001, "unmatchable_vertex": 1})


def test_deletion_changes_d_by_at_most_one(graphs_n5):
    for g in graphs_n5[::4]:
        if g.n == 0:
            continue
        d = critical_difference(g)
        k = ker(g)
        for v in range(g.n):
            dv = o.deficiency(g.adj, g.full, 1 << v)
            assert dv in (d - 1, d, d + 1)
            assert (dv == d - 1) == bool(k >> v & 1)


def test_d_without_skips_the_search_that_cannot_augment(monkeypatch):
    # the search from v+'s freed partner ends at a free plus copy, and with
    # d = 0 there is none; on an even cycle both searches ran for every v
    g = shuffled_chain(200, True, seed=4)
    calls = count_calls(monkeypatch, _augment_from)
    assert [_d_without(g, v) for v in range(200)] == chain_answers(
        200, True, seed=4)[3]
    assert calls["_augment_from"] == 200


@pytest.mark.parametrize("corpus", ["n<=5", "fuzz_region", "mid_sample",
                                    "chains"])
def test_d_without_matches_deleting_the_vertex(corpus, monkeypatch):
    # d(G - v) from G's cover matching with v+ and then v- dropped, each
    # followed by one augmenting search and no Hopcroft-Karp, against
    # o.deficiency of G less v, or on chains the closed forms; G's own memo
    # is untouched. The fuzz region is where the registry sweep spends its
    # time: n = 6..14 at p = 0.15, 0.3 and 0.5, 81 graphs
    if corpus == "chains":
        cases = [(shuffled_chain(n, closed, seed=n + closed),
                  chain_answers(n, closed, seed=n + closed)[3])
                 for n in (501, 1000) for closed in (False, True)]
    else:
        if corpus == "n<=5":
            graphs = small_corpus(5)
        elif corpus == "fuzz_region":
            rng = random.Random(11)
            graphs = (random_graph(n, p, rng.getrandbits(32))
                      for n in range(6, 15) for p in (0.15, 0.3, 0.5)
                      for _ in range(3))
        else:
            graphs = mid_sample(seed=43, per_density=2)
        cases = [(g, [o.deficiency(g.adj, g.full, 1 << v)
                      for v in range(g.n)]) for g in graphs]
    for g, want in cases:
        before = _ker_matching(g)
        mates = (before.mate_plus[:], before.mate_minus[:])
        with monkeypatch.context() as patched:
            patched.setattr(critical, "_max_matching_lists", None)
            for v, d_v in enumerate(want):
                assert _d_without(g, v) == d_v, (g.adj, v)
        assert _ker_matching(g) is before
        assert (before.mate_plus, before.mate_minus) == mates
