import hashlib
import json
import pickle
import random
import tracemalloc
from collections import Counter

import pytest

import oracles as o
from conftest import adj_of, include_first, mid_sample, small_corpus
from critset import critical, graphs, ke, mis, oracle, ore, props
from critset.fixtures import load
from critset.graphs import (LimitExceeded, all_graphs, bipartition,
                            complete_bipartite, complete_graph, cycle_graph,
                            empty_graph, is_independent, neighborhood,
                            orbit_leaders, parse_graph, path_graph,
                            random_graph)
from critset.matching import maximum_matching_general
from critset.mis import alpha
from critset.props import (SELFTEST, Config, Facts, PropertyResult,
                           conjecture_scan, evaluate, exhaustive_corpus,
                           fixtures_corpus, iter_graphs, lookup,
                           parse_corpus_spec, random_corpus, random_graph_at,
                           registry, run, select_properties, shrink)

PINNED = [
    "zhang.d_eq_id",
    "th4.supermodular",
    "deletion.d_drop_iff_ker",
    "th2.matching_from_neighborhood",
    "th9.ker_characterization",
    "th6.ker_subset_core",
    "th10.bipartite_ker_eq_core",
    "th5.ke_iff_every_mis_critical",
    "th11.ke_identities",
    "ore.kernel_separation",
    "pendant.in_diadem",
    "core_corona.lower_bound",
    "ke.is_ke",
]


def test_registry_names_are_stable_and_unique():
    names = [p.name for p in registry()]
    assert len(names) == len(set(names))
    for name in PINNED:
        assert name in names


def test_lookup_and_selection():
    assert lookup("zhang.d_eq_id").name == "zhang.d_eq_id"
    assert lookup(SELFTEST.name) is SELFTEST
    assert SELFTEST.name not in [p.name for p in registry()]
    with pytest.raises(ValueError, match="unknown property"):
        lookup("no.such.property")
    assert [p.name for p in select_properties(["ke.is_ke", "zhang.d_eq_id"])
            ] == ["ke.is_ke", "zhang.d_eq_id"]


def test_every_property_holds_on_sample_graphs(graphs_n5):
    props = registry()
    for g in graphs_n5[::10]:
        facts = Facts(g)
        for prop in props:
            r = evaluate(prop, facts)
            assert r.verdict in ("holds", "skipped"), (g.adj, prop.name)


def test_applicability_skips():
    not_bip = evaluate(lookup("th10.bipartite_ker_eq_core"),
                       Facts(complete_graph(3)))
    assert not_bip.verdict == "skipped" and not_bip.reason == "not bipartite"
    assert not_bip.as_dict()["skip"] == "applicability"

    not_ke = evaluate(lookup("th11.ke_identities"),
                      Facts(load("fig22.G1").graph))
    assert not_ke.verdict == "skipped" and not_ke.reason == "not KE"

    no_pendant = evaluate(lookup("pendant.in_diadem"), Facts(cycle_graph(4)))
    assert no_pendant.verdict == "skipped"

    ke_negative = evaluate(lookup("ke.is_ke"), Facts(cycle_graph(5)))
    assert ke_negative.verdict == "skipped" and ke_negative.reason == "not KE"


def test_limit_skips_are_tagged():
    # both the ker characterization and the supermodularity sweep need the
    # subset oracle, so turning it off must skip them as a limit, not a pass
    facts = Facts(path_graph(4), Config(use_oracle=False))
    r = evaluate(lookup("th9.ker_characterization"), facts)
    assert r.verdict == "skipped" and r.limit
    assert r.as_dict()["skip"] == "limit"


def test_ker_characterization_reports_a_limit_as_a_skip(monkeypatch):
    # 25 disjoint P3s: ker holds both ends of each, so the tight-set search
    # would range over all 25 middles, past the oracle limit of 20. That is
    # a limit skip; a disagreement of the two conditions is still a failure
    g = parse_graph("".join(f"a{i} b{i}\nb{i} c{i}\n" for i in range(25)))
    prop = lookup("th9.ker_characterization")
    assert evaluate(prop, Facts(g)) == PropertyResult(
        prop.name, "skipped",
        "neighborhood too large for the tight-set search", limit=True)

    def disagree(*args):
        raise RuntimeError("tight-set and matching conditions disagree")

    monkeypatch.setattr(oracle, "verify_ker_characterization", disagree)
    r = evaluate(prop, Facts(path_graph(4)))
    assert r.verdict == "fails"
    assert r.witness["problem"] == "tight-set and matching conditions disagree"


def test_selftest_fails_with_reusable_witness():
    r = evaluate(SELFTEST, Facts(empty_graph(3)))
    assert r.verdict == "fails"
    assert r.witness["alpha"] == 3
    r2 = evaluate(SELFTEST, Facts(complete_graph(4)))
    assert r2.verdict == "holds"


def test_config_and_property_result_keep_their_contract():
    assert Config() == Config(oracle_limit=20, use_oracle=True, workers=1)
    assert repr(Config()) == ("Config(oracle_limit=20, use_oracle=True, "
                              "workers=1)")
    two = Config(workers=2)
    assert two.workers == 2 and two != Config()
    assert two == Config(workers=2) and hash(two) == hash(Config(workers=2))
    # a Config crosses the process pool
    assert pickle.loads(pickle.dumps(two)) == two

    r = PropertyResult("x", "holds")
    assert (r.prop, r.verdict, r.reason, r.witness, r.limit) == (
        "x", "holds", None, None, False)
    assert repr(r) == ("PropertyResult(prop='x', verdict='holds', "
                       "reason=None, witness=None, limit=False)")
    assert r == PropertyResult("x", "holds")
    assert r != PropertyResult("x", "holds", limit=True)
    assert r != ("x", "holds", None, None, False)
    with pytest.raises(TypeError):
        hash(r)
    r.reason = "set"
    assert r.as_dict() == {"property": "x", "verdict": "holds",
                           "reason": "set"}


def _frozen_results():
    """One fresh value of each frozen result type, with one of its fields."""
    g = path_graph(4)
    parts = bipartition(g)
    return [(Config(), "workers"),
            (oracle.core_and_corona(g), "alpha"),
            (ore.ore_profile(g, parts), "delta0_a"),
            (parse_corpus_spec('{"sources": [{"kind": "fixtures"}]}'),
             "sources"),
            (parts, "side_a"),
            (load("fig101"), "name")]


@pytest.mark.parametrize("index", range(6))
def test_result_types_stay_frozen_and_compare_by_value(index):
    obj, field = _frozen_results()[index]
    again, _ = _frozen_results()[index]
    assert obj == again
    if index < 5:  # the fixture holds dicts
        assert hash(obj) == hash(again)
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))


def test_facts_are_cached():
    facts = Facts(path_graph(5))
    assert facts.tables() is facts.tables()
    assert type(facts.tables()) is bytes and len(facts.tables()) == 1 << 5
    assert facts.mis_profile() is facts.mis_profile()
    assert facts.d() == 1 and facts.d() == 1


def test_facts_run_alpha_and_the_blossom_matching_once(graphs_n5,
                                                       monkeypatch):
    # mu, is_ke and the core and corona read the cached alpha, matching and
    # bipartition, and give what the library routes give on their own
    calls = {"alpha": 0, "blossom": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    for module in (mis, ke):
        monkeypatch.setattr(module, "alpha", counted("alpha", mis.alpha))
    for module in (oracle, ke):
        monkeypatch.setattr(module, "maximum_matching_general",
                            counted("blossom", maximum_matching_general))
    graphs = [*graphs_n5[::37], *mid_sample(seed=7, per_density=1),
              random_graph(30, 0.2, 5), random_graph(45, 0.1, 6)]
    for g in graphs:
        facts = Facts(g)

        def outcome(f):
            try:
                return f()
            except LimitExceeded as exc:
                return str(exc)

        want = (len(maximum_matching_general(g)),
                outcome(lambda: ke.is_koenig_egervary(g)),
                outcome(lambda: oracle.core_and_corona(g)))
        calls.update(alpha=0, blossom=0)
        got = (facts.mu(), outcome(facts.is_ke), outcome(facts.mis_profile))
        assert got == want
        assert facts.matching() is facts.matching()
        assert calls["blossom"] == 1
        # past its limit alpha raises and nothing is cached, so each fact
        # that asks for it calls it: is_ke on non-bipartite graphs, and the
        # core and corona
        asked = 1 if g.n <= mis.ALPHA_LIMIT else 1 + (facts.parts() is None)
        assert calls["alpha"] == asked


def test_registry_pass_runs_each_oracle_fact_once(graphs_n5, monkeypatch):
    # every check reads Facts, so one registry pass per graph runs alpha,
    # the critical independent enumeration and the maximum independent one
    # at most once and the blossom matching once, whichever module a check
    # would reach them through; zhang.d_eq_id builds the subset tables
    # first, so the critical family comes off them at every n up to the
    # oracle limit and its DFS never runs, and the maximum independent DFS
    # runs once at every n (past the oracle limit the limit check raises
    # before it starts, uncached)
    calls = {"alpha": 0, "blossom": 0, "critical": 0, "mis": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    for module in (mis, ke):
        monkeypatch.setattr(module, "alpha", counted("alpha", mis.alpha))
    for module in (oracle, ke):
        monkeypatch.setattr(module, "maximum_matching_general",
                            counted("blossom", maximum_matching_general))
    monkeypatch.setattr(oracle, "enumerate_critical_independent_sets",
                        counted("critical",
                                oracle.enumerate_critical_independent_sets))
    monkeypatch.setattr(oracle, "_search_maximum_independent_sets",
                        counted("mis",
                                oracle._search_maximum_independent_sets))
    rng = random.Random(6)
    graphs = [*graphs_n5[-1024::53],
              *(random_graph(n, p, rng.getrandbits(32))
                for n in [*range(8, 13), 19, 20] for p in (0.15, 0.3, 0.5))]
    for g in graphs:
        calls.update(alpha=0, blossom=0, critical=0, mis=0)
        facts = Facts(g)
        for prop in registry():
            assert evaluate(prop, facts).verdict in ("holds", "skipped")
        assert calls["alpha"] <= 1, g.adj
        assert calls["blossom"] == 1, g.adj
        assert calls["critical"] == 0, g.adj
        assert calls["mis"] == 1, g.adj


def test_registry_pass_runs_the_ore_profile_once_per_bipartite_graph(
        monkeypatch):
    # ore.kernel_separation's side samples read delta0 off the cached
    # profile, and a side past the oracle limit still skips with its size
    calls = Counter()
    profile = ore.ore_profile

    def counted(*args):
        calls["ore"] += 1
        return profile(*args)

    monkeypatch.setattr(ore, "ore_profile", counted)
    run(exhaustive_corpus(5))
    assert calls["ore"] == sum(bipartition(g) is not None
                               for g in all_graphs(5)) == 376
    prop = lookup("ore.kernel_separation")
    facts = Facts(complete_bipartite(3, 5), Config(oracle_limit=4))
    assert evaluate(prop, facts) == PropertyResult(
        prop.name, "skipped", "side size 5 exceeds oracle limit 4", limit=True)


def test_one_critical_pass_gives_capped_family_and_uncapped_maximum(
        monkeypatch):
    for g in [*small_corpus(4), empty_graph(5), cycle_graph(6),
              random_graph(9, 0.3, 2)]:
        family = list(oracle.enumerate_critical_independent_sets(g))
        best = oracle.maximum_critical_independent_set(g)
        assert Facts(g).critical_ind_family() == family
        assert Facts(g).max_critical_ind() == best
        # past the cap the family is a limit skip, the maximum is not
        monkeypatch.setattr(oracle, "FAMILY_CAP", len(family) - 1)
        facts = Facts(g)
        with pytest.raises(LimitExceeded, match="more than"):
            facts.critical_ind_family()
        assert facts.max_critical_ind() == best
        monkeypatch.undo()
    off = Facts(path_graph(4), Config(use_oracle=False))
    for read in (off.critical_ind_family, off.max_critical_ind):
        with pytest.raises(LimitExceeded, match="oracle disabled"):
            read()


def test_both_routes_cap_the_family_past_the_old_threshold():
    # 10 disjoint edges: n = 20, d = 0 and 3^10 = 59,049 critical
    # independent sets; the DFS, on a fresh Facts, and the tables give the
    # same three answers
    g = graphs.Graph(20, [(2 * i, 2 * i + 1) for i in range(10)])
    for tables_first in (False, True):
        facts = Facts(g)
        if tables_first:
            facts.tables()
        with pytest.raises(LimitExceeded, match="^more than 20000 "
                           "critical independent sets$"):
            facts.critical_ind_family()
        assert facts.max_critical_ind().bit_count() == 10
        assert facts.minimal_positives() == []


def test_critical_pass_builds_no_subset_table_of_its_own(monkeypatch):
    # ke.is_ke and th5 read the critical pass with no oracle guard: under
    # --no-oracle, or run alone, they share one critical DFS and leave the
    # 2^n subset tables unbuilt, which at n = 20 cost more than the DFS
    calls = Counter()
    enum = oracle.enumerate_critical_independent_sets

    def counted(*args):
        calls["critical"] += 1
        return enum(*args)

    monkeypatch.setattr(oracle, "enumerate_critical_independent_sets",
                        counted)
    unguarded = ["ke.is_ke", "th5.ke_iff_every_mis_critical"]
    rng = random.Random(12)
    for n in (5, 12, 18, oracle.ORACLE_LIMIT):
        g = random_graph(n, 0.3, rng.getrandbits(32))
        for config, names in ((Config(use_oracle=False),
                               [prop.name for prop in registry()]),
                              (Config(), unguarded)):
            calls.clear()
            facts = Facts(g, config)
            for name in names:
                evaluate(lookup(name), facts)
            assert calls["critical"] == 1, (g.adj, config)
            assert "tables" not in facts._cache, (g.adj, config)


def test_limit_texts_of_the_family_readers():
    # taken from the DFS route: one past the oracle limit the family
    # readers skip with its text, and ke.is_ke with it
    for n, config in ((oracle.ORACLE_LIMIT + 1, Config()),
                      (19, Config(oracle_limit=18))):
        text = f"n={n} exceeds oracle limit {config.oracle_limit}"
        facts = Facts(path_graph(n), config)
        for read in (facts.critical_ind_family, facts.max_critical_ind,
                     facts.minimal_positives):
            with pytest.raises(LimitExceeded, match=f"^{text}$"):
                read()
        assert evaluate(lookup("ke.is_ke"), facts) == PropertyResult(
            "ke.is_ke", "skipped", text, limit=True)
    # --no-oracle leaves ke.is_ke and th5, which read the critical pass
    # unguarded, running at n = 19
    off = Config(use_oracle=False)
    want = [("holds", "holds"), ("holds", "holds"), ("not KE", "holds")]
    for g, (is_ke, th5) in zip((path_graph(19), random_graph(19, 0.15, 4),
                                random_graph(19, 0.3, 5)), want):
        facts = Facts(g, off)
        got = [evaluate(lookup(name), facts)
               for name in ("ke.is_ke", "th5.ke_iff_every_mis_critical")]
        assert [r.verdict if r.reason is None else r.reason
                for r in got] == [is_ke, th5]


def _outcome(read):
    try:
        return read()
    except LimitExceeded as exc:
        return str(exc)


def _route_outcomes(g, config, tables_first=False):
    """What the five enumeration-backed readers of a fresh Facts give on g,
    with any limit as its message, then every registry result; with
    tables_first, both Facts build the subset tables before anything else
    reads them where the oracle is on, so the critical family comes off
    the tables."""
    facts, swept = Facts(g, config), Facts(g, config)
    if tables_first:
        _outcome(facts.tables)
        _outcome(swept.tables)
    readers = (facts.critical_ind_family, facts.max_critical_ind,
               facts.minimal_positives, facts.first_mis, facts.mis_profile)
    return ([_outcome(read) for read in readers],
            [evaluate(prop, swept) for prop in registry()])


def _reference_families(g, config):
    """The library DFSs' critical family and maximum critical set, and the
    search reference's minimal positive sets, under config, with any limit
    as its message."""
    if not config.use_oracle:
        return ["oracle disabled"] * 3
    limit = config.oracle_limit
    return [_outcome(lambda: list(
                oracle.enumerate_critical_independent_sets(g, limit))),
            _outcome(lambda: oracle.maximum_critical_independent_set(
                g, limit)),
            f"n={g.n} exceeds oracle limit {limit}" if g.n > limit
            else o.search_minimal_positive(g.n, adj_of(g))]


def _dfs_readers(g):
    return [list(oracle.enumerate_critical_independent_sets(g)),
            oracle.maximum_critical_independent_set(g),
            o.search_minimal_positive(g.n, adj_of(g)),
            next(oracle.enumerate_maximum_independent_sets(g)),
            oracle.core_and_corona(g)]


def test_table_route_gives_what_the_dfs_route_gives():
    # Facts reads the minimal positive sets off the subset tables at every
    # n, and the critical sets too once the tables are built, else by DFS;
    # in the order the DFSs yield them, and with the same skips and results.
    # The minimal positive sets are held to the search in tests/oracles.py
    rng = random.Random(9)
    sampled = [random_graph(n, p, rng.getrandbits(32))
               for n in (18, 19) for p in (0.15, 0.3, 0.5)
               for _ in range(2)]
    for g in [*small_corpus(6), *sampled]:
        for tables_first in (False, True):
            facts = Facts(g)
            if tables_first:
                facts.tables()
            assert [facts.critical_ind_family(), facts.max_critical_ind(),
                    facts.minimal_positives(), facts.first_mis(),
                    facts.mis_profile()] == _dfs_readers(g), g.adj
            assert "tables" in facts._cache, g.adj
            assert (list(facts._maximum_independent_sets()) == list(
                oracle.enumerate_maximum_independent_sets(g))), g.adj
    # under --no-oracle, and an oracle limit below n, the three family
    # readers give what the DFSs give under the same limit, and
    # every reader and every registry result is the same whether the
    # critical family comes off the tables or by DFS
    for g in [*small_corpus(4)][::5] + sampled[:6]:
        for config in (Config(use_oracle=False),
                       Config(oracle_limit=max(g.n - 1, 0)), Config()):
            dfs = _route_outcomes(g, config)
            assert dfs[0][:3] == _reference_families(g, config), (g.adj,
                                                                 config)
            assert _route_outcomes(g, config, True) == dfs, (g.adj, config)


def _first_failing_pair(table, masks):
    for a in masks:
        for b in masks:
            if table[a | b] + table[a & b] < table[a] + table[b]:
                return a, b
    return None


def _supermodular_by_pairs(table, n):
    size = 1 << n
    return all(table[a | b] + table[a & b] >= table[a] + table[b]
               for a in range(size) for b in range(a, size))


def test_square_route_agrees_with_every_pair():
    # th4.supermodular first checks the 2x2 squares of the subset lattice on
    # the table read as one integer; that must hold exactly where every pair
    # of masks does. Graph tables all hold (Theorem 4); adding a modular
    # function keeps that, and moving a few lanes by 1 or 2 mostly breaks it
    prop = lookup("th4.supermodular")
    for n in range(6):
        for g in all_graphs(n):
            table = Facts(g).tables()
            assert props._squares_hold(table, n)
            assert _supermodular_by_pairs(table, n), g.adj
    rng = random.Random(3000)
    verdicts = Counter()
    for _ in range(3000):
        n = rng.randrange(1, 8)
        g = random_graph(n, rng.choice([0.2, 0.4, 0.6]), rng.getrandbits(32))
        facts = Facts(g)
        shift = [rng.choice([-1, 0, 1]) for _ in range(n)]
        bad = [t + n + sum(c for v, c in enumerate(shift) if m >> v & 1)
               for m, t in enumerate(facts.tables())]
        for _ in range(rng.choice([0, 0, 1, 2, 3])):
            m = rng.randrange(1 << n)
            bad[m] = max(0, bad[m] + rng.choice([-2, -1, 1, 2]))
        expect = _supermodular_by_pairs(bad, n)
        verdicts[expect] += 1
        assert props._squares_hold(bad, n) == expect, (n, bad)
        facts._cache["tables"] = bytes(bad)
        assert prop.check(facts)[0] == expect, (n, bad)
    assert min(verdicts.values()) >= 1000, verdicts
    # a lane past 63 would carry into its neighbour in the square test, so
    # such tables go to the pair scan, which at n <= 7 pairs every mask
    f = Facts(empty_graph(2))
    f._cache["tables"] = bytes([2, 200, 3, 4])
    assert prop.check(f) == (False, {
        "a": ["0"], "b": ["1"], "d_union_plus_d_intersection": 2,
        "d_a_plus_d_b": 199})
    for _ in range(2000):
        n = rng.randrange(2, 8)
        facts = Facts(random_graph(n, rng.choice([0.2, 0.5]),
                                   rng.getrandbits(32)))
        bad = bytearray(facts.tables())
        for _ in range(rng.randrange(1, 3)):
            bad[rng.randrange(1 << n)] = rng.randrange(64, 256)
        facts._cache["tables"] = bytes(bad)
        assert prop.check(facts)[0] == _supermodular_by_pairs(bad, n), (
            n, bad)


@pytest.mark.parametrize("n", [4, 7, 8, 11, props.LATTICE_MAX_N,
                               props.LATTICE_MAX_N + 1, 14, 16])
def test_supermodular_reports_the_first_failing_pair(n):
    # corrupted tables break supermodularity in many pairs; the check scans
    # only b at or after a, and must still name the first pair a full
    # row-major scan finds, both where every mask is paired (n <= 7) and
    # where the masks are sampled, on either side of the square route's
    # crossover; lane m holds d(m) + n, and the witness gives d values
    prop = lookup("th4.supermodular")
    rng = random.Random(n)
    masks = props._supermodular_masks(n)
    failed = 0
    for _ in range(80):
        g = random_graph(n, rng.choice([0.2, 0.4, 0.6]), rng.getrandbits(32))
        facts = Facts(g)
        bad = bytearray(facts.tables())
        for _ in range(rng.randrange(1, 4)):
            m = rng.choice(masks) if rng.random() < 0.8 else rng.randrange(
                1 << n)
            bad[m] += rng.choice([-2, -1, 1, 2])
        facts._cache["tables"] = bytes(bad)
        ok, witness = prop.check(facts)
        first = _first_failing_pair(bad, masks)
        assert ok == (first is None)
        if first is not None:
            failed += 1
            a, b = first
            assert witness == {
                "a": g.label_list(a), "b": g.label_list(b),
                "d_union_plus_d_intersection": bad[a | b] + bad[a & b] - 2 * n,
                "d_a_plus_d_b": bad[a] + bad[b] - 2 * n}
    assert failed >= 40


def test_supermodular_sample_is_drawn_once_per_n():
    # every mask up to n = 7, else the seeded draw of 128, sorted; kept per
    # n, so later checks at that n do not draw it again
    props._supermodular_masks.cache_clear()
    for n in (3, 7, 8, 13):
        size = 1 << n
        rng = random.Random(0x5D1A + n)
        expect = (tuple(range(size)) if size <= 128 else
                  tuple(sorted({rng.randrange(size) for _ in range(128)})))
        masks = props._supermodular_masks(n)
        assert masks == expect
        assert props._supermodular_masks(n) is masks
    # the sample test's gatherers are built once per n, and only above
    # LATTICE_MAX_N, where the square test gives way to it
    props._sample_gatherers.cache_clear()
    prop = lookup("th4.supermodular")
    for n, seed in ((8, 1), (13, 2), (props.LATTICE_MAX_N, 3), (13, 4),
                    (14, 5), (8, 6), (14, 7), (13, 8)):
        assert evaluate(prop, Facts(random_graph(n, 0.3, seed))).verdict == (
            "holds")
    info = props._supermodular_masks.cache_info()
    assert (info.misses, info.currsize) == (5, 5)
    info = props._sample_gatherers.cache_info()
    assert (info.misses, info.currsize, info.hits) == (2, 2, 3)
    pairs, sample, pad = props._sample_gatherers(13)
    masks = props._supermodular_masks(13)
    assert sample(range(1 << 13)) == masks
    size = len(masks) * (len(masks) + 1) // 2
    assert pad == int.from_bytes(b"\x80" * size, "little")
    assert pairs(range(1 << 13)) == (
        *(a | b for i, a in enumerate(masks) for b in masks[i:]),
        *(a & b for i, a in enumerate(masks) for b in masks[i:]))


def test_sample_route_gives_the_pair_scans_verdict(monkeypatch):
    # above LATTICE_MAX_N th4.supermodular decides its sample in bulk and
    # runs the pair scan only to name a witness; the bulk verdict must be
    # the pair scan's on clean tables, on tables with a few lanes moved by
    # 1 or 2, and on tables with a lane past 63, where the check must not
    # take the bulk route at all, as its lanes would carry
    prop = lookup("th4.supermodular")
    bulk, calls = props._sample_holds, []
    monkeypatch.setattr(props, "_sample_holds",
                        lambda table, n: calls.append(n) or bulk(table, n))
    rng = random.Random(30)
    verdicts = Counter()
    for n in range(props.LATTICE_MAX_N + 1, 17):
        masks = props._supermodular_masks(n)
        for _ in range(40):
            facts = Facts(random_graph(n, rng.choice([0.15, 0.3, 0.5]),
                                       rng.getrandbits(32)))
            bad = bytearray(facts.tables())
            kind = rng.choice(["clean", "moved", "moved", "high", "high"])
            for _ in range({"clean": 0, "moved": rng.randrange(1, 4),
                            "high": rng.randrange(1, 7)}[kind]):
                a, b = rng.choice(masks), rng.choice(masks)
                m = rng.choice([a, a | b, a & b])
                bad[m] = (rng.randrange(64, 256) if kind == "high" else
                          bad[m] + rng.choice([-2, -1, 1, 2]))
            bad = bytes(bad)
            first = _first_failing_pair(bad, masks)
            verdicts[kind, first is None] += 1
            if kind != "high":
                assert bulk(bad, n) == (first is None), (n, kind)
            facts._cache["tables"] = bad
            calls.clear()
            ok, witness = prop.check(facts)
            assert ok == (first is None), (n, kind)
            assert calls == ([] if kind == "high" else [n]), (n, kind)
            if first is not None:
                a, b = first
                assert witness["a"] == facts.labels(a), (n, kind)
                assert witness["b"] == facts.labels(b), (n, kind)
    assert verdicts["clean", True] >= 10
    assert verdicts["moved", True] >= 5 and verdicts["moved", False] >= 10
    assert verdicts["high", False] >= 10, verdicts


def test_lane_cache_holds_the_order_in_use_only(monkeypatch):
    # the byte lanes of the subset tables take (n + 1)·2^n bytes; a fuzz
    # run over several orders keeps those of the last one, not of each
    built = []

    class Held(dict):
        def __setitem__(self, n, lanes):
            built.append(n)
            super().__setitem__(n, lanes)

    monkeypatch.setattr(oracle, "_lanes", Held())
    report = run(random_corpus(17, 20, 0.3, 8, 1))  # as fuzz --n 17..20
    orders = [graph["n"] for graph in report["graphs"]]
    assert orders == [19, 20, 19, 19, 19, 19, 18, 18]
    assert (len(built), len(oracle._lanes)) == (4, 1)
    assert oracle._subset_lanes(report["graphs"][-1]["n"])
    assert built == [19, 20, 19, 18]


def _peak_building(order, held):
    """The traced peak, above the memory in use before the lanes of held
    were built, of then building the lanes of order."""
    oracle._subset_lanes(0)
    base = tracemalloc.get_traced_memory()[0]
    oracle._subset_lanes(held)
    tracemalloc.reset_peak()
    oracle._subset_lanes(order)
    return tracemalloc.get_traced_memory()[1] - base


def test_lane_cache_drops_the_held_order_before_building_the_next():
    # switching from order 17 to 18 peaks no higher than building 18 with
    # nothing held; holding 17's lanes through the build would add their
    # 18·2^17 bytes to the peak
    tracemalloc.start()
    try:
        alone = _peak_building(18, 0)
        switch = _peak_building(18, 17)
    finally:
        tracemalloc.stop()
    assert switch < alone + (18 << 17) // 2


def test_each_entry_is_the_same_alone_in_the_sweep_and_shuffled():
    # the route to a family (the subset tables once something built them,
    # else a DFS) and the order the properties run in change no entry: each
    # property reports the same alone on a fresh Facts, inside a whole
    # registry pass, and inside a pass in shuffled order. 45 graphs, 3
    # configs, 26 properties: 3,510 comparisons, about 2 s. The sample
    # test's gatherers start empty, so at n = 13..20 the first graph reads
    # them cold and the later ones warm
    names = [prop.name for prop in registry()]
    rng = random.Random(27)
    props._sample_gatherers.cache_clear()
    for n in range(6, 21):
        for p in (0.15, 0.3, 0.5):
            g = random_graph(n, p, rng.getrandbits(32))
            for config in (Config(), Config(use_oracle=False),
                           Config(oracle_limit=17)):
                swept = props._eval_graph(("g", g, None, config))["results"]
                shuffled = rng.sample(names, len(names))
                mixed = props._eval_graph(("g", g, shuffled, config))
                by_name = {r["property"]: r for r in mixed["results"]}
                for name, entry in zip(names, swept):
                    alone = props._eval_graph(("g", g, [name], config))
                    assert alone["results"] == [entry] == [by_name[name]], (
                        g.adj, config, name)
    info = props._sample_gatherers.cache_info()
    assert (info.misses, info.currsize) == (8, 8)


def test_d_eq_id_reports_d_values_off_a_corrupted_table():
    # one lane raised above d(G) + n breaks the identity; the witness gives
    # the subset and independent maxima as d values
    prop = lookup("zhang.d_eq_id")
    rng = random.Random(10)
    for n in (4, 9, 13):
        for _ in range(12):
            g = random_graph(n, rng.choice([0.2, 0.4, 0.6]),
                             rng.getrandbits(32))
            facts = Facts(g)
            d0, m, k = facts.d(), rng.randrange(1 << n), rng.choice([1, 2])
            bad = bytearray(facts.tables())
            bad[m] = d0 + n + k
            facts._cache["tables"] = bytes(bad)
            assert prop.check(facts) == (False, {
                "d_polynomial": d0, "max_over_subsets": d0 + k,
                "max_over_independent":
                    d0 + k if is_independent(g, m) else d0})


def test_d_eq_id_maximum_stays_exact_past_2n():
    # no valid lane exceeds 2n, but a corrupted one may hold anything up to
    # 255; with several lanes raised at once, or every top lane lowered, the
    # witness must give what max() over the corrupted table gives
    prop = lookup("zhang.d_eq_id")
    rng = random.Random(14)
    for n in (0, 1, 2, 5, 9, 12):
        for _ in range(10):
            g = random_graph(n, rng.choice([0.2, 0.5]), rng.getrandbits(32))
            facts = Facts(g)
            d0, ind = facts.d(), facts._independent_masks()
            bad = bytearray(facts.tables())
            if rng.random() < 0.2 and d0 + n:
                bad = bad.replace(bytes([d0 + n]), bytes([d0 + n - 1]))
            for _ in range(rng.randrange(4)):
                bad[rng.randrange(1 << n)] = rng.choice(
                    [2 * n, 2 * n + 1, 2 * n + 2, 255, d0 + n + 1])
            facts._cache["tables"] = bytes(bad)
            best_all = max(bad) - n
            best_ind = max(bad[m] for m in ind) - n
            ok = d0 == best_all == best_ind
            assert prop.check(facts) == (ok, None if ok else {
                "d_polynomial": d0, "max_over_subsets": best_all,
                "max_over_independent": best_ind}), (n, bytes(bad))


def test_critical_closure_reports_the_first_failing_pair_in_d_values():
    # a corrupted lane makes a non-critical mask critical or a critical one
    # not; the check must name the first failing pair of the critical
    # masks (a strided sample of them past 256), with d values
    prop = lookup("th4.critical_closed_union_intersection")
    rng = random.Random(13)
    failed = 0
    for n in (4, 7, 10):
        for _ in range(30):
            g = random_graph(n, rng.choice([0.2, 0.4, 0.6]),
                             rng.getrandbits(32))
            facts = Facts(g)
            d0 = facts.d()
            bad = bytearray(facts.tables())
            crit = [m for m in range(1 << n) if bad[m] - n == d0]
            if rng.random() < 0.5:
                bad[rng.randrange(1 << n)] = d0 + n
            else:
                bad[rng.choice(crit)] -= 1
            facts._cache["tables"] = bytes(bad)
            crit = [m for m in range(1 << n) if bad[m] - n == d0]
            if len(crit) > 256:
                crit = crit[::len(crit) // 256 + 1]
            first = next(((a, b) for a in crit for b in crit
                          if bad[a | b] - n != d0 or bad[a & b] - n != d0),
                         None)
            ok, witness = prop.check(facts)
            assert ok == (first is None)
            if first is not None:
                failed += 1
                a, b = first
                assert witness == {
                    "a": g.label_list(a), "b": g.label_list(b), "d": d0,
                    "d_union": bad[a | b] - n,
                    "d_intersection": bad[a & b] - n}
    assert failed >= 30


@pytest.mark.parametrize("k", [6, 7])
def test_critical_closure_reports_the_first_failing_pair_of_the_sample(k):
    # on k disjoint edges every mask has d = 0 and is critical, so past 256
    # critical masks the check pairs up a strided sample of them; one lane
    # moved off d0 + n drops its mask, and the witness must be the first
    # failing pair of a full row-major scan over the sample. Half the
    # corrupted lanes are the union of two masks before them in the sample,
    # so those two stay in it and the check must fail
    prop = lookup("th4.critical_closed_union_intersection")
    n, rng = 2 * k, random.Random(k)
    g = graphs.Graph(n, [(2 * i, 2 * i + 1) for i in range(k)])
    stride = ((1 << n) - 1) // 256 + 1
    failed = 0
    for trial in range(12):
        facts = Facts(g)
        bad = bytearray(facts.tables())
        assert facts.d() == 0 and bad.count(n) == 1 << n
        if trial % 2:
            c = rng.randrange(1 << n)
        else:
            a = b = 0
            while a | b in (a, b):
                a, b = rng.sample(range(0, 1 << n, stride), 2)
            c = a | b
        bad[c] = n + rng.choice([-1, 1])
        facts._cache["tables"] = bytes(bad)
        crit = [m for m in range(1 << n) if bad[m] == n]
        crit = crit[::len(crit) // 256 + 1]
        assert len(crit) <= 256
        first = next(((a, b) for a in crit for b in crit
                      if bad[a | b] != n or bad[a & b] != n), None)
        ok, witness = prop.check(facts)
        assert ok == (first is None)
        if first is not None:
            failed += 1
            a, b = first
            assert witness == {
                "a": g.label_list(a), "b": g.label_list(b), "d": 0,
                "d_union": bad[a | b] - n, "d_intersection": bad[a & b] - n}
    assert failed >= 6


def test_tables_match_the_per_mask_definition():
    # every lane against d(m) + n, and the independent masks against
    # is_independent in include-first order (of two masks, the one holding
    # the lowest vertex where they differ comes first), up to n = 20, where
    # zhang.d_eq_id reads both; one graph per n above 12, at alternating
    # density, keeps the per-mask scan short
    rng = random.Random(12)
    graphs = [*small_corpus(4),
              *(random_graph(n, p, rng.getrandbits(32))
                for n in range(8, 13) for p in (0.2, 0.5)),
              *(random_graph(n, (0.2, 0.5)[n % 2], rng.getrandbits(32))
                for n in range(13, 21))]
    for g in graphs:
        n, facts = g.n, Facts(g)
        assert list(facts.tables()) == [
            m.bit_count() - neighborhood(g, m).bit_count() + n
            for m in range(1 << n)], g.adj
        assert facts._independent_masks() == include_first(
            n, (m for m in range(1 << n) if is_independent(g, m))), g.adj


def test_core_and_corona_build_no_subset_table():
    # the conjecture scan reads core and corona alone; they come from the
    # maximum-independent-set DFS, with neither the independent masks nor
    # the 2^n table built
    rng = random.Random(11)
    for n in (0, 5, 12, 18):
        g = random_graph(n, 0.3, rng.getrandbits(32))
        facts = Facts(g)
        assert facts.mis_profile() == oracle.core_and_corona(g)
        assert facts.first_mis() == next(
            oracle.enumerate_maximum_independent_sets(g))
        assert "independent_masks" not in facts._cache
        assert "tables" not in facts._cache


@pytest.mark.parametrize("n", [30, 45])
def test_oracle_readers_check_their_limits_in_order(monkeypatch, n):
    # each public reader reads a fresh Facts, which checks the enumeration
    # limit before it reads alpha; core and corona read alpha first, so
    # past the alpha limit that limit is the one reported
    alphas = []
    real_alpha = mis.alpha

    def counted(g, *args):
        alphas.append(g)
        return real_alpha(g, *args)

    monkeypatch.setattr(mis, "alpha", counted)
    g = path_graph(n)
    readers = {
        "enumerate_maximum_independent_sets":
            lambda: next(oracle.enumerate_maximum_independent_sets(g)),
        "core_and_corona": lambda: oracle.core_and_corona(g),
        "maximum_critical_independent_set":
            lambda: oracle.maximum_critical_independent_set(g),
        "is_ke_via_critical": lambda: oracle.is_ke_via_critical(g),
        "Facts.mis_profile": lambda: Facts(g).mis_profile()}
    got = {}
    for name, read in readers.items():
        alphas.clear()
        with pytest.raises(LimitExceeded) as exc:
            read()
        got[name] = (str(exc.value), len(alphas))
    enumeration = f"n={n} exceeds enumeration limit 20"
    core = (enumeration if n <= mis.ALPHA_LIMIT
            else f"n={n} exceeds alpha limit {mis.ALPHA_LIMIT}")
    critical_limit = f"n={n} exceeds oracle limit 20"
    assert got == {
        "enumerate_maximum_independent_sets": (enumeration, 0),
        "core_and_corona": (core, 1),
        "maximum_critical_independent_set": (critical_limit, 0),
        "is_ke_via_critical": (critical_limit, 0),
        "Facts.mis_profile": (core, 1)}


def test_shrink_reaches_minimal_example():
    small = shrink(path_graph(5), lambda h: alpha(h) >= 3)
    assert small.n == 3 and small.m == 0


def test_shrink_is_idempotent():
    pred = lambda h: h.n >= 2 and h.m >= 1
    once = shrink(complete_graph(4), pred)
    assert (once.n, once.m) == (2, 1)
    again = shrink(once, pred)
    assert again == once


def test_shrink_rejects_passing_input():
    with pytest.raises(ValueError, match="shrink needs"):
        shrink(path_graph(2), lambda h: h.n > 5)


def test_corpus_parsing_round_trip():
    spec = parse_corpus_spec(json.dumps({"sources": [
        {"kind": "fixtures"},
        {"kind": "exhaustive", "n": 3},
        {"kind": "random", "n": [8, 10], "p": 0.3, "count": 5, "seed": 7},
    ]}))
    keys = [key for key, _ in iter_graphs(spec)]
    assert keys[0] == "fixture:fig511"
    assert sum(1 for k in keys if k.startswith("exhaustive:n=3")) == 8
    assert sum(1 for k in keys if k.startswith("random:")) == 5
    assert spec.describe()["sources"][2]["seed"] == 7


@pytest.mark.parametrize("text", [
    "not json",
    "[1, 2]",
    '{"sources": [{"n": 3}]}',
    '{"sources": [{"kind": "martian"}]}',
    '{"sources": [{"kind": "random", "n": [3, 5]}]}',
    '{"sources": 5}',
])
def test_corpus_parsing_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_corpus_spec(text)


def test_random_corpus_is_reproducible_and_isolated():
    a = random_graph_at(8, 12, 0.3, seed=5, k=17)
    b = random_graph_at(8, 12, 0.3, seed=5, k=17)
    assert a == b
    c = random_graph_at(8, 12, 0.3, seed=5, k=18)
    assert a != c
    spec = random_corpus(8, 12, 0.3, 4, seed=5)
    graphs = [g for _, g in iter_graphs(spec)]
    assert graphs[2] == random_graph_at(8, 12, 0.3, 5, 2)


def test_run_is_deterministic_and_worker_invariant():
    spec = random_corpus(6, 9, 0.3, 6, seed=11)
    names = ["zhang.d_eq_id", "th6.ker_subset_core", "ke.is_ke"]
    one = run(spec, names, Config(workers=1))
    two = run(spec, names, Config(workers=2))
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
    assert one["summary"]["fails"] == 0
    assert one["summary"]["graphs"] == 6
    assert one["summary"]["checks"] == 18


def test_run_rejects_unknown_property():
    with pytest.raises(ValueError):
        run(exhaustive_corpus(2), ["not.a.property"])


def test_run_counts_skips():
    report = run(exhaustive_corpus(3), ["th10.bipartite_ker_eq_core"])
    s = report["summary"]
    assert s["graphs"] == 8
    assert s["holds"] + s["skipped"] == 8 and s["fails"] == 0
    assert s["skip_reasons"].get("not bipartite", 0) == s["skipped"]


def test_conjecture_scan_on_fixtures():
    report = conjecture_scan(fixtures_corpus())
    s = report["summary"]
    assert s["violations"] == [] and s["skipped"] == []
    assert s["min_slack"] is not None and s["min_slack"] >= 0
    assert s["min_slack_upper"] is not None and s["min_slack_upper"] >= 0
    assert report["per_n"]
    for slot in report["per_n"].values():
        assert slot["graphs"] >= 1 and slot["min_slack"] >= 0


def test_conjecture_scan_tight_on_ke_graphs():
    # on a König-Egerváry graph with ker = core and diadem = corona the
    # sandwich closes: both slacks are zero
    report = conjecture_scan(exhaustive_corpus(1, 2))
    assert report["summary"]["min_slack"] == 0
    assert report["summary"]["violations"] == []


@pytest.mark.parametrize("max_n,config", [
    (6, Config()), (5, Config(oracle_limit=3)), (5, Config(use_oracle=False))],
    ids=["default", "oracle_limit=3", "no_oracle"])
def test_conjecture_slacks_are_isomorphism_invariant(max_n, config):
    # the exhaustive scan evaluates the first graph of each isomorphism class
    # and counts its slacks for the whole class; here every labeled graph is
    # evaluated on its own and must agree with its class's leader
    differ = []
    for n in range(max_n + 1):
        outcomes = [props._slacks(Facts(g, config)) for g in all_graphs(n)]
        differ += [(n, code, leader)
                   for code, leader in enumerate(orbit_leaders(n))
                   if outcomes[code] != outcomes[leader]]
    assert differ == []


def test_exhaustive_scan_builds_one_graph_per_class(monkeypatch):
    built = Counter()

    def graph_from_code(n, code):
        built[n] += 1
        return graphs.graph_from_code(n, code)
    monkeypatch.setattr(props, "graph_from_code", graph_from_code)
    report = conjecture_scan(exhaustive_corpus(*range(1, 7)))
    assert report["summary"]["graphs"] == 33867
    assert built == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}


def test_exhaustive_scan_lists_skipped_members_in_code_order(monkeypatch):
    # a skipped class is listed member by member, each under its own key
    lower = props._lower_slack

    def skip_odd_sizes(f):
        if f.g.m % 2:
            raise LimitExceeded("odd size")
        return lower(f)
    monkeypatch.setattr(props, "_lower_slack", skip_odd_sizes)
    report = conjecture_scan(exhaustive_corpus(4))
    odd = [code for code in range(64) if code.bit_count() % 2]
    s = report["summary"]
    assert s["skipped"] == [{"graph": f"exhaustive:n=4:{code}",
                             "reason": "odd size"} for code in odd]
    assert (s["graphs"], s["checked"]) == (64, 64 - len(odd))
    assert report["per_n"]["4"]["graphs"] == 64 - len(odd)


def test_exhaustive_scan_keeps_class_sizes_per_n(monkeypatch):
    # repeated scans in one process build each order's leader list once;
    # a scan that must list a class member by member builds it again
    built = Counter()

    def orbit_leaders(n):
        built[n] += 1
        return graphs.orbit_leaders(n)
    monkeypatch.setattr(props, "orbit_leaders", orbit_leaders)
    props._class_sizes.cache_clear()
    corpus = exhaustive_corpus(*range(1, 6))
    report = conjecture_scan(corpus)
    assert conjecture_scan(corpus) == report
    assert report["summary"]["graphs"] == 1 + 2 + 8 + 64 + 1024
    assert built == {n: 1 for n in range(1, 6)}

    lower = props._lower_slack

    def skip_odd_sizes(f):
        if f.g.m % 2:
            raise LimitExceeded("odd size")
        return lower(f)
    monkeypatch.setattr(props, "_lower_slack", skip_odd_sizes)
    report = conjecture_scan(exhaustive_corpus(5))
    assert [s["graph"] for s in report["summary"]["skipped"]] == [
        f"exhaustive:n=5:{code}" for code in range(1024)
        if code.bit_count() % 2]
    assert built == {1: 1, 2: 1, 3: 1, 4: 1, 5: 2}


# exhaustive n = 3 plus a few random graphs, scanned with one side of the
# sandwich forced to fail; the digests of the rendered reports, shrunk graphs
# included, were computed before the scan and its shrinking read alpha, ker,
# diadem, core and corona through Facts
FORCED_VIOLATIONS = [
    ("ker-diadem", 6,
     "86e78849e7963c9ef31f9f55e9bc95b4b9a241ff8c49cfcd8170c953343df3e2"),
    ("core-corona", 12,
     "4de02f697b80773ff1aa663c94440615a41bd21c6fb8f8fb83287d2c08b72fad"),
]


@pytest.mark.parametrize("kind,count,digest", FORCED_VIOLATIONS,
                         ids=[kind for kind, _, _ in FORCED_VIOLATIONS])
def test_conjecture_scan_reports_and_shrinks_forced_violations(
        monkeypatch, kind, count, digest):
    if kind == "ker-diadem":
        monkeypatch.setattr(critical, "diadem", lambda g: g.full)
    else:
        profile = Facts.mis_profile
        monkeypatch.setattr(Facts, "mis_profile",
                            lambda f: profile(f)._replace(core=0, corona=0))
    corpus = parse_corpus_spec(json.dumps({"sources": [
        {"kind": "exhaustive", "n": 3},
        {"kind": "random", "n": [5, 7], "p": 0.4, "count": 4, "seed": 1}]}))
    report = conjecture_scan(corpus)
    violations = report["summary"]["violations"]
    assert [v["kind"] for v in violations] == [kind] * count
    assert all(v["lhs"] > v["rhs"] and v["shrunk"]["n"] <= v["n"]
               for v in violations)
    text = json.dumps(report, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_conjecture_scan_records_limit_skips(tmp_path):
    from critset.graphs import to_edge_list
    big = empty_graph(45)
    f = tmp_path / "big.edges"
    f.write_text(to_edge_list(big))
    from critset.props import files_corpus
    report = conjecture_scan(files_corpus([str(f)]))
    s = report["summary"]
    assert s["checked"] == 0 and len(s["skipped"]) == 1
    assert s["skipped"][0]["graph"].endswith("big.edges")
