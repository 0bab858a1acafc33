import ast
import hashlib
import json
import pickle
import random
import re
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import oracles as o
from conftest import (count_calls, every_bipartition, mid_sample,
                      random_bipartition, small_corpus)
from critset import cli, corpus, critical, graphs, ke, mis, oracle, ore, props
from critset.fixtures import load
from critset.graphs import (LimitExceeded, all_graphs, bipartition,
                            complete_bipartite, complete_graph, cycle_graph,
                            empty_graph, neighborhood, orbit_leaders,
                            parse_graph, path_graph, random_bipartite,
                            random_graph)
from critset.matching import (Matching, maximum_matching_general,
                              saturating_matching)
from critset.mis import alpha
from critset.corpus import (conjecture_scan, exhaustive_corpus,
                            files_corpus, fixtures_corpus, iter_graphs,
                            parse_corpus_spec, random_corpus, random_graph_at,
                            shrink)
from critset.props import (SELFTEST, Config, Facts, PropertyResult, evaluate,
                           lookup, registry, run, select_properties)

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

    # each Ore property skips before it reads the profile, which refuses too
    with pytest.raises(ValueError, match="^not bipartite$"):
        Facts(complete_graph(3)).ore_profile()


def test_pendant_set_is_computed_once_per_evaluation(monkeypatch):
    # the guard and the check of pendant.in_diadem share one pendant set
    calls = count_calls(monkeypatch, props._pendants_outside_k2)
    result = evaluate(lookup("pendant.in_diadem"), Facts(path_graph(5)))
    assert result.verdict == "holds"
    assert calls == {"_pendants_outside_k2": 1}


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

    # on P3, ker = {a, c} has no tight set; a reach that misses a makes it
    # unmatchable all the same
    monkeypatch.setattr(oracle, "_max_matching_lists", lambda *args: [])
    r = evaluate(prop, Facts(path_graph(3)))
    assert r.verdict == "fails"
    assert r.witness["problem"] == "tight-set and matching conditions disagree"


def test_selftest_fails_with_reusable_witness(monkeypatch):
    r = evaluate(SELFTEST, Facts(empty_graph(3)))
    assert r.verdict == "fails"
    assert r.witness["alpha"] == 3
    r2 = evaluate(SELFTEST, Facts(complete_graph(4)))
    assert r2.verdict == "holds"
    # P3 has alpha = 2 and no independent triple; told alpha = 3, the
    # check falls through to its witness without a triple
    monkeypatch.setattr(mis, "alpha", lambda g, *args: 3)
    assert evaluate(SELFTEST, Facts(path_graph(3))) == PropertyResult(
        SELFTEST.name, "fails", None, {"alpha": 3})


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


def test_only_get_reads_the_facts_cache():
    # every reader asks _get for what it needs, so none can choose its route
    # by what another reader computed before it; the constructor makes the
    # cache, and tests may still write to it
    tree = ast.parse(Path(oracle.__file__).read_text())
    facts = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "Facts")
    naming = sorted(
        method.name for method in facts.body
        if isinstance(method, ast.FunctionDef)
        and any(isinstance(node, ast.Attribute) and node.attr == "_cache"
                and isinstance(node.value, ast.Name)
                and node.value.id == "self" for node in ast.walk(method)))
    assert naming == ["__init__", "_get"]


def test_facts_run_alpha_and_the_blossom_matching_once(graphs_n5,
                                                       monkeypatch):
    # mu, is_ke and the core and corona read the cached alpha, matching and
    # bipartition; mu and is_ke give what the library routes give on their
    # own
    calls = count_calls(monkeypatch, mis.alpha, maximum_matching_general)
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
                outcome(lambda: ke.is_koenig_egervary(g)))
        calls.clear()
        assert (facts.mu(), outcome(facts.is_ke)) == want
        outcome(facts.mis_profile)
        assert facts.matching() is facts.matching()
        assert calls["maximum_matching_general"] == 1
        # past its limit alpha raises and nothing is cached, so each fact
        # that asks for it calls it: is_ke on non-bipartite graphs, and the
        # core and corona
        asked = 1 if g.n <= mis.ALPHA_LIMIT else 1 + (facts.parts() is None)
        assert calls["alpha"] == asked


def test_registry_pass_runs_each_oracle_fact_once(graphs_n5, monkeypatch):
    # every check reads Facts, so one registry pass per graph runs alpha,
    # the critical independent enumeration and the maximum independent one
    # at most once and the blossom matching once, whichever module a check
    # would reach them through; the critical family has one route, so its
    # DFS runs exactly once at every n up to the oracle limit, tables built
    # or not, and so does the maximum independent DFS (past the oracle
    # limit the limit check raises before either starts, uncached); no
    # saturating_matching runs, since every set th2 and th9 read on a valid
    # graph is critical, and the cover matching holds its matching
    calls = count_calls(monkeypatch, mis.alpha, maximum_matching_general,
                        oracle.enumerate_critical_independent_sets,
                        oracle._search_maximum_independent_sets,
                        saturating_matching)
    rng = random.Random(6)
    graphs = [*graphs_n5[-1024::53],
              *(random_graph(n, p, rng.getrandbits(32))
                for n in [*range(8, 13), 19, 20] for p in (0.15, 0.3, 0.5))]
    for g in graphs:
        calls.clear()
        facts = Facts(g)
        for prop in registry():
            assert evaluate(prop, facts).verdict in ("holds", "skipped")
        assert calls["alpha"] <= 1, g.adj
        assert calls["maximum_matching_general"] == 1, g.adj
        assert calls["enumerate_critical_independent_sets"] == 1, g.adj
        assert calls["_search_maximum_independent_sets"] == 1, g.adj
        # th2 and th9 read their matchings off the cover matching
        assert calls["saturating_matching"] == 0, g.adj


def test_a_bad_cover_matching_never_decides_th2_or_th9(monkeypatch):
    # th2 and the ker conditions take the memoised cover matching's partners
    # of N(S) as a matching into S only after checking each pair; a memo
    # with a partner outside S, partners that are no neighbours, or one
    # partner used twice gives the clean verdicts and witnesses, through
    # one saturating_matching that critical._neighborhood_matching makes
    # itself. ker = {c, d, e} and N(ker) = {a, b}; f g adds critical
    # independent sets, so th9 also reads a second set
    text = "a b\na c\na e\nb c\nb d\nf g\n"
    calls = count_calls(monkeypatch, saturating_matching)
    clean = parse_graph(text)
    want = [evaluate(lookup(name), Facts(clean)) for name in (TH2, TH9)]
    assert [r.verdict for r in want] == ["holds", "holds"]
    assert calls["saturating_matching"] == 0
    a, b, c, d, e = (clean.labels.index(x) for x in "abcde")
    k = critical.ker(clean)
    nb = neighborhood(clean, k)
    assert critical._neighborhood_matching(clean, k, nb) is not None
    for corrupt in ({a: b}, {a: d, b: e}, {a: c, b: c}):
        g = parse_graph(text)
        cover = critical._ker_matching(g)
        mate_minus = cover.mate_minus[:]
        for w, p in corrupt.items():
            mate_minus[w] = p
        g._cover = cover._replace(mate_minus=mate_minus)
        calls.clear()
        fresh = critical._neighborhood_matching(g, k, nb)
        assert calls["saturating_matching"] == 1, corrupt
        assert fresh.mate == saturating_matching(g, nb, k)[0].mate, corrupt
        facts = Facts(g)
        for name, result in zip((TH2, TH9), want):
            calls.clear()
            assert evaluate(lookup(name), facts) == result, corrupt
            assert calls["saturating_matching"] >= 1, (name, corrupt)


def test_registry_pass_runs_the_ore_profile_once_per_bipartite_graph(
        monkeypatch):
    # ore.kernel_separation's side samples read delta0 off the cached
    # profile, and a side past the oracle limit still skips with its size
    calls = count_calls(monkeypatch, ore.ore_profile)
    run(exhaustive_corpus(5))
    assert calls["ore_profile"] == sum(bipartition(g) is not None
                               for g in all_graphs(5)) == 376
    prop = lookup("ore.kernel_separation")
    facts = Facts(complete_bipartite(3, 5), Config(oracle_limit=4))
    assert evaluate(prop, facts) == PropertyResult(
        prop.name, "skipped", "side size 5 exceeds oracle limit 4", limit=True)


def test_kernel_separation_fails_on_side_kernels_that_touch(monkeypatch):
    # with no opposite side critical set to meet, side kernels joined by an
    # edge fail on their own
    g = parse_graph(P3)
    facts = Facts(g)
    facts._cache["ore_profile"] = facts.ore_profile()._replace(
        ker_a=0b001, ker_b=0b010)
    monkeypatch.setattr(Facts, "side_critical_samples", lambda f, side: [])
    prop = lookup("ore.kernel_separation")
    assert evaluate(prop, facts) == PropertyResult(
        prop.name, "fails", None, {"ker_a": ["a"], "ker_b": ["b"]})


def test_one_critical_pass_gives_capped_family_and_uncapped_maximum(
        monkeypatch):
    # past the cap the family is a limit skip, the largest set is not
    for g in [*small_corpus(4), empty_graph(5), cycle_graph(6),
              random_graph(9, 0.3, 2)]:
        want = o.brute_profile(g.n, g.adj)
        monkeypatch.setattr(oracle, "FAMILY_CAP", len(want.critical) - 1)
        facts = Facts(g)
        with pytest.raises(LimitExceeded, match="more than"):
            facts.critical_ind_family()
        assert facts.max_critical_ind() == want.max_critical
        monkeypatch.undo()
    off = Facts(path_graph(4), Config(use_oracle=False))
    for read in (off.critical_ind_family, off.max_critical_ind,
                 off.minimal_positives):
        with pytest.raises(LimitExceeded, match="oracle disabled"):
            read()


def test_past_the_family_cap_only_the_family_read_skips():
    # 10 disjoint edges: n = 20, d = 0 and 3^10 = 59,049 critical
    # independent sets; the family read skips, the largest set and the
    # minimal positive sets do not
    facts = Facts(graphs.Graph(20, [(2 * i, 2 * i + 1) for i in range(10)]))
    with pytest.raises(LimitExceeded, match="^more than 20000 "
                       "critical independent sets$"):
        facts.critical_ind_family()
    assert facts.max_critical_ind().bit_count() == 10
    assert facts.minimal_positives() == []


def test_critical_pass_builds_no_subset_table_of_its_own(monkeypatch):
    # ke.is_ke and th5 read the critical pass with no oracle guard: under
    # --no-oracle, or run alone, they share one critical DFS and leave the
    # 2^n subset tables unbuilt, which at n = 20 cost more than the DFS
    calls = count_calls(monkeypatch,
                        oracle.enumerate_critical_independent_sets)
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
            assert calls["enumerate_critical_independent_sets"] == 1, (
                g.adj, config)
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


# Faults, each injected into one library function or Facts method on a
# small graph: its text, the function or method, and what the fault makes
# of its result, given the result and the call's arguments; then every
# property that fails, with its witness in labels, and every other result
# that differs from the clean graph's, as its skip reason or "holds"
class Fault(NamedTuple):
    text: str
    target: tuple
    wrap: Callable
    fails: dict
    changes: dict = {}


P3, P4 = "a b\nb c\n", "a b\nb c\nc d\n"
C5_PATH = "a b\nb c\nc d\nd e\ne a\na f\nf g\n"  # d = 0, diadem = {g}
FAMILY = (oracle, "enumerate_critical_independent_sets")
MINIMAL, PROFILE = (Facts, "minimal_positives"), (Facts, "mis_profile")
KER_CONDITIONS = (oracle, "_ker_conditions")
MATCHING = (oracle, "maximum_matching_general")
UNIQUE, DELETION = ("th4.unique_minimal_critical_independent",
                    "deletion.d_drop_iff_ker")
CORE_IN, CORONA = ("core.inside_maximal_critical_independent",
                   "corona.covers_maximal_critical_independent")
TH2, TH5, TH9 = ("th2.matching_from_neighborhood",
                 "th5.ke_iff_every_mis_critical", "th9.ker_characterization")
COR2, TH8, TH11 = ("cor2.ke_core_corona_critical",
                   "th8.ke_difference_identities", "th11.ke_identities")
SPLIT, STRUCTURE = "bipartite.kernel_split", "ke.matching_structure"
NOT_CRITICAL = {CORE_IN: "core is not a critical set"}
AC, ABC = ["a", "c"], ["a", "b", "c"]


def _problem(key, s, problem="a must be a critical independent set"):
    return {key: s, "problem": problem}


def _ke_routes(every, maximum, bad=None):
    return {"alpha_plus_mu_route": True, "every_mis_critical": every,
            "maximum_critical_route": maximum, "non_critical_mis": bad}


def _identities(*rows):
    return {"failing": [{"name": name, "lhs": lhs, "rhs": rhs}
                        for name, lhs, rhs in rows]}


def _split(failing, ker, diadem_a, diadem_b, diadem=AC, alpha=2, ker_a=AC):
    return {"failing": failing, "ker_a": ker_a, "ker_b": [],
            "diadem_a": diadem_a, "diadem_b": diadem_b, "ker": ker,
            "diadem": diadem, "alpha": alpha}


def _lane(m, value):
    return lambda t, *_: t[:m] + bytes([value]) + t[m + 1:]


FAULTS = {
    # P4 loses its sets without a, so the family meets in {a}, not ker = {}
    "family.dropped": Fault(P4, FAMILY, lambda sets, *_: (
        s for s in sets if s & 1), {
        UNIQUE: {"intersection_of_family": ["a"], "d_of_intersection": 0,
                 "d": 0, "ker_by_deletion_rule": []},
        "diadem.critical": {"diadem": list("abcd"),
                            "union_of_family": ["a", "c", "d"]},
        DELETION: {"vertex": "a", "d": 0, "d_after_delete": 1,
                   "in_ker": True}}),
    # P3's one set {a, c} gains {b}, which is independent but not critical
    "family.added": Fault(P3, FAMILY, lambda sets, *_: chain(sets, [2]), {
        UNIQUE: {"intersection_of_family": [], "d_of_intersection": 0,
                 "d": 1, "ker_by_deletion_rule": AC},
        "diadem.critical": {"diadem": AC, "union_of_family": ABC},
        CORE_IN: {"core": AC, "maximal_set_missing_it": ["b"]},
        CORONA: {"corona": AC, "maximal_set_outside": ["b"]},
        DELETION: {"vertex": "a", "d": 1, "d_after_delete": 0,
                   "in_ker": False},
        TH2: {"set": ["b"], "neighborhood": AC}, TH9: _problem("set", ["b"])}),
    # P4 gains the edge {a, b} first, a set that is not independent
    "family.edge": Fault(P4, FAMILY, lambda sets, *_: chain([3], sets), {
        TH2: {"set": ["a", "b"], "neighborhood": ABC},
        TH9: _problem("set", ["a", "b"])}),
    # P3's one set {a, c}, the largest, becomes {a}
    "family.largest": Fault(P3, FAMILY, lambda sets, *_: (
        s & 1 for s in sets), {
        UNIQUE: {"intersection_of_family": ["a"], "d_of_intersection": 0,
                 "d": 1, "ker_by_deletion_rule": AC},
        "diadem.critical": {"diadem": AC, "union_of_family": ["a"]},
        CORE_IN: {"core": AC, "maximal_set_missing_it": ["a"]},
        DELETION: {"vertex": "c", "d": 1, "d_after_delete": 0,
                   "in_ker": False},
        TH9: _problem("set", ["a"]), TH5: _ke_routes(True, False),
        "ke.is_ke": {"alpha": 2, "mu": 1, "n": 3,
                     "max_critical_independent_size": 1}}),
    # P3's sides are A = {a, c} and B = {b}, with ker_a = diadem_a = {a, c}
    # and ker_b = diadem_b = {}; side B's one critical set {} is joined by
    # {b}, which meets N(ker_a)
    "ore.side_set": Fault(P3, (oracle, "_side_critical_sets"), lambda sets,
                          g, parts, side, *_: chain(sets, [2])
                          if side == "B" else sets, {
        "ore.kernel_separation": {"side": "A", "kernel": AC,
                                  "opposite_critical": ["b"]}}),
    # the side diadems trade places
    "ore.swapped": Fault(P3, (ore, "ore_profile"), lambda p, *_: p._replace(
        diadem_a=p.diadem_b, diadem_b=p.diadem_a), {SPLIT: _split(
            ["ker_a_plus_diadem_b_eq_alpha", "ker_b_plus_diadem_a_eq_alpha"],
            AC, [], AC)}),
    # diadem_a {a, c} becomes {a}
    "ore.shrunk": Fault(P3, (ore, "ore_profile"), lambda p, *_: p._replace(
        diadem_a=p.diadem_a & 1), {SPLIT: _split(
            ["ker_b_plus_diadem_a_eq_alpha", "side_diadems_union_to_diadem"],
            AC, ["a"], [])}),
    # P3's one maximum independent set {a, c} is followed by {b}, which is
    # not maximum: core shrinks to {} and corona grows to V
    "mis.appended": Fault(P3, (oracle, "_search_maximum_independent_sets"),
                          lambda sets, *_: chain(sets, [2]), {
        COR2: {"core": [], "corona": ABC, "d_of_core": 0, "d_of_corona": 0,
               "d": 1},
        "th6.ker_subset_core": {"ker": AC, "core": []},
        "th10.bipartite_ker_eq_core": {"ker": AC, "core": []},
        TH8: {"d": 1, "core_route": 0, "alpha_minus_mu": 1, "deficiency": 1},
        TH5: _ke_routes(False, True, ["b"]),
        TH11: _identities(
            ("d_eq_core_minus_ncore", 1, 0),
            ("core_plus_corona_eq_two_alpha", 3, 4),
            ("diadem_eq_corona", AC, ABC), ("core_is_critical", 0, 1),
            ("corona_is_critical", 0, 1)),
        "core_corona.lower_bound": {"two_alpha": 4, "core_plus_corona": 3}},
        NOT_CRITICAL),
    # P3 loses its one minimal positive set, {a, c}
    "minimal.dropped": Fault(P3, MINIMAL, lambda sets, *_: sets[1:], {
        "th1.ker_union_of_minimal_positive": {
            "union_of_minimal_positive": [], "ker": AC},
        "minsize.positive_bound": {
            "problem": "no positive independent set although d >= 1"}}),
    # P3 + K2 gains {a, c, d}: positive, not minimal, and d is not in ker
    "minimal.non_minimal": Fault("a b\nb c\nd e\n", MINIMAL, lambda sets,
                                 *_: sets + [0b01101], {
        "th1.ker_union_of_minimal_positive": {
            "union_of_minimal_positive": ["a", "c", "d"], "ker": AC}}),
    # the star K1,3 with centre x gains its three leaves, a set with d = 2
    "minimal.d_two": Fault("x a\nx b\nx c\n", MINIMAL, lambda sets, *_:
                           sets + [0b1110], {
        "prop3.minimal_positive_difference_one": {"set": ABC, "d": 2}}),
    # a triangle x y z beside P3 a b c has diadem {a, c}, the two pendants
    # outside K2, and loses a; the graph is neither KE nor bipartite, so
    # the other readers of diadem skip
    "diadem.less_a": Fault("x y\ny z\nz x\na b\nb c\n", (critical, "diadem"),
                           lambda dia, g: dia & ~0b1000, {
        "diadem.critical": {"diadem": ["c"], "d_of_diadem": 0, "d": 1},
        "pendant.in_diadem": {"pendants_outside_diadem": ["a"],
                              "diadem": ["c"]}}),
    # diadem grows to V: d(V) = d = 0, but V is not the family's union
    "diadem.whole": Fault(C5_PATH, (critical, "diadem"), lambda dia, g: g.full,
                          {"diadem.critical": {"diadem": list("abcdefg"),
                                               "union_of_family": ["g"]}}),
    # on P4, ker = {}; {a, c}, the family's first other set, passes too
    "ker_conditions.pass": Fault(P4, KER_CONDITIONS, lambda *_: (True, None), {
        TH9: _problem("set", AC,
                      "passes the ker conditions but differs from ker")}),
    # P4's ker {} becomes {a, c}: critical and independent, but not ker
    "ker.shifted": Fault(P4, (critical, "ker"), lambda *_: 0b0101, {
        UNIQUE: {"intersection_of_family": [], "d_of_intersection": 0,
                 "d": 0, "ker_by_deletion_rule": AC},
        DELETION: {"ker_by_deletion_rule": AC, "ker_by_enumeration": []},
        TH9: {"ker": AC, "tight_set": ["d"], "unmatchable_vertex": "a"},
        "th6.ker_subset_core": {"ker": AC, "core": []},
        "th10.bipartite_ker_eq_core": {"ker": AC, "core": []},
        TH11: _identities(("ker_plus_diadem_le_two_alpha", 6, 4)),
        SPLIT: _split(["ker_plus_diadem_eq_two_alpha",
                       "side_kernels_union_to_ker"], AC, AC, ["b", "d"],
                      list("abcd"), ker_a=[])}),
    # d one too high: the critical DFS finds no set, so the family is empty
    "d.plus_one": Fault(P3, (critical, "critical_difference"),
                        lambda d, g: d + 1, {
        "zhang.d_eq_id": {"d_polynomial": 2, "max_over_subsets": 1,
                          "max_over_independent": 1},
        UNIQUE: {"intersection_of_family": ABC, "d_of_intersection": 0,
                 "d": 2, "ker_by_deletion_rule": AC},
        "diadem.critical": {"diadem": AC, "d_of_diadem": 1, "d": 2},
        COR2: {"core": AC, "corona": AC, "d_of_core": 1, "d_of_corona": 1,
               "d": 2},
        DELETION: {"vertex": "a", "d": 2, "d_after_delete": 0,
                   "in_ker": True},
        TH9: _problem("ker", AC, "not a critical independent set"),
        "minsize.positive_bound": {"min_size": 2, "ker_size": 2, "d": 2,
                                   "bound": 1},
        TH8: {"d": 2, "core_route": 1, "alpha_minus_mu": 1, "deficiency": 1},
        TH5: _ke_routes(False, False, AC),
        TH11: _identities(
            ("d_eq_core_minus_ncore", 2, 1), ("d_eq_alpha_minus_mu", 2, 1),
            ("d_eq_deficiency", 2, 1), ("core_is_critical", 1, 2),
            ("corona_is_critical", 1, 2)),
        "ke.is_ke": {"alpha": 2, "mu": 1, "n": 3,
                     "max_critical_independent_size": 0}}, NOT_CRITICAL),
    # alpha one too high: the maximum independent DFS finds no set, so core
    # is V, corona is {} and the first maximum independent set is {}
    "alpha.plus_one": Fault(P3, (mis, "alpha"), lambda a, g: a + 1, {
        COR2: {"core": ABC, "corona": [], "d_of_core": 0, "d_of_corona": 0,
               "d": 1},
        CORONA: {"corona": [], "maximal_set_outside": AC},
        "cor1.d_ge_alpha_minus_mu": {"d": 1, "alpha": 3, "mu": 1},
        "th10.bipartite_ker_eq_core": {"ker": AC, "core": ABC},
        STRUCTURE: {"unmatched_outside_mis": "a", "mis": []},
        TH8: {"d": 1, "core_route": 0, "alpha_minus_mu": 2, "deficiency": 1},
        TH5: _ke_routes(True, False),
        TH11: _identities(
            ("d_eq_core_minus_ncore", 1, 0), ("d_eq_alpha_minus_mu", 1, 2),
            ("core_plus_corona_eq_two_alpha", 3, 6),
            ("diadem_eq_corona", AC, []), ("core_is_critical", 0, 1),
            ("corona_is_critical", 0, 1)),
        SPLIT: _split(["ker_a_plus_diadem_b_eq_alpha",
                       "ker_b_plus_diadem_a_eq_alpha",
                       "ker_plus_diadem_eq_two_alpha"], AC, AC, [], alpha=3),
        "core_corona.lower_bound": {"two_alpha": 6, "core_plus_corona": 3},
        "ke.is_ke": {"alpha": 3, "mu": 1, "n": 3,
                     "max_critical_independent_size": 2}}, NOT_CRITICAL),
    # alpha one too low: on C5 with the path a f g hanging off it (not KE,
    # alpha = 3), the maximum independent DFS's first set, {a, c, g}, is not
    # critical and is larger than alpha
    "alpha.minus_one": Fault(C5_PATH, (mis, "alpha"), lambda a, g: a - 1, {
        TH5: {"alpha": 2, "larger_independent_set": ["a", "c", "g"]}}),
    # the same on the paw, the triangle a b c with the pendant d at a (KE,
    # alpha = 2): the DFS's first set, {a}, is not critical and no larger
    # than alpha; the largest critical independent set, {b, d}, is larger,
    # and the graph no longer reads as KE
    "alpha.minus_one_ke": Fault("a b\nb c\nc a\na d\n", (mis, "alpha"),
                                lambda a, g: a - 1, {
        TH5: {"alpha": 1, "larger_independent_set": ["b", "d"]}},
        dict.fromkeys((COR2, STRUCTURE, TH8, TH11, "ke.is_ke"), "not KE")),
    # the same on the bowtie, the triangles 0 1 4 and 0 2 3 sharing 0 (not
    # KE, alpha = 2, d = 0): the DFS's first set, {0}, is not critical, and
    # neither it nor the largest critical set, {}, is larger than alpha; the
    # rest of the DFS's stream holds {1, 2}, which is
    "alpha.minus_one_bowtie": Fault("0 1\n0 2\n0 3\n0 4\n1 4\n2 3\n",
                                    (mis, "alpha"), lambda a, g: a - 1, {
        TH5: {"alpha": 1, "larger_independent_set": ["1", "2"]}}),
    # P3's matching {a, b} loses its one edge, so mu = 0
    "matching.less_an_edge": Fault(P3, MATCHING, lambda *_: Matching(3, []), {
        "cor1.d_ge_alpha_minus_mu": {"d": 1, "alpha": 2, "mu": 0},
        STRUCTURE: {"unmatched_outside_mis": "b", "mis": AC},
        TH8: {"d": 1, "core_route": 1, "alpha_minus_mu": 2, "deficiency": 3},
        TH11: _identities(("d_eq_alpha_minus_mu", 1, 2),
                          ("d_eq_deficiency", 1, 3))}),
    # the lane of P3's dependent set {a, b} rises from d = -1 to 2, above d
    "tables.raised": Fault(P3, (Facts, "tables"), _lane(0b011, 5), {
        "zhang.d_eq_id": {"d_polynomial": 1, "max_over_subsets": 2,
                          "max_over_independent": 1},
        "th4.supermodular": {"a": ["a", "b"], "b": ["c"], "d_a_plus_d_b": 2,
                             "d_union_plus_d_intersection": 0}}),
    # on 2K2 (a b, c d), where every set has d = 0, {a, c} drops to -1
    "tables.lowered": Fault("a b\nc d\n", (Facts, "tables"), _lane(0b101, 3), {
        "th4.supermodular": {"a": ["a"], "b": ["c"], "d_a_plus_d_b": 0,
                             "d_union_plus_d_intersection": -1},
        "th4.critical_closed_union_intersection": {
            "a": ["a"], "b": ["c"], "d": 0, "d_union": -1,
            "d_intersection": 0}}),
    # P3's core {a, c} loses a, the mate of b
    "core.less_a": Fault(P3, PROFILE, lambda p, f: p._replace(
        core=p.core & ~1), {
        COR2: {"core": ["c"], "corona": AC, "d_of_core": 0, "d_of_corona": 1,
               "d": 1},
        "th6.ker_subset_core": {"ker": AC, "core": ["c"]},
        "th10.bipartite_ker_eq_core": {"ker": AC, "core": ["c"]},
        STRUCTURE: {"neighbor_of_core_unmatched_into_core": "b",
                    "core": ["c"]},
        TH8: {"d": 1, "core_route": 0, "alpha_minus_mu": 1, "deficiency": 1},
        TH11: _identities(("d_eq_core_minus_ncore", 1, 0),
                          ("core_plus_corona_eq_two_alpha", 3, 4),
                          ("core_is_critical", 0, 1)),
        "core_corona.lower_bound": {"two_alpha": 4, "core_plus_corona": 3}},
        NOT_CRITICAL),
    # P3's corona {a, c} gains b
    "corona.plus_b": Fault(P3, PROFILE, lambda p, f: p._replace(
        corona=p.corona | 2), {
        COR2: {"core": AC, "corona": ABC, "d_of_core": 1, "d_of_corona": 0,
               "d": 1},
        STRUCTURE: {"neighborhood_of_core": ["b"], "complement_of_corona": []},
        TH11: _identities(("core_plus_corona_eq_two_alpha", 5, 4),
                          ("diadem_eq_corona", AC, ABC),
                          ("ncore_eq_complement_of_corona", ["b"], []),
                          ("corona_is_critical", 0, 1))}),
}


def _apply_fault(monkeypatch, case):
    fault = FAULTS[case]
    real = getattr(*fault.target)
    monkeypatch.setattr(*fault.target,
                        lambda *args: fault.wrap(real(*args), *args))
    return parse_graph(fault.text)


def _sweep(g):
    facts = Facts(g)
    return {prop.name: evaluate(prop, facts) for prop in registry()}


def test_the_faults_fail_every_registry_property():
    # a new property with no failing case fails here
    assert set().union(*(fault.fails for fault in FAULTS.values())) == {
        prop.name for prop in registry()}


@pytest.mark.parametrize("case", FAULTS)
def test_each_fault_fails_exactly_its_properties(monkeypatch, case):
    # in a whole registry pass, where zhang.d_eq_id builds the subset tables
    # first, and alone on a fresh Facts, the fault's properties fail with
    # their witnesses; every other result is the clean graph's, bar changes
    fault = FAULTS[case]
    clean = _sweep(parse_graph(fault.text))
    g = _apply_fault(monkeypatch, case)
    swept = _sweep(g)
    changed = {name: r for name, r in swept.items() if r != clean[name]}
    assert {name: r.witness for name, r in changed.items()
            if r.verdict == "fails"} == fault.fails
    assert {name: r.reason or r.verdict for name, r in changed.items()
            if r.verdict != "fails"} == fault.changes
    for name, witness in fault.fails.items():
        want = PropertyResult(name, "fails", None, witness)
        assert swept[name] == want
        assert evaluate(lookup(name), Facts(g)) == want


def _check_all_failed(capsys, path):
    """Each failing property of `check path --all` with its witness, as the
    JSON report and as the text report give them; both runs exit 1."""
    seen = []
    for argv in (["--json"], []):
        assert cli.main(["check", str(path), "--all", *argv]) == 1
        out = capsys.readouterr().out
        if argv:
            seen.append({r["property"]: r["witness"] for r in json.loads(
                out)["results"] if r["verdict"] == "fails"})
        else:
            seen.append({line.split(":")[0]: json.loads(
                line.split("witness: ")[1]) for line in out.splitlines()
                if ": fails  witness: " in line})
    return seen


@pytest.mark.parametrize("case", FAULTS)
def test_check_all_renders_each_fault(monkeypatch, capsys, tmp_path, case):
    path = tmp_path / "g.edges"
    path.write_text(FAULTS[case].text)
    _apply_fault(monkeypatch, case)
    assert _check_all_failed(capsys, path) == [FAULTS[case].fails] * 2


def test_analyze_prints_each_failing_ke_identity(monkeypatch, capsys,
                                                tmp_path):
    # under each fault that fails th11, analyze's text report lists the
    # identities th11's witness holds, one line each
    path = tmp_path / "g.edges"
    for case, fault in FAULTS.items():
        if TH11 not in fault.fails:
            continue
        monkeypatch.undo()
        path.write_text(fault.text)
        _apply_fault(monkeypatch, case)
        assert cli.main(["analyze", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        at = next(i for i, line in enumerate(lines) if "KE identities" in line)
        failing = fault.fails[TH11]["failing"]
        assert lines[at].endswith(f" checked, {len(failing)} failing"), case
        assert lines[at + 1:at + 1 + len(failing)] == [
            f"    {c['name']}: {c['lhs']} != {c['rhs']}" for c in failing]


@pytest.mark.parametrize("target", [
    FAMILY, MINIMAL, (oracle, "_side_critical_sets"), KER_CONDITIONS,
    MATCHING], ids=lambda target: target[1])
def test_every_reader_of_a_fact_fails_under_its_faults(monkeypatch, target):
    # a property that reads the fact raises where it asks for it on P3;
    # each such property fails under a fault of that fact in the table
    Asked = type("Asked", (Exception,), {})

    def asked(*args):
        raise Asked

    monkeypatch.setattr(*target, asked)
    readers = set()
    for prop in registry():
        try:
            evaluate(prop, Facts(parse_graph(P3)))
        except Asked:
            readers.add(prop.name)
    assert readers == set().union(*(fault.fails for fault in FAULTS.values()
                                    if fault.target == target))


def test_check_fuzz_and_shrink_keep_an_injected_failure(monkeypatch, capsys,
                                                        tmp_path):
    # d or alpha one too high empties a DFS; on C5 with the path a f g
    # hanging off it (d = 0, diadem = {g}, not KE), as on P3, check --all
    # exits 1, not 4
    path = tmp_path / "c5_path.edges"
    path.write_text(C5_PATH)
    for case in ("alpha.plus_one", "d.plus_one"):
        monkeypatch.undo()
        _apply_fault(monkeypatch, case)
        assert all(_check_all_failed(capsys, path))
    # with d one too high, zhang.d_eq_id fails on every graph; fuzz lists
    # each failure of its per-graph reports in the summary and exits 1
    assert cli.main(["fuzz", "--n", "3..5", "--p", "0.5", "--count", "3",
                     "--seed", "1", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    failures = [{"graph": entry["key"], "property": r["property"],
                 "witness": r["witness"]} for entry in report["graphs"]
                for r in entry["results"] if r["verdict"] == "fails"]
    assert report["summary"]["failures"] == failures
    assert {f["graph"] for f in failures if f["property"] == "zhang.d_eq_id"
            } == {entry["key"] for entry in report["graphs"]}
    # with diadem = V, shrink ends on a graph that still fails
    monkeypatch.undo()
    g = _apply_fault(monkeypatch, "diadem.whole")
    prop = lookup("diadem.critical")
    small = shrink(g, lambda h: evaluate(prop, Facts(h)).verdict == "fails")
    assert evaluate(prop, Facts(small)).verdict == "fails"
    assert (small.n, small.m) == (3, 2)


# -- the enumeration readers, against one reference ---------------------------

# Every reader of the critical, maximum independent, minimal positive and side
# critical families, in Facts and public, meets a reference in
# tests/oracles.py that shares no code with it: o.brute_profile, one walk
# over every independent set, for the first three, and o.side_profile for
# the side families. One Facts per graph serves the Facts readers, as in a
# registry pass; each public reader makes its own.
# The corpus is every labeled graph with n <= 6 and seeded G(n, p) at
# n = 7..20. The side readers take every bipartite graph with n <= 5 under
# every valid bipartition, every one with n = 6 under a random valid one,
# and seeded random bipartite graphs at n = 7..16.

# each band: its n, and how many graphs and (graph, bipartition) pairs it has
_FAMILY_BANDS = {"0..6": (range(7), 33868, 6816),
                 "7..13": (range(7, 14), 84, 42),
                 "14..20": (range(14, 21), 54, 18)}
_FAMILY_READERS = {
    "critical_ind_family": Facts.critical_ind_family,
    "max_critical_ind": Facts.max_critical_ind,
    "ker_oracle": Facts.ker_oracle,
    "maximal_critical_ind": Facts.maximal_critical_ind,
    "ke_via_critical": Facts.ke_via_critical,
    "first_mis": Facts.first_mis,
    "mis_profile": Facts.mis_profile,
    "minimal_positives": Facts.minimal_positives,
    "enumerate_critical_independent_sets":
        lambda f: list(oracle.enumerate_critical_independent_sets(f.g)),
    "maximum_critical_independent_set":
        lambda f: oracle.maximum_critical_independent_set(f.g),
    "enumerate_maximum_independent_sets":
        lambda f: list(oracle.enumerate_maximum_independent_sets(f.g)),
    "core_and_corona": lambda f: oracle.core_and_corona(f.g),
    "is_ke_via_critical": lambda f: oracle.is_ke_via_critical(f.g),
}


def _family_references(g):
    """What each of _FAMILY_READERS gives on g, by the references."""
    r = o.brute_profile(g.n, g.adj)
    maximal = sorted((s for s in r.critical if not any(
        s != t and s & ~t == 0 for t in r.critical)),
        key=lambda s: (-s.bit_count(), s))
    profile = (r.alpha, r.core, r.corona)
    ke_via_critical = r.max_critical.bit_count() == r.alpha
    return {
        "critical_ind_family": r.critical, "max_critical_ind": r.max_critical,
        "ker_oracle": r.ker, "maximal_critical_ind": maximal,
        "ke_via_critical": ke_via_critical, "first_mis": r.mis[0],
        "mis_profile": profile,
        "minimal_positives": r.minimal_positive,
        "enumerate_critical_independent_sets": r.critical,
        "maximum_critical_independent_set": r.max_critical,
        "enumerate_maximum_independent_sets": r.mis,
        "core_and_corona": profile, "is_ke_via_critical": ke_via_critical}


def _seeded_graphs():
    """Seeded G(n, p), per n and p four at n = 7..13 and two at n = 14..20,
    with two more at n = 18 and 19 first."""
    rng = random.Random(9)
    for n, count in [(18, 2), (19, 2), *((n, 4) for n in range(7, 14)),
                     *((n, 2) for n in range(14, 21))]:
        for p in (0.15, 0.3, 0.5):
            for _ in range(count):
                yield random_graph(n, p, rng.getrandbits(32))


def _seeded_bipartite():
    """Seeded random bipartite graphs at n = 7..16, two per n at each p,
    each under a random valid bipartition."""
    rng = random.Random(10)
    for n in range(7, 17):
        for p in (0.15, 0.3, 0.5):
            for _ in range(2):
                a = rng.randrange(n // 3, n - n // 3 + 1)
                g = random_bipartite(a, n - a, p, rng.getrandbits(32))
                yield g, random_bipartition(g, rng)


@lru_cache(maxsize=None)
def _family_cell(band):
    """How many graphs and (graph, bipartition) pairs band has, and per
    reader the first on which it differed from its reference, with both
    answers."""
    if band == "0..6":
        graphs_here, rng = list(small_corpus(6)), random.Random(6)
        bipartite = [g for g in graphs_here if bipartition(g) is not None]
        pairs = [(g, parts) for g in bipartite if g.n <= 5
                 for parts in every_bipartition(g)]
        pairs += [(g, random_bipartition(g, rng)) for g in bipartite
                  if g.n == 6]
    else:
        ns = _FAMILY_BANDS[band][0]
        graphs_here = [g for g in _seeded_graphs() if g.n in ns]
        pairs = [pair for pair in _seeded_bipartite() if pair[0].n in ns]
    wrong = {}
    for g in graphs_here:
        f, want = Facts(g), _family_references(g)
        for name, read in _FAMILY_READERS.items():
            got = read(f)
            if got != want[name]:
                wrong.setdefault(name, (g.adj, got, want[name]))
    for g, parts in pairs:
        f = Facts(g)
        f._cache["parts"] = parts
        for side, mask in zip("AB", parts):
            family = o.side_profile(g.n, g.adj, mask).critical
            for name, got, want in (
                    ("side_critical_samples", f.side_critical_samples(side),
                     family[:16]),
                    ("enumerate_side_critical_sets", list(
                        oracle.enumerate_side_critical_sets(g, parts, side)),
                     family)):
                if got != want:
                    wrong.setdefault(name, (g.adj, parts, side, got, want))
    return len(graphs_here), len(pairs), wrong


@pytest.mark.parametrize("band", _FAMILY_BANDS)
def test_enumeration_readers_give_the_reference(band):
    # every reader gives its reference's answer on every graph of the band
    assert _family_cell(band) == (*_FAMILY_BANDS[band][1:], {})


# -- the readers of the d table, against their references ---------------------

# Four readers take the subset d table, lane m = d(m) + n in byte m. Seeded
# tables, corrupted in nine kinds at n = 0..16, go to every reader and to its
# reference, a plain loop over the same bytes, while the fast routes inside
# the readers are watched. The n bands lie across the steps from every mask
# paired to the 128-mask sample (7 to 8) and from the square test to the
# sample gather (12 to 13). A new reader joins by one _READERS entry. _PLAN
# gives the tables per kind and n, three where it names none; "clean" takes
# every labeled graph up to n = 5, and "all_critical" has even n only.
_BANDS = {"0..7": range(8), "8..12": range(8, 13), "13..16": range(13, 17)}
_PLAN = {
    "clean": {**{n: 1 << n * (n - 1) // 2 for n in range(6)},
              **dict.fromkeys(range(13, 17), 16)},
    "shift": dict.fromkeys(range(1, 8), 450),
    "moved": {**dict.fromkeys((4, 7, 8, 11, 12), 80),
              **dict.fromkeys((13, 14, 16), 100), 15: 20},
    "high": {**dict.fromkeys(range(2, 8), 350),
             **dict.fromkeys(range(13, 17), 16)},
    "past_2n": dict.fromkeys((0, 1, 2, 5, 9, 12), 10),
    "raised": dict.fromkeys((4, 9, 13), 12),
    "toggled": dict.fromkeys((4, 7, 10), 30),
    "positive": dict.fromkeys(range(1, 10), 51),
    "all_critical": {n: 0 if n % 2 or not n else 12 if n in (12, 14) else 3
                     for n in range(17)},
}


def _read_here(rng, n):
    """Mostly a sampled mask or the union or intersection of two."""
    a, b = rng.choices(props._supermodular_masks(n), k=2)
    return rng.choice([a, a | b, a & b, rng.randrange(1 << n)])


def _tables(kind, n):
    """Seeded graphs on n vertices and their d tables, corrupted by kind."""
    if kind == "clean" and n <= 5:
        yield from ((g, Facts(g).tables()) for g in all_graphs(n))
        return
    rng, masks = random.Random(f"{kind} {n}"), range(1 << n)
    for _ in range(_PLAN[kind].get(n, 3)):
        g = (graphs.Graph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
             if kind == "all_critical" else
             random_graph(n, rng.choice([0.15, 0.3, 0.5]),
                          rng.getrandbits(32)))
        facts = Facts(g)
        top, t = facts.d() + n, bytearray(facts.tables())
        if kind == "shift":  # modular: still supermodular, top lane not d + n
            shift = [n]
            for c in rng.choices([-1, 0, 1], k=n):
                shift += [s + c for s in shift]
            t = bytearray(map(sum, zip(t, shift)))
            for m in rng.choices(masks, k=rng.choice([0, 0, 1, 2, 3])):
                t[m] = max(0, t[m] + rng.choice([-2, -1, 1, 2]))
        elif kind == "moved":
            for _ in range(rng.randrange(1, 4)):
                m = _read_here(rng, n)
                t[m] = max(0, t[m] + rng.choice([-2, -1, 1, 2]))
        elif kind == "high":  # past 63, where the lane tests would carry
            for _ in range(rng.randrange(1, 7)):
                t[_read_here(rng, n)] = rng.randrange(64, 256)
        elif kind == "past_2n":  # past every valid lane
            if rng.random() < 0.2 and top:
                t = t.replace(bytes([top]), bytes([top - 1]))
            for m in rng.choices(masks, k=rng.randrange(4)):
                t[m] = rng.choice([2 * n, 2 * n + 1, 2 * n + 2, 255, top + 1])
        elif kind == "raised":
            t[rng.choice(masks)] = top + rng.choice([1, 2])
        elif kind == "toggled" and (rng.random() < 0.5 or not n):
            t[rng.choice(masks)] = top  # a mask made critical
        elif kind == "toggled":  # or a critical one not
            t[rng.choice([m for m in masks if t[m] == top])] -= 1
        elif kind == "positive":  # about n, where minimal_positives cuts
            for m in rng.choices(masks, k=rng.randrange(1, 5)):
                t[m] = rng.choice([n + 1, n + 2, n, 255])
        elif kind == "all_critical":
            # past 256 critical masks the closure pairs a strided sample; a
            # lane at the union of two sampled masks leaves both in it
            a, b = rng.sample(masks[::(len(masks) - 1) // 256 + 1], 2)
            m = a | b if rng.random() < 2 / 3 else rng.choice(masks)
            t[m] = n + rng.choice([-1, 1])
        yield g, bytes(t)


def _d_eq_id_by_max(f, table, ind):
    n, d0 = f.g.n, f.d()
    best, best_ind = max(table) - n, max(table[m] for m in ind) - n
    ok = d0 == best == best_ind
    return ok, None if ok else {"d_polynomial": d0, "max_over_subsets": best,
                                "max_over_independent": best_ind}


def _supermodular_by_pairs(f, table, ind):
    """The first failing pair of a row-major scan of the sampled masks; b
    runs from a on, as (b, a) fails with (a, b)."""
    n, masks = f.g.n, props._supermodular_masks(f.g.n)
    for i, a in enumerate(masks):
        for b in masks[i:]:
            if table[a | b] + table[a & b] < table[a] + table[b]:
                return False, {"a": f.labels(a), "b": f.labels(b),
                               "d_union_plus_d_intersection":
                                   table[a | b] + table[a & b] - 2 * n,
                               "d_a_plus_d_b": table[a] + table[b] - 2 * n}
    return True, None


def _closure_by_pairs(f, table, ind):
    """The first failing pair of the critical masks, a strided sample of
    them past 256."""
    n, d0, lane = f.g.n, f.d(), f.d() + f.g.n
    crit = [x.start() for x in re.finditer(re.escape(bytes([lane])), table)]
    if len(crit) > 256:
        crit = crit[::len(crit) // 256 + 1]
    for i, a in enumerate(crit):
        for b in crit[i + 1:]:
            if table[a | b] != lane or table[a & b] != lane:
                return False, {"a": f.labels(a), "b": f.labels(b), "d": d0,
                               "d_union": table[a | b] - n,
                               "d_intersection": table[a & b] - n}
    return True, None


def _minimal_by_scan(f, table, ind):
    """The independent masks with a lane above n and no such mask inside:
    by size, each kept unless a kept one lies inside it."""
    kept = []
    for m in sorted((m for m in ind if table[m] > f.g.n), key=int.bit_count):
        if not any(s & ~m == 0 for s in kept):
            kept.append(m)
    return o.include_first(f.g.n, kept)


_SUPERMODULAR = "th4.supermodular"
_CLOSURE = "th4.critical_closed_union_intersection"
# each reader of the d table, and its reference
_READERS = {
    "zhang.d_eq_id": (lookup("zhang.d_eq_id").check, _d_eq_id_by_max),
    _SUPERMODULAR: (lookup(_SUPERMODULAR).check, _supermodular_by_pairs),
    _CLOSURE: (lookup(_CLOSURE).check, _closure_by_pairs),
    "minimal_positives": (Facts.minimal_positives, _minimal_by_scan),
}


def _squares_by_loop(table, n):
    """Whether t(X+u+v) + t(X) >= t(X+u) + t(X+v) at every square, which on
    the subset lattice is every pair holding (Topkis 1978)."""
    for u in range(n):
        for v in range(u + 1, n):
            bu, bv = 1 << u, 1 << v
            for x in range(1 << n):
                if not x & (bu | bv) and (table[x | bu | bv] + table[x]
                                          < table[x | bu] + table[x | bv]):
                    return False
    return True


@lru_cache(maxsize=None)
def _cell(kind, band):
    """Every reader and its reference on kind's tables at the n of band, the
    square test and sample gather watched; tables, verdicts and routes."""
    seen, squares, sampled = Counter(), [], []
    with pytest.MonkeyPatch.context() as mp:
        for module, name, calls in ((oracle, "_squares_hold", squares),
                                    (props, "_sample_holds", sampled)):
            mp.setattr(module, name, lambda t, n, real=getattr(module, name),
                       calls=calls: calls.append(real(t, n)) or calls[-1])
        for n in _BANDS[band]:
            for g, table in _tables(kind, n):
                del squares[:], sampled[:]
                f, ind, got = Facts(g), o.independent_masks(g.n, g.adj), {}
                f._cache["tables"] = table
                for name, (read, reference) in _READERS.items():
                    got[name] = read(f)
                    assert got[name] == reference(f, table, ind), (
                        name, g.adj, table)
                    seen[name, kind, n, bool(got[name][0] if isinstance(
                        got[name], tuple) else got[name])] += 1
                seen["tables", kind, n] += 1
                # the square test, up to n = 12 with every lane in 0..63,
                # and the sample gather past 12 (so on no "high" table) run
                # once and give the verdict of each pair they stand for:
                # up to n = 7 the sample is every mask; past it, by squares
                ok, lattice = got[_SUPERMODULAR][0], n <= props.LATTICE_MAX_N
                in_range = not table.translate(None, bytes(range(64)))
                assert squares == ([ok if n <= 7 else _squares_by_loop(
                    table, n)] if lattice and in_range else []), table
                assert sampled == ([ok] if in_range and not lattice else [])
                seen["gather", kind] += len(sampled)
                seen["route", f.squares_hold(), f.d() + n == f.top_lane(),
                     got[_CLOSURE][0]] += 1
    return seen


@pytest.mark.parametrize("band", _BANDS)
@pytest.mark.parametrize("kind", _PLAN)
def test_d_table_readers_give_their_references(kind, band):
    # _cell holds each reader to its reference and each watched route to
    # its verdict on every table of the cell, and every table reached them
    seen = _cell(kind, band)
    assert [seen["tables", kind, n] for n in _BANDS[band]] == [
        _PLAN[kind].get(n, 3) for n in _BANDS[band]]


# verdict floors, (reader, kinds, n, verdict, at least): each route meets
# tables it must pass and tables it must fail, on both sides of the steps
_FLOORS = [
    (_SUPERMODULAR, ["shift"], range(1, 8), True, 1000),
    (_SUPERMODULAR, ["shift"], range(1, 8), False, 1000),
    *((_SUPERMODULAR, ["moved"], (n,), False, 40)
      for n in (4, 7, 8, 11, 12, 13, 14, 16)),
    (_SUPERMODULAR, ["moved"], range(13, 17), True, 5),
    (_SUPERMODULAR, ["clean"], range(13, 17), True, 10),
    (_SUPERMODULAR, ["high"], range(13, 17), False, 10),
    (_CLOSURE, ["toggled"], (4, 7, 10), False, 30),
    *((_CLOSURE, ["all_critical"], (n,), False, 6) for n in (12, 14)),
    ("minimal_positives", ["positive"], range(1, 10), True, 100),
    *((name, _PLAN, range(17), verdict, 100)
      for name in _READERS for verdict in (True, False)),
]


def test_every_reader_meets_every_kind_with_both_verdicts():
    seen = sum((_cell(kind, band) for kind in _PLAN for band in _BANDS),
               Counter())
    for name, kinds, ns, verdict, floor in _FLOORS:
        assert sum(seen[name, kind, n, verdict] for kind in kinds
                   for n in ns) >= floor, (name, kinds, ns, verdict)
    assert sum(seen["gather", kind] for kind in _PLAN) >= 300
    # the closure certificate, (squares hold, d + n is the top lane,
    # verdict), decides on some tables, and each other route is met; a
    # supermodular table whose critical lane is the top lane never fails
    assert seen["route", True, True, False] == 0
    assert seen["route", True, True, True] >= 100
    assert seen["route", True, False, True] >= 1000
    assert seen["route", True, False, False] >= 50
    assert seen["route", False, True, False] >= 50
    assert seen["route", False, False, False] >= 200


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
    # sparser graphs have positive lanes, so minimal_positives builds the
    # bit planes; they sit in the one entry, beside its byte lanes
    built.clear()
    report = run(random_corpus(18, 20, 0.1, 4, 2))
    orders = [graph["n"] for graph in report["graphs"]]
    assert len(oracle._lanes) == 1 and built[-1] == orders[-1]
    (n, (_, _, bits)), = oracle._lanes.items()
    assert len(bits) == n and bits == oracle._bit_planes(n)


def test_bit_planes_match_their_definition(monkeypatch):
    # bit m of plane v is 1 iff v is in m; built once per held order
    monkeypatch.setattr(oracle, "_lanes", {})
    for n in range(9):
        planes = oracle._bit_planes(n)
        assert planes == tuple(sum(1 << m for m in range(1 << n) if m >> v & 1)
                               for v in range(n))
        assert oracle._bit_planes(n) is planes
        assert list(oracle._lanes) == [n] and oracle._lanes[n][2] is planes


def test_no_lane_above_n_builds_no_bit_planes(monkeypatch):
    # d = 0, on a 4-cycle and on 10 disjoint edges, or a table corrupted to
    # lanes of n at most: the answer is [] before any bit plane is built
    def unbuilt(n):
        raise AssertionError("bit planes built")

    monkeypatch.setattr(oracle, "_lanes", {})
    monkeypatch.setattr(oracle, "_bit_planes", unbuilt)
    ten_edges = graphs.Graph(20, [(2 * i, 2 * i + 1) for i in range(10)])
    lowered = Facts(path_graph(5))
    lowered._cache["tables"] = bytes(min(t, 5) for t in lowered.tables())
    for facts in (Facts(cycle_graph(4)), Facts(ten_edges), lowered):
        assert facts.minimal_positives() == []
        assert [bits for _, _, bits in oracle._lanes.values()] == [None]


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
    # the order the properties run in, and so what each reader finds
    # already computed, changes no entry: each
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


def test_closure_searches_no_critical_mask_where_the_squares_decide(
        monkeypatch):
    # on 6 disjoint edges each of the 2^12 masks has d = 0 = d(G), so the
    # pair loop would pair a sample of 256; the square certificate holds
    # and the critical lane is the top lane, so no mask is searched for
    def searched(*args):
        raise AssertionError("critical masks searched")

    monkeypatch.setattr(props, "_masks_at", searched)
    g = graphs.Graph(12, [(2 * i, 2 * i + 1) for i in range(6)])
    prop = lookup("th4.critical_closed_union_intersection")
    assert evaluate(prop, Facts(g)) == PropertyResult(prop.name, "holds")


def test_tables_match_the_per_mask_definition():
    # every lane against d(m) + n, and the independence lanes of
    # minimal_positives, the masks it keeps, against the oracle's, up to
    # n = 20; one graph per n above 12, at alternating density, keeps the
    # per-mask scan short. A table whose lanes are above n exactly at the
    # masks of size k makes its minimal positive sets the independent masks
    # of size k, in include-first order (of two masks, the one holding the
    # lowest vertex where they differ comes first)
    rng = random.Random(12)
    graphs = [*small_corpus(4),
              *(random_graph(n, p, rng.getrandbits(32))
                for n in range(8, 13) for p in (0.2, 0.5)),
              *(random_graph(n, (0.2, 0.5)[n % 2], rng.getrandbits(32))
                for n in range(13, 21))]
    for g in graphs:
        n, facts = g.n, Facts(g)
        assert list(facts.tables()) == [
            d + n for d in o.d_table(n, g.adj)], g.adj
        sizes = bytes(m.bit_count() for m in range(1 << n))
        ind = o.independent_masks(n, g.adj)
        for k in range(n + 1):
            level = Facts(g)
            level._cache["tables"] = sizes.translate(
                bytes(n + (c == k) for c in range(256)))
            assert level.minimal_positives() == o.include_first(
                n, (m for m in ind if m.bit_count() == k)), (g.adj, k)


def test_core_and_corona_build_no_subset_table(monkeypatch):
    # the conjecture scan reads core and corona alone; they come from the
    # maximum-independent-set DFS, with no lanes, no 2^n table and nothing
    # read off it built
    monkeypatch.setattr(oracle, "_lanes", {})
    rng = random.Random(11)
    for n in (0, 5, 12, 18):
        g = random_graph(n, 0.3, rng.getrandbits(32))
        facts = Facts(g)
        facts.mis_profile()
        facts.first_mis()
        assert not {"tables", "top_lane", "minimal_positives"} & set(
            facts._cache)
    assert oracle._lanes == {}


@pytest.mark.parametrize("n", [30, 45])
def test_oracle_readers_check_their_limits_in_order(monkeypatch, n):
    # each public reader reads a fresh Facts, which checks the enumeration
    # limit before it reads alpha; core and corona read alpha first, so
    # past the alpha limit that limit is the one reported
    calls = count_calls(monkeypatch, mis.alpha)
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
        calls.clear()
        with pytest.raises(LimitExceeded) as exc:
            read()
        got[name] = (str(exc.value), calls["alpha"])
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
    # parse_corpus_spec refuses an unknown kind; a source built directly
    # with one fails when its graphs are drawn
    bogus = spec._replace(sources=(spec.sources[0]._replace(kind="bogus"),))
    with pytest.raises(ValueError,
                       match="^unknown corpus source kind 'bogus'$"):
        next(iter_graphs(bogus))


@pytest.mark.parametrize("build,args,message", [
    (exhaustive_corpus, (3, 9), "exhaustive source supports n <= 7, got 9"),
    (exhaustive_corpus, (-1,), "exhaustive source needs n >= 0, got -1"),
    (files_corpus, ("ab",), "files source needs a list of paths, got 'ab'"),
    (files_corpus, (["a", Path("b")],),
     f'files source needs a path string in paths, got "{Path("b")!r}"')])
def test_corpus_constructors_refuse_sources_out_of_bounds(build, args,
                                                          message):
    # before any graph is drawn: a run over exhaustive_corpus(9) raised
    # LimitExceeded mid-run, and files_corpus("ab") read the files a and b
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(*args)


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
        outcomes = [corpus._slacks(Facts(g, config)) for g in all_graphs(n)]
        differ += [(n, code, leader)
                   for code, leader in enumerate(orbit_leaders(n))
                   if outcomes[code] != outcomes[leader]]
    assert differ == []


def test_exhaustive_scan_builds_one_graph_per_class(monkeypatch):
    built = Counter()

    def graph_from_code(n, code):
        built[n] += 1
        return graphs.graph_from_code(n, code)
    monkeypatch.setattr(corpus, "graph_from_code", graph_from_code)
    report = conjecture_scan(exhaustive_corpus(*range(1, 7)))
    assert report["summary"]["graphs"] == 33867
    assert built == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}


def test_exhaustive_scan_lists_skipped_members_in_code_order(monkeypatch):
    # a skipped class is listed member by member, each under its own key
    lower = corpus._lower_slack

    def skip_odd_sizes(f):
        if f.g.m % 2:
            raise LimitExceeded("odd size")
        return lower(f)
    monkeypatch.setattr(corpus, "_lower_slack", skip_odd_sizes)
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
    monkeypatch.setattr(corpus, "orbit_leaders", orbit_leaders)
    corpus._class_sizes.cache_clear()
    spec = exhaustive_corpus(*range(1, 6))
    report = conjecture_scan(spec)
    assert conjecture_scan(spec) == report
    assert report["summary"]["graphs"] == 1 + 2 + 8 + 64 + 1024
    assert built == {n: 1 for n in range(1, 6)}

    lower = corpus._lower_slack

    def skip_odd_sizes(f):
        if f.g.m % 2:
            raise LimitExceeded("odd size")
        return lower(f)
    monkeypatch.setattr(corpus, "_lower_slack", skip_odd_sizes)
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
    spec = parse_corpus_spec(json.dumps({"sources": [
        {"kind": "exhaustive", "n": 3},
        {"kind": "random", "n": [5, 7], "p": 0.4, "count": 4, "seed": 1}]}))
    report = conjecture_scan(spec)
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
    report = conjecture_scan(files_corpus([str(f)]))
    s = report["summary"]
    assert s["checked"] == 0 and len(s["skipped"]) == 1
    assert s["skipped"][0]["graph"].endswith("big.edges")
