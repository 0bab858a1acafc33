import json

import pytest

from conftest import mid_sample
from critset import ke, mis, props
from critset.fixtures import load
from critset.graphs import (LimitExceeded, complete_graph, cycle_graph,
                            empty_graph, path_graph, random_graph)
from critset.matching import maximum_matching_general
from critset.mis import alpha
from critset.props import (SELFTEST, Config, Facts, conjecture_scan, evaluate,
                           exhaustive_corpus, fixtures_corpus, iter_graphs,
                           lookup, parse_corpus_spec, random_corpus,
                           random_graph_at, registry, run, select_properties,
                           shrink)

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


def test_selftest_fails_with_reusable_witness():
    r = evaluate(SELFTEST, Facts(empty_graph(3)))
    assert r.verdict == "fails"
    assert r.witness["alpha"] == 3
    r2 = evaluate(SELFTEST, Facts(complete_graph(4)))
    assert r2.verdict == "holds"


def test_facts_are_cached():
    facts = Facts(path_graph(5))
    assert facts.tables() is facts.tables()
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
    for module in (props, ke):
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
                outcome(lambda: mis.core_and_corona(g)))
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
