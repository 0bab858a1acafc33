"""Acceptance gate: one test per release criterion, each printing a verdict
line. Everything here re-derives its expectations from the subset/enumeration
oracles in oracles.py, never from the library under test.
"""

import json
import time

import oracles as o
from critset import cli
from critset.critical import (critical_difference,
                              critical_independent_witness, diadem, ker)
from critset.fixtures import verify_all
from critset.graphs import all_graphs, bipartition, difference, is_independent
from critset.ke import is_koenig_egervary
from critset.matching import maximum_matching_general
from critset.oracle import is_ke_via_critical
from critset.ore import ore_profile
from critset.corpus import (CorpusSpec, conjecture_scan, exhaustive_corpus,
                            fixtures_corpus, iter_graphs, random_corpus)
from critset.props import Config, run

EXHAUSTIVE_NS = range(7)  # 33,868 labeled graphs, 32,768 of them at n = 6

RANDOM_SOURCES = CorpusSpec(
    random_corpus(8, 14, 0.15, 334, seed=15).sources
    + random_corpus(8, 14, 0.30, 333, seed=30).sources
    + random_corpus(8, 14, 0.50, 333, seed=50).sources)


def announce(criterion, passed, detail):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, detail


def test_criterion_1_fixture_reproduction():
    started = time.perf_counter()
    reports = verify_all()
    elapsed = time.perf_counter() - started

    bad = [(r["name"], [c["key"] for c in r["checks"] if not c["holds"]])
           for r in reports if not r["holds"]]
    values = sum(len(r["checks"]) for r in reports)
    annotated = [(r["name"], c["key"], c["note"]) for r in reports
                 for c in r["checks"] if "note" in c]
    for name, key, note in annotated:
        print(f"  divergence annotation on {name}/{key}: {note}")

    # the two known hand-vs-enumeration divergences stay visible, not silent
    assert {(n, k) for n, k, _ in annotated} >= {
        ("fig233", "ker_b"), ("fig511", "diadem"),
        ("fig511", "d_after_delete")}
    announce(1, not bad and elapsed < 5.0,
             f"{len(reports)} fixtures, {values} values, "
             f"{len(annotated)} annotated divergences, {elapsed:.2f}s; "
             f"mismatches: {bad or 'none'}")


def test_criterion_2_oracle_equivalence():
    started = time.perf_counter()
    counts = {}
    mismatches = []
    for n in EXHAUSTIVE_NS:
        counts[n] = 0
        for g in all_graphs(n):
            counts[n] += 1
            adj, want = g.adj, o.brute_profile(n, g.adj)

            d = critical_difference(g)
            if not d == want.d == want.d_independent:
                mismatches.append(("d", adj))
            if ker(g) != want.ker:
                mismatches.append(("ker", adj))
            if diadem(g) != want.diadem:
                mismatches.append(("diadem", adj))
            if len(maximum_matching_general(g)) != want.mu:
                mismatches.append(("mu", adj))
            ke = is_koenig_egervary(g)
            if not ke == want.ke == is_ke_via_critical(g):
                mismatches.append(("ke", adj))

            parts = bipartition(g)
            if parts is not None:
                p = ore_profile(g, parts)
                for side, mask, d0, kernel, dia in zip(
                        "AB", parts, (p.delta0_a, p.delta0_b),
                        (p.ker_a, p.ker_b), (p.diadem_a, p.diadem_b)):
                    s = o.side_profile(n, adj, mask)
                    if d0 != s.delta0:
                        mismatches.append(("delta0" + side, adj))
                    if kernel != s.kernel:
                        mismatches.append(("side_kernel" + side, adj))
                    if dia != s.diadem:
                        mismatches.append(("side_diadem" + side, adj))
    elapsed = time.perf_counter() - started

    assert counts[6] == 32768
    announce(2, not mismatches and elapsed < 600.0,
             f"{sum(counts.values())} graphs ({counts[6]} at n=6), "
             f"d/ker/diadem/mu/KE/side rules vs subset oracles, "
             f"{elapsed:.1f}s; mismatches: {mismatches[:3] or 'none'}")


def test_criterion_3_property_suite():
    started = time.perf_counter()
    exh = run(exhaustive_corpus(*EXHAUSTIVE_NS))
    rnd = run(RANDOM_SOURCES)
    elapsed = time.perf_counter() - started

    fails = []
    graphs = checks = holds = skipped = 0
    for label, rep in (("exhaustive", exh), ("random", rnd)):
        s = rep["summary"]
        graphs += s["graphs"]
        checks += s["checks"]
        holds += s["holds"]
        skipped += s["skipped"]
        fails.extend(s["failures"])
        print(f"  {label}: graphs={s['graphs']} checks={s['checks']} "
              f"holds={s['holds']} fails={s['fails']} "
              f"skipped={s['skipped']} (limit {s['limit_skips']})")
        for reason, count in s["skip_reasons"].items():
            print(f"    skipped {count}: {reason}")

    assert exh["summary"]["graphs"] == 33868
    assert rnd["summary"]["graphs"] == 1000
    announce(3, not fails,
             f"{graphs} graphs, {checks} property checks, {holds} held, "
             f"{skipped} skipped, {elapsed:.1f}s; "
             f"failures: {fails[:3] or 'none'}")


def test_criterion_4_conjecture_scan():
    started = time.perf_counter()
    rep = conjecture_scan(CorpusSpec(
        exhaustive_corpus(*EXHAUSTIVE_NS).sources + RANDOM_SOURCES.sources))
    elapsed = time.perf_counter() - started

    for n, slot in rep["per_n"].items():
        print(f"  n={n}: graphs={slot['graphs']} "
              f"min(2a-|ker|-|diadem|)={slot['min_slack']} "
              f"min(|core|+|corona|-2a)={slot['min_slack_upper']}")
    s = rep["summary"]
    sound = (s["violations"] == [] and s["min_slack"] is not None
             and s["min_slack"] >= 0
             and (s["min_slack_upper"] is None or s["min_slack_upper"] >= 0))
    announce(4, sound,
             f"{s['checked']} graphs checked, {len(s['skipped'])} skipped, "
             f"min_slack={s['min_slack']}, "
             f"min_slack_upper={s['min_slack_upper']}, {elapsed:.1f}s; "
             f"violations: {s['violations'] or 'none'}")


def test_criterion_5_witness_soundness():
    started = time.perf_counter()
    corpus = CorpusSpec(exhaustive_corpus(*EXHAUSTIVE_NS).sources
                        + RANDOM_SOURCES.sources)
    total = 0
    unsound = []
    for key, g in iter_graphs(corpus):
        total += 1
        w = critical_independent_witness(g)
        if not is_independent(g, w) or difference(g, w) != critical_difference(g):
            unsound.append(("witness", key))
        m = maximum_matching_general(g)
        if any(not g.adj[u] >> v & 1 for u, v in m.edges):
            unsound.append(("matching", key))
    elapsed = time.perf_counter() - started
    announce(5, not unsound,
             f"{total} graphs, independent witnesses attain d and matchings "
             f"use real edges, {elapsed:.1f}s; unsound: {unsound[:3] or 'none'}")


def test_criterion_6_determinism(capsys):
    corpus = CorpusSpec(fixtures_corpus().sources
                        + exhaustive_corpus(4).sources
                        + random_corpus(8, 12, 0.3, 20, seed=7).sources)
    base = json.dumps(run(corpus), sort_keys=True)
    again = json.dumps(run(corpus), sort_keys=True)
    parallel = json.dumps(run(corpus, config=Config(workers=2)),
                          sort_keys=True)
    scan1 = json.dumps(conjecture_scan(corpus), sort_keys=True)
    scan2 = json.dumps(conjecture_scan(corpus), sort_keys=True)

    argv = ["fuzz", "--n", "8..12", "--p", "0.3", "--count", "10",
            "--seed", "123", "--json"]
    assert cli.main(list(argv)) == 0
    cli_one = capsys.readouterr().out
    assert cli.main(list(argv)) == 0
    cli_two = capsys.readouterr().out

    same = (base == again and base == parallel and scan1 == scan2
            and cli_one == cli_two)
    announce(6, same,
             f"property runs byte-identical across repeats and worker counts, "
             f"scans and CLI reports byte-identical across repeats "
             f"({len(base)} + {len(scan1)} + {len(cli_one)} bytes)")
