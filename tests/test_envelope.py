"""Large graphs, under the interpreter's default recursion limit.

Shuffled long paths and cycles drive alternating paths through every vertex;
a matching search that recursed once per step would exceed the limit. On
complete bipartite graphs the oracle DFSs go one level per vertex, over
1,000 deep. And no function in the library calls itself, bar the report
renderer, so no recursion grows with n.
"""

import ast
import hashlib
import pickle
import random
import time
from functools import partial
from pathlib import Path

import pytest

from conftest import (cycle_chain, masks_built, random_pairs,
                      triangulated_strip)
from critset import cli
from critset.critical import (critical_difference,
                              critical_independent_witness, diadem, ker)
from critset.graphs import (Graph, bipartition, complete_bipartite,
                            delete_edge, delete_vertices, parse_graph,
                            to_edge_list)
from critset.matching import maximum_matching_general
from critset.oracle import (enumerate_critical_independent_sets,
                            enumerate_side_critical_sets)

N = 20_000


def shuffled_chain_text(n: int, closed: bool, seed: int) -> str:
    """Edge-list text of a path or cycle on n vertices with random labels,
    its edges in random order and orientation."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n - 1 + closed)]
    rng.shuffle(edges)
    return "".join(f"v{v} v{u}\n" if rng.random() < 0.5 else f"v{u} v{v}\n"
                   for u, v in edges)


def gnm_text(n: int, m: int, seed: int) -> str:
    """Edge-list text of m distinct pairs of n points drawn uniformly, in
    random order; the ids follow first appearance, and points on no edge are
    left out."""
    rng = random.Random(seed)
    ordered = sorted(random_pairs(rng, n, m))
    rng.shuffle(ordered)
    return "".join(f"v{u} v{v}\n" for u, v in ordered)


@pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
def test_shuffled_chain_of_20000(closed):
    g = parse_graph(shuffled_chain_text(N, closed, seed=3 + closed))
    assert g.n == N and g.m == N - 1 + closed
    # none of these calls reads the adjacency masks
    assert critical_difference(g) == 0
    assert critical_independent_witness(g) == 0
    assert g.label_list(ker(g)) == []
    m = maximum_matching_general(g)
    assert len(m) == N // 2
    assert all(v in g.nbrs[u] for u, v in m.edges)
    parts = bipartition(g)
    assert parts is not None
    assert parts.side_a & parts.side_b == 0
    assert parts.side_a | parts.side_b == g.full
    for u in range(N):
        in_a = parts.side_a >> u & 1
        assert all(parts.side_a >> v & 1 != in_a for v in g.nbrs[u])
    # every vertex lies in a critical independent set; on the path the
    # alternating digraph is a chain of 20,000 components
    assert diadem(g) == g.full
    assert len(g.label_list(diadem(g))) == N
    assert not masks_built(g)


def test_editing_comparing_and_pickling_build_no_masks():
    text = shuffled_chain_text(N, False, seed=3)
    g = parse_graph(text)
    sub, idmap = delete_vertices(g, 1)
    u, v = g.edge_pairs()[0]
    cut = delete_edge(g, u, v)
    twin = parse_graph(text)
    assert g == twin and hash(g) == hash(twin)
    assert pickle.loads(pickle.dumps(g)) == g
    assert not any(map(masks_built, (g, sub, cut, twin)))
    assert (sub.n, sub.m) == (N - 1, N - 1 - g.degree(0))
    assert sorted(idmap) == list(range(1, N))
    assert cut.m == N - 2 and v not in cut.nbrs[u] and u not in cut.nbrs[v]
    fresh = Graph(sub.n, sub.edge_pairs(), sub.labels)
    assert critical_difference(sub) == critical_difference(fresh)
    assert ker(sub) == ker(fresh)


@pytest.mark.parametrize("build, n, size, digest", [
    (partial(parse_graph, shuffled_chain_text(N, False, seed=3)), N, N // 2,
     "60ba86dd7788bb6a377ced868ae817920c5c62fbd5f93e7169d775a5c131ff72"),
    (partial(parse_graph, shuffled_chain_text(N, True, seed=4)), N, N // 2,
     "e7602adea5e1edcd5afecd6e9c2c6808d43c8e45ebd6802f094749e914dd1074"),
    (partial(parse_graph, gnm_text(4500, 5625, seed=7)), 4142, 1953,
     "60ba981945307980224bc4a70adacbdee967c1746b0fb88d1c79c487d65a84f8"),
    (partial(parse_graph, gnm_text(10_000, 15_000, seed=1)), 9502, 4635,
     "05d57896f72e12001cf5af47cf413d00e8f04c542e3d2cc567763bfaa79cf09e"),
    (partial(cycle_chain, 3, 6667, False, 1), 20_001, 10_000,
     "1030c6bd95daf3774595253cae1440d74d6cb6cb4bf8b2f8961c36ad4c9eb05f"),
    (partial(cycle_chain, 5, 2500, True, 2), 10_001, 5000,
     "5bd19a892e6bcf802b2e7f1b015b8df228d6da73cae57597c43e96e18655354f"),
    (partial(cycle_chain, 7, 1000, False, 3), 7000, 3500,
     "fb004f3e5c73f2fbb98d80173beb13ace81d546ee555a7506d067b2b9ef32107"),
    (partial(triangulated_strip, 5000, 4), 10_000, 5000,
     "ff68687b6b632332e97c5efc33e2b97984754931a015f5af3ba4751f53495e91"),
], ids=["path", "cycle", "gnm4500", "gnm10000", "triangles",
        "pentagons_shared", "heptagons", "strip"])
def test_blossom_edges_are_pinned(build, n, size, digest):
    # the blossom's greedy start and search order fix which maximum matching
    # it returns, and `mu` callers see its edges; these digests pin them. On
    # the chains of odd cycles and the strip the searches contract blossoms
    # inside blossoms; on gnm10000 a contraction that queued its unused
    # bases in another order would change the edges
    g = build()
    m = maximum_matching_general(g)
    assert (g.n, len(m)) == (n, size)
    got = hashlib.sha256(repr(sorted(m.edges)).encode()).hexdigest()
    assert got == digest


def test_blossom_on_a_chain_of_80001_triangles():
    # the search trees grow about as deep as the chain is long; with an lca
    # that gathered a's whole root path into a set, and a contraction that
    # re-sorted every member, this shuffle took 28-31 s on a 2-CPU x86-64
    # machine (the slowest of 80 seeds), and 0.3 s with union-find bases and
    # alternating walks
    g = cycle_chain(3, 26_667, False, seed=11)
    start = time.perf_counter()
    m = maximum_matching_general(g)
    assert time.perf_counter() - start < 5
    assert (g.n, len(m)) == (80_001, 40_000)


def test_critical_dfs_on_k600_700():
    # d = 100, attained by the 700-side alone
    g = complete_bipartite(600, 700)
    side = g.full >> 600 << 600
    assert list(enumerate_critical_independent_sets(g, 2000)) == [side]


def test_side_critical_dfs_on_k100_1100():
    # the side DFS goes one level per vertex of the side; K_{600,700}'s
    # 700-side stays under the frame limit, so take an 1,100-side
    g = complete_bipartite(100, 1100)
    side = g.full >> 100 << 100
    parts = bipartition(g)
    name = "AB"[parts.side_b == side]
    assert list(enumerate_side_critical_sets(g, parts, name, 2000)) == [side]


def test_check_on_k600_700_skips_at_the_alpha_limit(capsys, tmp_path):
    # the critical DFS finishes, and ke.is_ke then skips as it reads alpha
    f = tmp_path / "K600_700.edges"
    f.write_text(to_edge_list(complete_bipartite(600, 700)))
    code = cli.main(["check", str(f), "--property", "ke.is_ke",
                     "--oracle-limit", "5000"])
    assert (code, *capsys.readouterr()) == (
        0, "ke.is_ke: skipped: n=1300 exceeds alpha limit 40\n", "")


def test_no_library_function_calls_itself():
    # a call by the function's own name, or through self by a method's;
    # cli._render is the one exception: it recurses once per nesting level
    # of a report document, so its depth is fixed by the report schema
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if (isinstance(f, ast.Name) and f.id == fn.name
                        or isinstance(f, ast.Attribute) and f.attr == fn.name
                        and isinstance(f.value, ast.Name)
                        and f.value.id == "self"):
                    found.append(f"{path.name} {fn.name}")
    assert found == ["cli.py _render"] * 2
