"""Large sparse graphs, under the interpreter's default recursion limit.

Shuffled long paths and cycles drive alternating paths through every vertex;
a matching search that recursed once per step would exceed the limit.
"""

import hashlib
import pickle
import random

import pytest

from conftest import masks_built
from critset.critical import (critical_difference,
                              critical_independent_witness, diadem, ker)
from critset.graphs import (Graph, bipartition, delete_edge, delete_vertices,
                            parse_graph)
from critset.matching import maximum_matching_general

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
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    ordered = sorted(edges)
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


@pytest.mark.parametrize("text, n, size, digest", [
    (shuffled_chain_text(N, False, seed=3), N, N // 2,
     "60ba86dd7788bb6a377ced868ae817920c5c62fbd5f93e7169d775a5c131ff72"),
    (shuffled_chain_text(N, True, seed=4), N, N // 2,
     "e7602adea5e1edcd5afecd6e9c2c6808d43c8e45ebd6802f094749e914dd1074"),
    (gnm_text(4500, 5625, seed=7), 4142, 1953,
     "60ba981945307980224bc4a70adacbdee967c1746b0fb88d1c79c487d65a84f8"),
], ids=["path", "cycle", "gnm4500"])
def test_blossom_edges_are_pinned(text, n, size, digest):
    # the blossom's greedy start and search order fix which maximum matching
    # it returns, and `mu` callers see its edges; these digests pin them
    g = parse_graph(text)
    m = maximum_matching_general(g)
    assert (g.n, len(m)) == (n, size)
    got = hashlib.sha256(repr(sorted(m.edges)).encode()).hexdigest()
    assert got == digest
