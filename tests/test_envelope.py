"""Large sparse graphs, under the interpreter's default recursion limit.

Shuffled long paths and cycles drive alternating paths through every vertex;
a matching search that recursed once per step would exceed the limit.
"""

import random

import pytest

from conftest import masks_built
from critset.critical import (critical_difference,
                              critical_independent_witness, diadem, ker)
from critset.graphs import bipartition, parse_graph
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
