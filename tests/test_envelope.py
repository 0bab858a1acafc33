"""Large sparse graphs, under the interpreter's default recursion limit.

Shuffled long paths and cycles drive alternating paths through every vertex;
a matching search that recursed once per step would exceed the limit.
"""

import random

import pytest

from critset.critical import critical_difference, critical_independent_witness, ker
from critset.graphs import Graph, bipartition
from critset.matching import maximum_matching_general

N = 20_000


def shuffled_chain(n: int, closed: bool, seed: int) -> Graph:
    """A path or cycle on n vertices under a random relabelling, with its
    edges listed in random order."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n - 1 + closed)]
    rng.shuffle(edges)
    return Graph(n, edges)


@pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
def test_shuffled_chain_of_20000(closed):
    g = shuffled_chain(N, closed, seed=3 + closed)
    assert critical_difference(g) == 0
    assert critical_independent_witness(g) == 0
    assert ker(g) == 0
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
