"""Large sparse graphs, under the interpreter's default recursion limit.

Shuffled long paths and cycles drive alternating paths through every vertex;
a matching search that recursed once per step would exceed the limit.
"""

import pytest

from conftest import shuffled_chain
from critset.critical import (critical_difference,
                              critical_independent_witness, diadem, ker)
from critset.graphs import bipartition
from critset.matching import maximum_matching_general

N = 20_000


@pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
def test_shuffled_chain_of_20000(closed):
    g = shuffled_chain(N, closed, seed=3 + closed)
    assert critical_difference(g) == 0
    assert critical_independent_witness(g) == 0
    assert ker(g) == 0
    # every vertex lies in a critical independent set; on the path the
    # alternating digraph is a chain of 20,000 components
    assert diadem(g) == g.full
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
