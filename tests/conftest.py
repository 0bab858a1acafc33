import random

import pytest
from hypothesis import HealthCheck, settings

from critset.graphs import Graph, all_graphs, random_bipartite, random_graph

settings.register_profile(
    "suite", deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


def adj_of(g: Graph) -> list[int]:
    return list(g.adj)


def small_corpus(max_n: int = 5):
    """Every labeled graph with n <= max_n; the workhorse oracle corpus."""
    for n in range(max_n + 1):
        yield from all_graphs(n)


def random_sample(count: int, n_lo: int, n_hi: int, seed: int = 99):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(n_lo, n_hi + 1)
        yield random_graph(n, rng.choice([0.15, 0.3, 0.5]),
                           rng.getrandbits(32))


def shuffled_chain(n: int, closed: bool, seed: int) -> Graph:
    """A path or cycle on n vertices under a random relabelling, with its
    edges listed in random order."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n - 1 + closed)]
    rng.shuffle(edges)
    return Graph(n, edges)


def masks_built(g: Graph) -> bool:
    """Whether g's adj slot is filled; reading g.adj itself would fill it."""
    try:
        Graph.adj.__get__(g)
    except AttributeError:
        return False
    return True


def mid_sample(seed: int, per_density: int = 5):
    """Random general and bipartite graphs with n = 12..80, past the subset
    oracles' reach, at average degree about 1.5 and 4 and at p = 0.2, 0.5."""
    rng = random.Random(seed)
    for density in (1.5, 4.0, 0.2, 0.5):
        for _ in range(per_density):
            n = rng.randrange(12, 81)
            p = density / n if density > 1 else density
            yield random_graph(n, p, rng.getrandbits(32))
            a = rng.randrange(1, n)
            yield random_bipartite(a, n - a, p, rng.getrandbits(32))


@pytest.fixture(scope="session")
def graphs_n5() -> list[Graph]:
    return list(small_corpus(5))
