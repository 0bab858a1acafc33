import random
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, settings

import oracles as o
from critset.graphs import (BipartitePartition, Graph, all_graphs, bipartition,
                            random_bipartite, random_graph, vset)

settings.register_profile(
    "suite", deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


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


def components(g):
    """The vertex sets of g's connected components, as bitmasks."""
    adj, out, rest = g.adj, [], g.full
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            grown = comp
            for v in o.bits(frontier):
                grown |= adj[v]
            frontier, comp = grown & ~comp, grown
        out.append(comp)
        rest &= ~comp
    return out


def flipped(g, swap):
    """bipartition(g) with the sides swapped inside swap, a union of
    components."""
    side_a = bipartition(g).side_a ^ swap
    return BipartitePartition(side_a, g.full ^ side_a)


def every_bipartition(g):
    """Every valid bipartition of a bipartite g: each component either way."""
    comps = components(g)
    for code in range(1 << len(comps)):
        yield flipped(g, sum(c for k, c in enumerate(comps) if code >> k & 1))


def random_bipartition(g, rng):
    return flipped(g, sum(c for c in components(g) if rng.random() < 0.5))


def shuffled(n: int, edges: list[tuple[int, int]], seed: int) -> Graph:
    """The graph on n vertices with the given edges, under a random
    relabelling, with its edges listed in random order."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[u], order[v]) for u, v in edges]
    rng.shuffle(edges)
    return Graph(n, edges)


def shuffled_chain(n: int, closed: bool, seed: int) -> Graph:
    """A path or cycle on n vertices, shuffled."""
    return shuffled(n, [(i, (i + 1) % n) for i in range(n - 1 + closed)],
                    seed)


def cycle_chain(k: int, count: int, shared: bool, seed: int) -> Graph:
    """count cycles of length k in a row, each joined to the next by an edge,
    or sharing a vertex with it when shared; shuffled. Chains of odd cycles
    grow the blossom matching's search trees deep."""
    step = k - 1 if shared else k
    edges = []
    for first in range(0, count * step, step):
        edges += [(first + i, first + (i + 1) % k) for i in range(k)]
        if not shared and first + k < count * step:
            edges.append((first + k - 1, first + k))
    return shuffled(count * step + shared, edges, seed)


def triangulated_strip(rungs: int, seed: int) -> Graph:
    """A ladder of rungs (2i, 2i + 1) with one diagonal (2i, 2i + 3) in each
    square; shuffled."""
    edges = [(2 * i, 2 * i + 1) for i in range(rungs)]
    for i in range(0, 2 * rungs - 2, 2):
        edges += [(i, i + 2), (i + 1, i + 3), (i, i + 3)]
    return shuffled(2 * rungs, edges, seed)


def chain_answers(n: int, closed: bool, seed: int):
    """d, ker, diadem and the list of d(G - v) by vertex id v, in closed form
    for shuffled_chain(n, closed, seed), read off its shuffle order. An odd
    path has d = 1 and ker = diadem = its even positions; an even path or
    cycle has d = 0, ker empty and diadem V; an odd cycle has d = 0 and
    ker = diadem empty. A path of k vertices has d = k mod 2, so deleting
    the vertex at position i leaves d = i mod 2 + (n - 1 - i) mod 2 on a
    path and (n - 1) mod 2 on a cycle."""
    order = list(range(n))
    random.Random(seed).shuffle(order)  # shuffled_chain's first draw
    if n % 2 == 0:
        d, k, dia = 0, 0, (1 << n) - 1
    elif closed:
        d, k, dia = 0, 0, 0
    else:
        d, k, dia = 1, vset(order[::2]), vset(order[::2])
    d_without = [0] * n
    for i, v in enumerate(order):
        d_without[v] = (n - 1) % 2 if closed else i % 2 + (n - 1 - i) % 2
    return d, k, dia, d_without


def mask_of(g: Graph, labels) -> int:
    """The set of g's vertices with the given labels, as a bitmask."""
    return vset(g.labels.index(label) for label in labels)


def count_calls(monkeypatch, *functions) -> Counter:
    """Count the calls of each function by its name. Every binding of it in
    a loaded critset module is wrapped, so a module that imports it by name
    is counted too, and no test lists the modules to patch."""
    calls = Counter()
    for f in functions:
        def counted(*args, f=f, **kwargs):
            calls[f.__name__] += 1
            return f(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if name == "critset" or name.startswith("critset."):
                for attr, value in list(vars(module).items()):
                    if value is f:
                        monkeypatch.setattr(module, attr, counted)
    return calls


def masks_built(g: Graph) -> bool:
    """Whether g's masks are built; reading g.adj itself would build them."""
    return g._adj is not None


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


def random_pairs(rng: random.Random, n: int, m: int) -> set[tuple[int, int]]:
    """m distinct pairs (u, v), u < v, of n points, drawn uniformly by rng."""
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return pairs


def analyze_sample(seed: int, count: int):
    """Graphs shaped like `critset analyze` inputs: G(n, m) and bipartite
    graphs on sides n // 2 and n - n // 2, both with m = 1.25 n edges drawn
    uniformly, for n in 60..250, alternating between the two families."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randrange(60, 251)
        m = round(1.25 * n)
        a = n // 2
        if i % 2:
            edges: set[tuple[int, int]] = set()
            while len(edges) < m:
                edges.add((rng.randrange(a), a + rng.randrange(n - a)))
        else:
            edges = random_pairs(rng, n, m)
        yield Graph(n, sorted(edges))


@pytest.fixture(scope="session")
def graphs_n5() -> list[Graph]:
    return list(small_corpus(5))
