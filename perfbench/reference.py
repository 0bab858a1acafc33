"""Reference answers computed without critset, for the benchmark's answer gate.

Everything here is written from the definitions, not from the library's code,
so that a change to the library cannot change both sides of a comparison:

- d(G) = n - nu(B(G)), where B(G) is the bipartite double cover (v+ ~ w- iff
  vw is an edge) and nu is its matching number.
- With a maximum matching M of B(G), call a set S of plus vertices closed when
  every minus neighbour of S is matched into S. The critical sets are exactly
  the closed sets that contain every unmatched plus vertex and reach no
  unmatched minus vertex. The smallest one is the alternating-path closure of
  the unmatched plus vertices; it is independent, so it is ker(G).
- v lies in some critical independent set (the diadem) iff the closure of v
  together with ker reaches no unmatched minus vertex and holds no neighbour
  of v; S - N(S) of such a closed S is then critical, independent and holds v.
- On one side A of a bipartite graph the same closures give Ore's side
  kernel (smallest set of maximum deficiency) and side diadem (largest one).
- mu is exact on bipartite graphs (matching) and wherever repeatedly matching
  a pendant vertex to its neighbour leaves only disjoint cycles; elsewhere the
  gate checks mu <= nu(B(G)) / 2 only.
"""

from __future__ import annotations


class RefGraph:
    """Adjacency lists over ids 0..n-1 with the file's labels."""

    __slots__ = ("labels", "adj", "index")

    def __init__(self, labels: list[str], adj: list[list[int]]):
        self.labels = labels
        self.adj = adj
        self.index = {lab: i for i, lab in enumerate(labels)}

    @property
    def n(self) -> int:
        return len(self.labels)

    def ids(self, labels) -> set[int]:
        return {self.index[lab] for lab in labels}


def parse_edge_list(text: str) -> RefGraph:
    """Read the edge lists this benchmark writes: `vertex L` and `u v` lines."""
    index: dict[str, int] = {}
    labels: list[str] = []
    edges = []

    def vid(tok: str) -> int:
        if tok not in index:
            index[tok] = len(labels)
            labels.append(tok)
        return index[tok]

    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "vertex":
            vid(parts[1])
        else:
            edges.append((vid(parts[0]), vid(parts[1])))
    adj: list[list[int]] = [[] for _ in labels]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return RefGraph(labels, adj)


def max_matching(nl: int, nr: int, adj: list[list[int]]) -> tuple[list[int], list[int]]:
    """Hopcroft-Karp with an explicit stack; adj[u] lists right ids of left u."""
    inf = 1 << 30
    mate_l = [-1] * nl
    mate_r = [-1] * nr
    for u in range(nl):
        for v in adj[u]:
            if mate_r[v] == -1:
                mate_l[u], mate_r[v] = v, u
                break
    while True:
        dist = [inf] * nl
        queue = [u for u in range(nl) if mate_l[u] == -1]
        for u in queue:
            dist[u] = 0
        found = False
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in adj[u]:
                w = mate_r[v]
                if w == -1:
                    found = True
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not found:
            return mate_l, mate_r
        pos = [0] * nl
        for root in range(nl):
            if mate_l[root] != -1:
                continue
            stack = [root]
            while stack:
                u = stack[-1]
                if pos[u] == len(adj[u]):
                    dist[u] = inf
                    stack.pop()
                    continue
                v = adj[u][pos[u]]
                pos[u] += 1
                w = mate_r[v]
                if w == -1:
                    for k in range(len(stack) - 1, -1, -1):
                        x = stack[k]
                        y = v if k == len(stack) - 1 else adj[x][pos[x] - 1]
                        mate_l[x], mate_r[y] = y, x
                    break
                if dist[w] == dist[u] + 1:
                    stack.append(w)


def _closure(adj: list[list[int]], mate_r: list[int], starts, seen: set[int]) -> tuple[set[int], bool]:
    """Left vertices reached from starts by alternating paths, skipping those
    already in seen; the flag says whether an unmatched right vertex was hit."""
    out = set()
    hit_free = False
    stack = [u for u in starts if u not in seen]
    out.update(stack)
    while stack:
        u = stack.pop()
        for v in adj[u]:
            w = mate_r[v]
            if w == -1:
                hit_free = True
            elif w not in seen and w not in out:
                out.add(w)
                stack.append(w)
    return out, hit_free


class CriticalRef:
    """d, ker and diadem of g from one maximum matching of its double cover."""

    def __init__(self, g: RefGraph):
        self.g = g
        mate_l, self.mate_r = max_matching(g.n, g.n, g.adj)
        self.nu = sum(1 for v in mate_l if v != -1)
        self.d = g.n - self.nu
        unmatched = [u for u in range(g.n) if mate_l[u] == -1]
        self.ker, hit = _closure(g.adj, self.mate_r, unmatched, set())
        if hit:
            raise AssertionError("matching is not maximum")

    def diadem(self) -> set[int]:
        g, out = self.g, set()
        for v in range(g.n):
            extra, hit = _closure(g.adj, self.mate_r, [v], self.ker)
            if not hit and not any(u in self.ker or u in extra for u in g.adj[v]):
                out.add(v)
        return out


def difference(g: RefGraph, x: set[int]) -> int:
    nbhd = set()
    for v in x:
        nbhd.update(g.adj[v])
    return len(x) - len(nbhd)


def is_independent(g: RefGraph, x: set[int]) -> bool:
    return all(u not in x for v in x for u in g.adj[v])


def two_coloring(g: RefGraph) -> list[int] | None:
    """A proper 2-colouring, or None when g has an odd cycle."""
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v in g.adj[u]:
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    stack.append(v)
                elif color[v] == color[u]:
                    return None
    return color


def is_bipartition(g: RefGraph, a: set[int], b: set[int]) -> bool:
    return (not a & b and len(a) + len(b) == g.n
            and is_independent(g, a) and is_independent(g, b))


def side_profile(g: RefGraph, a: set[int], b: set[int]) -> dict:
    """Ore's delta0, side kernel and side diadem of both sides of a bipartition."""
    left = sorted(a)
    right = sorted(b)
    rpos = {v: i for i, v in enumerate(right)}
    lpos = {v: i for i, v in enumerate(left)}
    adj_a = [[rpos[v] for v in g.adj[u]] for u in left]
    adj_b = [[lpos[v] for v in g.adj[u]] for u in right]
    mate_a, mate_b = max_matching(len(left), len(right), adj_a)
    nu = sum(1 for v in mate_a if v != -1)
    out = {"mu": nu}
    for name, side, other, adj, mate_side, mate_other in (
            ("a", left, right, adj_a, mate_a, mate_b),
            ("b", right, left, adj_b, mate_b, mate_a)):
        free_side = [i for i, m in enumerate(mate_side) if m == -1]
        kernel, _ = _closure(adj, mate_other, free_side, set())
        # largest deficient set: drop every vertex an unmatched vertex of the
        # other side reaches (non-matching edge in, matching edge out)
        reached = set()
        stack = [j for j, m in enumerate(mate_other) if m == -1]
        seen_other = set(stack)
        while stack:
            j = stack.pop()
            for i in (lpos[v] if name == "a" else rpos[v]
                      for v in g.adj[other[j]]):
                if i not in reached:
                    reached.add(i)
                    k = mate_side[i]
                    if k != -1 and k not in seen_other:
                        seen_other.add(k)
                        stack.append(k)
        out[f"delta0_{name}"] = len(side) - nu
        out[f"ker_{name}"] = {side[i] for i in kernel}
        out[f"diadem_{name}"] = {side[i] for i in range(len(side))
                                 if i not in reached}
    return out


def exact_mu(g: RefGraph) -> int | None:
    """Matching number by pendant reduction, when what is left is disjoint
    cycles; None when a denser remainder would need a blossom search."""
    alive = [True] * g.n
    deg = [len(nb) for nb in g.adj]
    stack = [v for v in range(g.n) if deg[v] == 1]
    mu = 0

    def remove(x: int) -> None:
        alive[x] = False
        for y in g.adj[x]:
            if alive[y]:
                deg[y] -= 1
                if deg[y] == 1:
                    stack.append(y)

    while stack:
        v = stack.pop()
        if not alive[v] or deg[v] != 1:
            continue
        u = next(y for y in g.adj[v] if alive[y])
        mu += 1
        alive[v] = False
        remove(u)
    rest = [v for v in range(g.n) if alive[v] and deg[v] > 0]
    if any(deg[v] != 2 for v in rest):
        return None
    seen = set()
    for v in rest:
        if v in seen:
            continue
        size, stack2 = 0, [v]
        seen.add(v)
        while stack2:
            x = stack2.pop()
            size += 1
            for y in g.adj[x]:
                if alive[y] and y not in seen:
                    seen.add(y)
                    stack2.append(y)
        mu += size // 2
    return mu
