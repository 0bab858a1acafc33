"""Immutable simple graphs on dense integer ids, with bitmask vertex sets."""

from __future__ import annotations

import random
from typing import Iterable, Iterator, NamedTuple

# A vertex set is an int bitmask over ids 0..n-1; bit v set means v is a member.
VertexSet = int

EXHAUSTIVE_MAX_N = 7
# largest vertex count a DIMACS header may declare; the parser allocates a
# label per declared vertex, so a larger header is rejected before that
DIMACS_MAX_N = 1_000_000
# byte 0 to the digit "0", every other byte to "1"
_FLAG_DIGITS = b"0" + b"1" * 255
# the digits "0" and "1" to the bytes 0 and 1
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


class ParseError(ValueError):
    """Raised on malformed graph input, carrying the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


class LimitExceeded(RuntimeError):
    """Raised when a graph is too large for an exact/oracle computation."""


class BipartitePartition(NamedTuple):
    side_a: VertexSet
    side_b: VertexSet


def vset(vertices: Iterable[int]) -> VertexSet:
    """Build a bitmask from an iterable of vertex ids.

    The bits go into a flag array that becomes one binary literal, so the cost
    is linear in the largest id; OR-ing in one bit per id would copy the
    growing int each time.
    """
    ids = list(vertices)
    if not ids:
        return 0
    flags = bytearray(max(ids) + 1)
    for v in ids:
        flags[v] = 1
    return int(flags[::-1].translate(_FLAG_DIGITS), 2)


def vflags(mask: VertexSet, n: int) -> bytes:
    """Return flags with flags[v] = 1 iff v is in mask, for every v < n.

    The inverse of vset, read off the mask's binary digits in one linear step;
    walking the members one by one would copy the shrinking int each time.
    """
    return format(mask, f"0{n}b")[::-1].encode().translate(_DIGIT_FLAGS)


def vlist(mask: VertexSet) -> list[int]:
    """Return the members of a bitmask in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def iter_bits(mask: VertexSet) -> Iterator[int]:
    """Yield the members of a bitmask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Finite simple undirected graph; vertices are 0..n-1, labels for display.

    `nbrs[v]` is v's neighbours as a sorted tuple and `adj[v]` the same as a
    bitmask; whichever the graph was built from, the other is built on its
    first read, so a parsed graph pays for O(n^2) bits of masks only if used.
    The matching routines memoise the double cover's maximum matching in a
    private slot; since a Graph never changes, the memo stays valid, and it is
    left out of equality, hashing and pickling.
    """

    __slots__ = ("n", "adj", "labels", "_nbrs", "_cover")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 labels: tuple[str, ...] | None = None):
        nbrs: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add(key)
            nbrs[u].append(v)
            nbrs[v].append(u)
        if labels is not None and len(labels) != n:
            raise ValueError("labels length must equal n")
        self._wrap(nbrs, labels)

    def _wrap(self, nbrs: list[list[int]],
              labels: tuple[str, ...] | None) -> "Graph":
        """Hold prevalidated symmetric neighbour lists, sorting each."""
        self.n = len(nbrs)
        self._nbrs = tuple(map(tuple, map(sorted, nbrs)))
        self.labels = labels if labels is not None else tuple(
            str(i) for i in range(self.n))
        self._cover = None
        return self

    @classmethod
    def from_adj(cls, adj: tuple[int, ...],
                 labels: tuple[str, ...] | None = None) -> "Graph":
        """Wrap a prevalidated symmetric adjacency tuple without rechecking."""
        g = object.__new__(cls)
        g.n = len(adj)
        g.adj = adj
        g.labels = labels if labels is not None else tuple(
            str(i) for i in range(len(adj)))
        g._nbrs = g._cover = None
        return g

    def __getattr__(self, name: str):
        # reached only while the adj slot is unset, on a graph built from
        # neighbour lists; fills the slot, so every later read is a slot read.
        # With a __getattr__ CPython no longer specialises attribute reads on
        # Graph, so the bitmask loops in mis, critical and props read g.adj
        # once into a local.
        if name != "adj":
            raise AttributeError(name)
        # the bits are distinct, so the sum is their OR
        self.adj = tuple(sum(1 << w for w in vs) for vs in self._nbrs)
        return self.adj

    @property
    def nbrs(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour ids per vertex; built on first use for from_adj."""
        if self._nbrs is None:
            self._nbrs = tuple(tuple(vlist(a)) for a in self.adj)
        return self._nbrs

    @property
    def full(self) -> VertexSet:
        """Bitmask of all vertices."""
        return (1 << self.n) - 1

    def edge_pairs(self) -> list[tuple[int, int]]:
        """Return all edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u, vs in enumerate(self.nbrs) for v in vs if v > u]

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(map(len, self.nbrs)) // 2

    def degree(self, v: int) -> int:
        return len(self.nbrs[v])

    def label_list(self, mask: VertexSet) -> list[str]:
        """Render a vertex set as labels in increasing id order."""
        labels = self.labels
        return [labels[v] for v, flag in enumerate(vflags(mask, self.n))
                if flag]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and self.adj == other.adj and self.labels == other.labels)

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def __getstate__(self):
        return (self.n, self.adj, self.labels)

    def __setstate__(self, state):
        self.n, self.adj, self.labels = state
        self._nbrs = self._cover = None


def _check_subset(g: Graph, x: VertexSet) -> None:
    if x & ~g.full:
        raise ValueError(f"vertex set {bin(x)} not within 0..{g.n - 1}")


def neighborhood(g: Graph, x: VertexSet, closed: bool = False) -> VertexSet:
    """Return N(x) (open), or N[x] when closed; open N(x) may intersect x."""
    _check_subset(g, x)
    out = 0
    rest = x
    while rest:
        low = rest & -rest
        out |= g.adj[low.bit_length() - 1]
        rest ^= low
    return out | x if closed else out


def difference(g: Graph, x: VertexSet) -> int:
    """Return d(x) = |x| - |N(x)|; never subtract x from N(x)."""
    return x.bit_count() - neighborhood(g, x).bit_count()


def is_independent(g: Graph, x: VertexSet) -> bool:
    """Return True iff no edge joins two members of x."""
    return neighborhood(g, x) & x == 0


def delete_vertices(g: Graph, w: VertexSet) -> tuple[Graph, dict[int, int]]:
    """Return the induced subgraph on V - w plus the old-to-new id map."""
    _check_subset(g, w)
    survivors = vlist(g.full & ~w)
    idmap = {old: new for new, old in enumerate(survivors)}
    adj = []
    for old in survivors:
        mask = 0
        rest = g.adj[old] & ~w
        while rest:
            low = rest & -rest
            mask |= 1 << idmap[low.bit_length() - 1]
            rest ^= low
        adj.append(mask)
    labels = tuple(g.labels[old] for old in survivors)
    return Graph.from_adj(tuple(adj), labels), idmap


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    """Return a copy of g with the edge uv removed."""
    if not g.adj[u] >> v & 1:
        raise ValueError(f"no edge ({u},{v})")
    adj = list(g.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    return Graph.from_adj(tuple(adj), g.labels)


def bipartition(g: Graph) -> BipartitePartition | None:
    """2-color g by BFS, or return None if an odd cycle exists.

    Per connected component the smallest-id vertex is the BFS root and its
    color class joins side_a, so the partition is deterministic.
    """
    nbrs = g.nbrs
    color = bytearray(g.n)  # 0 uncolored, 1 side_a, 2 side_b
    for root in range(g.n):
        if color[root]:
            continue
        color[root] = 1
        queue = [root]
        for u in queue:
            cu = color[u]
            for v in nbrs[u]:
                if not color[v]:
                    color[v] = 3 - cu
                    queue.append(v)
                elif color[v] == cu:
                    return None
    side_a = vset(v for v in range(g.n) if color[v] == 1)
    return BipartitePartition(side_a, g.full ^ side_a)


def induced(g: Graph, keep: VertexSet) -> tuple[Graph, dict[int, int]]:
    """Return the induced subgraph on keep plus the old-to-new id map."""
    return delete_vertices(g, g.full & ~keep)


# -- parsing and serialization -------------------------------------------------

def parse_graph(text: str, format: str = "edge-list") -> Graph:
    """Parse edge-list or DIMACS text into a Graph."""
    if format == "edge-list":
        return _parse_edge_list(text)
    if format == "dimacs":
        return _parse_dimacs(text)
    raise ValueError(f"unknown format {format!r}")


def _parse_edge_list(text: str) -> Graph:
    ids: dict[str, int] = {}
    nbrs: list[list[int]] = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if len(tokens) != 2:
            if not tokens or tokens[0].startswith("#"):
                continue
            raise ParseError(line_no, f"expected two tokens, got {len(tokens)}")
        a, b = tokens
        if a.startswith("#"):
            continue
        if a == "vertex":
            if b not in ids:
                ids[b] = len(nbrs)
                nbrs.append([])
            continue
        if (u := ids.get(a)) is None:
            u = ids[a] = len(nbrs)
            nbrs.append([])
        if (v := ids.get(b)) is None:
            v = ids[b] = len(nbrs)
            nbrs.append([])
        if u == v:
            raise ParseError(line_no, f"self-loop at {a!r}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ParseError(line_no, f"duplicate edge {a} {b}")
        seen.add(key)
        nbrs[u].append(v)
        nbrs[v].append(u)
    # ids are handed out in first-appearance order, which the dict keeps
    return object.__new__(Graph)._wrap(nbrs, tuple(ids))


def _parse_dimacs(text: str) -> Graph:
    n = -1
    m_declared = 0
    header_line = 0
    nbrs: list[list[int]] = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("c"):
            continue
        if tokens[0] == "p":
            if n >= 0:
                raise ParseError(line_no, "duplicate problem line")
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError(line_no, "expected 'p edge <n> <m>'")
            try:
                n, m_declared = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ParseError(line_no, "non-integer counts in problem line")
            if n < 0 or m_declared < 0:
                raise ParseError(line_no, "negative counts in problem line")
            if n > DIMACS_MAX_N:
                raise ParseError(
                    line_no, f"{n} vertices exceeds the limit {DIMACS_MAX_N}")
            header_line = line_no
            nbrs = [[] for _ in range(n)]
        elif tokens[0] == "e":
            if n < 0:
                raise ParseError(line_no, "edge before problem line")
            if len(tokens) != 3:
                raise ParseError(line_no, "expected 'e <u> <v>'")
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError(line_no, "non-integer vertex id")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(line_no, f"vertex id out of range 1..{n}")
            if u == v:
                raise ParseError(line_no, f"self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ParseError(line_no, f"duplicate edge {u} {v}")
            seen.add(key)
            nbrs[u - 1].append(v - 1)
            nbrs[v - 1].append(u - 1)
        else:
            raise ParseError(line_no, f"unknown line type {tokens[0]!r}")
    if n < 0:
        raise ParseError(1, "missing problem line")
    if len(seen) != m_declared:
        raise ParseError(header_line,
                         f"declared {m_declared} edges, found {len(seen)}")
    return object.__new__(Graph)._wrap(
        nbrs, tuple(str(i + 1) for i in range(n)))


def to_edge_list(g: Graph) -> str:
    """Serialize g so that parse_graph reproduces it exactly.

    Every vertex is declared up front in id order, so the parser assigns the
    same ids and the round trip is the identity, not merely an isomorphism.
    """
    lines = [f"vertex {label}" for label in g.labels]
    lines += [f"{g.labels[u]} {g.labels[v]}" for u, v in g.edge_pairs()]
    return "\n".join(lines) + ("\n" if lines else "")


# -- generators ------------------------------------------------------------------

def empty_graph(n: int) -> Graph:
    return Graph(n, [])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(m: int, n: int) -> Graph:
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Return G(n, p) with a fixed vertex-pair scan order, so seed fixes edges."""
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def random_bipartite(m: int, n: int, p: float, seed: int) -> Graph:
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    rng = random.Random(seed)
    edges = [(i, m + j) for i in range(m) for j in range(n)
             if rng.random() < p]
    return Graph(m + n, edges)


def all_graphs(n: int) -> Iterator[Graph]:
    """Yield every labeled graph on n vertices exactly once; n <= 7."""
    if n > EXHAUSTIVE_MAX_N:
        raise LimitExceeded(f"exhaustive stream supports n <= {EXHAUSTIVE_MAX_N}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for code in range(1 << len(pairs)):
        adj = [0] * n
        for k, (i, j) in enumerate(pairs):
            if code >> k & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        yield Graph.from_adj(tuple(adj))


def generate(spec: str) -> Graph | Iterator[Graph]:
    """Build a graph family from a descriptor like P5, C6, K4, K3,2,
    gnp:n=10,p=0.3,seed=42, bip:m=3,n=4,p=0.5,seed=1, or all:n=5."""
    spec = spec.strip()
    if ":" in spec:
        kind, _, arg_text = spec.partition(":")
        args: dict[str, str] = {}
        for part in arg_text.split(","):
            key, _, value = part.partition("=")
            if not value:
                raise ValueError(f"bad descriptor argument {part!r}")
            args[key.strip()] = value.strip()
        if kind == "gnp":
            return random_graph(int(args["n"]), float(args["p"]),
                                int(args["seed"]))
        if kind == "bip":
            return random_bipartite(int(args["m"]), int(args["n"]),
                                    float(args["p"]), int(args["seed"]))
        if kind == "all":
            return all_graphs(int(args["n"]))
        raise ValueError(f"unknown family {kind!r}")
    head, rest = spec[:1], spec[1:]
    if head == "P" and rest.isdigit():
        return path_graph(int(rest))
    if head == "C" and rest.isdigit():
        return cycle_graph(int(rest))
    if head == "K" and "," in rest:
        m_text, _, n_text = rest.partition(",")
        if m_text.isdigit() and n_text.isdigit():
            return complete_bipartite(int(m_text), int(n_text))
    if head == "K" and rest.isdigit():
        return complete_graph(int(rest))
    raise ValueError(f"unrecognized graph descriptor {spec!r}")
