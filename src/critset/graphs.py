"""Immutable simple graphs on dense integer ids, with bitmask vertex sets."""

from __future__ import annotations

import gc
import random
from functools import lru_cache
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
    """Raised on malformed graph input, carrying the offending line number
    and, when the text was read from a file, that file's path."""

    def __init__(self, line_no: int, message: str, path: str | None = None):
        where = f"line {line_no}" if path is None else f"{path}:{line_no}"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no
        self.message = message
        self.path = path


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


class Graph:
    """Finite simple undirected graph; vertices are 0..n-1, labels for display.

    `nbrs[v]` is v's neighbours as a sorted tuple, and every constructor
    fills it. `adj[v]` is the same as a bitmask, built for every vertex on its
    first read, so a graph pays for O(n^2) bits of masks only if a bitmask
    routine reads them; deleting, comparing, hashing and pickling never do.
    The matching routines memoise the double cover's maximum matching in a
    private slot; since a Graph never changes, the memo stays valid, and it is
    left out of equality, hashing and pickling.
    """

    __slots__ = ("n", "nbrs", "adj", "labels", "_cover")

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

    def _wrap(self, nbrs: Iterable[Iterable[int]],
              labels: tuple[str, ...] | None) -> "Graph":
        """Hold prevalidated symmetric neighbour lists, sorting each."""
        self.nbrs = tuple(map(tuple, map(sorted, nbrs)))
        self.n = len(self.nbrs)
        self.labels = labels if labels is not None else tuple(
            str(i) for i in range(self.n))
        self._cover = None
        return self

    def __getattr__(self, name: str):
        # reached only while the adj slot is unset; fills it, so every later
        # read is a slot read. With a __getattr__ CPython no longer
        # specialises attribute reads on Graph, so the bitmask loops in mis,
        # critical and props read g.adj once into a local.
        if name != "adj":
            raise AttributeError(name)
        # the bits are distinct, so the sum is their OR
        self.adj = tuple(sum(1 << w for w in vs) for vs in self.nbrs)
        return self.adj

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
        return (isinstance(other, Graph) and self.nbrs == other.nbrs
                and self.labels == other.labels)

    def __hash__(self) -> int:
        return hash(self.nbrs)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def __getstate__(self):
        return self.nbrs, self.labels

    def __setstate__(self, state):
        self._wrap(*state)


def _check_subset(g: Graph, x: VertexSet) -> None:
    if x & ~g.full:
        raise ValueError(f"vertex set {bin(x)} not within 0..{g.n - 1}")


def neighborhood(g: Graph, x: VertexSet) -> VertexSet:
    """Return the open neighbourhood N(x); it may intersect x."""
    _check_subset(g, x)
    out = 0
    rest = x
    while rest:
        low = rest & -rest
        out |= g.adj[low.bit_length() - 1]
        rest ^= low
    return out


def difference(g: Graph, x: VertexSet) -> int:
    """Return d(x) = |x| - |N(x)|; never subtract x from N(x)."""
    return x.bit_count() - neighborhood(g, x).bit_count()


def is_independent(g: Graph, x: VertexSet) -> bool:
    """Return True iff no edge joins two members of x."""
    return neighborhood(g, x) & x == 0


def delete_vertices(g: Graph, w: VertexSet) -> tuple[Graph, dict[int, int]]:
    """Return the induced subgraph on V - w plus the old-to-new id map."""
    _check_subset(g, w)
    keep = vflags(g.full & ~w, g.n)
    survivors = [v for v, flag in enumerate(keep) if flag]
    idmap = {old: new for new, old in enumerate(survivors)}
    nbrs = g.nbrs
    sub = [[idmap[u] for u in nbrs[old] if keep[u]] for old in survivors]
    labels = tuple(g.labels[old] for old in survivors)
    return object.__new__(Graph)._wrap(sub, labels), idmap


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    """Return a copy of g with the edge uv removed."""
    if v not in g.nbrs[u]:
        raise ValueError(f"no edge ({u},{v})")
    nbrs = list(g.nbrs)
    nbrs[u] = [w for w in nbrs[u] if w != v]
    nbrs[v] = [w for w in nbrs[v] if w != u]
    return object.__new__(Graph)._wrap(nbrs, g.labels)


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


# -- parsing and serialization -------------------------------------------------

def parse_graph(text: str, format: str = "edge-list") -> Graph:
    """Parse edge-list or DIMACS text into a Graph.

    The cyclic garbage collector is paused while the parser runs. It builds
    a few containers per edge and vertex, none of them in a reference cycle,
    and on a graph of thousands of vertices the collector would otherwise
    run full collections in the middle of it that free nothing. A collector
    that was already off stays off.
    """
    if format == "edge-list":
        parse = _parse_edge_list
    elif format == "dimacs":
        parse = _parse_dimacs
    else:
        raise ValueError(f"unknown format {format!r}")
    collecting = gc.isenabled()
    gc.disable()
    try:
        return parse(text)
    finally:
        if collecting:
            gc.enable()


def read_graph_file(path: str, format: str | None = None) -> Graph:
    """Parse the graph file at path. The format defaults by extension: .col
    and .dimacs are DIMACS, anything else an edge list. A ParseError names
    the file."""
    if format is None:
        format = "dimacs" if path.endswith((".col", ".dimacs")) \
            else "edge-list"
    with open(path) as fh:
        text = fh.read()
    try:
        return parse_graph(text, format)
    except ParseError as exc:
        raise ParseError(exc.line_no, exc.message, path) from None


def _parse_edge_list(text: str) -> Graph:
    ids: dict[str, int] = {}
    nbrs: list[list[int]] = []
    seen: set[tuple[int, int]] = set()
    # split() yields no empty token, so a comment is a line whose first
    # token starts with "#"
    for line_no, tokens in enumerate(map(str.split, text.splitlines()), 1):
        if len(tokens) != 2:
            if not tokens or tokens[0][0] == "#":
                continue
            raise ParseError(line_no, f"expected two tokens, got {len(tokens)}")
        a, b = tokens
        if a[0] == "#":
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
    An edge line leads with its lower endpoint unless that label would make
    the line a comment or a declaration ("#..." or "vertex"); an edge with
    two such labels has no line and raises ValueError.
    """
    labels = g.labels
    lines = [f"vertex {label}" for label in labels]
    for u, v in g.edge_pairs():
        a, b = labels[u], labels[v]
        if a.startswith("#") or a == "vertex":
            if b.startswith("#") or b == "vertex":
                raise ValueError(f"edge {a} {b}: neither label can lead a "
                                 f"line")
            a, b = b, a
        lines.append(f"{a} {b}")
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
    draw = random.Random(seed).random
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw() < p:
                nbrs[i].append(j)
                nbrs[j].append(i)
    return object.__new__(Graph)._wrap(nbrs, None)


def random_bipartite(m: int, n: int, p: float, seed: int) -> Graph:
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    draw = random.Random(seed).random
    nbrs: list[list[int]] = [[] for _ in range(m + n)]
    for i in range(m):
        for j in range(m, m + n):
            if draw() < p:
                nbrs[i].append(j)
                nbrs[j].append(i)
    return object.__new__(Graph)._wrap(nbrs, None)


def _check_exhaustive_order(n: int) -> None:
    if n < 0:
        raise ValueError(f"exhaustive stream needs n >= 0, got {n}")
    if n > EXHAUSTIVE_MAX_N:
        raise LimitExceeded(f"exhaustive stream supports n <= {EXHAUSTIVE_MAX_N}")


@lru_cache(maxsize=None)
def _code_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The vertex pair of each bit of an edge code on n vertices: bit k
    stands for the k-th pair (i, j), i < j, in lexicographic order."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def graph_from_code(n: int, code: int) -> Graph:
    """The labeled graph on n vertices whose edges are the set bits of code."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for k, (i, j) in enumerate(_code_pairs(n)):
        if code >> k & 1:
            nbrs[i].append(j)
            nbrs[j].append(i)
    return object.__new__(Graph)._wrap(nbrs, None)


def all_graphs(n: int) -> Iterator[Graph]:
    """Yield every labeled graph on n vertices exactly once, in edge-code
    order (graph_from_code); 0 <= n <= 7."""
    _check_exhaustive_order(n)
    for code in range(1 << n * (n - 1) // 2):
        yield graph_from_code(n, code)


def orbit_leaders(n: int) -> list[int]:
    """leaders[c] is the smallest edge code of a graph isomorphic to the
    graph with code c, for every code c of all_graphs(n).

    Each code not yet reached, in increasing order, starts a search of its
    orbit, so it is the smallest code there. The search relabels by the
    transposition (0 1) and the n-cycle, which generate every permutation
    of the vertices. Each moves the bits of a code through two tables, one
    per half of the code, that map each half's value to its bits' images.
    """
    _check_exhaustive_order(n)
    pairs = _code_pairs(n)
    bit_of = {pair: k for k, pair in enumerate(pairs)}
    half = (len(pairs) + 1) // 2
    low_mask = (1 << half) - 1
    generators = []
    for perm in (1, 0, *range(2, n)), (*range(1, n), 0):
        image = [bit_of[min(perm[i], perm[j]), max(perm[i], perm[j])]
                 for i, j in pairs]
        tables = []
        for bits in range(half), range(half, len(pairs)):
            table = [0]
            for k in bits:
                table += [t | 1 << image[k] for t in table]
            tables.append(table)
        generators.append(tables)
    leaders = [-1] * (1 << len(pairs))
    for code in range(len(leaders)):
        if leaders[code] >= 0:
            continue
        leaders[code] = code
        todo = [code]
        while todo:
            c = todo.pop()
            for low, high in generators:
                moved = low[c & low_mask] | high[c >> half]
                if leaders[moved] < 0:
                    leaders[moved] = code
                    todo.append(moved)
    return leaders
