import gc
import pickle
import random
import sys
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

import oracles as o
from conftest import adj_of, random_sample
from critset.graphs import (EXHAUSTIVE_MAX_N, Graph, LimitExceeded,
                            ParseError, all_graphs, bipartition,
                            complete_bipartite, complete_graph, cycle_graph,
                            delete_edge, delete_vertices, difference,
                            empty_graph, graph_from_code,
                            is_independent, neighborhood, orbit_leaders,
                            parse_graph, path_graph, random_bipartite,
                            random_graph, to_edge_list)

graph_st = st.builds(
    random_graph,
    n=st.integers(min_value=0, max_value=9),
    p=st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1))


def masks(g: Graph, rng: random.Random, count: int = 4):
    return [rng.randrange(1 << g.n) if g.n else 0 for _ in range(count)]


# -- Graph basics --------------------------------------------------------------

def test_graph_construction_and_counts():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert g.degree(1) == 2 and g.degree(0) == 1
    assert g.edge_pairs() == [(0, 1), (1, 2), (2, 3)]
    assert g.labels == ("0", "1", "2", "3")
    assert g.full == 0b1111


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])


def test_graph_equality_and_hash():
    a = Graph(3, [(0, 1)])
    b = Graph(3, [(0, 1)])
    c = Graph(3, [(1, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_graph_pickles():
    g = random_graph(8, 0.4, 11)
    clone = pickle.loads(pickle.dumps(g))
    assert clone == g and clone.labels == g.labels


def test_label_list_uses_id_order():
    g = parse_graph("x y\ny u\nvertex w\n")
    assert g.labels == ("x", "y", "u", "w")
    assert g.label_list(0b1011) == ["x", "y", "w"]


# -- neighborhood and difference ---------------------------------------------

def test_open_neighborhood_may_intersect_argument():
    g = path_graph(3)
    assert neighborhood(g, 0b011) == 0b111  # N({0,1}) = {0,1,2}
    assert difference(g, 0b011) == -1


def test_difference_of_empty_set_is_zero():
    for g in [empty_graph(0), path_graph(4), complete_graph(3)]:
        assert difference(g, 0) == 0


@given(graph_st, st.integers(min_value=0, max_value=2**32 - 1))
def test_difference_lower_bound(g, seed):
    rng = random.Random(seed)
    for x in masks(g, rng):
        assert difference(g, x) >= x.bit_count() - g.n
        assert difference(g, x) == o.d_of(adj_of(g), x)


@given(graph_st, st.integers(min_value=0, max_value=2**32 - 1))
def test_neighborhood_additive_over_unions(g, seed):
    rng = random.Random(seed)
    xs = masks(g, rng)
    for x, y in zip(xs, reversed(xs)):
        assert (neighborhood(g, x | y)
                == neighborhood(g, x) | neighborhood(g, y))


@given(graph_st, st.integers(min_value=0, max_value=2**32 - 1))
def test_is_independent_matches_oracle(g, seed):
    rng = random.Random(seed)
    for x in masks(g, rng):
        assert is_independent(g, x) == o.is_independent(adj_of(g), x)


def test_neighborhood_rejects_foreign_vertices():
    with pytest.raises(ValueError):
        neighborhood(path_graph(3), 0b1000)


# -- deletion and induced subgraphs ---------------------------------------------

def test_delete_vertex_of_c4_gives_p3():
    c4 = cycle_graph(4)
    g, idmap = delete_vertices(c4, 0b0001)
    assert g.n == 3 and g.m == 2
    assert sorted(g.degree(v) for v in range(3)) == [1, 1, 2]
    assert set(idmap) == {1, 2, 3} and sorted(idmap.values()) == [0, 1, 2]


def test_delete_nothing_is_identity():
    g = random_graph(6, 0.5, 3)
    h, idmap = delete_vertices(g, 0)
    assert h == g and idmap == {v: v for v in range(6)}


def test_delete_vertices_keeps_labels():
    g = parse_graph("a b\nb c\n")
    h, _ = delete_vertices(g, 0b010)  # drop b
    assert h.labels == ("a", "c") and h.m == 0


def test_delete_edge_and_missing_edge():
    g = path_graph(3)
    h = delete_edge(g, 0, 1)
    assert h.m == 1 and h.labels == g.labels
    with pytest.raises(ValueError):
        delete_edge(g, 0, 2)


def test_induced_subgraph():
    g = cycle_graph(5)
    h, idmap = delete_vertices(g, g.full & ~0b00111)
    assert h.n == 3 and h.m == 2
    assert idmap == {0: 0, 1: 1, 2: 2}


# -- bipartition -----------------------------------------------------------------

def test_bipartition_of_c4():
    parts = bipartition(cycle_graph(4))
    assert parts is not None
    assert parts.side_a == 0b0101 and parts.side_b == 0b1010


def test_bipartition_rejects_odd_cycles():
    assert bipartition(complete_graph(3)) is None
    assert bipartition(cycle_graph(7)) is None


def test_bipartition_disconnected_sides_join_smallest_root():
    # two disjoint edges: both smaller endpoints land in side_a
    g = Graph(4, [(0, 1), (2, 3)])
    parts = bipartition(g)
    assert parts.side_a == 0b0101 and parts.side_b == 0b1010


def test_bipartition_agrees_with_edge_structure():
    for g in random_sample(30, 2, 9, seed=5):
        parts = bipartition(g)
        if parts is None:
            continue
        assert parts.side_a | parts.side_b == g.full
        assert parts.side_a & parts.side_b == 0
        for u, v in g.edge_pairs():
            assert (parts.side_a >> u & 1) != (parts.side_a >> v & 1)


# -- parsing and round trips ------------------------------------------------------

def test_parse_edge_list_with_comments_and_vertex_lines():
    text = "# a comment\nvertex isolated\na b\n\nb c\n"
    g = parse_graph(text)
    assert g.labels == ("isolated", "a", "b", "c")
    assert g.m == 2 and g.degree(0) == 0


@pytest.mark.parametrize("bad, line_no", [
    ("a b c\n", 1), ("a a\n", 1), ("a b\na b\n", 2), ("a b\nb a\n", 2)])
def test_parse_edge_list_errors(bad, line_no):
    with pytest.raises(ParseError) as err:
        parse_graph(bad)
    assert err.value.line_no == line_no


def test_parse_dimacs():
    text = "c comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
    g = parse_graph(text, "dimacs")
    assert g.n == 4 and g.m == 3 and g.labels == ("1", "2", "3", "4")


@pytest.mark.parametrize("bad", [
    "e 1 2\n", "p edge 2 1\ne 1 3\n", "p edge 2 2\ne 1 2\n",
    "p edge 2 1\nq 1 2\n", "p edge 2 1\ne 1 2\np edge 2 1\n",
    "p edge -5 0\n", "p edge 1000000000 0\n"])
def test_parse_dimacs_errors(bad):
    with pytest.raises(ParseError):
        parse_graph(bad, "dimacs")


# Each row: input, then the line number and message of the first error, which
# the one-pass parsers must report exactly as the two-pass parsers before them.
EDGE_LIST_ERRORS = [
    ("3-token line after a duplicate", "a b\nb c\na b\nx y z\n",
     3, "duplicate edge a b"),
    ("duplicate in reverse orientation", "a b\nb a\n",
     2, "duplicate edge b a"),
    ("crlf and tabs", "a\tb\r\nb \t c\r\n\r\nc a a\r\n",
     4, "expected two tokens, got 3"),
    ("indented comments", "  # note\n\t#x y\na b\n   # c c\nb b\n",
     5, "self-loop at 'b'"),
    ("vertex lines after edges", "a b\nvertex c\nvertex a\nc c\n",
     4, "self-loop at 'c'"),
    ("self-loop", "a b\nb b\n", 2, "self-loop at 'b'"),
    ("one token", "a b\nc\n", 2, "expected two tokens, got 1"),
    ("three-token vertex line", "vertex a b\n",
     1, "expected two tokens, got 3"),
    ("form feed ends a line", "a b\x0cb b\n", 2, "self-loop at 'b'"),
    ("unicode spaces", "a\u2003b\n\u00a0c\u00a0c\n", 2, "self-loop at 'c'"),
    ("'#' opening a second token", "a #b\nb a\na #b\n",
     3, "duplicate edge a #b"),
    ("3-token comment", "#x y z\n  #\ta b c\nc c\n", 3, "self-loop at 'c'"),
]

DIMACS_ERRORS = [
    ("edge before header", "e 1 2\n", 1, "edge before problem line"),
    ("id out of range", "p edge 2 1\ne 1 3\n",
     2, "vertex id out of range 1..2"),
    ("edge count mismatch", "c x\np edge 2 2\ne 1 2\n",
     2, "declared 2 edges, found 1"),
    ("unknown line type", "p edge 2 1\nq 1 2\n", 2, "unknown line type 'q'"),
    ("duplicate header", "p edge 2 1\ne 1 2\np edge 2 1\n",
     3, "duplicate problem line"),
    ("negative count", "p edge -5 0\n", 1, "negative counts in problem line"),
    ("over the vertex limit", "p edge 1000000000 0\n",
     1, "1000000000 vertices exceeds the limit 1000000"),
    ("short header", "p edge 2\n", 1, "expected 'p edge <n> <m>'"),
    ("wrong problem kind", "p col 2 1\n", 1, "expected 'p edge <n> <m>'"),
    ("non-integer count", "p edge x 1\n",
     1, "non-integer counts in problem line"),
    ("duplicate in reverse orientation", "p edge 3 2\ne 1 2\ne 2 1\n",
     3, "duplicate edge 2 1"),
    ("bad line after a duplicate", "p edge 3 3\ne 1 2\ne 1 2\ne 1\n",
     3, "duplicate edge 1 2"),
    ("self-loop", "p edge 2 1\ne 1 1\n", 2, "self-loop at 1"),
    ("non-integer id", "p edge 2 1\ne 1 x\n", 2, "non-integer vertex id"),
    ("four-token edge", "p edge 2 1\ne 1 2 3\n", 2, "expected 'e <u> <v>'"),
    ("empty text", "", 1, "missing problem line"),
    ("comments only", "c only\n", 1, "missing problem line"),
    ("crlf, tabs and indented comments",
     "c x\r\np\tedge 3 1\r\n\te 1 2\r\n  c y\r\ne 2 2\r\n",
     5, "self-loop at 2"),
]


def _ids(table):
    return [row[0] for row in table]


@pytest.mark.parametrize("case, text, line_no, message", EDGE_LIST_ERRORS,
                         ids=_ids(EDGE_LIST_ERRORS))
def test_edge_list_error_lines_and_messages(case, text, line_no, message):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert (err.value.line_no, err.value.message) == (line_no, message)
    assert str(err.value) == f"line {line_no}: {message}"


@pytest.mark.parametrize("case, text, line_no, message", DIMACS_ERRORS,
                         ids=_ids(DIMACS_ERRORS))
def test_dimacs_error_lines_and_messages(case, text, line_no, message):
    with pytest.raises(ParseError) as err:
        parse_graph(text, "dimacs")
    assert (err.value.line_no, err.value.message) == (line_no, message)
    assert str(err.value) == f"line {line_no}: {message}"


def test_parsers_accept_crlf_tabs_indented_comments_and_late_vertices():
    g = parse_graph("  # note\r\na\tb\r\n\t# x y\r\nvertex c\r\n"
                    "b  c\r\nvertex a\r\nvertex d\r\n")
    assert g.labels == ("a", "b", "c", "d")
    assert g.edge_pairs() == [(0, 1), (1, 2)]
    # a first token opens a comment, whatever the line's token count; a
    # second token is a label
    g = parse_graph("a #b\n#x y z\n#b c\nc #b\n# #\n")
    assert g.labels == ("a", "#b", "c")
    assert g.edge_pairs() == [(0, 1), (1, 2)]
    g = parse_graph("c x\r\n  p\tedge 4 2\r\n\te 3 1\r\n  c y\r\n"
                    "e 2 3\r\n", "dimacs")
    assert g.labels == ("1", "2", "3", "4")
    assert g.edge_pairs() == [(0, 2), (1, 2)]


@pytest.mark.parametrize("n, edges, labels, message", [
    (2, [(0, 2)], None, "edge (0,2) out of range for n=2"),
    (2, [(-1, 0)], None, "edge (-1,0) out of range for n=2"),
    (3, [(0, 1), (1, 1)], None, "self-loop at vertex 1"),
    (3, [(0, 1), (1, 2), (2, 1), (1, 0)], None, "duplicate edge (2,1)"),
    (3, [(0, 1), (1, 0), (0, 5)], None, "duplicate edge (1,0)"),
    (2, [(0, 1)], ("a",), "labels length must equal n"),
    (2, [(0, 1), (0, 1)], ("a",), "duplicate edge (0,1)"),
], ids=["out of range", "negative id", "self-loop",
        "first duplicate in edge order", "duplicate before a bad edge",
        "labels length", "duplicate before the labels check"])
def test_graph_error_messages(n, edges, labels, message):
    with pytest.raises(ValueError) as err:
        Graph(n, edges, labels)
    assert str(err.value) == message


def test_parse_unknown_format():
    with pytest.raises(ValueError):
        parse_graph("", format="graphml")


@pytest.mark.parametrize("fmt", ["edge-list", "dimacs"])
def test_parse_runs_no_collection_and_restores_the_collector(fmt):
    """Thousands of edges allocate enough to trigger the cyclic collector
    many times over; none of those collections may run inside the parse."""
    if fmt == "edge-list":
        text = "".join(f"{i} {i + 1}\n" for i in range(6000))
    else:
        text = "p edge 6001 6000\n" + "".join(
            f"e {i} {i + 1}\n" for i in range(1, 6001))

    def in_parse() -> bool:
        frame = sys._getframe()
        while frame is not None:
            if frame.f_code is parse_graph.__code__:
                return True
            frame = frame.f_back
        return False

    inside = []

    def spy(phase, info):
        if phase == "start" and in_parse():
            inside.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(spy)
    try:
        g = parse_graph(text, fmt)
        assert gc.isenabled()
        with pytest.raises(ParseError):
            parse_graph("a b c\n", "edge-list")
        assert gc.isenabled()
        gc.disable()
        parse_graph("a b\n")
        assert not gc.isenabled()
    finally:
        gc.callbacks.remove(spy)
        if was_enabled:
            gc.enable()
    assert g.n == 6001 and g.m == 6000
    assert inside == []


@given(graph_st)
def test_edge_list_round_trip(g):
    assert parse_graph(to_edge_list(g)) == g


def test_round_trip_keeps_labels():
    g = parse_graph("x y\nvertex lonely\n")
    assert parse_graph(to_edge_list(g)).labels == g.labels


def test_round_trip_keeps_edges_whose_first_label_cannot_lead():
    # "#x y" would read as a comment and "vertex a" as a declaration, so
    # such an edge is written led by its other endpoint
    for text in ("vertex #x\nvertex y\ny #x\n", "vertex vertex\na vertex\n"):
        g = parse_graph(text)
        assert g.m == 1
        assert parse_graph(to_edge_list(g)) == g
    assert to_edge_list(parse_graph("vertex #x\nvertex y\ny #x\n")) == (
        "vertex #x\nvertex y\ny #x\n")


@given(graph_st, st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_with_labels_that_cannot_lead(g, seed):
    # an independent set of vertices takes labels that cannot lead a line,
    # so every edge has one endpoint that can; an edge between two of them
    # has no line at all
    rng = random.Random(seed)
    order = rng.sample(range(g.n), g.n)
    bad = []
    for v in order:
        if not any(g.adj[v] >> w & 1 for w in bad):
            bad.append(v)
    names = ["vertex", *(f"#{i}" for i in range(len(bad)))]
    rng.shuffle(names)
    labels = [f"v{v}" for v in range(g.n)]
    for v, name in zip(bad, names):
        labels[v] = name
    h = Graph(g.n, g.edge_pairs(), tuple(labels))
    assert parse_graph(to_edge_list(h)) == h
    if g.m:
        u, v = g.edge_pairs()[0]
        labels[u], labels[v] = "#u", "vertex"
        with pytest.raises(ValueError, match="neither label can lead"):
            to_edge_list(Graph(g.n, g.edge_pairs(), tuple(labels)))


# -- generators --------------------------------------------------------------------

def test_family_shapes():
    assert path_graph(5).m == 4
    assert cycle_graph(6).m == 6
    assert complete_graph(4).m == 6
    kb = complete_bipartite(3, 2)
    assert kb.n == 5 and kb.m == 6 and bipartition(kb) is not None
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_random_graph_is_seed_deterministic():
    a = random_graph(10, 0.3, 42)
    b = random_graph(10, 0.3, 42)
    assert a == b
    assert a != random_graph(10, 0.3, 43)
    with pytest.raises(ValueError):
        random_graph(5, 1.5, 0)


def test_random_bipartite_is_bipartite():
    g = random_bipartite(4, 5, 0.6, 8)
    parts = bipartition(g)
    assert parts is not None
    assert parts.side_a & 0b1111 == parts.side_a or g.m == 0


def test_random_generators_build_what_the_checked_constructor_builds():
    # the generators fill the neighbour lists unchecked, in the pair-scan
    # order whose draws Graph(n, edges) would have validated
    rng = random.Random(18)
    for _ in range(60):
        n, seed = rng.randrange(0, 25), rng.getrandbits(32)
        p = rng.choice([0.0, 0.1, 0.3, 0.5, 1.0])
        draw = random.Random(seed).random
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if draw() < p]
        assert random_graph(n, p, seed) == Graph(n, edges)
        a = rng.randrange(0, 15)
        b = rng.randrange(0, 15)
        draw = random.Random(seed).random
        edges = [(i, a + j) for i in range(a) for j in range(b)
                 if draw() < p]
        assert random_bipartite(a, b, p, seed) == Graph(a + b, edges)


def test_exhaustive_stream_counts_and_uniqueness():
    for n in range(5):
        seen = {g.adj for g in all_graphs(n)}
        assert len(seen) == 1 << (n * (n - 1) // 2)
    with pytest.raises(LimitExceeded):
        next(all_graphs(EXHAUSTIVE_MAX_N + 1))
    with pytest.raises(ValueError, match="n >= 0"):
        next(all_graphs(-1))


def _relabelled_code(g: Graph, perm) -> int:
    """The edge code of g with vertex v renamed perm[v], read off its edges
    with the pair order of all_graphs: (0,1), (0,2), ..., (n-2,n-1)."""
    n = g.n
    code = 0
    for u, v in g.edge_pairs():
        i, j = sorted((perm[u], perm[v]))
        code |= 1 << i * (2 * n - i - 1) // 2 + j - i - 1
    return code


def test_graph_from_code_numbers_the_exhaustive_stream():
    for n in range(6):
        for code, g in enumerate(all_graphs(n)):
            assert _relabelled_code(g, range(n)) == code
            assert graph_from_code(n, code) == g


# graphs on n unlabeled vertices, n = 0..6 (OEIS A000088)
CLASS_COUNTS = [1, 1, 2, 4, 11, 34, 156]


@pytest.mark.parametrize("n", range(len(CLASS_COUNTS)))
def test_orbit_leaders_are_the_smallest_code_of_each_class(n):
    leaders = orbit_leaders(n)
    assert len(leaders) == 1 << n * (n - 1) // 2
    assert len(set(leaders)) == CLASS_COUNTS[n]
    # each leader leads itself and comes first, and swapping two adjacent
    # vertices, which generates every relabelling, keeps the leader; with
    # the class count, the codes of one leader are then exactly one orbit,
    # and the leader is its smallest code
    swaps = [(*range(k), k + 1, k, *range(k + 2, n)) for k in range(n - 1)]
    for code, leader in enumerate(leaders):
        assert leader <= code and leaders[leader] == leader
        g = graph_from_code(n, code)
        for perm in swaps:
            assert leaders[_relabelled_code(g, perm)] == leader
    if n <= 5:
        perms = list(permutations(range(n)))
        for code, leader in enumerate(leaders):
            g = graph_from_code(n, code)
            assert leader == min(_relabelled_code(g, p) for p in perms)


def test_orbit_leaders_bound_the_order_as_the_stream_does():
    with pytest.raises(LimitExceeded):
        orbit_leaders(EXHAUSTIVE_MAX_N + 1)
    with pytest.raises(ValueError, match="n >= 0"):
        orbit_leaders(-1)

