import pickle
import random

import pytest
from hypothesis import given, strategies as st

import oracles as o
from conftest import adj_of, random_sample
from critset.graphs import (EXHAUSTIVE_MAX_N, Graph, LimitExceeded,
                            ParseError, all_graphs, bipartition,
                            complete_bipartite, complete_graph, cycle_graph,
                            delete_edge, delete_vertices, difference,
                            empty_graph, generate, induced, is_independent,
                            neighborhood, parse_graph, path_graph,
                            random_bipartite, random_graph, to_edge_list)

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
    assert neighborhood(g, 0b011, closed=True) == 0b111
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
    h, idmap = induced(g, 0b00111)
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


@given(graph_st)
def test_edge_list_round_trip(g):
    assert parse_graph(to_edge_list(g)) == g


def test_round_trip_keeps_labels():
    g = parse_graph("x y\nvertex lonely\n")
    assert parse_graph(to_edge_list(g)).labels == g.labels


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


def test_exhaustive_stream_counts_and_uniqueness():
    for n in range(5):
        seen = {g.adj for g in all_graphs(n)}
        assert len(seen) == 1 << (n * (n - 1) // 2)
    with pytest.raises(LimitExceeded):
        next(all_graphs(EXHAUSTIVE_MAX_N + 1))


def test_generate_descriptors():
    assert generate("P5") == path_graph(5)
    assert generate("C6") == cycle_graph(6)
    assert generate("K4") == complete_graph(4)
    assert generate("K3,2") == complete_bipartite(3, 2)
    assert generate("gnp:n=10,p=0.3,seed=42") == random_graph(10, 0.3, 42)
    assert len(list(generate("all:n=3"))) == 8
    for bad in ["Q5", "gnp:n=3", "wat:x=1", "K"]:
        with pytest.raises((ValueError, KeyError)):
            generate(bad)
