"""Text format round trips, including randomized ones."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatch import io
from hypermatch.core import build_graph, build_hypergraph


def test_hypergraph_round_trip():
    h = build_hypergraph(5, [{0, 1, 2}, {2, 3}, {4, 0}])
    text = io.format_hypergraph(h)
    back = io.parse_hypergraph(text)
    assert back.n == h.n
    assert back.edges == h.edges


def test_graph_round_trip():
    g = build_graph(4, [(0, 1), (2, 3), (1, 3)])
    assert io.parse_graph(io.format_graph(g)).edges == g.edges


@pytest.mark.parametrize(
    "text",
    [
        "",
        "hgr x 1 1\n0 1\n",
        "hgr 2 1 2\n",
        "hgr 2 2 2\n0 1\n",
        "hgr 2 1 1\n0 1\n",
        "gr 2 1\n0 1 2\n",
        "gr 2 1\n0\n",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(io.ParseError):
        if text.startswith("gr"):
            io.parse_graph(text)
        else:
            io.parse_hypergraph(text)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (io.parse_graph, "gr 3 2\n0 1\n1 x\n", "edge 1: expected an integer, got 'x'"),
        (io.parse_hypergraph, "hgr 3 2 2\n0 1\n1 2.0\n", "hyperedge 1: expected an integer, got '2.0'"),
        (io.parse_coloring, "0 1\n1 -\n", "color: expected an integer, got '-'"),
        (io.parse_lists, "0: 1 2\n3: 4 y 5\n", "list of 3: expected an integer, got 'y'"),
        (
            lambda text: io.parse_orientation(text, build_graph(3, [(0, 1), (1, 2)])),
            "1 0\nz 1\n",
            "line 1: expected an integer, got 'z'",
        ),
    ],
)
def test_bad_token_names_its_row(parse, text, message):
    with pytest.raises(io.ParseError) as info:
        parse(text)
    assert str(info.value) == message


def test_id_set_and_matching_round_trip():
    ids = frozenset({3, 1, 4})
    assert io.parse_id_set(io.format_id_set(ids)) == ids
    assert io.format_id_set(ids) == "1\n3\n4\n"  # a matching is written as its id set
    assert io.parse_id_set("") == frozenset()


def test_coloring_round_trip():
    colors = {0: 3, 2: 1, 1: 7}
    assert io.parse_coloring(io.format_coloring(colors)) == colors
    with pytest.raises(io.ParseError):
        io.parse_coloring("0 1 2\n")


def test_lists_round_trip():
    lists = {0: (1, 5), 1: (2,), 2: (4, 9, 10)}
    assert io.parse_lists(io.format_lists(lists)) == lists
    with pytest.raises(io.ParseError):
        io.parse_lists("0 1 2\n")


def test_orientation_round_trip():
    g = build_graph(3, [(0, 1), (1, 2)])
    text = io.format_orientation(g.edges, (1, 1))
    assert io.parse_orientation(text, g) == (1, 1)
    # a direction that is not an edge of the graph is rejected
    with pytest.raises(io.ParseError):
        io.parse_orientation("0 2\n1 2\n", g)


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    m = draw(st.integers(min_value=0, max_value=7))
    edges = []
    for _ in range(m):
        size = draw(st.integers(min_value=1, max_value=min(3, n)))
        edges.append(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=size,
                    max_size=size,
                    unique=True,
                )
            )
        )
    return build_hypergraph(n, edges)


@given(hypergraphs())
@settings(max_examples=60, deadline=None)
def test_hypergraph_round_trip_random(h):
    back = io.parse_hypergraph(io.format_hypergraph(h))
    assert back.n == h.n
    assert back.edges == h.edges


@given(st.dictionaries(st.integers(0, 30), st.integers(0, 99), max_size=12))
@settings(max_examples=60, deadline=None)
def test_coloring_round_trip_random(colors):
    assert io.parse_coloring(io.format_coloring(colors)) == colors
