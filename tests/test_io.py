"""Text format round trips, including randomized ones."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatch import generate, io
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


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "missing 'gr <n> <m>' header"),
        ("\n\n", "missing 'gr <n> <m>' header"),
        ("hgr 3 1 2\n0 1\n", "missing 'gr <n> <m>' header"),
        ("gr 3\n", "bad gr header: 'gr 3'"),
        ("gr 3 1 2\n0 1\n", "bad gr header: 'gr 3 1 2'"),
        ("gr x 1\n0 1\n", "header n: expected an integer, got 'x'"),
        ("gr 3 1.0\n0 1\n", "header m: expected an integer, got '1.0'"),
        ("gr 3 2\n0 1\n", "header announces 2 edges, found 1"),
        ("gr 3 1\n0 1\n1 2\n", "header announces 1 edges, found 2"),
        ("gr 3 -1\n", "header announces -1 edges, found 0"),
        ("gr 3 99999999999999\n0 1\n", "header announces 99999999999999 edges, found 1"),
        ("gr 3 1\n0 \n5", "header announces 1 edges, found 2"),
        ("gr 3 1\n0\n", "edge 0: expected 'u v', got '0'"),
        ("gr 3 2\n0 1\n0 1 2\n", "edge 1: expected 'u v', got '0 1 2'"),
        ("gr 3 2\n0 1\n1 x\n", "edge 1: expected an integer, got 'x'"),
        ("gr 3 2\ny 1\n0 1 2\n", "edge 0: expected an integer, got 'y'"),
        ("gr 3 2\n0 1 2\ny 1\n", "edge 0: expected 'u v', got '0 1 2'"),
        ("gr -1 0\n", "vertex count must be >= 0, got -1"),
        ("gr 3 2\n0 1\n2 2\n", "edge 1 is a self-loop at 2"),
        ("gr 3 1\n0 3\n", "edge 0 = (0,3) outside 0..2"),
        ("gr 3 1\n3 0\n", "edge 0 = (3,0) outside 0..2"),
        ("gr 3 1\n-1 2\n", "edge 0 = (-1,2) outside 0..2"),
        ("gr 3 2\n0 1\n0 1\n", "edge 1 duplicates (0, 1)"),
        ("gr 3 2\n0 1\n1 0\n", "edge 1 duplicates (0, 1)"),
        ("gr 3 3\n0 1\n2 5\n1 1\n", "edge 1 = (2,5) outside 0..2"),
        ("gr 4 4\n0 1\n1 2\n2 3\n3 2\n", "edge 3 duplicates (2, 3)"),
        ("gr 3 2\r\n0 1\r\n1\t0\r\n", "edge 1 duplicates (0, 1)"),
    ],
)
def test_parse_graph_messages(text, message):
    with pytest.raises(io.ParseError) as info:
        io.parse_graph(text)
    assert str(info.value) == message


@st.composite
def edge_lists(draw):
    """Pairs on up to 8 nodes, sometimes with one bad edge spliced in."""
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    bad = st.sampled_from([(0, 0), (n - 1, n - 1), (0, n), (n, 1), (n + 3, n + 3)])
    if edges:
        bad = bad | st.sampled_from(edges + [(v, u) for u, v in edges])
    if draw(st.booleans()):
        edges.insert(draw(st.integers(0, len(edges))), draw(bad))
    return n, edges


def _perturb(draw, text):
    """The same rows with blank lines, tabs, CRLF and padding spaces."""
    blank = st.sampled_from(["", " ", "\t", " \t "])
    gap = st.sampled_from([" ", "\t", "  ", " \t"])
    pad = st.sampled_from(["", " ", "\t"])
    out = []
    for line in text.splitlines():
        out.extend(draw(blank) for _ in range(draw(st.integers(0, 2))))
        first, *rest = line.split(" ")
        out.append(draw(pad) + first + "".join(draw(gap) + t for t in rest) + draw(pad))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(out) + draw(st.sampled_from(["", end, end + end]))


def _outcome(parse, text):
    try:
        return parse(text)
    except io.ParseError as exc:
        return str(exc)


@given(edge_lists(), st.data())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_graph_text_layout_does_not_change_the_parse(case, data):
    n, edges = case
    text = f"gr {n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    expected = _outcome(io.parse_graph, text)
    assert _outcome(io.parse_graph, _perturb(data.draw, text)) == expected
    if isinstance(expected, str):
        with pytest.raises(ValueError) as info:
            build_graph(n, edges)
        assert str(info.value) == expected
    else:
        assert expected == build_graph(n, edges)
        assert io.parse_graph(io.format_graph(expected)) == expected


@pytest.mark.parametrize(
    "text",
    [
        "gr 3 2\n+0 1\n1 +2\n",
        "gr 3 2\n00 01\n001 2\n",
        "gr 3 2\n0 1\n1 0_2\n",
        "gr 3 2\n0 ١\n1 2\n",
        "gr 03 2\n0 1\n1 2\n",
        "gr 3 2\n0 1\n1 2",
        "gr 3 2\n\n0 1\n1 2\n\n",
        "gr\t3 2\n0 1\n1 2\n",
        " gr 3 2\n0 1\n1 2\n",
    ],
)
def test_noncanonical_graph_text_parses_like_canonical(text):
    assert io.parse_graph(text) == build_graph(3, [(0, 1), (1, 2)])


def test_canonical_graph_text_is_read_without_the_row_scan(monkeypatch):
    g = generate.random_graph(30, 0.3, seed=1)
    text = io.format_graph(g)

    def refuse(text):
        raise AssertionError("canonical text needs no row scan")

    monkeypatch.setattr(io, "_tokenize", refuse)
    assert io.parse_graph(text) == g
    with pytest.raises(io.ParseError, match="edge 2 duplicates"):
        io.parse_graph("gr 4 3\n0 1\n2 3\n0 1\n")


@pytest.mark.parametrize("parse, text, error", [
    (io.parse_hypergraph, "hgr 3 1\n0 1\n", "bad hgr header: 'hgr 3 1'"),
    (io.parse_hypergraph, "hgr 3 1 2\n1 1\n", "hyperedge 0 repeats a vertex: [1, 1]"),
    (io.parse_hypergraph, "hgr 3 1 2\n5 -1\n", "hyperedge 0 uses vertex 5 outside 0..2"),
    (io.parse_id_set, "0 1\n", "expected one id per line, got '0 1'"),
    (io.parse_id_set, "1\n1\n", "duplicate id in set"),
    (io.parse_coloring, "0 1\n0 2\n", "id 0 colored twice"),
    (io.parse_lists, "0: 1 2\n0: 3\n", "id 0 listed twice"),
    (io.parse_lists, "0: 1 1\n", "list of 0 repeats a color"),
    (lambda text: io.parse_orientation(text, generate.path(3)), "0 1\n",
     "expected 2 directed edges, found 1"),
    (lambda text: io.parse_orientation(text, generate.path(3)), "0 1 2\n1 2\n",
     "line 0: expected '<tail> <head>'"),
])
def test_parse_error_messages(parse, text, error):
    with pytest.raises(io.ParseError) as exc:
        parse(text)
    assert str(exc.value) == error
