"""The rounding engine's line-graph view against the line graph it stands for.

`LineGraphView` answers the coloring steps from counts of (label, vertex)
and (label, shared vertex pair) keys, plus a correction for each pair of
hyperedges that meet in three or more vertices.
Every answer must equal the one the induced subgraph of `line_graph`
gives: degrees, neighbors, agreement counts, colorings and the errors
the coloring steps raise.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_golden import hub_hypergraph

from hypermatch import coloring, core, generate
from hypermatch.coloring import (
    VertexColoring,
    _apply_step,
    count_defect,
    defective_coloring,
    linial_coloring,
)
from hypermatch.core import (
    LineGraphView,
    build_hypergraph,
    induced_subgraph,
    line_graph,
    validate_matching,
)
from hypermatch.ledger import RoundLedger
from hypermatch.rounding import maximal_matching

EXAMPLES = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def hypergraph_and_support(draw):
    """Up to 15 hyperedges of rank 1-6, some of them parallel, on vertices
    of which a few stay isolated, and all or some of the hyperedges."""
    used = draw(st.integers(1, 8))
    members = st.sets(st.integers(0, used - 1), min_size=1, max_size=min(6, used))
    edges = draw(st.lists(members, max_size=12))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    h = build_hypergraph(used + draw(st.integers(0, 2)), edges)
    support = draw(st.one_of(st.just(range(h.m)), st.sets(st.integers(0, h.m - 1)))) if h.m else ()
    return h, tuple(sorted(support))


def both(h, support):
    """The view and the line-graph restriction it stands for."""
    return LineGraphView(h, support), induced_subgraph(line_graph(h), support)[0]


def outcome(fn, *args, **kwargs):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


@EXAMPLES
@given(hypergraph_and_support(), st.lists(st.integers(0, 3), min_size=18, max_size=18))
def test_counts_match_the_line_graph(case, labels):
    view, sub = both(*case)
    labels = labels[: sub.n]
    assert view.n == sub.n
    assert view.max_degree == sub.max_degree
    degree = view.agreement([0] * view.n)
    same = view.agreement(labels)
    for v in range(sub.n):
        assert view.neighbors(v) == list(sub.adjacency[v])
        assert degree(v) == len(sub.adjacency[v])
        expected = sum(labels[u] == labels[v] for u in sub.adjacency[v])
        assert same(v) == sub.agreement(labels)(v) == expected
    assert count_defect(view, labels) == count_defect(sub, labels)


@EXAMPLES
@given(
    hypergraph_and_support(),
    st.lists(st.integers(0, 5), min_size=18, max_size=18),
    st.sampled_from([0, 1, 3, None]),
)
def test_colorings_match_the_line_graph(case, drawn, defect):
    """Same colors, palettes, ledger records and errors, from id colorings
    and from drawn ones, which are often improper."""
    view, sub = both(*case)
    if defect is None:
        defect = sub.max_degree  # one color
    for initial in (
        VertexColoring(colors=tuple(range(sub.n)), palette_size=max(1, sub.n)),
        VertexColoring(colors=tuple(drawn[: sub.n]), palette_size=6),
    ):
        results = []
        for g in (view, sub):
            ledger = RoundLedger()
            results.append((
                outcome(linial_coloring, g, initial, ledger=ledger),
                outcome(defective_coloring, g, initial, defect, ledger=ledger),
                ledger.as_records(),
            ))
        assert results[0] == results[1]


@EXAMPLES
@given(
    hypergraph_and_support(),
    st.lists(st.integers(0, 10**4), min_size=18, max_size=18),
    st.integers(1, 3),
    st.sampled_from([2, 3, 5, 7, 11]),
    st.integers(0, 3),
)
def test_steps_match_the_line_graph(case, drawn, k, q, defect):
    """One reduction step at any (k, q, defect), including field sizes too
    small for the degree, where both raise that the family is exhausted."""
    view, sub = both(*case)
    colors = [c % q ** (k + 1) for c in drawn[: sub.n]]
    assert outcome(_apply_step, view, colors, k, q, defect) == outcome(
        _apply_step, sub, colors, k, q, defect
    )


def test_parallel_and_rank_one_hyperedges():
    # three copies of {0, 1}, then {1, 2}, {3} and {2}; vertex 4 is isolated
    h = build_hypergraph(5, [{0, 1}, {0, 1}, {0, 1}, {1, 2}, {3}, {2}])
    view = LineGraphView(h, range(h.m))
    assert [view.agreement([0] * 6)(v) for v in range(6)] == [3, 3, 3, 4, 0, 1]
    assert view.neighbors(3) == [0, 1, 2, 5]
    restricted = LineGraphView(h, [0, 2, 4])
    assert (restricted.n, restricted.max_degree, restricted.neighbors(0)) == (3, 1, [1])


@pytest.mark.parametrize("edges", [((0, 1), (), (1, 2)), ((), ())])
def test_an_empty_hyperedge_meets_nothing(edges):
    # only a raw Hypergraph holds one; the builders reject it
    view, sub = both(core.Hypergraph(3, edges), range(len(edges)))
    assert view.max_degree == sub.max_degree
    assert [*map(view.agreement([0] * len(edges)), range(len(edges)))] == list(map(len, sub.adjacency))


def test_graph_edges_count_like_hyperedges():
    g = generate.random_graph(30, 0.2, seed=8)
    view, sub = both(g, range(0, g.m, 2))
    labels = [v % 3 for v in range(sub.n)]
    assert [view.agreement(labels)(v) for v in range(sub.n)] == [
        sub.agreement(labels)(v) for v in range(sub.n)
    ]


@pytest.mark.parametrize("g", ["view", "graph"])
def test_the_improper_pair_is_named_alike(g):
    # hyperedge 1 meets 2 and 3 at vertex 2, and all three have color 2
    h = build_hypergraph(6, [{0, 1}, {1, 2}, {2, 5}, {2, 3}])
    conflict = LineGraphView(h, range(4)) if g == "view" else line_graph(h)
    bad = VertexColoring(colors=(0, 2, 2, 2), palette_size=3)
    with pytest.raises(ValueError, match="^input coloring is improper: nodes 1,2 share 2$"):
        linial_coloring(conflict, initial=bad)


def test_two_large_hubs_build_no_line_graph(monkeypatch):
    """Two hubs of degree 1100 put denom at 2048: the recursion regime.

    Before the view this instance built a 4.45 M-edge line graph and took
    seconds; the engine now never calls `line_graph` or freezes a graph.
    """

    def refuse(*args):
        raise AssertionError("the matching engine built a graph")

    monkeypatch.setattr(core, "line_graph", refuse)
    monkeypatch.setattr(core, "freeze_graph", refuse)
    rng = random.Random(5)
    h = build_hypergraph(1850, [[i % 2, *rng.sample(range(2, 1850), 2)] for i in range(2200)])
    assert h.max_degree == 1100
    ledger = RoundLedger()
    found = maximal_matching(h, ledger)
    assert validate_matching(h, found, require_maximal=True).ok
    labels = [record["label"] for record in ledger.as_records()]
    assert labels[0] == "greedy" and "recursive_round" in labels
    assert ledger.as_records()[0]["rounds"] == 11  # log2(2048)


@pytest.mark.parametrize("case", ["rank-30 plus pairs", "parallel rank-25", "rank-40 plus triples"])
def test_large_overlaps_cost_no_subset_enumeration(case):
    """Hyperedges that share many vertices with others, under both the
    view and `maximal_matching`.  Counting every shared subset would take
    2^25 or more steps on each of these."""
    if case == "rank-30 plus pairs":
        # max degree 2, so the base coloring builds the view of all of it
        edges = [range(30), *([2 * i, 2 * i + 1] for i in range(15))]
    elif case == "parallel rank-25":
        edges = [range(25), range(25), [24, 25]]
    else:
        edges = [range(40), range(40), *([i, i + 1, i + 2] for i in range(0, 39, 3))]
    h = build_hypergraph(41, edges)
    start = time.perf_counter()
    view, sub = both(h, range(h.m))
    assert view.max_degree == sub.max_degree
    degree = view.agreement([0] * h.m)
    assert [degree(v) for v in range(h.m)] == list(map(len, sub.adjacency))
    assert validate_matching(h, maximal_matching(h), require_maximal=True).ok
    assert time.perf_counter() - start < 2.0


def test_hub_matching_builds_one_full_view_and_few_columns(monkeypatch):
    """On the two-hub instance of tests/test_golden.py, a maximal matching
    builds the view of all hyperedges once, which every pass on the
    instance shares, and each of its two defective steps (q = 11) asks
    for the agreement counts of at most 2 points, not of all 11."""
    h = hub_hypergraph()
    init, agreement, step = LineGraphView.__init__, LineGraphView.agreement, coloring._apply_step
    full, asked, columns = [], [0], []

    def recording_init(self, of, support):
        support = list(support)
        full.append(len(support) == of.m)
        init(self, of, support)

    def counting_agreement(self, labels):
        asked[0] += 1
        return agreement(self, labels)

    def recording_step(g, colors, k, q, defect):
        before = asked[0]
        new = step(g, colors, k, q, defect)
        if defect:
            columns.append(asked[0] - before)
        return new

    monkeypatch.setattr(LineGraphView, "__init__", recording_init)
    monkeypatch.setattr(LineGraphView, "agreement", counting_agreement)
    monkeypatch.setattr(coloring, "_apply_step", recording_step)
    ledger = RoundLedger()
    found = maximal_matching(h, ledger)
    assert validate_matching(h, found, require_maximal=True).ok
    assert ledger.total == 1296
    assert full.count(True) == 1
    assert len(columns) == 2 and max(columns) <= 2


def test_a_pair_shared_by_many_hyperedges_keeps_no_correction():
    """d = 300 hyperedges {0, 1, i}, plus pairs {i, i+1} so that every i
    is shared: every two of the triples meet in exactly 2 vertices.  The
    shared pair {0, 1} is one key of its own, so the view keeps no
    hyperedge pair with a correction, where counting the overlaps of all
    hyperedge pairs would keep d(d-1)/2 = 44 850 of them."""
    d = 300
    h = build_hypergraph(d + 3, [*([0, 1, i] for i in range(2, d + 2)), *([i, i + 1] for i in range(2, d + 2))])
    view, sub = both(h, range(h.m))
    assert (view._first, view._second, view._extra) == ([], [], [])
    assert view._pair_code == [0 * h.n + 1] * d  # {0, 1}, once per triple holding it
    assert view.max_degree == sub.max_degree == d + 1  # d - 1 triples and two pairs
    for labels in ([0] * h.m, [i % 3 for i in range(h.m)], [i % 7 == 0 for i in range(h.m)]):
        assert [*map(view.agreement(labels), range(h.m))] == [*map(sub.agreement(labels), range(h.m))]


def test_corrections_are_kept_for_pairs_meeting_in_three_or_more():
    """One correction (t-1)(t-2)/2 per hyperedge pair meeting in t >= 3
    vertices, none for t = 2."""
    h = build_hypergraph(8, [range(6), range(6), [0, 1, 2, 7], [0, 1, 7], [4, 5, 6]])
    view, sub = both(h, range(h.m))
    meets = {(i, j): (t - 1) * (t - 2) // 2 for i in range(h.m) for j in range(i + 1, h.m)
             if (t := len(set(h.edges[i]) & set(h.edges[j]))) >= 3}
    assert meets == {(0, 1): 10, (0, 2): 1, (1, 2): 1, (2, 3): 1}
    assert dict(zip(zip(view._first, view._second), view._extra)) == meets
    labels = [0, 0, 0, 1, 0]
    assert [*map(view.agreement(labels), range(h.m))] == [*map(sub.agreement(labels), range(h.m))]
