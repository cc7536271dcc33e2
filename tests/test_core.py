"""Data model and validator behavior on small hand-checked instances."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import hub_hypergraph

from hypermatch import core, generate, packing, rounding
from hypermatch.audit import ball
from hypermatch.core import (
    FractionalAssignment,
    Hypergraph,
    _freeze_graph,
    build_fractional_assignment,
    build_graph,
    build_hypergraph,
    induced_subgraph,
    induced_subhypergraph,
    is_dyadic,
    is_power_of_two,
    line_graph,
    next_power_of_two,
    unblocked_edges,
    validate_edge_coloring,
    validate_fractional_matching,
    validate_independent_set,
    validate_matching,
    validate_vertex_coloring,
)
from hypermatch.edge_coloring import full_palette_lists, list_edge_color
from hypermatch.ledger import RoundLedger
from hypermatch.oracles import max_matching
from hypermatch.rounding import approx_max_matching, maximal_matching


def triangle():
    return build_hypergraph(3, [{0, 1}, {1, 2}, {0, 2}])


def vertex_loads(h, x):
    """Per-vertex sum of the values of the hyperedges holding it."""
    loads = [Fraction(0)] * h.n
    for eid, val in x.values.items():
        for v in h.edges[eid]:
            loads[v] += val
    return loads


def test_power_of_two_helpers():
    assert [is_power_of_two(k) for k in (1, 2, 3, 4, 6, 8)] == [
        True, True, False, True, False, True,
    ]
    assert next_power_of_two(0) == 1
    assert next_power_of_two(1) == 1
    assert next_power_of_two(5) == 8
    assert next_power_of_two(8) == 8
    assert is_dyadic(Fraction(3, 8))
    assert not is_dyadic(Fraction(1, 3))


def test_build_hypergraph_single_edge():
    h = build_hypergraph(3, [{0, 1, 2}])
    assert h.rank == 3
    assert h.max_degree == 1
    assert h.m == 1


def test_build_hypergraph_triangle():
    h = triangle()
    assert h.rank == 2
    assert h.max_degree == 2
    assert h.incidence[1] == (0, 1)


def test_build_hypergraph_parallel_edges_keep_ids():
    h = build_hypergraph(2, [{0, 1}, {0, 1}])
    assert h.m == 2
    assert h.max_degree == 2
    assert h.edges[0] == h.edges[1]


@pytest.mark.parametrize(
    "n,edges",
    [
        (2, [[]]),
        (3, [[0, 0, 1]]),
        (2, [[0, 2]]),
        (-1, []),
    ],
)
def test_build_hypergraph_rejects_bad_input(n, edges):
    with pytest.raises(ValueError):
        build_hypergraph(n, edges)


def test_every_edge_is_an_ascending_tuple():
    h = build_hypergraph(10, [{9, 3}, [7, 2, 5], (1,), range(4)])
    assert h.edges == ((3, 9), (2, 5, 7), (1,), (0, 1, 2, 3))
    sub, _ = induced_subhypergraph(generate.cycle(4), [3, 0])
    assert sub.edges == ((0, 1), (0, 3))


@pytest.mark.parametrize("edges, error", [
    ([[0, 1], []], "hyperedge 1 is empty"),
    ([[9, 3, 9]], "hyperedge 0 repeats a vertex: [3, 9, 9]"),
    ([[3, 12, -1]], "hyperedge 0 uses vertex 12 outside 0..9"),  # the first in input order
])
def test_build_hypergraph_messages(edges, error):
    with pytest.raises(ValueError) as exc:
        build_hypergraph(10, edges)
    assert str(exc.value) == error


def test_matching_verdict_names_the_smallest_shared_vertex():
    # a frozenset {3, 4, 9} iterates 9 first
    h = build_hypergraph(10, [{3, 9}, {9, 3, 4}])
    assert validate_matching(h, frozenset({0, 1})).reason == "edges 0 and 1 share vertex 3"


def test_build_graph_normalizes_and_rejects():
    g = build_graph(4, [(2, 0), (1, 3)])
    assert g.edges == ((0, 2), (1, 3))
    with pytest.raises(ValueError):
        build_graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        build_graph(2, [(0, 5)])


def _reference_build_graph(n, edges):
    """``build_graph`` as a plain per-edge scan with a set of seen keys."""
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    norm, seen = [], set()
    adjacency = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        if u == v:
            raise ValueError(f"edge {eid} is a self-loop at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {eid} = ({u},{v}) outside 0..{n - 1}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"edge {eid} duplicates {key}")
        seen.add(key)
        norm.append(key)
        adjacency[u].append(v)
        adjacency[v].append(u)
    return norm, [sorted(a) for a in adjacency]


@pytest.mark.parametrize("n, edges, message", [
    (-1, [], "vertex count must be >= 0, got -1"),
    (-2, [(0, 1)], "vertex count must be >= 0, got -2"),
    (3, [(0, 1), (2, 2)], "edge 1 is a self-loop at 2"),
    (3, [(5, 5)], "edge 0 is a self-loop at 5"),
    (3, [(0, 3)], "edge 0 = (0,3) outside 0..2"),
    (3, [(3, 0)], "edge 0 = (3,0) outside 0..2"),
    (3, [(-1, 0)], "edge 0 = (-1,0) outside 0..2"),
    (3, [(1, -3)], "edge 0 = (1,-3) outside 0..2"),
    (0, [(0, 1)], "edge 0 = (0,1) outside 0..-1"),
    (3, [(0, 1), (0, 1)], "edge 1 duplicates (0, 1)"),
    (3, [(0, 1), (1, 0)], "edge 1 duplicates (0, 1)"),
    (3, [(2, 1), (1, 2)], "edge 1 duplicates (1, 2)"),
    # with two faults, the first in input order wins
    (3, [(0, 1), (2, 5), (1, 1)], "edge 1 = (2,5) outside 0..2"),
    (3, [(1, 1), (0, 9)], "edge 0 is a self-loop at 1"),
    (4, [(0, 1), (1, 0), (3, 3)], "edge 1 duplicates (0, 1)"),
    (4, [(0, 1), (2, 3), (0, 7), (3, 2)], "edge 2 = (0,7) outside 0..3"),
    # the fault on the last edge
    (4, [(0, 1), (1, 2), (2, 3), (3, 2)], "edge 3 duplicates (2, 3)"),
    (4, [(0, 1), (1, 2), (2, 3), (3, 4)], "edge 3 = (3,4) outside 0..3"),
])
def test_build_graph_messages(n, edges, message):
    for given_edges in (edges, iter(edges), (e for e in edges)):
        with pytest.raises(ValueError) as info:
            build_graph(n, given_edges)
        assert str(info.value) == message


@given(
    st.integers(min_value=-1, max_value=7),
    st.lists(st.tuples(st.integers(-2, 8), st.integers(-2, 8)), max_size=14),
)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_build_graph_matches_the_per_edge_scan(n, edges):
    try:
        norm, adjacency = _reference_build_graph(n, edges)
    except ValueError as exc:
        expected = str(exc)
    else:
        expected = None
    for given_edges in (edges, iter(edges), (e for e in edges)):
        try:
            g = build_graph(n, given_edges)
        except ValueError as exc:
            assert str(exc) == expected
            continue
        assert expected is None
        assert g.edges == tuple(norm)
        assert g.adjacency == tuple(map(tuple, adjacency))


def test_build_graph_takes_pairs_of_any_kind():
    g = build_graph(4, [[2, 0], (1, 3), iter((3, 2))])
    assert g.edges == ((0, 2), (1, 3), (2, 3))
    assert all(type(e) is tuple for e in g.edges)
    with pytest.raises(ValueError, match="edge 1 duplicates"):
        build_graph(4, [[2, 0], [0, 2]])
    with pytest.raises(ValueError, match="too many values"):
        build_graph(4, [(0, 1), (1, 2, 3)])


def test_build_graph_checks_valid_tuples_in_bulk(monkeypatch):
    def refuse(n, pairs):
        raise AssertionError("valid tuples need no per-edge scan")

    monkeypatch.setattr(core, "_scan_edges", refuse)
    pairs = [(0, 2), (1, 3), (3, 2)]
    g = build_graph(4, iter(pairs))
    assert g.edges == ((0, 2), (1, 3), (2, 3))
    assert g.edges[0] is pairs[0] and g.edges[1] is pairs[1]  # stored as given


def test_line_graph_single_hyperedge_is_isolated_vertex():
    lg = line_graph(build_hypergraph(3, [{0, 1, 2}]))
    assert lg.n == 1
    assert lg.m == 0


def test_line_graph_of_star_is_complete():
    h = build_hypergraph(4, [{0, 1}, {0, 2}, {0, 3}])
    lg = line_graph(h)
    assert lg.n == 3
    assert lg.m == 3  # all pairs meet at the center


def test_line_graph_path_plus_isolated():
    h = build_hypergraph(8, [{0, 1, 2}, {2, 3, 4}, {5, 6, 7}])
    lg = line_graph(h)
    assert lg.edges == ((0, 1),)


def _rank_two_results(h):
    """What the hypergraph algorithms make of h, with their ledger records."""
    ledger = RoundLedger()
    colored = list_edge_color(h, full_palette_lists(h, 2 * h.max_degree - 1), ledger)
    return {
        "maximal": maximal_matching(h, ledger),
        "approx": approx_max_matching(h, ledger),
        "colors": colored.colors,
        "proper": validate_edge_coloring(h, colored.colors),
        "optimum": max_matching(h),
        "line_graph": line_graph(h),
        "balls": [ball(h, v, 2) for v in range(h.n)],
        "ledger": ledger.as_records(),
    }


@pytest.mark.parametrize("g", [
    generate.cycle(5),
    generate.star(6),
    generate.random_graph(12, 0.25, seed=3),
    generate.random_graph(16, 0.15, seed=8),
    build_graph(4, []),
], ids=["cycle5", "star6", "random12", "random16", "edgeless"])
def test_graph_is_a_rank_two_hypergraph(g):
    assert isinstance(g, Hypergraph)
    assert g.rank == (2 if g.m else 0)
    h = build_hypergraph(g.n, g.edges)
    assert (h.rank, h.max_degree, h.incidence) == (g.rank, g.max_degree, g.incidence)
    assert _rank_two_results(g) == _rank_two_results(h)


def test_matching_validation_on_triangle():
    h = triangle()
    assert validate_matching(h, frozenset({0}), require_maximal=True).ok
    bad = validate_matching(h, frozenset({0, 1}))
    assert not bad.ok
    assert "share vertex 1" in bad.reason


def test_matching_validation_flags_missed_edge():
    h = build_hypergraph(4, [{0, 1}, {2, 3}])
    verdict = validate_matching(h, frozenset({0}), require_maximal=True)
    assert not verdict.ok
    assert "edge 1" in verdict.reason


def test_fractional_assignment_builder():
    x = build_fractional_assignment(
        {0: Fraction(1, 2), 1: Fraction(0)}, Fraction(1, 4)
    )
    assert x.support() == (0,)
    assert x.get(1) == 0
    assert x.total() == Fraction(1, 2)
    with pytest.raises(ValueError, match="^value of item 0 is not dyadic: 1/3$"):
        build_fractional_assignment({0: Fraction(1, 3)}, Fraction(1, 4))
    with pytest.raises(ValueError, match=r"^value of item 0 outside \[1/4, 1\]: 1/8$"):
        build_fractional_assignment({0: Fraction(1, 8)}, Fraction(1, 4))
    with pytest.raises(ValueError):
        build_fractional_assignment({}, Fraction(0))


def test_fractional_validation_zero_assignment():
    h = triangle()
    x = FractionalAssignment(values={})
    verdict = validate_fractional_matching(h, x)
    assert verdict.ok
    assert verdict.half_tight == frozenset()


def test_fractional_validation_half_on_triangle():
    h = triangle()
    x = build_fractional_assignment(
        {eid: Fraction(1, 2) for eid in range(3)}, Fraction(1, 2)
    )
    verdict = validate_fractional_matching(h, x)
    assert verdict.ok
    assert verdict.half_tight == frozenset({0, 1, 2})
    assert vertex_loads(h, x) == [Fraction(1)] * 3


def test_fractional_validation_overloaded_center():
    # four edges at one center carrying 1/3 each: the center sums to 4/3
    h = build_hypergraph(5, [{0, 1}, {0, 2}, {0, 3}, {0, 4}])
    x = FractionalAssignment(values={eid: Fraction(1, 3) for eid in range(4)})
    verdict = validate_fractional_matching(h, x)
    assert not verdict.ok
    assert "vertex 0" in verdict.reason


# Dyadic values, and non-dyadic, zero, negative and > 1 ones.
ANY_VALUES = st.dictionaries(
    st.integers(-1, 9),
    st.one_of(
        st.sampled_from([Fraction(k, 1 << j) for j in range(5) for k in range(1, (1 << j) + 1)]),
        st.fractions(min_value=-1, max_value=Fraction(5, 4), max_denominator=12),
    ),
    max_size=8,
)


@given(ANY_VALUES)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_an_assignment_holds_numerators_over_the_lcm(values):
    x = FractionalAssignment(values=values)
    assert x.scale == math.lcm(*(val.denominator for val in values.values()))
    assert list(x.nums) == list(values)
    assert all(Fraction(x.nums[i], x.scale) == val for i, val in values.items())
    assert x.values == values and list(x.values) == list(values)
    for i in range(-2, 11):
        assert x.get(i) == values.get(i, 0)
    assert x.total() == sum(values.values(), Fraction(0))
    assert x.support() == tuple(sorted(values))
    assert repr(x) == f"FractionalAssignment(values={values!r})"
    for back in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert back == x and repr(back) == repr(x)
        assert (dict(back.nums), back.scale) == (dict(x.nums), x.scale)


def test_an_engine_output_keeps_its_scale_and_equals_its_reduced_values():
    x = rounding.greedy_fractional_matching(build_hypergraph(3, [{0, 1}, {1, 2}]), 8)
    assert (dict(x.nums), x.scale) == ({0: 2, 1: 2}, 8)
    plain = FractionalAssignment(values={0: Fraction(1, 4), 1: Fraction(1, 4)})
    assert plain.scale == 4
    assert x == plain and repr(x) == repr(plain)
    assert x != FractionalAssignment(values={0: Fraction(1, 4)})
    assert x != FractionalAssignment(values={0: Fraction(1, 4), 1: Fraction(1, 8)})
    for name in ("nums", "scale", "values"):
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(plain, name))
    with pytest.raises(TypeError):
        x.nums[0] = 4
    with pytest.raises(TypeError):
        hash(x)


def test_unblocked_edges():
    h = triangle()
    assert unblocked_edges(h, frozenset()) == frozenset({0, 1, 2})
    assert unblocked_edges(h, frozenset({0})) == frozenset()


def test_induced_subhypergraph_maps_ids():
    h = build_hypergraph(6, [{0, 1}, {2, 3}, {4, 5}])
    sub, old = induced_subhypergraph(h, [2, 0])
    assert old == (0, 2)
    assert sub.m == 2
    assert sub.n == h.n
    assert sub.edges[1] == (4, 5)


def test_induced_subhypergraph_rejects_unknown_edges():
    h = build_hypergraph(6, [{0, 1}, {2, 3}, {4, 5}])
    for keep in ([-1], [3], [0, 3], [-1, 1]):
        with pytest.raises(ValueError, match="outside 0..2"):
            induced_subhypergraph(h, keep)


def test_induced_subhypergraph_keeping_every_edge_is_h():
    for h in [generate.cycle(6), generate.random_hypergraph(12, 16, 3, seed=5),
              build_hypergraph(3, [])]:
        sub, kept = induced_subhypergraph(h, reversed(range(h.m)))
        assert sub is h
        assert kept == tuple(range(h.m))
        # the matching driver's first step runs on h itself, which must give
        # the matching and ledger of a rebuilt copy
        copy = build_hypergraph(h.n, [sorted(e) for e in h.edges])
        own, rebuilt = RoundLedger(), RoundLedger()
        assert maximal_matching(h, own) == maximal_matching(copy, rebuilt)
        assert own.as_records() == rebuilt.as_records()


def test_induced_subgraph_relabels():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    sub, old = induced_subgraph(g, [1, 2, 4])
    assert old == (1, 2, 4)
    assert sub.n == 3
    assert sub.edges == ((0, 1),)


def _fields(g):
    return (g.n, g.edges, g.incidence, g.adjacency, g.rank, g.max_degree)


def _hypergraphs():
    """Edge cases first, then seeded random hypergraphs of rank 1 to 4."""
    yield build_hypergraph(0, [])
    yield build_hypergraph(4, [])
    yield build_hypergraph(3, [{0}, {0}, {2}])
    yield build_hypergraph(6, [{0, 1, 2}, {0, 1, 2}, {3, 4}, {4, 3}])
    yield generate.cycle(6)
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 12)
        rank = rng.randint(1, min(4, n))
        yield build_hypergraph(n, [
            rng.sample(range(n), rng.randint(1, rank)) for _ in range(rng.randint(0, 20))
        ])


def test_line_graph_equals_the_validated_build():
    for h in _hypergraphs():
        pairs = {
            (a, b) for inc in h.incidence for i, a in enumerate(inc) for b in inc[i + 1:]
        }
        assert _fields(line_graph(h)) == _fields(build_graph(h.m, sorted(pairs)))


def test_induced_subgraph_equals_the_validated_build():
    rng = random.Random(12)
    # a cycle lists its closing edge (0, n-1) last; a proper subgraph
    # numbers its edges in lexicographic order
    for g in [generate.cycle(6), *map(line_graph, _hypergraphs())]:
        for keep in ([], rng.sample(range(g.n), g.n // 2), range(1, g.n)):
            sub, kept = induced_subgraph(g, keep)
            assert kept == tuple(sorted(keep))
            pos = {v: i for i, v in enumerate(kept)}
            pairs = sorted((pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos)
            assert _fields(sub) == _fields(build_graph(len(kept), pairs))
        assert induced_subgraph(g, range(g.n))[0] is g


def test_induced_subgraph_rejects_unknown_nodes():
    g = generate.path(4)
    for keep in ([0, 4], [-1, 2]):
        with pytest.raises(ValueError):
            induced_subgraph(g, keep)


def _incidence_from_edges(h):
    pairs = sorted((v, eid) for eid, members in enumerate(h.edges) for v in members)
    incidence = [[] for _ in range(h.n)]
    for v, eid in pairs:
        incidence[v].append(eid)
    return tuple(map(tuple, incidence))


def test_incidence_is_derived_on_first_read(monkeypatch):
    """The packing side reads only the adjacency of a graph, so the input
    graph and its support restrictions build no incidence lists, and
    maximal matching builds no line graph to hold any; where incidence is
    read, it equals the lists derived from ``edges``."""
    rng = random.Random(13)
    g = build_graph(60, rng.sample([(u, v) for u in range(60) for v in range(u + 1, 60)], 150))
    restrictions = []

    def recording(graph, keep):
        sub, kept = induced_subgraph(graph, keep)
        restrictions.append(sub)
        return sub, kept

    monkeypatch.setattr(packing, "induced_subgraph", recording)
    packing.maximal_independent_set(g, 2)
    # a packing on the even nodes: its rounding colors their restriction
    denom = next_power_of_two(g.max_degree + 1)
    floor = Fraction(1, denom)
    x = build_fractional_assignment(dict.fromkeys(range(0, 60, 2), floor), floor)
    packing.basic_round_packing(g, x, denom, denom, 2)
    sub = next(sub for sub in restrictions if sub is not g)
    assert "incidence" not in vars(g) and "incidence" not in vars(sub)
    assert sub.incidence == _incidence_from_edges(sub)
    h = hub_hypergraph()
    maximal_matching(h)
    assert set(vars(h)) == {"n", "edges", "incidence", "rank", "max_degree"}
    assert vars(h)["incidence"] == _incidence_from_edges(h)


def test_derived_views_stay_out_of_equality_and_copies():
    h = build_hypergraph(4, [{0, 1, 2}, {2, 3}, {1, 3}])
    fresh = build_hypergraph(4, [{0, 1, 2}, {2, 3}, {1, 3}])
    lg = line_graph(h)
    assert h == fresh and hash(h) == hash(fresh) and repr(h) == repr(fresh)
    for back in (pickle.loads(pickle.dumps(h)), copy.deepcopy(h)):
        assert back == h and back.incidence == h.incidence
        assert line_graph(back) == lg
    # pickles and copies hold the stored fields only; the views are rebuilt,
    # and a line graph is built anew on each call, never kept
    hub = hub_hypergraph()
    size = len(pickle.dumps(hub))
    views = ("incidence", "rank", "max_degree")
    assert (line_graph(hub).m, hub.rank, hub.max_degree) == (271756, 3, 520)
    assert set(vars(hub)) == {"n", "edges", *views}
    assert len(pickle.dumps(hub)) == size
    for back in (pickle.loads(pickle.dumps(hub)), copy.deepcopy(hub)):
        assert set(vars(back)) == {"n", "edges"}
        assert back == hub and (back.rank, back.max_degree) == (3, 520)
    assert (lg.rank, lg.max_degree, len(lg.incidence)) == (2, 2, 3)
    assert set(vars(copy.deepcopy(lg))) == {"n", "edges", "adjacency"}


@pytest.mark.parametrize("adjacency, what", [
    ([[2, 1], [0], [0]], "ascending"),
    ([[1, 1], [0]], "ascending"),
    ([[1], [0, 2]], "ascending"),
    ([[-1], []], "ascending"),
    ([[0]], "itself"),
    ([[1, 2], [0, 1], [0]], "itself"),
    ([[1], []], "symmetric"),
    ([[], [0]], "symmetric"),
    # every list has as many ids above as below its node, yet 1 misses 2
    ([[2], [], [1]], "symmetric"),
], ids=["descending", "repeat", "range", "negative", "loop", "loop-mid",
        "one-way-up", "one-way-down", "balanced-counts"])
def test_freeze_graph_rejects_broken_lists(adjacency, what):
    with pytest.raises(RuntimeError, match=what):
        _freeze_graph(adjacency)


def test_derived_graphs_never_call_build_graph(monkeypatch):
    def refuse(n, edges):
        raise AssertionError("build_graph is for outside input only")

    monkeypatch.setattr(core, "build_graph", refuse)
    monkeypatch.setattr(packing, "build_graph", refuse)
    # the two-hub instance of tests/test_golden.py: a 271 756-edge line graph,
    # and the views of it that its maximal matching colors
    hub = hub_hypergraph()
    assert line_graph(hub).m == 271756
    assert validate_matching(hub, maximal_matching(hub), require_maximal=True).ok
    h = generate.random_hypergraph(60, 120, 3, seed=4)
    assert validate_matching(h, maximal_matching(h), require_maximal=True).ok
    g = line_graph(h)
    found = packing.maximal_independent_set(g, 3)
    assert validate_independent_set(g, found, require_maximal=True).ok


def test_independent_set_validation():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert validate_independent_set(g, frozenset({0, 2})).ok
    assert not validate_independent_set(g, frozenset({0, 1})).ok
    missed = validate_independent_set(g, frozenset({0}), require_maximal=True)
    assert not missed.ok
    assert "could be added" in missed.reason
    assert validate_independent_set(g, frozenset({0, 2}), require_maximal=True).ok


def test_edge_coloring_validation():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    good = {0: 1, 1: 2, 2: 3}
    assert validate_edge_coloring(g, good, palette=3).ok
    conflict = validate_edge_coloring(g, {0: 1, 1: 1, 2: 2})
    assert not conflict.ok
    assert "share color 1" in conflict.reason
    assert not validate_edge_coloring(g, {0: 1, 1: 2}).ok
    assert not validate_edge_coloring(g, good, palette=2).ok
    assert not validate_edge_coloring(g, good, lists={0: (1,), 1: (2,), 2: (9,)}).ok


def test_edge_coloring_validation_on_rank_three_hypergraph():
    h = build_hypergraph(5, [{0, 1, 2}, {2, 3, 4}, {0, 3}])
    lists = {0: (1, 2), 1: (1, 2), 2: (3,)}
    assert validate_edge_coloring(h, {0: 1, 1: 2, 2: 3}, lists=lists).ok
    clash = validate_edge_coloring(h, {0: 1, 1: 1, 2: 3}, lists=lists)
    assert not clash.ok
    assert "at vertex 2 share color 1" in clash.reason
    off_list = validate_edge_coloring(h, {0: 1, 1: 2, 2: 4}, lists=lists)
    assert not off_list.ok
    assert "not on its list" in off_list.reason


def test_vertex_coloring_validation():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert validate_vertex_coloring(g, [1, 2, 1]).ok
    assert not validate_vertex_coloring(g, [1, 1, 2]).ok
    assert not validate_vertex_coloring(g, [1, 2]).ok
    lists = {0: (1, 2), 1: (2, 3), 2: (1, 3)}
    assert validate_vertex_coloring(g, [1, 2, 3], lists).ok
    assert not validate_vertex_coloring(g, [2, 3, 2], {0: (2,), 1: (3,), 2: (9,)}).ok
