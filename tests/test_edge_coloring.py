"""Edge coloring through matching reductions, plus the layered variants."""

import math
from fractions import Fraction

import pytest

from hypermatch import core, edge_coloring, generate
from hypermatch.core import (
    build_graph,
    build_hypergraph,
    validate_edge_coloring,
)
from hypermatch.edge_coloring import (
    EdgeColoringResult,
    HPartition,
    PeelingStallError,
    adjacent_edge_count,
    arboricity_edge_color,
    build_list_edge_instance,
    decode_matching,
    edge_color,
    full_palette_lists,
    h_partition,
    list_edge_color,
    randomized_edge_color,
    reduce_hypergraph_list_edge_coloring,
    validate_h_partition,
)
from hypermatch.oracles import arboricity, enumerate_maximal_matchings


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


def plain_reduction(g):
    """The reduction with every edge listing the whole 2*max_degree - 1 palette."""
    return reduce_hypergraph_list_edge_coloring(
        g, full_palette_lists(g, 2 * g.max_degree - 1)
    )


class TestReduction:
    def test_single_edge_single_copy(self):
        g = build_graph(2, [(0, 1)])
        red = plain_reduction(g)
        assert red.hypergraph.m == 1
        assert red.hypergraph.rank == 3
        assert red.decode[0] == (0, 1)

    def test_triangle_three_copies_per_edge(self):
        g = generate.complete(3)
        red = plain_reduction(g)
        assert red.hypergraph.m == 9
        # the anchor of each edge sits in all three of its copies
        anchors = [red.hypergraph.n - 3 + i for i in range(3)]
        for eid, anchor in enumerate(anchors):
            assert red.hypergraph.degree(anchor) == 3

    def test_path_decodes_every_maximal_matching(self):
        g = generate.path(3)
        red = plain_reduction(g)
        assert red.hypergraph.m == 6
        for mm in enumerate_maximal_matchings(red.hypergraph):
            colors = decode_matching(red, g.m, mm)
            assert validate_edge_coloring(g, colors, palette=3).ok

    def test_decode_rejects_missing_and_doubled_edges(self):
        g = generate.path(3)
        red = plain_reduction(g)
        with pytest.raises(RuntimeError):
            decode_matching(red, g.m, frozenset({0}))
        copies_of_edge_zero = [
            hid for hid, (eid, _) in red.decode.items() if eid == 0
        ]
        with pytest.raises(RuntimeError):
            decode_matching(red, g.m, frozenset(copies_of_edge_zero[:2]))

    def test_list_reduction_single_edge_single_color(self):
        g = build_graph(2, [(0, 1)])
        inst = build_list_edge_instance(g, {0: (7,)})
        red = reduce_hypergraph_list_edge_coloring(g, inst.lists)
        assert red.hypergraph.m == 1
        assert red.decode[0] == (0, 7)
        out = list_edge_color(inst.g, inst.lists)
        assert out.colors == {0: 7}

    def test_list_reduction_path_with_shared_pair(self):
        g = generate.path(3)
        red = reduce_hypergraph_list_edge_coloring(
            g, {0: (1, 2), 1: (1, 2)}
        )
        for mm in enumerate_maximal_matchings(red.hypergraph):
            colors = decode_matching(red, g.m, mm)
            assert colors[0] != colors[1]

    def test_list_reduction_star_always_proper(self):
        g = generate.star(4)
        lists = {eid: (eid + 1, 5, 6) for eid in range(3)}
        red = reduce_hypergraph_list_edge_coloring(g, lists)
        assert red.hypergraph.m == 9
        for mm in enumerate_maximal_matchings(red.hypergraph):
            colors = decode_matching(red, g.m, mm)
            assert validate_edge_coloring(g, colors, lists=lists).ok

    def test_rank_three_list_instance(self):
        h = build_hypergraph(3, [{0, 1, 2}])
        red = reduce_hypergraph_list_edge_coloring(h, {0: (5,)})
        assert red.hypergraph.m == 1
        assert red.hypergraph.rank == 4
        out = list_edge_color(h, {0: (5,)})
        assert out.colors == {0: 5}

    def test_intersecting_rank_three_edges_get_distinct_colors(self):
        h = build_hypergraph(5, [{0, 1, 2}, {2, 3, 4}])
        lists = {0: (1, 2), 1: (1, 2)}
        red = reduce_hypergraph_list_edge_coloring(h, lists)
        for mm in enumerate_maximal_matchings(red.hypergraph):
            colors = decode_matching(red, h.m, mm)
            assert colors[0] != colors[1]

    def test_short_list_rejected(self):
        g = generate.path(3)
        with pytest.raises(ValueError):
            build_list_edge_instance(g, {0: (1,), 1: (1, 2)})

    def test_reduction_size_bounds(self):
        g = generate.random_graph(14, 0.3, seed=13)
        delta = g.max_degree
        red = plain_reduction(g)
        assert red.hypergraph.m == g.m * (2 * delta - 1)
        assert red.hypergraph.n <= 2 * g.n * delta + g.m


class TestEdgeColor:
    def test_triangle_uses_three_colors(self):
        out = edge_color(generate.complete(3))
        assert set(out.colors.values()) <= {1, 2, 3}
        assert out.palette == 3

    def test_star_colors_are_distinct(self):
        g = generate.star(5)
        out = edge_color(g)
        assert len(set(out.colors.values())) == 4
        assert out.palette == 7

    def test_petersen_within_five_colors(self):
        g = petersen()
        out = edge_color(g)
        assert validate_edge_coloring(g, out.colors, palette=5).ok

    def test_empty_graph(self):
        out = edge_color(build_graph(3, []))
        assert out.colors == {}

    def test_adjacent_edge_count(self):
        h = generate.star(4)
        assert adjacent_edge_count(h, 0) == 2
        lonely = build_hypergraph(4, [{0, 1}, {2, 3}])
        assert adjacent_edge_count(lonely, 0) == 0

    def test_tight_lists_on_random_instances(self):
        # every edge gets exactly one more color than it has neighbors
        for seed in (0, 1):
            g = generate.random_graph(10, 0.35, seed=seed)
            lists = {
                eid: tuple(range(10 + eid, 10 + eid + adjacent_edge_count(g, eid) + 1))
                for eid in range(g.m)
            }
            out = list_edge_color(g, lists)
            assert validate_edge_coloring(g, out.colors, lists=lists).ok


class TestRandomized:
    def test_builds_no_line_graph(self, monkeypatch):
        # edge neighbors come from incidence lists
        def refuse(*args):
            raise AssertionError("randomized_edge_color built a line graph")

        g = generate.random_graph(40, 0.1, seed=2)
        expected = randomized_edge_color(g, seed=1)
        monkeypatch.setattr(core, "line_graph", refuse)
        monkeypatch.setattr(core, "_freeze_graph", refuse)
        assert randomized_edge_color(g, seed=1) == expected

    def test_single_edge_colored_in_first_trial(self):
        g = build_graph(2, [(0, 1)])
        out = randomized_edge_color(g, seed=123)
        assert out.stats["colored_in_trials"] == 1
        assert out.colors == {0: 1}

    def test_any_seed_is_proper(self):
        g = generate.random_graph(12, 0.3, seed=3)
        for seed in (0, 7, 991):
            out = randomized_edge_color(g, seed=seed)
            assert validate_edge_coloring(g, out.colors, palette=out.palette).ok

    def test_same_seed_same_coloring(self):
        g = generate.random_graph(12, 0.3, seed=3)
        a = randomized_edge_color(g, seed=42)
        b = randomized_edge_color(g, seed=42)
        assert a.colors == b.colors

    def test_stats_add_up(self):
        g = generate.random_graph(14, 0.25, seed=8)
        out = randomized_edge_color(g, seed=5)
        assert out.stats["total_edges"] == g.m
        assert 0 <= out.stats["colored_in_trials"] <= g.m
        assert out.stats["trial_rounds"] >= 1

    def test_deterministic_finish_colors_what_one_trial_leaves(self, monkeypatch):
        # factor 0 leaves a single trial round, which colors 85 of these
        # 118 edges; the list coloring reduction finishes the rest
        monkeypatch.setattr(edge_coloring, "RANDOM_TRIAL_FACTOR", 0)
        g = generate.random_graph(60, 0.05, seed=0)
        out = randomized_edge_color(g, seed=0)
        assert out.stats["trial_rounds"] == 1
        assert out.stats["colored_in_trials"] < g.m
        assert out.stats["components_finished"] >= 2
        assert out.palette == 2 * g.max_degree - 1
        assert validate_edge_coloring(g, out.colors, palette=out.palette).ok
        again = randomized_edge_color(g, seed=0)
        assert (again.colors, again.stats) == (out.colors, out.stats)


class TestHPartition:
    def test_star_peels_leaves_first(self):
        g = generate.star(6)
        hp = h_partition(g, 1, Fraction(1))
        assert hp.layers[0] == frozenset(range(1, 6))
        assert hp.layers[1] == frozenset({0})
        assert validate_h_partition(g, hp).ok

    def test_edgeless_graph_single_layer(self):
        g = build_graph(4, [])
        hp = h_partition(g, 1, Fraction(1))
        assert hp.layers == (frozenset(range(4)),)

    def test_k4_stalls_on_low_bound(self):
        g = generate.complete(4)
        with pytest.raises(PeelingStallError):
            h_partition(g, 1, Fraction(1, 10))

    def test_validator_spots_broken_layers(self):
        g = generate.star(6)
        hp = h_partition(g, 1, Fraction(1))
        overlap = HPartition(layers=(hp.layers[0], hp.layers[0]), threshold=hp.threshold)
        assert not validate_h_partition(g, overlap).ok
        reversed_layers = HPartition(
            layers=tuple(reversed(hp.layers)), threshold=Fraction(1)
        )
        assert not validate_h_partition(g, reversed_layers).ok


class TestArboricityColor:
    def test_tree_with_degree_four(self):
        edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (2, 7)]
        g = build_graph(8, edges)
        assert g.max_degree == 4
        out = arboricity_edge_color(g, 1, Fraction(1))
        assert validate_edge_coloring(g, out.colors, palette=6).ok

    def test_cycle_within_four_colors(self):
        g = generate.cycle(9)
        out = arboricity_edge_color(g, 1, Fraction(1))
        assert validate_edge_coloring(g, out.colors, palette=4).ok

    def test_k4_with_true_arboricity(self):
        g = generate.complete(4)
        a = arboricity(g)
        assert a == 2
        out = arboricity_edge_color(g, a, Fraction(1))
        limit = g.max_degree + math.ceil((2 + 1) * a) - 1
        assert limit == 8
        assert validate_edge_coloring(g, out.colors, palette=limit).ok

    def test_palette_matches_threshold(self):
        g = generate.cycle(7)
        out = arboricity_edge_color(g, 1, Fraction(1, 2))
        assert out.palette == g.max_degree + math.ceil(Fraction(5, 2)) - 1

    def test_empty_graph(self):
        out = arboricity_edge_color(build_graph(3, []), 1, Fraction(1))
        assert out.colors == {}

    def test_broken_partition_is_a_library_error(self, monkeypatch):
        def reversed_partition(g, bound, eps, ledger=None):
            hp = h_partition(g, bound, eps, ledger)
            return HPartition(layers=tuple(reversed(hp.layers)), threshold=Fraction(1))

        monkeypatch.setattr(edge_coloring, "h_partition", reversed_partition)
        with pytest.raises(RuntimeError, match="H-partition invalid: vertex 0 keeps 5"):
            arboricity_edge_color(generate.star(6), 1, Fraction(1))

    def test_bad_parameters(self):
        g = generate.cycle(5)
        with pytest.raises(ValueError):
            arboricity_edge_color(g, 0, Fraction(1))
        with pytest.raises(ValueError):
            h_partition(g, 1, Fraction(0))


@pytest.mark.parametrize("lists, error", [
    ({0: (1, 2)}, "lists must cover exactly the edge ids 0..m-1"),
    ({0: (1, 2), 1: (1, 2), 2: (1,)}, "lists must cover exactly the edge ids 0..m-1"),
    ({0: (1, 1), 1: (1, 2)}, "edge 0 has a repeated color in its list"),
    ({0: (1, 2), 1: (2, -1)}, "edge 1 has a negative color in its list"),
])
def test_list_errors(lists, error):
    with pytest.raises(ValueError) as exc:
        build_list_edge_instance(generate.path(3), lists)
    assert str(exc.value) == error


def test_full_palette_lists_shape():
    h = generate.path(3)
    lists = full_palette_lists(h, 3)
    assert lists == {0: (1, 2, 3), 1: (1, 2, 3)}


def test_result_type_is_plain_data():
    out = EdgeColoringResult(colors={0: 1}, palette=3, stats={})
    assert out.colors[0] == 1
