"""Greedy packings, their rounding, independent sets and node coloring."""

from fractions import Fraction

import pytest
from helpers import closed_loads

from hypermatch import generate, packing
from hypermatch.core import (
    FractionalAssignment,
    build_fractional_assignment,
    build_graph,
    validate_independent_set,
    validate_vertex_coloring,
)
from hypermatch.ledger import RoundLedger
from hypermatch.oracles import max_independent_set, neighborhood_independence
from hypermatch.packing import (
    approx_mis,
    basic_round_packing,
    initial_packing,
    maximal_independent_set,
    recursive_round_packing,
    verify_greedy_packing,
    vertex_color,
)

HALF = Fraction(1, 2)


class TestVerify:
    def test_all_zero_values_pass(self):
        g = generate.cycle(4)
        assert verify_greedy_packing(g, build_fractional_assignment({}, HALF)).ok

    def test_single_node_full_value(self):
        g = build_graph(1, [])
        p = build_fractional_assignment({0: Fraction(1)}, HALF)
        assert verify_greedy_packing(g, p).ok

    def test_triangle_of_ones_fails_every_order(self):
        import itertools

        g = generate.complete(3)
        for order in itertools.permutations(range(3)):
            p = build_fractional_assignment({v: Fraction(1) for v in order}, HALF)
            assert not verify_greedy_packing(g, p).ok

    def test_value_order_is_the_witness(self):
        # a star's center fits before its leaves, not after both of them
        g = generate.star(3)
        early = build_fractional_assignment({0: HALF, 1: HALF, 2: HALF}, HALF)
        assert verify_greedy_packing(g, early).ok
        late = build_fractional_assignment({1: HALF, 2: HALF, 0: HALF}, HALF)
        verdict = verify_greedy_packing(g, late)
        assert verdict.reason == "vertex 0 exceeds its prefix budget: 3/2"

    def test_non_dyadic_value_rejected(self):
        g = build_graph(1, [])
        # build_fractional_assignment would refuse it, so build it directly
        p = FractionalAssignment(values={0: Fraction(1, 3)})
        assert verify_greedy_packing(g, p).reason == "vertex 0 has non-dyadic value 1/3"
        # the packing side's verdict names it before the input check would
        with pytest.raises(ValueError) as err:
            basic_round_packing(g, p, 1, 4, 1)
        assert str(err.value) == "input is not a greedy packing: vertex 0 has non-dyadic value 1/3"


class TestInitialPacking:
    def test_isolated_node_reaches_one(self):
        g = build_graph(1, [])
        p = initial_packing(g)
        assert p.values == {0: Fraction(1)}

    def test_claw_stops_at_quarter(self):
        # star with three leaves: the uniform 1/4 start already has every
        # closed load at 1/2 or more, so nothing doubles
        g = generate.star(4)
        p = initial_packing(g)
        assert p.values == {v: Fraction(1, 4) for v in range(4)}

    def test_cycle_five_needs_no_doubling(self):
        # the uniform 1/4 start already gives closed loads of 3/4
        g = generate.cycle(5)
        p = initial_packing(g)
        assert p.values == {v: Fraction(1, 4) for v in range(5)}
        assert closed_loads(g, p.values) == [Fraction(3, 4)] * 5

    def test_closed_loads_end_at_least_half(self):
        g = generate.random_graph(16, 0.25, seed=6)
        p = initial_packing(g)
        assert all(load >= HALF for load in closed_loads(g, p.values))
        assert verify_greedy_packing(g, p).ok

    def test_denom_override(self):
        g = generate.cycle(5)
        with pytest.raises(ValueError):
            initial_packing(g, denom=2)  # below max_degree + 1
        led = RoundLedger()
        p = initial_packing(g, denom=8, ledger=led)
        assert led.total_for("greedy_packing") == 3
        assert verify_greedy_packing(g, p).ok


class TestPackingRounds:
    def test_single_node_doubles_once(self):
        g = build_graph(1, [])
        x = build_fractional_assignment({0: Fraction(1, 4)}, Fraction(1, 4))
        y = basic_round_packing(g, x, 2, 4, independence=1)
        assert y.values == {0: HALF}

    def test_sweep_raises_a_node_at_exactly_half(self):
        # the second node's closed load is exactly 1/2 when its class comes
        # up; the packing side still raises it, filling the budget to 1
        g = build_graph(2, [(0, 1)])
        x = build_fractional_assignment(
            {0: Fraction(1, 4), 1: Fraction(1, 4)}, Fraction(1, 4)
        )
        y = basic_round_packing(g, x, 2, 4, 1)
        assert y.values == {0: HALF, 1: HALF}

    def test_factor_equal_denom_yields_independent_set(self):
        g = generate.random_graph(12, 0.3, seed=4)
        x = initial_packing(g)
        denom = max(v.denominator for v in x.values.values())
        if denom > 1:
            rho = neighborhood_independence(g)
            y = basic_round_packing(g, x, denom, denom, rho)
            chosen = frozenset(y.values)
            assert all(val == 1 for val in y.values.values())
            assert validate_independent_set(g, chosen).ok

    def test_k4_support_saturates_one_neighborhood(self):
        g = generate.complete(4)
        x = build_fractional_assignment(
            {v: Fraction(1, 4) for v in range(4)}, Fraction(1, 4)
        )
        # complete-graph neighborhoods are cliques: independence 1
        y = basic_round_packing(g, x, 2, 4, independence=1)
        assert y.total() * 2 >= x.total()
        assert verify_greedy_packing(g, y).ok

    def test_recursive_delegates_small_factors(self):
        g = generate.cycle(6)
        x = initial_packing(g, denom=16)
        rho = 2
        led1, led2 = RoundLedger(), RoundLedger()
        y1 = recursive_round_packing(g, x, 4, 16, rho, ledger=led1)
        y2 = basic_round_packing(g, x, 4, 16, rho, ledger=led2)
        assert y1.values == y2.values
        assert led1.as_records() == led2.as_records()
        with pytest.raises(ValueError):
            recursive_round_packing(g, x, 16, 16, rho)
        # invalid inputs: the delegated pass raises the basic pass's own message
        low = build_fractional_assignment({0: Fraction(1, 32)}, Fraction(1, 32))
        over = build_fractional_assignment({0: HALF, 1: Fraction(3, 4)}, Fraction(1, 4))
        for bad, message in (
            (low, "vertex 0 has value 1/32 below 1/16"),
            (over, "input is not a greedy packing: vertex 1 exceeds its prefix budget: 5/4"),
        ):
            with pytest.raises(ValueError) as basic_err:
                basic_round_packing(g, bad, 4, 16, rho)
            with pytest.raises(ValueError) as rec_err:
                recursive_round_packing(g, bad, 4, 16, rho)
            assert str(basic_err.value) == message
            assert str(rec_err.value) == message

    def test_recursive_empty_input(self):
        g = generate.cycle(6)
        x = build_fractional_assignment({}, Fraction(1, 1024))
        y = recursive_round_packing(g, x, 8, 1024, 2)
        assert y.values == {}

    def test_recursion_checks_values_against_denom(self):
        # values built directly, with no floor behind them; the input check
        # reads 1/denom, and so does every restriction after it
        g = generate.cycle(6)
        x = FractionalAssignment(values={v: Fraction(1, 64) for v in range(6)})
        y = recursive_round_packing(g, x, 8, 64, 2)
        assert verify_greedy_packing(g, y).ok

    def test_random_instance_factor_eight(self):
        g = generate.random_graph(12, 0.3, seed=9)
        rho = neighborhood_independence(g)
        x = initial_packing(g, denom=128)
        y = recursive_round_packing(g, x, 8, 128, rho)
        assert verify_greedy_packing(g, y).ok
        assert all(val >= Fraction(8, 128) for val in y.values.values())
        assert y.total() * 4 * max(1, rho) >= x.total()


class TestIndependentSets:
    def test_clique_gives_one_node(self):
        g = generate.complete(5)
        out = maximal_independent_set(g, independence=1)
        assert len(out) == 1

    def test_cycle_five(self):
        g = generate.cycle(5)
        out = maximal_independent_set(g, independence=2)
        assert validate_independent_set(g, out, require_maximal=True).ok
        assert len(out) == 2

    def test_approx_factor_on_random_instance(self):
        g = generate.random_graph(14, 0.3, seed=2)
        rho = neighborhood_independence(g)
        best = max_independent_set(g).size
        got = approx_mis(g, rho)
        assert validate_independent_set(g, got).ok
        assert len(got) * 32 * max(1, rho) ** 3 >= best

    def test_empty_graph(self):
        g = build_graph(0, [])
        assert approx_mis(g, 1) == frozenset()
        assert maximal_independent_set(g, 1) == frozenset()

    def test_edgeless_graph_takes_everything(self):
        g = build_graph(5, [])
        assert maximal_independent_set(g, 1) == frozenset(range(5))


def test_a_graph_without_nodes_packs_and_colors_nothing():
    g = build_graph(0, [])
    assert initial_packing(g).values == {}
    out = vertex_color(g, independence=1)
    assert (out.colors, out.palette_size) == ((), 1)


class TestVertexColor:
    def test_single_node_unit_palette(self):
        g = build_graph(1, [])
        out = vertex_color(g, independence=1, lists={0: (1,)})
        assert out.colors == (1,)

    def test_triangle_needs_three_colors(self):
        g = generate.complete(3)
        out = vertex_color(g, independence=1)
        assert sorted(out.colors) == [1, 2, 3]
        assert out.palette_size == 3

    def test_plain_palette_is_degree_plus_one(self):
        g = generate.random_graph(14, 0.3, seed=12)
        out = vertex_color(g, neighborhood_independence(g))
        assert validate_vertex_coloring(g, out.colors).ok
        assert max(out.colors) <= g.max_degree + 1

    def test_cycle_with_short_lists(self):
        g = generate.cycle(5)
        lists = {
            0: (1, 2, 3),
            1: (2, 4, 6),
            2: (1, 4, 9),
            3: (3, 6, 9),
            4: (2, 3, 5),
        }
        out = vertex_color(g, 2, lists=lists)
        assert validate_vertex_coloring(g, out.colors, lists).ok
        assert out.palette_size == 9

    def test_list_too_short_rejected(self):
        g = generate.cycle(5)
        lists = {v: (1, 2, 3) for v in range(5)}
        lists[3] = (1, 2)
        with pytest.raises(ValueError):
            vertex_color(g, 2, lists=lists)

    def test_lists_must_cover_all_nodes(self):
        g = generate.cycle(4)
        with pytest.raises(ValueError):
            vertex_color(g, 2, lists={0: (1, 2, 3), 1: (1, 2, 3)})

    def test_duplicate_list_entries_rejected(self):
        g = generate.cycle(4)
        lists = {v: (1, 2, 2) for v in range(4)}
        with pytest.raises(ValueError):
            vertex_color(g, 2, lists=lists)

    @pytest.mark.parametrize("picked, message", [
        (frozenset(), "vertex 0 decoded 0 colors instead of 1"),
        # pairs (0, 1) and (1, 1) of the product: color 1 at both ends
        (frozenset({0, 2}), "decoded coloring invalid: nodes 0 and 1 share color 1"),
    ])
    def test_a_wrong_product_set_fails_to_decode(self, picked, message, monkeypatch):
        monkeypatch.setattr(packing, "maximal_independent_set", lambda *args: picked)
        with pytest.raises(RuntimeError) as err:
            vertex_color(build_graph(2, [(0, 1)]), 1)
        assert str(err.value) == message
