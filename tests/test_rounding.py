"""Fractional matching pipeline: greedy start, rounding, drivers."""

from fractions import Fraction

import pytest

from hypermatch import generate, rounding
from hypermatch.coloring import VertexColoring
from hypermatch.core import (
    Matching,
    build_fractional_assignment,
    build_hypergraph,
    graph_to_hypergraph,
    unblocked_edges,
    validate_fractional_matching,
    validate_matching,
    vertex_loads,
)
from hypermatch.ledger import RoundLedger
from hypermatch.oracles import max_matching
from hypermatch.rounding import (
    RoundingParams,
    almost_maximal_matching,
    approx_max_matching,
    basic_round,
    greedy_doubling_step,
    greedy_fractional_matching,
    maximal_matching,
    recursive_round,
)

HALF = Fraction(1, 2)


def triangle():
    return build_hypergraph(3, [{0, 1}, {1, 2}, {0, 2}])


class TestGreedy:
    def test_single_hyperedge_reaches_one(self):
        h = build_hypergraph(3, [{0, 1, 2}])
        x = greedy_fractional_matching(h)
        assert x.values == {0: Fraction(1)}

    def test_triangle_halves(self):
        x = greedy_fractional_matching(triangle())
        assert x.values == {eid: HALF for eid in range(3)}
        assert x.total() == Fraction(3, 2)

    def test_star_stops_at_quarter(self):
        h = build_hypergraph(5, [{0, 1}, {0, 2}, {0, 3}, {0, 4}])
        x = greedy_fractional_matching(h)
        # the center is half-tight right at the uniform start
        assert x.values == {eid: Fraction(1, 4) for eid in range(4)}
        assert x.total() == 1 == max_matching(h).size

    def test_ledger_counts_doubling_rounds(self):
        led = RoundLedger()
        greedy_fractional_matching(triangle(), denom=16, ledger=led)
        assert led.total_for("greedy") == 4

    def test_denom_override_must_be_power_of_two_and_large_enough(self):
        with pytest.raises(ValueError):
            greedy_fractional_matching(triangle(), denom=3)
        with pytest.raises(ValueError):
            greedy_fractional_matching(triangle(), denom=1)
        with pytest.raises(ValueError):
            greedy_fractional_matching(build_hypergraph(2, []))

    def test_step_freezes_only_at_half_tight_endpoints(self):
        h = triangle()
        x = build_fractional_assignment(
            {0: HALF, 1: Fraction(1, 8), 2: Fraction(1, 8)}, Fraction(1, 8)
        )
        y = greedy_doubling_step(h, x)
        # vertices 0 and 1 are half-tight and every triangle edge
        # touches one of them, so nothing moves
        assert y.values == x.values

    def test_step_doubles_everything_when_loads_are_low(self):
        h = build_hypergraph(4, [{0, 1}, {2, 3}])
        x = build_fractional_assignment(
            {0: Fraction(1, 8), 1: Fraction(1, 8)}, Fraction(1, 8)
        )
        y = greedy_doubling_step(h, x)
        assert y.values == {0: Fraction(1, 4), 1: Fraction(1, 4)}

    def test_iterated_steps_match_driver(self):
        for seed in range(20):
            if seed % 2:
                h = generate.random_hypergraph(12, 16, 3, seed=seed)
            else:
                h = graph_to_hypergraph(generate.random_graph(12, 0.35, seed=seed))
            denom = 16
            x = build_fractional_assignment(
                {eid: Fraction(1, denom) for eid in range(h.m)}, Fraction(1, denom)
            )
            for _ in range(4):
                x = greedy_doubling_step(h, x)
            assert x.values == greedy_fractional_matching(h, denom=denom).values

    def test_greedy_factor_on_random_instances(self):
        for seed in range(10):
            h = generate.random_hypergraph(14, 18, 2 + seed % 3, seed=100 + seed)
            x = greedy_fractional_matching(h)
            opt = max_matching(h).size
            assert x.total() * 2 * h.rank >= opt


class TestBasicRound:
    def test_single_edge_halves_then_freezes(self):
        h = build_hypergraph(2, [{0, 1}])
        x = build_fractional_assignment({0: Fraction(1, 4)}, Fraction(1, 4))
        y = basic_round(h, x, RoundingParams(2, 4))
        assert y.values == {0: HALF}

    def test_sweep_skips_an_edge_at_exactly_half(self):
        # the second edge's shared vertex sits at exactly 1/2 when its class
        # comes up, which freezes it on the matching side
        h = build_hypergraph(3, [{0, 1}, {1, 2}])
        x = build_fractional_assignment(
            {0: Fraction(1, 4), 1: Fraction(1, 4)}, Fraction(1, 4)
        )
        y = basic_round(h, x, RoundingParams(2, 4))
        assert y.values == {0: HALF}

    def test_star_keeps_a_quarter_of_the_total(self):
        h = build_hypergraph(5, [{0, 1}, {0, 2}, {0, 3}, {0, 4}])
        x = build_fractional_assignment(
            {eid: Fraction(1, 4) for eid in range(4)}, Fraction(1, 4)
        )
        y = basic_round(h, x, RoundingParams(2, 4))
        assert y.total() >= x.total() / 4
        for val in y.values.values():
            assert val >= HALF

    def test_factor_equal_denom_gives_integral_support(self):
        h = graph_to_hypergraph(generate.random_graph(10, 0.3, seed=2))
        x = greedy_fractional_matching(h)
        denom = x.values and max(v.denominator for v in x.values.values())
        if denom and denom > 1:
            y = basic_round(h, x, RoundingParams(denom, denom))
            assert all(val == 1 for val in y.values.values())

    def test_support_never_grows(self):
        h = graph_to_hypergraph(generate.random_graph(14, 0.3, seed=7))
        x = greedy_fractional_matching(h, denom=16)
        y = basic_round(h, x, RoundingParams(4, 16))
        assert set(y.values) <= set(x.values)
        assert y.total() * 2 * h.rank >= x.total()
        verdict = validate_fractional_matching(h, y)
        assert verdict.ok
        # floor is factor/denom
        assert all(val >= Fraction(4, 16) for val in y.values.values())

    def test_rejects_subfloor_input(self):
        h = build_hypergraph(2, [{0, 1}])
        x = build_fractional_assignment({0: Fraction(1, 8)}, Fraction(1, 8))
        with pytest.raises(ValueError):
            basic_round(h, x, RoundingParams(2, 4))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            RoundingParams(3, 8).validate()
        with pytest.raises(ValueError):
            RoundingParams(8, 4).validate()
        # 8 * log2(8)^2 > 16: the recursive cascade does not fit
        h = build_hypergraph(2, [{0, 1}])
        x = build_fractional_assignment({0: Fraction(1, 16)}, Fraction(1, 16))
        with pytest.raises(ValueError, match="recursive rounding needs"):
            recursive_round(h, x, RoundingParams(8, 16))

    def test_sweep_recheck_catches_an_overloaded_vertex(self, monkeypatch):
        # a coloring that puts every edge in one class raises adjacent edges
        # together; the per-class recheck must stop the sweep right there
        def one_class(conflict, initial, defect, ledger=None):
            return VertexColoring((0,) * conflict.n, palette_size=1, defect=defect)

        monkeypatch.setattr(rounding, "defective_coloring", one_class)
        h = graph_to_hypergraph(generate.random_graph(20, 0.3, seed=1))
        x = greedy_fractional_matching(h, 64)
        with pytest.raises(
            RuntimeError, match="^basic_round color sweep: vertex 0 overloaded to 6$"
        ):
            basic_round(h, x, RoundingParams(64, 64))


class TestRecursiveRound:
    def test_small_factor_delegates_to_basic(self):
        h = build_hypergraph(2, [{0, 1}])
        x = build_fractional_assignment({0: Fraction(1, 4)}, Fraction(1, 4))
        y = recursive_round(h, x, RoundingParams(2, 4))
        assert y.values == basic_round(h, x, RoundingParams(2, 4)).values

    def test_empty_support_stays_empty(self):
        h = triangle()
        x = build_fractional_assignment({}, Fraction(1, 1024))
        y = recursive_round(h, x, RoundingParams(8, 1024))
        assert y.values == {}

    def test_thirty_edge_instance_with_factor_eight(self):
        g = generate.random_graph(18, 0.2, seed=11)
        h = graph_to_hypergraph(g)
        assert h.m >= 25
        x = greedy_fractional_matching(h, denom=128)
        y = recursive_round(h, x, RoundingParams(8, 128))
        assert validate_fractional_matching(h, y).ok
        assert all(val >= Fraction(8, 128) for val in y.values.values())
        assert y.total() * 4 * h.rank >= x.total()


class TestDrivers:
    def test_single_hyperedge_is_picked(self):
        h = build_hypergraph(3, [{0, 1, 2}])
        assert approx_max_matching(h).edges == frozenset({0})

    def test_k4_keeps_at_least_one_edge(self):
        h = graph_to_hypergraph(generate.complete(4))
        m = approx_max_matching(h)
        assert len(m) >= 1
        assert validate_matching(h, m).ok

    def test_twenty_edge_instance_meets_factor(self):
        h = generate.random_hypergraph(16, 20, 3, seed=3)
        m = approx_max_matching(h)
        opt = max_matching(h).size
        assert len(m) * 32 * h.rank**3 >= opt
        assert validate_matching(h, m).ok

    def test_empty_hypergraph(self):
        h = build_hypergraph(4, [])
        assert maximal_matching(h).edges == frozenset()
        assert approx_max_matching(h).edges == frozenset()

    def test_star_maximal_is_single_edge(self):
        h = build_hypergraph(6, [{0, i} for i in range(1, 6)])
        m = maximal_matching(h)
        assert len(m) == 1

    def test_random_instance_is_maximal(self):
        h = generate.random_hypergraph(18, 25, 3, seed=8)
        led = RoundLedger()
        m = maximal_matching(h, led)
        assert validate_matching(h, m, require_maximal=True).ok
        assert led.total > 0

    def test_almost_maximal_leaves_small_remainder(self):
        h = generate.random_hypergraph(16, 22, 3, seed=5)
        m, leftover = almost_maximal_matching(h, Fraction(1, 2))
        assert validate_matching(h, m).ok
        assert leftover == unblocked_edges(h, m)
        if leftover:
            sub_opt = max_matching(
                build_hypergraph(h.n, [sorted(h.edges[e]) for e in sorted(leftover)])
            ).size
            assert sub_opt * 2 <= max_matching(h).size

    def test_almost_maximal_slack_range(self):
        with pytest.raises(ValueError):
            almost_maximal_matching(triangle(), Fraction(0))
        with pytest.raises(ValueError):
            almost_maximal_matching(triangle(), Fraction(3, 2))


def test_loads_only_grow_under_doubling_steps():
    h = generate.random_hypergraph(10, 12, 3, seed=21)
    x = build_fractional_assignment(
        {eid: Fraction(1, 16) for eid in range(h.m)}, Fraction(1, 16)
    )
    prev = vertex_loads(h, x)
    for _ in range(4):
        x = greedy_doubling_step(h, x)
        cur = vertex_loads(h, x)
        assert all(c >= p for c, p in zip(cur, prev))
        prev = cur
