"""Fractional matching pipeline: greedy start, rounding, drivers."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatch import generate, packing, rounding
from hypermatch.coloring import VertexColoring
from hypermatch.core import (
    FractionalAssignment,
    build_fractional_assignment,
    build_graph,
    build_hypergraph,
    line_graph,
    next_power_of_two,
    unblocked_edges,
    validate_fractional_matching,
    validate_independent_set,
    validate_matching,
)
from hypermatch.ledger import RoundLedger
from hypermatch.oracles import max_matching
from hypermatch.rounding import (
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


def vertex_loads(h, x):
    """Per-vertex sum of the values of the hyperedges holding it."""
    loads = [Fraction(0)] * h.n
    for eid, val in x.values.items():
        for v in h.edges[eid]:
            loads[v] += val
    return loads


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
                h = generate.random_graph(12, 0.35, seed=seed)
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
        y = basic_round(h, x, 2, 4)
        assert y.values == {0: HALF}

    def test_sweep_skips_an_edge_at_exactly_half(self):
        # the second edge's shared vertex sits at exactly 1/2 when its class
        # comes up, which freezes it on the matching side
        h = build_hypergraph(3, [{0, 1}, {1, 2}])
        x = build_fractional_assignment(
            {0: Fraction(1, 4), 1: Fraction(1, 4)}, Fraction(1, 4)
        )
        y = basic_round(h, x, 2, 4)
        assert y.values == {0: HALF}

    def test_star_keeps_a_quarter_of_the_total(self):
        h = build_hypergraph(5, [{0, 1}, {0, 2}, {0, 3}, {0, 4}])
        x = build_fractional_assignment(
            {eid: Fraction(1, 4) for eid in range(4)}, Fraction(1, 4)
        )
        y = basic_round(h, x, 2, 4)
        assert y.total() >= x.total() / 4
        for val in y.values.values():
            assert val >= HALF

    def test_factor_equal_denom_gives_integral_support(self):
        h = generate.random_graph(10, 0.3, seed=2)
        x = greedy_fractional_matching(h)
        denom = x.values and max(v.denominator for v in x.values.values())
        if denom and denom > 1:
            y = basic_round(h, x, denom, denom)
            assert all(val == 1 for val in y.values.values())

    def test_support_never_grows(self):
        h = generate.random_graph(14, 0.3, seed=7)
        x = greedy_fractional_matching(h, denom=16)
        y = basic_round(h, x, 4, 16)
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
            basic_round(h, x, 2, 4)

    def test_rejects_bad_params(self):
        h = build_hypergraph(2, [{0, 1}])
        x = build_fractional_assignment({0: Fraction(1, 16)}, Fraction(1, 16))
        with pytest.raises(ValueError, match="^factor must be a power of two, got 3$"):
            basic_round(h, x, 3, 8)
        with pytest.raises(ValueError, match="^denom must be a power of two, got 12$"):
            recursive_round(h, x, 2, 12)
        with pytest.raises(ValueError, match="^factor 8 exceeds denom 4$"):
            basic_round(h, x, 8, 4)
        # 8 * log2(8)^2 > 16: the recursive cascade does not fit
        with pytest.raises(ValueError, match="recursive rounding needs"):
            recursive_round(h, x, 8, 16)

    def test_sweep_recheck_catches_an_overloaded_vertex(self, monkeypatch):
        # a coloring that puts every edge in one class raises adjacent edges
        # together; the per-class recheck must stop the sweep right there
        def one_class(conflict, initial, defect, ledger=None):
            return VertexColoring((0,) * conflict.n, palette_size=1, defect=defect)

        monkeypatch.setattr(rounding, "defective_coloring", one_class)
        h = generate.random_graph(20, 0.3, seed=1)
        x = greedy_fractional_matching(h, 64)
        with pytest.raises(
            RuntimeError, match="^basic_round color sweep: vertex 0 overloaded to 6$"
        ):
            basic_round(h, x, 64, 64)

    def test_doubling_check_catches_an_overloaded_vertex(self, monkeypatch):
        # a doubling step that ignores frozen items doubles both edges of the
        # path past the shared vertex's budget in its second round
        def unfrozen_double(p, candidates):
            movers = sorted(candidates)
            for i in movers:
                p.add(i, p.values[i])
            return movers

        h = build_hypergraph(3, [{0, 1}, {1, 2}])
        x = build_fractional_assignment({0: Fraction(1, 4), 1: Fraction(1, 4)}, Fraction(1, 4))
        monkeypatch.setattr(rounding, "_double", unfrozen_double)
        with pytest.raises(RuntimeError) as err:
            basic_round(h, x, 1, 4)
        assert str(err.value) == "basic_round doubling: vertex 1 overloaded to 2"


def _planted_recursion(monkeypatch, value):
    """Nested recursive passes that return every input item at ``value``."""
    def planted(h, z, factor, denom, coloring=None, ledger=None):
        return FractionalAssignment._over(dict.fromkeys(z.nums, value), 1)

    monkeypatch.setattr(rounding, "recursive_round", planted)


class TestRecursiveRound:
    def test_small_factor_delegates_to_basic(self):
        h = build_hypergraph(2, [{0, 1}])
        x = build_fractional_assignment({0: Fraction(1, 4)}, Fraction(1, 4))
        led_rec, led_basic = RoundLedger(), RoundLedger()
        y = recursive_round(h, x, 2, 4, ledger=led_rec)
        assert y.values == basic_round(h, x, 2, 4, ledger=led_basic).values
        assert led_rec.as_records() == led_basic.as_records()
        # invalid inputs: the delegated pass raises basic_round's own message
        h = build_hypergraph(3, [{0, 1}, {1, 2}])
        low = build_fractional_assignment({0: Fraction(1, 8)}, Fraction(1, 8))
        over = build_fractional_assignment({0: Fraction(3, 4), 1: HALF}, Fraction(1, 4))
        for bad, message in (
            (low, "edge 0 has value 1/8 below 1/4"),
            (over, "input is not a fractional matching: vertex 1 carries load 5/4 > 1"),
        ):
            with pytest.raises(ValueError) as basic_err:
                basic_round(h, bad, 2, 4)
            with pytest.raises(ValueError) as rec_err:
                recursive_round(h, bad, 2, 4)
            assert str(basic_err.value) == message
            assert str(rec_err.value) == message

    def test_empty_support_stays_empty(self):
        h = triangle()
        x = build_fractional_assignment({}, Fraction(1, 1024))
        y = recursive_round(h, x, 8, 1024)
        assert y.values == {}

    def test_thirty_edge_instance_with_factor_eight(self):
        h = generate.random_graph(18, 0.2, seed=11)
        assert h.m >= 25
        x = greedy_fractional_matching(h, denom=128)
        y = recursive_round(h, x, 8, 128)
        assert validate_fractional_matching(h, y).ok
        assert all(val >= Fraction(8, 128) for val in y.values.values())
        assert y.total() * 4 * h.rank >= x.total()

    def test_accumulate_check_catches_an_overloaded_vertex(self, monkeypatch):
        # nested passes planted to return 1 everywhere: half of it on each of
        # the star's three edges overloads the center
        h = build_hypergraph(4, [{0, 1}, {0, 2}, {0, 3}])
        x = greedy_fractional_matching(h, 1024)
        _planted_recursion(monkeypatch, 1)
        with pytest.raises(RuntimeError) as err:
            recursive_round(h, x, 8, 1024)
        assert str(err.value) == "recursive_round accumulate: vertex 0 overloaded to 3/2"

    def test_accumulate_check_reads_the_values_first(self, monkeypatch):
        # a planted nested value of 4 puts the half kept of it at 2: the edge's
        # value is reported before the loads of its vertices
        h = build_hypergraph(2, [{0, 1}])
        x = greedy_fractional_matching(h, 1024)
        _planted_recursion(monkeypatch, 4)
        with pytest.raises(RuntimeError) as err:
            recursive_round(h, x, 8, 1024)
        assert str(err.value) == "recursive_round accumulate: edge 0 value 2 outside [0,1]"


class TestDrivers:
    def test_single_hyperedge_is_picked(self):
        h = build_hypergraph(3, [{0, 1, 2}])
        assert approx_max_matching(h) == frozenset({0})

    def test_k4_keeps_at_least_one_edge(self):
        h = generate.complete(4)
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
        assert maximal_matching(h) == frozenset()
        assert approx_max_matching(h) == frozenset()

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

    def test_almost_maximal_stops_at_its_limit(self):
        # ceil(32 * 2^3 * ln(512/511)) = 1 iteration leaves one edge
        # unblocked; slack 255/256 would allow 2
        g = generate.random_graph(66, 0.95, seed=3)
        ledger = RoundLedger()
        m, leftover = almost_maximal_matching(g, Fraction(511, 512), ledger)
        assert validate_matching(g, m).ok
        assert leftover == unblocked_edges(g, m) == frozenset({2022})
        assert [(r["rounds"], r["formula"]) for r in ledger.as_records()
                if r["label"] == "maximal_driver"] == [(1, "32 rank^3 ln(1/slack) iterations")]

    @pytest.mark.parametrize("n", [300, 1000])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_factors_against_networkx_beyond_the_oracle_budget(self, n, seed):
        # nu(G) is exact from networkx; on the line graph, whose neighborhood
        # independence is 2, the maximum independent set has nu(G) nodes
        nx = pytest.importorskip("networkx")
        g = generate.random_graph(n, 3 / n, seed=seed)
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from(g.edges)
        nu = len(nx.max_weight_matching(ref, maxcardinality=True))
        lg = line_graph(g)
        m = maximal_matching(g)
        assert validate_matching(g, m, require_maximal=True).ok
        assert 2 * len(m) >= nu
        m = approx_max_matching(g)
        assert validate_matching(g, m).ok
        assert 32 * 2**3 * len(m) >= nu
        s = packing.maximal_independent_set(lg, 2)
        assert validate_independent_set(lg, s, require_maximal=True).ok
        assert 2 * len(s) >= nu
        s = packing.approx_mis(lg, 2)
        assert validate_independent_set(lg, s).ok
        assert 32 * 2**3 * len(s) >= nu

    def test_almost_maximal_slack_range(self):
        with pytest.raises(ValueError):
            almost_maximal_matching(triangle(), Fraction(0))
        with pytest.raises(ValueError):
            almost_maximal_matching(triangle(), Fraction(3, 2))


@pytest.mark.parametrize("call", [
    lambda h, x: basic_round(h, x, 1, 4),
    lambda h, x: recursive_round(h, x, 8, 1024),
    greedy_doubling_step,
], ids=["basic_round", "recursive_round", "greedy_doubling_step"])
def test_non_dyadic_input_gets_one_message(call):
    # a valid fractional matching, but 1/3 is not dyadic
    h = build_hypergraph(4, [{0, 1}, {1, 2}, {2, 3}])
    x = FractionalAssignment(values={0: Fraction(1, 3), 2: Fraction(1, 3)})
    with pytest.raises(ValueError) as err:
        call(h, x)
    assert str(err.value) == "value of item 0 is not dyadic: 1/3"


def test_an_output_outside_its_range_is_a_library_bug():
    model = rounding._MatchingModel(build_hypergraph(2, [{0, 1}]))
    with pytest.raises(RuntimeError) as err:
        rounding._finish(rounding._Pass(model, 8, {0: 16}), 1, "basic rounding")
    assert str(err.value) == "basic rounding left edge 0 at 2, outside [1/8, 1]"


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


def _freezing(model, i):
    """The resources that freeze item i, from each side's definition."""
    return (i,) if isinstance(model, packing._PackingModel) else model.h.edges[i]


def _summed_loads(model, values):
    loads = [0] * model.resources
    for i, val in values.items():
        for r in model.loaded(i):
            loads[r] += val
    return loads


def _frozen(model, loads, scale, i):
    return any(2 * loads[r] >= scale for r in _freezing(model, i))


def _recheck(model, values, scale, touched, where):
    """The matching side's per-step check from the values alone: the touched
    values, then each vertex they touch re-summed over its incidence."""
    if isinstance(model, packing._PackingModel):
        return
    h = model.h
    for i in touched:
        if not 0 <= values[i] <= scale:
            value = Fraction(values[i], scale)
            raise RuntimeError(f"{where}: edge {i} value {value} outside [0,1]")
    for v in sorted({v for i in touched for v in h.edges[i]}):
        load = sum(values.get(e, 0) for e in h.incidence[v])
        if load > scale:
            raise RuntimeError(f"{where}: vertex {v} overloaded to {Fraction(load, scale)}")


def _all_items_double_rounds(p, cap, items, where):
    """The doubling loop re-testing every item of the pass each round
    against loads it sums itself; it reads only the model, scale and values
    of the pass ``p``, and updates the values in place."""
    model, values, scale = p.model, p.values, p.scale
    loads = _summed_loads(model, values)
    rounds = 0
    while movers := sorted(i for i in values if not _frozen(model, loads, scale, i)):
        for i in movers:
            val = values.pop(i)
            for r in model.loaded(i):
                loads[r] += val
            values[i] = val * 2
        rounds += 1
        if rounds > cap:
            raise RuntimeError(f"{where} exceeded {cap} rounds")
        _recheck(model, values, scale, movers, where)
    for i in items:
        if not _frozen(model, loads, scale, i):
            raise RuntimeError(f"{model.noun} {i} ended {where} unfrozen")
    return rounds


def _doubling_trace(impl, run):
    """run()'s result and ledger, with every doubling loop's values (in
    witness order) and round count, with ``impl`` as the loop."""
    calls = []

    def recording(p, *rest):
        rounds = impl(p, *rest)
        calls.append((list(p.values.items()), rounds))
        return rounds
    ledger = RoundLedger()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rounding, "_double_rounds", recording)
        out = run(ledger)
    return out, ledger.as_records(), calls


@given(
    st.integers(min_value=4, max_value=40),
    st.integers(min_value=1, max_value=70),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([None, 64, 256]),
)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_doubling_retests_only_movers(n, m, r, seed, denom):
    r = min(r, n)
    m = min(m, math.comb(n, r))
    h = generate.random_hypergraph(n, m, r, seed=seed)
    g = line_graph(h)
    if denom is not None:  # at least each side's default
        denom = max(denom, next_power_of_two(h.max_degree), next_power_of_two(g.max_degree + 1))
    cases = [
        lambda ledger: maximal_matching(h, ledger),
        lambda ledger: greedy_fractional_matching(h, denom, ledger),
        lambda ledger: packing.maximal_independent_set(g, r, ledger),
        lambda ledger: packing.initial_packing(g, denom, ledger),
    ]
    for run in cases:
        new = _doubling_trace(rounding._double_rounds, run)
        assert new[2], "the case runs no doubling loop"
        assert new == _doubling_trace(_all_items_double_rounds, run)


def _recounted(model, values, scale):
    """``frozen`` and ``over`` recomputed from loads re-summed from ``values``."""
    loads = _summed_loads(model, values)
    items = range(model.items)
    frozen = {i for i in items if any(2 * loads[r] >= scale for r in _freezing(model, i))}
    over = {i for i in items if any(2 * loads[r] > scale for r in _freezing(model, i))}
    return frozen, over


@given(
    st.booleans(),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([4, 8, 16]),
    st.integers(min_value=0, max_value=10),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=99), st.sampled_from([0, 1, 2, 4])),
        max_size=30,
    ),
)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_load_tracker_matches_a_recount(packing_side, seed, scale, seeded, steps):
    h = generate.random_hypergraph(8, 10, 3, seed=seed)
    model = packing._PackingModel(line_graph(h)) if packing_side else rounding._MatchingModel(h)
    values = dict.fromkeys(range(min(seeded, model.items)), 1)
    tracker = rounding._Pass(model, scale, dict(values))
    assert (tracker.frozen, tracker.over) == _recounted(model, values, scale)
    for k, val in steps:
        i = k % model.items
        values[i] = values.pop(i, 0) + val  # raised items move to the end
        tracker.add(i, val)
        assert list(tracker.values.items()) == list(values.items())
        assert tracker.loads == _summed_loads(model, values)
        assert (tracker.frozen, tracker.over) == _recounted(model, values, scale)


def test_a_packing_node_at_exactly_half_is_frozen_but_not_over():
    # path 0 - 1 - 2; closed loads over scale 4
    model = packing._PackingModel(build_graph(3, [(0, 1), (1, 2)]))
    tracker = rounding._Pass(model, 4)
    tracker.add(0, 1)
    assert (tracker.frozen, tracker.over) == (set(), set())
    tracker.add(1, 1)  # nodes 0 and 1 at exactly 1/2
    assert (tracker.frozen, tracker.over) == ({0, 1}, set())
    tracker.add(2, 1)  # node 1 past 1/2, node 2 at 1/2
    assert (tracker.frozen, tracker.over) == ({0, 1, 2}, {1})
    seeded = rounding._Pass(model, 4, {0: 1, 1: 1, 2: 1})
    assert (seeded.loads, seeded.frozen, seeded.over) == (tracker.loads, {0, 1, 2}, {1})
