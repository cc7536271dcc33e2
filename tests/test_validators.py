"""Integer validators against plain-Fraction references, and one validation
per assignment the rounding engine builds."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatch import generate, packing, rounding
from hypermatch.core import (
    FractionalAssignment,
    build_fractional_assignment,
    build_graph,
    build_hypergraph,
    line_graph,
    validate_fractional_matching,
    validate_matching,
)
from hypermatch.ledger import RoundLedger
from hypermatch.packing import approx_mis, basic_round_packing, initial_packing, verify_greedy_packing
from hypermatch.rounding import (
    approx_max_matching,
    basic_round,
    greedy_fractional_matching,
    maximal_matching,
    recursive_round,
)

HALF = Fraction(1, 2)
DYADIC = [Fraction(k, 1 << j) for j in range(5) for k in range(1, (1 << j) + 1)]
# Dyadic values in (0,1] mostly, some outside it, zero, and non-dyadic ones.
VALUES = st.one_of(
    st.sampled_from(DYADIC),
    st.fractions(min_value=-1, max_value=Fraction(5, 4), max_denominator=12),
)


def reference_loads(h, x):
    loads = [Fraction(0)] * h.n
    for eid, val in x.values.items():
        for v in h.edges[eid]:
            loads[v] += val
    return loads


def reference_fractional_matching(h, x):
    """(ok, reason, half_tight) by summing Fractions one by one."""
    for eid in x.values:
        if not 0 <= eid < h.m:
            return False, f"edge id {eid} outside 0..{h.m - 1}", frozenset()
    for eid, val in x.values.items():
        if not 0 < val <= 1:
            return False, f"edge {eid} has value {val} outside (0,1]", frozenset()
    loads = reference_loads(h, x)
    for v, load in enumerate(loads):
        if load > 1:
            return False, f"vertex {v} carries load {load} > 1", frozenset()
    return True, "", frozenset(v for v, load in enumerate(loads) if load >= HALF)


def reference_greedy_packing(g, p):
    """(ok, reason): budgets summed as Fractions over earlier neighbors."""
    for v, val in p.values.items():
        if not 0 <= v < g.n:
            return False, f"vertex id {v} outside 0..{g.n - 1}"
        if not 0 < val <= 1:
            return False, f"vertex {v} has value {val} outside (0,1]"
        if val.denominator & (val.denominator - 1):
            return False, f"vertex {v} has non-dyadic value {val}"
    position = {v: i for i, v in enumerate(p.values)}
    for v, val in p.values.items():
        budget = val
        for u in g.adjacency[v]:
            if u in position and position[u] < position[v]:
                budget += p.values[u]
        if budget > 1:
            return False, f"vertex {v} exceeds its prefix budget: {budget}"
    return True, ""


def reference_matching(h, m, require_maximal):
    """(ok, reason): matched edges in id order, then every edge in id order."""
    used = {}
    for eid in sorted(m):
        if not 0 <= eid < h.m:
            return False, f"edge id {eid} outside 0..{h.m - 1}"
        for v in h.edges[eid]:
            if v in used:
                return False, f"edges {used[v]} and {eid} share vertex {v}"
            used[v] = eid
    if require_maximal:
        for eid, members in enumerate(h.edges):
            if eid not in m and all(v not in used for v in members):
                return False, f"edge {eid} is disjoint from the matching"
    return True, ""


def assert_integral_agrees(h, m):
    for maximal in (False, True):
        verdict = validate_matching(h, frozenset(m), require_maximal=maximal)
        assert (verdict.ok, verdict.reason) == reference_matching(h, m, maximal)


def assert_matching_agrees(h, x):
    verdict = validate_fractional_matching(h, x)
    assert (verdict.ok, verdict.reason, verdict.half_tight) == reference_fractional_matching(h, x)
    assert x.total() == sum(x.values.values(), Fraction(0))


def assert_packing_agrees(g, p):
    verdict = verify_greedy_packing(g, p)
    assert (verdict.ok, verdict.reason) == reference_greedy_packing(g, p)


@st.composite
def hypergraph_and_values(draw):
    n = draw(st.integers(1, 7))
    members = st.sets(st.integers(0, n - 1), min_size=1, max_size=min(3, n))
    h = build_hypergraph(n, draw(st.lists(members, max_size=8)))
    values = draw(st.dictionaries(st.integers(-1, h.m), VALUES, max_size=h.m + 1))
    return h, FractionalAssignment(values=values)


@st.composite
def graph_and_values(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = build_graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    values = draw(st.dictionaries(st.integers(-1, n), VALUES, max_size=n + 1))
    return g, FractionalAssignment(values=values)


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(hypergraph_and_values())
    def test_fractional_matching(self, case):
        assert_matching_agrees(*case)

    @settings(max_examples=150, deadline=None)
    @given(graph_and_values())
    def test_greedy_packing(self, case):
        assert_packing_agrees(*case)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.randoms(use_true_random=False))
    def test_greedy_packing_witness_orders(self, seed, rnd):
        # a valid greedy packing, reordered: some orders are no witness
        g = generate.random_graph(9, 0.4, seed=seed)
        order = list(initial_packing(g).values.items())
        rnd.shuffle(order)
        assert_packing_agrees(g, FractionalAssignment(values=dict(order)))

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.integers(0, 5), VALUES, max_size=6), st.sampled_from(DYADIC))
    def test_builder(self, values, floor):
        try:
            expected = {i: val for i, val in values.items() if val != 0}
            for i, val in expected.items():
                if val.denominator & (val.denominator - 1):
                    raise ValueError(f"value of item {i} is not dyadic: {val}")
                if not floor <= val <= 1:
                    raise ValueError(f"value of item {i} outside [{floor}, 1]: {val}")
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                build_fractional_assignment(values, floor)
            assert str(got.value) == str(err)
        else:
            assert build_fractional_assignment(values, floor).values == expected

    def test_negative_and_zero_values_are_rejected(self):
        h = generate.path(3)
        for values, reason in (
            ({0: Fraction(-1, 2), 1: Fraction(1)}, "edge 0 has value -1/2 outside (0,1]"),
            ({0: Fraction(0)}, "edge 0 has value 0 outside (0,1]"),
            ({1: Fraction(3, 2)}, "edge 1 has value 3/2 outside (0,1]"),
        ):
            verdict = validate_fractional_matching(h, FractionalAssignment(values=values))
            assert (verdict.ok, verdict.reason) == (False, reason)

    def test_ids_are_checked_before_values(self):
        h = generate.path(3)
        x = FractionalAssignment(values={0: Fraction(-1, 2), 5: HALF})
        assert validate_fractional_matching(h, x).reason == "edge id 5 outside 0..1"

    def test_beyond_the_oracle_budgets(self):
        # 2600 nodes: the line graph of a random rank-3 hypergraph
        h = generate.random_hypergraph(800, 2600, 3, seed=1)
        g = line_graph(h)
        p = initial_packing(g)
        assert_packing_agrees(g, p)
        assert_packing_agrees(g, FractionalAssignment(values=dict(reversed(p.values.items()))))
        x = greedy_fractional_matching(h)
        assert_matching_agrees(h, x)
        over = dict(x.values)
        over[len(over) // 2] = Fraction(1)
        assert_matching_agrees(h, FractionalAssignment(values=over))


class TestPlantedViolations:
    """The validators test bounds in bulk and scan only when one fails; each
    planted violation must come out as the full scan names it."""

    @settings(max_examples=150, deadline=None)
    @given(hypergraph_and_values(), st.sets(st.integers(-1, 9), max_size=5), st.randoms(use_true_random=False))
    def test_matching_both_modes(self, case, ids, rnd):
        h = case[0]
        assert_integral_agrees(h, ids)
        # a greedy maximal matching in a drawn order, and with one edge less
        order = list(range(h.m))
        rnd.shuffle(order)
        used, found = set(), []
        for eid in order:
            if used.isdisjoint(h.edges[eid]):
                used.update(h.edges[eid])
                found.append(eid)
        assert_integral_agrees(h, found)
        assert_integral_agrees(h, found[1:])

    @pytest.fixture(scope="class")
    def instance(self):
        h = generate.random_hypergraph(300, 900, 3, seed=2)
        return h, greedy_fractional_matching(h), maximal_matching(h)

    def test_fractional_violations(self, instance):
        h, x, _ = instance
        nums = dict(x.values)
        first, last = min(nums), max(nums)
        over = next(eid for eid in nums if nums[eid] < 1 and eid != first)
        rest = {eid: val for eid, val in nums.items() if eid not in (first, over)}
        for planted, reason in (
            ({**nums, h.m: HALF, -1: HALF}, f"edge id {h.m} outside 0..{h.m - 1}"),
            ({-1: HALF, **nums}, f"edge id -1 outside 0..{h.m - 1}"),
            ({**nums, last: Fraction(0)}, f"edge {last} has value 0 outside (0,1]"),
            ({**rest, over: Fraction(5, 4), first: Fraction(0)}, f"edge {over} has value 5/4 outside (0,1]"),
            ({**rest, first: Fraction(0), over: Fraction(5, 4)}, f"edge {first} has value 0 outside (0,1]"),
        ):
            planted = FractionalAssignment(values=planted)
            verdict = validate_fractional_matching(h, planted)
            assert (verdict.ok, verdict.reason, verdict.half_tight) == reference_fractional_matching(h, planted)
            assert verdict.reason == reason
        verdict = validate_fractional_matching(h, x)
        assert (verdict.ok, verdict.reason, verdict.half_tight) == reference_fractional_matching(h, x)
        assert verdict.ok and verdict.half_tight

    def test_overloaded_vertex(self, instance):
        h, x, _ = instance
        heavy = next(v for v in range(h.n) if h.degree(v) >= 2)
        a, b = h.incidence[heavy][:2]
        planted = FractionalAssignment(values={**x.values, a: Fraction(3, 4), b: Fraction(3, 4)})
        reason = validate_fractional_matching(h, planted).reason
        assert reason == reference_fractional_matching(h, planted)[1]
        assert reason.startswith("vertex ") and reason.endswith(" > 1")

    def test_matching_violations(self, instance):
        h, _, found = instance
        assert validate_matching(h, found, require_maximal=True).ok
        inside = next(iter(found))
        v = h.edges[inside][0]
        rival = next(eid for eid in h.incidence[v] if eid != inside)
        dropped = min(found)
        free = [eid for eid in range(h.m) if eid not in found and set(h.edges[eid]) <= set(h.edges[dropped])]
        for planted, maximal, reason in (
            (found | {h.m}, False, f"edge id {h.m} outside 0..{h.m - 1}"),
            (found | {-1}, True, f"edge id -1 outside 0..{h.m - 1}"),
            (found | {rival}, True,
             f"edges {min(inside, rival)} and {max(inside, rival)} share vertex {v}"),
            (found - {dropped}, True, f"edge {min([dropped, *free])} is disjoint from the matching"),
            (found - {dropped}, False, ""),
        ):
            verdict = validate_matching(h, planted, require_maximal=maximal)
            assert (verdict.ok, verdict.reason) == reference_matching(h, planted, maximal)
            assert verdict.reason == reason


def count_verdicts(monkeypatch, module, name):
    """Record every assignment the named validator sees, kept alive so that
    ids stay distinct."""
    seen = []
    original = getattr(module, name)

    def counted(instance, x):
        seen.append(x)
        return original(instance, x)

    monkeypatch.setattr(module, name, counted)
    return seen


def each_once(seen):
    return len({id(x) for x in seen}) == len(seen)


class TestValidateOnce:
    def test_approx_mis_validates_two_assignments(self, monkeypatch):
        seen = count_verdicts(monkeypatch, packing, "verify_greedy_packing")
        approx_mis(generate.random_graph(12, 0.3, seed=4), 2)
        assert len(seen) == 2  # the greedy output and the final packing
        assert each_once(seen)

    def test_approx_max_matching_validates_two_assignments(self, monkeypatch):
        seen = count_verdicts(monkeypatch, rounding, "validate_fractional_matching")
        approx_max_matching(generate.random_hypergraph(10, 14, 3, seed=2))
        assert len(seen) == 2
        assert each_once(seen)

    def test_nested_outputs_are_not_rechecked(self, monkeypatch):
        h = generate.random_hypergraph(10, 14, 3, seed=2)
        x = greedy_fractional_matching(h, denom=128)
        seen = count_verdicts(monkeypatch, rounding, "validate_fractional_matching")
        ledger = RoundLedger()
        y = recursive_round(h, x, 8, 128, ledger=ledger)
        (iterations,) = [r["rounds"] for r in ledger.as_records() if r["label"] == "recursive_round"]
        # each iteration: the restriction it rounds and the two nested
        # outputs; then y.  Not x, which the greedy pass validated.
        assert iterations >= 1 and len(seen) == 3 * iterations + 1
        assert each_once(seen) and all(z is not x for z in seen) and seen[-1] is y

    def test_outside_input_is_checked_every_time(self, monkeypatch):
        h = generate.random_hypergraph(10, 14, 3, seed=2)
        x = build_fractional_assignment(dict(greedy_fractional_matching(h, 8).values), Fraction(1, 8))
        seen = count_verdicts(monkeypatch, rounding, "validate_fractional_matching")
        basic_round(h, x, 2, 8)
        basic_round(h, x, 2, 8)
        assert [y is x for y in seen] == [True, False, True, False]

    def test_a_mark_holds_for_one_side_and_one_instance(self, monkeypatch):
        # a graph is a hypergraph too: a greedy packing passed to the
        # matching side, or to the packing side of another graph, is
        # validated again; an equal graph gives the same verdict
        g = generate.cycle(6)
        p = initial_packing(g, denom=4)
        seen = count_verdicts(monkeypatch, rounding, "validate_fractional_matching")
        basic_round(g, p, 2, 4)
        assert seen[0] is p
        seen = count_verdicts(monkeypatch, packing, "verify_greedy_packing")
        for other in (g, generate.cycle(6), generate.path(6)):
            basic_round_packing(other, p, 2, 4, 2)
        assert [y is p for y in seen] == [False, False, True, False]

    def test_returned_values_are_read_only(self):
        h = build_hypergraph(3, [{0, 1}, {1, 2}])
        x = greedy_fractional_matching(h)
        with pytest.raises(TypeError):
            x.values[0] = Fraction(1)
        with pytest.raises(TypeError):
            del x.values[0]
        with pytest.raises(AttributeError):
            x.values.update({0: Fraction(1)})

    def test_a_changed_copy_is_rejected_as_before(self):
        # the values can change only by building a new assignment, which
        # the next pass validates with the message it always raised
        h = build_hypergraph(3, [{0, 1}, {1, 2}])
        x = greedy_fractional_matching(h)
        changed = dict(x.values)
        changed[0] = Fraction(1)
        with pytest.raises(ValueError) as err:
            basic_round(h, FractionalAssignment(values=changed), 1, 2)
        assert str(err.value) == "input is not a fractional matching: vertex 1 carries load 3/2 > 1"

    def test_the_mark_is_not_part_of_the_value(self):
        h = build_hypergraph(3, [{0, 1}, {1, 2}])
        x = greedy_fractional_matching(h)
        plain = FractionalAssignment(values=dict(x.values))
        assert x == plain
        assert repr(x) == repr(plain) == "FractionalAssignment(values={0: Fraction(1, 2), 1: Fraction(1, 2)})"
        back = pickle.loads(pickle.dumps(x))
        assert back == x and back._valid_on is None
