"""Brute-force reference solvers: known values, budgets, cross-checks.

The branch-and-bound solvers are cross-checked against the plain
subset-enumeration implementations below, which share no search logic
with them.
"""

import pytest

from hypermatch import generate
from hypermatch.core import (
    Matching,
    build_graph,
    build_hypergraph,
    graph_to_hypergraph,
    validate_matching,
)
from hypermatch.oracles import (
    OracleBudget,
    OverBudgetError,
    arboricity,
    enumerate_maximal_matchings,
    max_graph_matching,
    max_independent_set,
    max_matching,
    neighborhood_independence,
)


def _max_matching_by_subsets(h):
    """Independent check: enumerate every edge subset."""
    best = 0
    for subset in range(1 << h.m):
        picked = [h.edges[i] for i in range(h.m) if subset >> i & 1]
        used = set().union(*picked)
        if sum(map(len, picked)) == len(used):
            best = max(best, len(picked))
    return best


def _max_independent_set_by_subsets(g):
    """Independent check: enumerate every vertex subset."""
    best = 0
    for subset in range(1 << g.n):
        chosen = {v for v in range(g.n) if subset >> v & 1}
        if all(not set(g.adjacency[v]) & chosen for v in chosen):
            best = max(best, len(chosen))
    return best


def test_max_matching_known_values():
    assert max_matching(build_hypergraph(3, [{0, 1}, {1, 2}, {0, 2}])).size == 1
    assert max_matching(graph_to_hypergraph(generate.complete(4))).size == 2
    three = build_hypergraph(9, [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}])
    answer = max_matching(three)
    assert answer.size == 3
    assert answer.witness == frozenset({0, 1, 2})


def test_max_matching_witness_is_a_matching():
    h = graph_to_hypergraph(generate.random_graph(10, 0.4, seed=3))
    answer = max_matching(h)
    assert validate_matching(h, Matching(answer.witness)).ok
    assert len(answer.witness) == answer.size


def test_max_matching_agrees_with_subset_enumeration():
    for seed in range(12):
        h = generate.random_hypergraph(9, 10, 2 + seed % 3, seed=seed)
        assert max_matching(h).size == _max_matching_by_subsets(h)


def test_max_graph_matching_wrapper():
    assert max_graph_matching(generate.cycle(5)).size == 2


def test_mis_known_values():
    assert max_independent_set(generate.cycle(5)).size == 2
    assert max_independent_set(generate.complete(7)).size == 1
    assert max_independent_set(build_graph(6, [])).size == 6


def test_mis_agrees_with_subset_enumeration():
    for seed in range(12):
        g = generate.random_graph(10, 0.1 + 0.06 * (seed % 5), seed=seed)
        assert max_independent_set(g).size == _max_independent_set_by_subsets(g)


def test_mis_witness_is_independent():
    g = generate.random_graph(12, 0.3, seed=1)
    answer = max_independent_set(g)
    assert len(answer.witness) == answer.size
    for v in answer.witness:
        assert not set(g.adjacency[v]) & answer.witness


def test_arboricity_known_values():
    assert arboricity(generate.path(8)) == 1
    assert arboricity(generate.complete(4)) == 2
    assert arboricity(generate.complete(5)) == 3
    assert arboricity(generate.cycle(6)) == 2
    assert arboricity(build_graph(3, [])) == 0


def test_arboricity_of_petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    g = build_graph(10, outer + inner + spokes)
    # 15 edges on 10 nodes: ceil(15/9) = 2 and a 2-forest split exists
    assert arboricity(g) == 2


def test_neighborhood_independence_known_values():
    assert neighborhood_independence(generate.cycle(5)) == 2
    assert neighborhood_independence(generate.complete(6)) == 1
    assert neighborhood_independence(generate.star(7)) == 6
    assert neighborhood_independence(build_graph(4, [])) == 0


def test_line_graphs_have_bounded_neighborhood_independence():
    # pairwise-disjoint edges that all meet a rank-3 edge e must use
    # distinct vertices of e, so no line-graph neighborhood holds more
    # than 3 independent nodes
    for seed in range(6):
        h = generate.random_hypergraph(12, 14, 3, seed=seed)
        lg = generate.line_graph_of(h)
        if max(len(a) for a in lg.adjacency) <= 26:
            assert neighborhood_independence(lg) <= 3


def test_enumerate_maximal_matchings_counts():
    single = build_hypergraph(2, [{0, 1}])
    assert enumerate_maximal_matchings(single) == [frozenset({0})]
    tri = build_hypergraph(3, [{0, 1}, {1, 2}, {0, 2}])
    found = enumerate_maximal_matchings(tri)
    assert set(found) == {frozenset({0}), frozenset({1}), frozenset({2})}
    empty = build_hypergraph(4, [])
    assert enumerate_maximal_matchings(empty) == [frozenset()]


def test_enumerated_matchings_are_maximal():
    h = generate.random_hypergraph(8, 9, 3, seed=4)
    found = enumerate_maximal_matchings(h)
    assert found
    for m in found:
        assert validate_matching(h, Matching(m), require_maximal=True).ok


def test_budget_guards():
    big = graph_to_hypergraph(generate.random_graph(30, 0.4, seed=0))
    assert big.m > 24
    with pytest.raises(OverBudgetError):
        max_matching(big)
    with pytest.raises(OverBudgetError):
        max_independent_set(generate.random_graph(27, 0.2, seed=0))
    with pytest.raises(OverBudgetError):
        arboricity(generate.random_graph(15, 0.5, seed=0))
    with pytest.raises(OverBudgetError):
        enumerate_maximal_matchings(big)
    # a raised budget admits an instance just over the default limit
    over = graph_to_hypergraph(generate.random_graph(12, 0.5, seed=0))
    assert over.m > 24
    with pytest.raises(OverBudgetError):
        max_matching(over)
    loose = OracleBudget(matching_edges=over.m)
    assert max_matching(over, budget=loose).size >= 1


def test_neighborhood_budget_counts_neighbors_not_nodes():
    # a big star is fine: every neighborhood is small except the center,
    # whose neighborhood is edgeless but large
    with pytest.raises(OverBudgetError):
        neighborhood_independence(generate.star(40))
    assert neighborhood_independence(generate.star(20)) == 19


def test_budget_errors_are_not_value_errors():
    # the command line maps budget overruns to their own exit code
    assert not issubclass(OverBudgetError, ValueError)
