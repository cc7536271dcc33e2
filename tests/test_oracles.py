"""Brute-force reference solvers: known values, budgets, cross-checks.

The branch-and-bound, subset-DP and backtracking solvers are
cross-checked against the plain subset-enumeration implementations below,
which share no search logic with them.
"""

import math
import random

import pytest

from hypermatch import cli, edge_coloring, generate, io
from hypermatch.core import (
    build_graph,
    build_hypergraph,
    line_graph,
    validate_matching,
)
from hypermatch.oracles import (
    OverBudgetError,
    arboricity,
    enumerate_maximal_matchings,
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


def _arboricity_by_subsets(g):
    """Independent check: test every edge against every vertex subset."""
    if g.m == 0:
        return 0
    emasks = [(1 << u) | (1 << v) for u, v in g.edges]
    best = 1
    for subset in range(1, 1 << g.n):
        size = subset.bit_count()
        if size < 2:
            continue
        inside = sum(1 for em in emasks if em & subset == em)
        if inside:
            best = max(best, math.ceil(inside / (size - 1)))
    return best


def _maximal_matchings_by_subsets(h):
    """Independent check: test every edge subset for being a maximal matching."""
    masks = [sum(1 << v for v in edge) for edge in h.edges]
    m = h.m
    found = []
    for subset in range(1 << m):
        used = 0
        ok = True
        for i in range(m):
            if subset >> i & 1:
                if masks[i] & used:
                    ok = False
                    break
                used |= masks[i]
        if not ok:
            continue
        if any(not subset >> i & 1 and not masks[i] & used for i in range(m)):
            continue
        found.append(frozenset(i for i in range(m) if subset >> i & 1))
    found.sort(key=sorted)
    return found


def _seeded_graphs(count):
    """`count` seeded G(n, p) graphs with n <= 12, from sparse to dense."""
    for seed in range(count):
        rng = random.Random(seed)
        yield generate.random_graph(rng.randint(1, 12), rng.uniform(0.05, 0.9),
                                    seed=seed)


def test_max_matching_known_values():
    assert max_matching(build_hypergraph(3, [{0, 1}, {1, 2}, {0, 2}])).size == 1
    assert max_matching(generate.complete(4)).size == 2
    three = build_hypergraph(9, [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}])
    answer = max_matching(three)
    assert answer.size == 3
    assert answer.witness == frozenset({0, 1, 2})


def test_max_matching_witness_is_a_matching():
    h = generate.random_graph(10, 0.4, seed=3)
    answer = max_matching(h)
    assert validate_matching(h, answer.witness).ok
    assert len(answer.witness) == answer.size


def test_max_matching_agrees_with_subset_enumeration():
    for seed in range(12):
        h = generate.random_hypergraph(9, 10, 2 + seed % 3, seed=seed)
        assert max_matching(h).size == _max_matching_by_subsets(h)


def test_max_graph_matching_wrapper():
    # A Graph is a rank-2 Hypergraph, so max_matching takes it as it is
    # and no separate graph wrapper is needed.
    assert max_matching(generate.cycle(5)).size == 2


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


def test_arboricity_agrees_with_subset_enumeration():
    graphs = list(_seeded_graphs(48))
    assert len({(g.n, g.m) for g in graphs}) > 30
    for g in graphs:
        assert arboricity(g) == _arboricity_by_subsets(g), (g.n, g.edges)


def test_arboricity_at_the_node_budget():
    assert arboricity(generate.complete(14)) == 7
    assert arboricity(build_graph(14, [])) == 0
    assert arboricity(build_graph(0, [])) == 0
    g = generate.random_graph(14, 0.5, seed=2)
    assert arboricity(g) == _arboricity_by_subsets(g)


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
        lg = line_graph(h)
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
        assert validate_matching(h, m, require_maximal=True).ok


def test_enumerated_matchings_agree_with_subset_enumeration():
    checked = 0
    for g in _seeded_graphs(60):
        if g.m <= 12:
            assert enumerate_maximal_matchings(g) == _maximal_matchings_by_subsets(g)
            checked += 1
    assert checked >= 40
    for seed in range(30):
        h = generate.random_hypergraph(9, 1 + seed % 12, 1 + seed % 4, seed=seed)
        assert enumerate_maximal_matchings(h) == _maximal_matchings_by_subsets(h)


@pytest.mark.parametrize(
    "h",
    [
        build_hypergraph(0, []),
        build_hypergraph(4, []),
        build_hypergraph(3, [{0, 1}, {0, 1}, {0, 1}]),
        build_hypergraph(4, [{0}, {0}, {1}, {0, 1}, {2, 3}, {2, 3}, {3}]),
        build_hypergraph(5, [{0}, {1}, {2}, {3}, {4}]),
        build_hypergraph(6, [{0, 1, 2}, {2, 3, 4}, {4, 5, 0}, {1, 3, 5}, {0, 1, 2}]),
    ],
    ids=["no-nodes", "edgeless", "parallel", "parallel-rank-1", "rank-1", "rank-3"],
)
def test_enumerated_matchings_on_parallel_and_rank_one_edges(h):
    assert enumerate_maximal_matchings(h) == _maximal_matchings_by_subsets(h)


def test_enumerated_matchings_at_the_edge_budget():
    # what edge-color's soundness oracle enumerates for a path on 5 nodes
    g = generate.path(5)
    lists = edge_coloring.full_palette_lists(g, 2 * g.max_degree - 1)
    h = edge_coloring.reduce_hypergraph_list_edge_coloring(g, lists).hypergraph
    assert h.m == 12
    found = enumerate_maximal_matchings(h)
    assert found == _maximal_matchings_by_subsets(h)
    assert len(found) == 24


def test_budget_guards():
    big = generate.random_graph(30, 0.4, seed=0)
    assert big.m > 24
    with pytest.raises(OverBudgetError):
        max_matching(big)
    with pytest.raises(OverBudgetError):
        max_independent_set(generate.random_graph(27, 0.2, seed=0))
    with pytest.raises(OverBudgetError):
        arboricity(generate.random_graph(15, 0.5, seed=0))
    with pytest.raises(OverBudgetError):
        enumerate_maximal_matchings(big)
    over = generate.random_graph(12, 0.5, seed=0)
    assert over.m > 24
    with pytest.raises(OverBudgetError):
        max_matching(over)


def test_neighborhood_budget_counts_neighbors_not_nodes():
    # a big star is fine: every neighborhood is small except the center,
    # whose neighborhood is edgeless but large
    with pytest.raises(OverBudgetError):
        neighborhood_independence(generate.star(40))
    assert neighborhood_independence(generate.star(20)) == 19


def test_budget_errors_are_not_value_errors():
    # the command line maps budget overruns to their own exit code
    assert not issubclass(OverBudgetError, ValueError)


def test_soundness_oracle_refuses_before_building_the_reduction(
    tmp_path, monkeypatch, capsys
):
    built = []
    reduce = edge_coloring.reduce_hypergraph_list_edge_coloring

    def counted(h, lists):
        built.append(h.m)
        return reduce(h, lists)

    monkeypatch.setattr(edge_coloring, "reduce_hypergraph_list_edge_coloring", counted)
    # four edges with seven colors each: 28 reduced hyperedges
    inst = tmp_path / "star.gr"
    inst.write_text(io.format_graph(generate.star(5)))
    argv = ["run", "--algo", "edge-color", "--in", str(inst),
            "--out", str(tmp_path / "star.col")]
    assert cli.main(argv + ["--oracle"]) == 3
    assert capsys.readouterr().err == "oracle budget: edge count 28 exceeds oracle budget 12\n"
    # only edge_color itself reduced the instance
    assert built == [4]
