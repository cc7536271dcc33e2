"""Matching approximation, orientations and pseudo-forest splits."""

import time
from collections import deque
from fractions import Fraction
from itertools import combinations

import pytest

from hypermatch import apps, generate
from hypermatch.apps import (
    Orientation,
    OrientationBoundError,
    PathBudgetError,
    approx_max_graph_matching,
    low_outdegree_orientation,
    pseudo_forest_decomposition,
    validate_orientation,
    validate_path_set,
    validate_pseudo_forest,
)
from hypermatch.core import build_graph, validate_matching
from hypermatch.ledger import RoundLedger
from hypermatch.oracles import arboricity, max_matching


def ceil_div(opt: int, eps: Fraction) -> int:
    return -((-opt) // (1 + eps))


class TestApproxMatching:
    def test_three_edge_path_single_phase(self):
        g = generate.path(4)
        m = approx_max_graph_matching(g, 1)
        assert validate_matching(g, m).ok
        assert len(m) >= 1  # ceil(2 / 2)

    def test_three_edge_path_reaches_optimum(self):
        g = generate.path(4)
        m = approx_max_graph_matching(g, Fraction(1, 3))
        assert len(m) == 2

    def test_empty_graph(self):
        g = build_graph(3, [])
        assert approx_max_graph_matching(g, 1) == frozenset()

    def test_eps_out_of_range(self):
        g = generate.path(4)
        with pytest.raises(ValueError):
            approx_max_graph_matching(g, 0)
        with pytest.raises(ValueError):
            approx_max_graph_matching(g, 2)

    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2), Fraction(1, 3)])
    def test_factor_on_random_instances(self, eps):
        for seed in range(6):
            g = generate.random_graph(12, 0.3, seed=seed)
            opt = max_matching(g).size
            m = approx_max_graph_matching(g, eps)
            assert validate_matching(g, m).ok
            assert len(m) >= ceil_div(opt, eps)

    @pytest.mark.parametrize("p", [0.015, 0.02, 0.03])
    def test_factor_against_networkx_beyond_the_oracle_budget(self, p):
        # 200 nodes and 300-650 edges: far past the 24-edge brute force
        nx = pytest.importorskip("networkx")
        for seed in (1, 2):
            g = generate.random_graph(200, p, seed=seed)
            ref = nx.Graph()
            ref.add_nodes_from(range(g.n))
            ref.add_edges_from(g.edges)
            opt = len(nx.max_weight_matching(ref, maxcardinality=True))
            for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
                m = approx_max_graph_matching(g, eps)
                assert validate_matching(g, m).ok
                assert len(m) >= ceil_div(opt, eps)

    def test_almost_maximal_mode_stays_close(self):
        for seed in range(3):
            g = generate.random_graph(12, 0.3, seed=10 + seed)
            opt = max_matching(g).size
            m = approx_max_graph_matching(g, Fraction(1, 2), almost_maximal=True)
            assert validate_matching(g, m).ok
            # slack-weakened factor: OPT/(1 + 2*eps)
            assert len(m) * 2 >= opt

    def test_phase_ledger_charges_odd_lengths(self):
        g = generate.random_graph(10, 0.3, seed=4)
        led = RoundLedger()
        approx_max_graph_matching(g, Fraction(1, 2), ledger=led)
        phases = [e.rounds for e in led.entries if e.label == "augmenting_phase"]
        assert phases == [1, 3]


class TestPathSets:
    def test_vertex_disjoint_accepted(self):
        assert validate_path_set(((0, 1), (2, 3, 4, 5)), "vertex").ok

    def test_shared_vertex_rejected(self):
        assert not validate_path_set(((0, 1), (1, 2)), "vertex").ok

    def test_edge_mode_allows_shared_vertices(self):
        assert validate_path_set(((0, 1, 2), (2, 3)), "edge").ok
        assert not validate_path_set(((0, 1, 2), (1, 2, 3)), "edge").ok

    def test_degenerate_paths_rejected(self):
        assert not validate_path_set(((0,),), "vertex").ok
        assert not validate_path_set(((0, 1, 0),), "vertex").ok


class TestOrientation:
    def test_tree_within_double_bound(self):
        edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
        g = build_graph(7, edges)
        o = low_outdegree_orientation(g, 1, 1)
        assert validate_orientation(g, o).ok
        assert o.max_out_degree <= 2

    def test_cycle_six(self):
        g = generate.cycle(6)
        o = low_outdegree_orientation(g, 1, 1)
        assert validate_orientation(g, o).ok
        assert o.bound == 2

    def test_k5_with_oracle_arboricity(self):
        g = generate.complete(5)
        lam = arboricity(g)
        assert lam == 3
        o = low_outdegree_orientation(g, lam, Fraction(1, 3))
        assert validate_orientation(g, o).ok
        assert o.max_out_degree <= 4  # ceil((4/3) * 3)

    def test_impossible_bound_raises(self):
        # 15 edges on 6 nodes force some out-degree >= 3, but the claimed
        # bound allows only 2
        g = generate.complete(6)
        with pytest.raises(OrientationBoundError):
            low_outdegree_orientation(g, 1, 1)

    def test_bound_is_exact_ceiling(self):
        g = generate.cycle(8)
        o = low_outdegree_orientation(g, 2, Fraction(1, 2))
        assert o.bound == 3

    def test_validator_catches_wrong_counts(self):
        g = generate.cycle(4)
        # every node sends its one out-edge to its successor: 0->1, 1->2, 2->3, 3->0
        around = (0, 1, 2, 3)
        assert validate_orientation(g, Orientation(tails=around, bound=1)).ok
        # reversing 0->1 gives node 1 a second out-edge; the validator
        # counts it from the tails
        flipped = Orientation(tails=(1,) + around[1:], bound=1)
        assert flipped.max_out_degree == 2
        verdict = validate_orientation(g, flipped)
        assert verdict.reason == "out-degree 2 exceeds bound 1"

    @pytest.mark.parametrize("tails, reason", [
        ((0, 1, 2), "expected 4 tails, got 3"),
        ((0, 1, 0, 3), "tail 0 is not an endpoint of edge 2 = (2, 3)"),
    ])
    def test_validator_checks_each_tail(self, tails, reason):
        verdict = validate_orientation(generate.cycle(4), Orientation(tails=tails, bound=2))
        assert verdict.reason == reason


class TestPseudoForests:
    def test_tree_toward_root_single_class(self):
        # every non-root node points at its parent: out-degree 1
        edges = [(1, 0), (2, 0), (3, 1), (4, 1)]
        g = build_graph(5, edges)
        o = Orientation(tails=tuple(u for u, _ in edges), bound=1)
        assert validate_orientation(g, o).ok
        classes = pseudo_forest_decomposition(g, o)
        assert len(classes) == 1
        assert classes[0] == frozenset(range(4))

    def test_consistent_cycle_fills_first_class(self):
        g = generate.cycle(4)
        # send every node to its successor: 0->1, 1->2, 2->3, 3->0
        o = Orientation(tails=(0, 1, 2, 3), bound=2)
        assert validate_orientation(g, o).ok
        classes = pseudo_forest_decomposition(g, o)
        assert classes[0] == frozenset(range(4))
        assert classes[1] == frozenset()
        assert validate_pseudo_forest(g, classes[0]).ok

    def test_k5_classes_are_pseudo_forests(self):
        g = generate.complete(5)
        o = low_outdegree_orientation(g, 3, Fraction(1, 3))
        classes = pseudo_forest_decomposition(g, o)
        assert len(classes) == o.bound
        total = 0
        for c in classes:
            assert validate_pseudo_forest(g, c).ok
            total += len(c)
        assert total == g.m

    def test_two_triangles_sharing_nothing(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        g = build_graph(6, edges)
        assert validate_pseudo_forest(g, frozenset(range(6))).ok

    def test_theta_graph_is_not_a_pseudo_forest(self):
        # two nodes joined by three internally disjoint paths: two cycles
        edges = [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)]
        g = build_graph(5, edges)
        verdict = validate_pseudo_forest(g, frozenset(range(6)))
        assert not verdict.ok

    def test_invalid_orientation_rejected(self):
        g = generate.cycle(4)
        bad = Orientation(tails=(), bound=1)
        with pytest.raises(ValueError):
            pseudo_forest_decomposition(g, bad)


@pytest.mark.parametrize("solve", [
    lambda g: approx_max_graph_matching(g, 1),
    lambda g: low_outdegree_orientation(g, 2, Fraction(1, 2)),
], ids=["approx-matching", "orientation"])
def test_drivers_raise_path_budget_error_above_the_cap(monkeypatch, solve):
    g = generate.complete(6)
    solve(g)  # within the real cap
    monkeypatch.setattr(apps, "PATH_CAP", 2)
    with pytest.raises(PathBudgetError, match="more than 2 "):
        solve(g)


def _greedy_mate(g):
    mate = {}
    for u, v in g.edges:
        if u not in mate and v not in mate:
            mate[u], mate[v] = v, u
    return mate


def _with_matching(n, matched, unmatched):
    """Graph on n nodes whose ``matched`` edges form the given matching."""
    mate = {}
    for u, v in matched:
        mate[u], mate[v] = v, u
    return build_graph(n, matched + unmatched), mate


def _packed_path_instances():
    for seed in range(5):
        g = generate.random_graph(10, 0.35, seed=30 + seed)
        yield g, _greedy_mate(g)
    # three length-3 augmenting paths on three disjoint P4s
    yield _with_matching(12, [(1, 2), (5, 6), (9, 10)],
                         [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)])
    # nine overlapping P4s through one matched middle edge (0, 1): three
    # exposed nodes on each side
    yield _with_matching(8, [(0, 1)],
                         [(0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])
    # an alternating 8-cycle with an exposed pendant at every node, plus one
    # exposed node 16 seen by three matched nodes: paths share middle edges
    # and the endpoint 16
    cycle = [(i, (i + 1) % 8) for i in range(8)]
    matched = cycle[0::2]
    unmatched = cycle[1::2] + [(i, 8 + i) for i in range(8)]
    unmatched += [(0, 16), (2, 16), (5, 16)]
    yield _with_matching(17, matched, unmatched)


def test_no_augmenting_paths_between_packed_paths():
    """Two augmenting paths that share a node always share a packing element.

    The packing hypergraph only tracks exposed endpoints and matched
    edges, so this is what makes a maximal matching there give
    vertex-disjoint paths here.
    """
    from hypermatch.apps import _simple_paths

    compared = 0
    for g, mate in _packed_path_instances():

        def step(v, depth):
            if depth % 2:
                return [(mate[v], None)] if v in mate else []
            return [(u, None) for u in g.adjacency[v] if mate.get(v) != u]

        exposed = [v for v in range(g.n) if v not in mate]
        found = _simple_paths(exposed, step, lambda p: p[-1] not in mate and p[0] < p[-1],
                              3, "augmenting paths")
        paths = [nodes for nodes, _ in found]
        for i in range(len(paths)):
            for j in range(i + 1, len(paths)):
                p, q = paths[i], paths[j]
                if set(p) & set(q):
                    compared += 1
                    share_exposed = p[0] in (q[0], q[-1]) or p[-1] in (q[0], q[-1])
                    p_mids = {tuple(sorted(p[1:3]))}
                    q_mids = {tuple(sorted(q[1:3]))}
                    assert share_exposed or p_mids & q_mids
    assert compared >= 20


def pseudo_arboricity(g):
    """The least b such that every edge can be given to one of its endpoints
    with at most b edges per node: a max-flow from the edges to the nodes,
    node capacity b (Goldberg 1984).

    The flow is kept as an orientation, each edge given to its tail.  An
    augmenting path runs along out-edges from a node holding more than b
    edges to one holding fewer, and reversing it moves one unit.  When no
    such path is left b is too small, and b + 1 starts from the same flow.
    """
    out = [set() for _ in range(g.n)]
    for eid, (u, _) in enumerate(g.edges):
        out[u].add(eid)
    b = -(-g.m // g.n) if g.n else 0
    while True:
        over = [v for v in range(g.n) if len(out[v]) > b]
        if not over:
            return b
        # breadth-first over out-edges from every node above b; prev holds
        # the edge that reached each node
        prev = dict.fromkeys(over)
        queue = deque(over)
        end = None
        while queue and end is None:
            v = queue.popleft()
            for eid in out[v]:
                u = sum(g.edges[eid]) - v
                if u not in prev:
                    prev[u] = eid
                    if len(out[u]) < b:
                        end = u
                        break
                    queue.append(u)
        if end is None:
            b += 1
            continue
        v = end
        while prev[v] is not None:
            eid = prev[v]
            tail = sum(g.edges[eid]) - v
            out[tail].remove(eid)
            out[v].add(eid)
            v = tail


@pytest.mark.parametrize("g", [
    *(generate.random_graph(8, 0.5, seed=seed) for seed in range(6)),
    generate.complete(6), generate.cycle(7), generate.path(5), build_graph(3, []),
])
def test_pseudo_arboricity_is_the_densest_subgraph_ceiling(g):
    """max over node sets S of ceil(m_S / n_S), by brute force."""
    densest = 0
    for size in range(1, g.n + 1):
        for nodes in combinations(range(g.n), size):
            inside = set(nodes)
            m_s = sum(u in inside and v in inside for u, v in g.edges)
            densest = max(densest, -(-m_s // size))
    assert pseudo_arboricity(g) == densest


@pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1)], ids=["eps=1/2", "eps=1"])
@pytest.mark.parametrize("n, seed", [(n, seed) for n in (300, 1000) for seed in range(3)])
def test_orientation_against_exact_pseudo_arboricity(n, seed, eps):
    """Past the oracle budget: every lambda from 1 to p* + 1 on G(n, 4/n).

    A bound below p* must raise at once with the reachability certificate,
    which in turn must never appear at a bound of p* or more; lambda >= p* + 1
    must succeed, since the arboricity is at most p* + 1 (Nash-Williams).
    """
    g = generate.random_graph(n, 4 / n, seed=seed)
    p = pseudo_arboricity(g)
    assert apps.out_degree_bound(1, eps) < p  # some bound below p* is tried
    for lam in range(1, p + 2):
        bound = apps.out_degree_bound(lam, eps)
        if bound < p:
            start = time.perf_counter()
            with pytest.raises(OrientationBoundError, match="reachable"):
                low_outdegree_orientation(g, lam, eps)
            assert time.perf_counter() - start < 5
            continue
        try:
            o = low_outdegree_orientation(g, lam, eps)
        except OrientationBoundError as exc:
            assert "reachable" not in str(exc)
            assert lam <= p
        else:
            assert validate_orientation(g, o).ok
