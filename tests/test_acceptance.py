"""Acceptance suite: one test per shipped guarantee.

Each test below checks one headline guarantee of the package end to end,
with exact rational comparisons wherever the guarantee is an exact
factor.  Run with ``pytest -v tests/test_acceptance.py`` to get a single
pass/fail line per guarantee.

The corpora are all generated deterministically, and every optimum comes
from the brute-force oracles, so a pass here is reproducible bit for bit.
"""

import math
import time
from fractions import Fraction

import pytest
from helpers import closed_loads, drop_graph_edge, drop_hyperedge, loose_cycle

from hypermatch import apps, coloring, edge_coloring, generate, oracles, packing, rounding
from hypermatch.audit import PRIMITIVES, audit_locality
from hypermatch.core import (
    Graph,
    build_graph,
    is_power_of_two,
    line_graph,
    next_power_of_two,
    validate_edge_coloring,
    validate_fractional_matching,
    validate_independent_set,
    validate_matching,
)
from hypermatch.ledger import RoundLedger, check_recurrence_bound


# ---------------------------------------------------------------- helpers


def circulant(n: int, degree: int) -> Graph:
    """Every node adjacent to its `degree/2` nearest neighbors each way."""
    assert degree % 2 == 0 and degree < n
    edges = set()
    for i in range(n):
        for j in range(1, degree // 2 + 1):
            edges.add(tuple(sorted((i, (i + j) % n))))
    return build_graph(n, sorted(edges))


def random_tree(n: int, seed: int) -> Graph:
    """Random recursive tree: node i attaches to a uniform earlier node."""
    import random

    rng = random.Random(seed)
    return build_graph(n, [(i, rng.randrange(i)) for i in range(1, n)])


def wheel(spokes: int) -> Graph:
    rim = [(i, i % spokes + 1) for i in range(1, spokes + 1)]
    return build_graph(spokes + 1, [(0, i) for i in range(1, spokes + 1)] + rim)


def grid(rows: int, cols: int) -> Graph:
    def node(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((node(r, c), node(r, c + 1)))
            if r + 1 < rows:
                edges.append((node(r, c), node(r + 1, c)))
    return build_graph(rows * cols, edges)


@pytest.fixture(scope="module")
def small_hypergraphs():
    """100 random hypergraphs with n <= 20, at most 24 edges, rank 2..4."""
    corpus = []
    seed = 0
    while len(corpus) < 100:
        r = 2 + seed % 3
        n = 12 + seed % 9
        m = 8 + seed % 17
        corpus.append(generate.random_hypergraph(n, m, r, seed))
        seed += 1
    assert all(h.n <= 20 and h.m <= 24 and h.rank <= 4 for h in corpus)
    return corpus


# ------------------------------------------------------------- criteria


def test_criterion_01_greedy_fractional_factor(small_hypergraphs):
    started = time.perf_counter()
    for h in small_hypergraphs:
        x = rounding.greedy_fractional_matching(h)
        opt = oracles.max_matching(h).size
        assert x.total() * 2 * h.rank >= opt
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0


def test_criterion_02_basic_rounding_factor(small_hypergraphs):
    def check(h, factor, denom):
        x = rounding.greedy_fractional_matching(h, denom)
        y = rounding.basic_round(h, x, factor, denom)
        assert validate_fractional_matching(h, y)
        floor = Fraction(factor, denom)
        for val in y.values.values():
            assert val >= floor
            assert (val * denom).denominator == 1
        assert set(y.support()) <= set(x.support())
        assert y.total() * 2 * h.rank >= x.total()

    for factor, denom in ((2, 4), (4, 16)):
        eligible = [
            h
            for h in small_hypergraphs
            if next_power_of_two(h.max_degree) <= denom
        ]
        # the fixed denominator only makes sense when the greedy start fits
        assert len(eligible) >= 25
        for h in eligible:
            check(h, factor, denom)
    for h in small_hypergraphs:
        check(h, 2, next_power_of_two(h.max_degree))


def test_criterion_03_recursive_rounding_factor_and_round_bound():
    # fixed node count, doubling degrees: 4-regular through 32-regular
    family = {d: circulant(48, d) for d in (4, 8, 16, 32)}

    # factor and validity for each large rounding factor, including the
    # two nested stages the recursion works through
    h = family[8]
    for factor, denom in ((8, 128), (16, 256), (32, 1024)):
        x = rounding.greedy_fractional_matching(h, denom)
        y = rounding.recursive_round(h, x, factor, denom)
        assert validate_fractional_matching(h, y)
        assert y.total() * 4 * h.rank >= x.total()
        floor = Fraction(factor, denom)
        assert all(val >= floor for val in y.values.values())
        j = factor.bit_length()
        s1, s2 = 1 << ((j + 1) // 2), 1 << (j // 2)
        z1 = rounding.recursive_round(h, x, s1, denom)
        assert validate_fractional_matching(h, z1)
        z2 = rounding.recursive_round(h, z1, s2, denom // s1)
        assert validate_fractional_matching(h, z2)

    # round totals across the degree family against the closed form,
    # with a single (alpha, c) fitted once for all four degrees
    factor, denom, alpha = 8, 128, 32
    measured = {}
    for degree, hg in family.items():
        x = rounding.greedy_fractional_matching(hg, denom)
        ledger = RoundLedger()
        rounding.recursive_round(hg, x, factor, denom, ledger=ledger)
        measured[degree] = ledger.total
    unit = {
        degree: check_recurrence_bound(0, factor, 2, degree, alpha, 1).bound
        for degree in family
    }
    c = max(Fraction(measured[d]) / unit[d] for d in family)
    assert c > 0
    for degree, hg in family.items():
        result = check_recurrence_bound(
            measured[degree], factor, hg.rank, degree, alpha, c
        )
        assert result.ok, (degree, result)


def test_criterion_04_maximal_matching_and_iteration_cap():
    for seed in range(200):
        r = 2 + seed % 3
        n = 12 + (seed * 7) % 49
        m = min(2 * n, math.comb(n, r))
        h = generate.random_hypergraph(n, m, r, seed)
        assert h.n <= 60 and h.rank <= 4
        ledger = RoundLedger()
        matched = rounding.maximal_matching(h, ledger)
        assert validate_matching(h, matched, require_maximal=True)
        iterations = ledger.total_for("maximal_driver")
        assert iterations <= math.ceil(32 * h.rank**3 * math.log2(h.n)) + 1


def test_criterion_05_edge_coloring_lists_and_reduction_soundness():
    corpus = [
        build_graph(2, [(0, 1)]),
        build_graph(4, [(0, 1), (2, 3)]),
        generate.path(3),
        generate.complete(3),
    ]
    seed = 0
    while len(corpus) < 100:
        n = 10 + (seed * 5) % 31
        g = generate.random_graph(n, 0.09 + (seed % 4) * 0.03, seed)
        if 1 <= g.m and g.max_degree <= 8:
            corpus.append(g)
        seed += 1
    assert all(g.n <= 40 and g.max_degree <= 8 for g in corpus)

    soundness_checked = 0
    for idx, g in enumerate(corpus):
        palette = 2 * g.max_degree - 1
        res = edge_coloring.edge_color(g)
        assert validate_edge_coloring(g, res.colors, palette=palette)

        # adversarial minimum-size lists: heavily shared low colors
        lists = {}
        for eid in range(g.m):
            need = edge_coloring.adjacent_edge_count(g, eid) + 1
            start = (idx + eid) % 3
            lists[eid] = tuple(range(start, start + need))
        out = edge_coloring.list_edge_color(g, lists)
        assert validate_edge_coloring(g, out.colors, lists=lists)

        reduced = edge_coloring.reduce_hypergraph_list_edge_coloring(
            g, edge_coloring.full_palette_lists(g, palette)
        )
        if reduced.hypergraph.m <= oracles.ENUMERATE_EDGES:
            for mm in oracles.enumerate_maximal_matchings(reduced.hypergraph):
                colors = edge_coloring.decode_matching(reduced, g.m, mm)
                assert sorted(colors) == list(range(g.m))
            soundness_checked += 1
    assert soundness_checked >= 3


def test_criterion_06_mis_factor_and_packing_invariants():
    corpus = []
    seed = 0
    while len(corpus) < 100:
        n = 8 + seed % 15
        g = generate.random_graph(n, 0.15 + (seed % 3) * 0.1, seed)
        if g.m >= 1:
            corpus.append(g)
        seed += 1
    assert all(g.n <= 22 for g in corpus)

    for g in corpus:
        rho = max(1, oracles.neighborhood_independence(g))
        chosen = packing.maximal_independent_set(g, rho)
        assert validate_independent_set(g, chosen, require_maximal=True)

        approx = packing.approx_mis(g, rho)
        best = oracles.max_independent_set(g).size
        assert Fraction(len(approx)) >= Fraction(best, 32 * rho**3)

        # replay the rounding stages and check each intermediate packing
        denom = next_power_of_two(g.max_degree + 1)
        x = packing.initial_packing(g, denom)
        stages = [x]
        if denom > 1:
            base = coloring.linial_coloring(g)
            lg = denom.bit_length() - 1
            left = denom // (lg * lg)
            left = 1 << (left.bit_length() - 1) if left >= 1 else 1
            if left >= 2 and 4 * left <= denom:
                x = packing.recursive_round_packing(g, x, left, denom, rho, base)
                stages.append(x)
            else:
                left = 1
            remaining = denom // left
            x = packing.basic_round_packing(g, x, remaining, remaining, rho, base)
            stages.append(x)
        for stage in stages:
            assert packing.verify_greedy_packing(g, stage)
            loads = closed_loads(g, stage.values)
            assert all(load <= rho for load in loads)


def test_criterion_07_line_graph_mis_gives_hypergraph_matching():
    for seed in range(50):
        n = 9 + seed % 5
        m = 10 + seed % 8
        h = generate.random_hypergraph(n, m, 3, seed)
        g = line_graph(h)
        rho = max(1, oracles.neighborhood_independence(g))
        chosen = packing.maximal_independent_set(g, rho)
        assert validate_matching(
            h, frozenset(chosen), require_maximal=True
        )


def test_criterion_08_approx_matching_factor():
    corpus = []
    seed = 0
    while len(corpus) < 50:
        n = 8 + seed % 17
        g = generate.random_graph(n, 0.1 + (seed % 3) * 0.05, seed)
        if 1 <= g.m <= 24:
            corpus.append(g)
        seed += 1
    assert all(g.n <= 24 for g in corpus)

    for g in corpus:
        opt = oracles.max_matching(g).size
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
            found = apps.approx_max_graph_matching(g, eps)
            assert len(found) >= math.ceil(Fraction(opt) / (1 + eps))


def test_criterion_09_orientation_and_pseudo_forests():
    corpus = []
    seed = 0
    while len(corpus) < 50:
        n = 7 + seed % 8
        g = generate.random_graph(n, 0.2 + (seed % 4) * 0.1, seed)
        if g.m >= 1:
            corpus.append(g)
        seed += 1
    assert all(g.n <= 14 for g in corpus)

    for g in corpus:
        lam = oracles.arboricity(g)
        for eps in (Fraction(1), Fraction(1, 2)):
            o = apps.low_outdegree_orientation(g, lam, eps)
            assert o.max_out_degree <= math.ceil((1 + eps) * lam)
            assert apps.validate_orientation(g, o)
            classes = apps.pseudo_forest_decomposition(g, o)
            assert sorted(e for cls in classes for e in cls) == list(range(g.m))
            for cls in classes:
                assert apps.validate_pseudo_forest(g, cls)


def test_criterion_10_arboricity_edge_coloring_palette():
    samples = [
        generate.path(10),
        generate.path(14),
        generate.star(9),
        generate.star(13),
        random_tree(8, 0),
        random_tree(11, 1),
        random_tree(14, 2),
        generate.cycle(8),
        generate.cycle(11),
        generate.cycle(14),
        generate.complete(4),
        wheel(6),
        grid(3, 4),
        grid(2, 7),
    ]
    for g in samples:
        a = oracles.arboricity(g)
        for eps in (Fraction(1), Fraction(1, 2)):
            res = edge_coloring.arboricity_edge_color(g, a, eps)
            limit = g.max_degree + math.ceil((2 + eps) * a) - 1
            assert res.palette <= limit
            assert max(res.colors.values()) <= limit
            assert validate_edge_coloring(g, res.colors, palette=limit)


def test_criterion_11_randomized_coloring_always_proper():
    instances = [generate.d_regular(n, 4, 9) for n in (12, 16, 20, 24)]
    assert all(g.max_degree == 4 for g in instances)
    finished = 0
    attempted = 0
    for g in instances:
        for seed in range(50):
            res = edge_coloring.randomized_edge_color(g, seed)
            assert validate_edge_coloring(
                g, res.colors, palette=2 * g.max_degree - 1
            )
            finished += res.stats["colored_in_trials"]
            attempted += res.stats["total_edges"]
    share = finished / attempted
    # soft statistic, logged but not gating
    print(f"\nrandomized trials colored {share:.1%} of edges (target 90%)")


def test_criterion_12_locality_audits():
    passed = {name: 0 for name in ("greedy_step", "greedy", "linial", "defective")}

    for k in (10, 12, 14, 16, 18):
        h = loose_cycle(k)
        for vertex in (0, 3, 7, 2 * k - 5):
            far = (vertex // 2 + k // 2) % k
            verdict = audit_locality(
                "greedy_step", h, vertex, 1, drop_hyperedge(h, far),
                params={"denom": 4},
            )
            assert verdict, verdict.reason
            passed["greedy_step"] += 1

    for k in (14, 16, 18, 20):
        h = loose_cycle(k)
        for vertex in (0, 5, 9, 13, 2 * k - 7):
            far = (vertex // 2 + k // 2) % k
            verdict = audit_locality(
                "greedy", h, vertex, 2, drop_hyperedge(h, far),
                params={"denom": 4},
            )
            assert verdict, verdict.reason
            passed["greedy"] += 1

    for n in (70, 80, 90, 100):
        g = generate.cycle(n)
        radius = len(coloring.reduction_schedule(n, 2))
        for vertex in (0, 11, 23, 37, 53):
            far = next(
                eid
                for eid, (u, v) in enumerate(g.edges)
                if min(abs(u - vertex), n - abs(u - vertex)) > radius + 2
                and min(abs(v - vertex), n - abs(v - vertex)) > radius + 2
            )
            verdict = audit_locality(
                "linial", g, vertex, radius, drop_graph_edge(g, far),
                params={"palette_bound": n, "degree_cap": 2},
            )
            assert verdict, verdict.reason
            passed["linial"] += 1

            radius_d = coloring.defective_radius(n, 2, 1)
            verdict = audit_locality(
                "defective", g, vertex, radius_d, drop_graph_edge(g, far),
                params={"palette_bound": n, "degree_cap": 2, "defect": 1},
            )
            assert verdict, verdict.reason
            passed["defective"] += 1

    assert set(passed) == set(PRIMITIVES)
    assert all(count >= 20 for count in passed.values())
