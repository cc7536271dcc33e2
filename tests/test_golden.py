"""Golden outputs of rounding-heavy runs, of the `apps` drivers and of
recursive rounding passes in witness order, pinned byte for byte.

Each case pins the solution together with the ledger records of the run:
its size, its ledger total and a SHA-256 digest of both as canonical
JSON.  Speed work on the rounding engine must leave all three unchanged.
The driven cases also pin a second iteration of the maximal driver, which
only a greedy base denominator of at least 128 allows.

ROADMAP item 2 changes these values on purpose: a (Delta_L+1)-coloring
stage hands the basic rounding sweep fewer, larger color classes, which
changes which items each class raises and how many rounds are charged.
That change recomputes the values below and says so.

A defective step takes the first point that at most ``defect`` neighbors
share, not the point of fewest; that rule set the values of every case
that runs a step with defect > 0 (all but the edge-coloring, line-graph
MIS and `apps` cases).
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from hypermatch import apps, generate
from hypermatch.core import build_hypergraph, line_graph
from hypermatch.edge_coloring import edge_color
from hypermatch.ledger import RoundLedger
from hypermatch.packing import initial_packing, maximal_independent_set, recursive_round_packing
from hypermatch.rounding import greedy_fractional_matching, maximal_matching, recursive_round


def hub_hypergraph():
    """600 nodes, 1040 rank-3 edges, each holding one of two hubs of degree 520.

    Max degree above 512 makes denom 1024, so this runs recursive_round
    and a defective coloring with defect > 0.
    """
    rng = random.Random(5)
    edges = [[i % 2, *rng.sample(range(2, 600), 2)] for i in range(1040)]
    return build_hypergraph(600, edges)


def edge_coloring_case(ledger):
    colors = edge_color(generate.random_graph(36, 0.12, seed=3), ledger).colors
    return sorted(colors.items())


def hub_matching_case(ledger):
    return sorted(maximal_matching(hub_hypergraph(), ledger))


def line_graph_mis_case(ledger):
    g = line_graph(generate.random_hypergraph(200, 600, 3, seed=4))
    return sorted(maximal_independent_set(g, 3, ledger))


GOLDEN = [
    # case, solution size, ledger total, digest of [solution, ledger records]
    (edge_coloring_case, 72, 941,
     "9f58b05d444342f418bb0fb5d4d078856b4deaf28c3ea8f37e51db28f89ec9de"),
    (hub_matching_case, 2, 1296,
     "702482495e29d43c9650f7a460cd25dd3fd9891a84b613b832a6d666af685e52"),
    (line_graph_mis_case, 49, 607,
     "7230ca004c7ed9406add8bd8d7e40f94170a14942c80dce63348fed66e94d190"),
]


@pytest.mark.parametrize(
    "case, size, rounds, digest", GOLDEN, ids=[g[0].__name__ for g in GOLDEN]
)
def test_golden_output(case, size, rounds, digest):
    ledger = RoundLedger()
    solution = case(ledger)
    blob = json.dumps([solution, ledger.as_records()], sort_keys=True)
    assert len(solution) == size
    assert ledger.total == rounds
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def dense_graph_matching_case(ledger):
    return sorted(maximal_matching(generate.random_graph(66, 0.95, seed=3), ledger))


def rank4_matching_case(ledger):
    return sorted(maximal_matching(generate.random_hypergraph(20, 300, 4, seed=0), ledger))


def dense_graph_mis_case(ledger):
    """G(70, 0.95) at seed 11, whose MIS driver takes 2 iterations."""
    return sorted(maximal_independent_set(generate.random_graph(70, 0.95, seed=11), 69, ledger))


DRIVEN = [
    # case, driver label, solution size, ledger total, digest as in GOLDEN
    (dense_graph_matching_case, "maximal_driver", 33, 2219,
     "7a4730434dda505944b82af7ccf68a5b58c0d1af55b55535c16b5d9ca9b60d9e"),
    (rank4_matching_case, "maximal_driver", 5, 480,
     "cda2b1a80d9b712b7d671992e3a014a6f57f39eed2d1e894cb8c5a1183f3328a"),
    (dense_graph_mis_case, "mis_driver", 3, 105,
     "08be2c70722e7ffe4bc4f23776281eb8cdfb74bb5dea270ac5d255c1e8c258b9"),
]


@pytest.mark.parametrize(
    "case, label, size, rounds, digest", DRIVEN, ids=[g[0].__name__ for g in DRIVEN]
)
def test_driver_second_iteration(case, label, size, rounds, digest):
    ledger = RoundLedger()
    solution = case(ledger)
    records = ledger.as_records()
    blob = json.dumps([solution, records], sort_keys=True)
    assert [r["rounds"] for r in records if r["label"] == label] == [2]
    assert len(solution) == size
    assert ledger.total == rounds
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def approx_graph_matching_case(almost_maximal):
    def case(ledger):
        g = generate.random_graph(300, 0.01, seed=1)
        return sorted(apps.approx_max_graph_matching(g, Fraction(1, 3), almost_maximal, ledger))
    case.__name__ = f"approx_graph_matching_almost_maximal_{almost_maximal}"
    return case


def orientation_case(lam):
    def case(ledger):
        g = generate.random_graph(300, 4 / 300, seed=0)
        o = apps.low_outdegree_orientation(g, lam, Fraction(1, 2), ledger)
        classes = apps.pseudo_forest_decomposition(g, o)
        return [list(o.tails), [sorted(c) for c in classes]]
    case.__name__ = f"orientation_lambda_{lam}"
    return case


APPS = [
    # case, label, label records, ledger total, digest as in GOLDEN
    (approx_graph_matching_case(False), "augmenting_phase", 3, 547,
     "37bc22a0b9e065f280e4e30cd78564ea1b241750945462096e4841b5229daa49"),
    (approx_graph_matching_case(True), "augmenting_phase", 3, 547,
     "8a60494d126ef6c209db00e6098ed9c5b5e4c784742f70b3d3b16522478b0b19"),
    (orientation_case(2), "orientation_iteration", 2, 1193,
     "b446ad712af72541ac43b8cafabfad4556ebb5c6aadaf6929e125d981eddaf82"),
    (orientation_case(3), "orientation_iteration", 1, 591,
     "07bfeee6a24ae56c03844563b73ac216cf0149f219c0e6fe66798114347a9e87"),
]


@pytest.mark.parametrize(
    "case, label, count, rounds, digest", APPS, ids=[g[0].__name__ for g in APPS]
)
def test_apps_output(case, label, count, rounds, digest):
    """The path-packing drivers of `apps` (both matchings have size 132)."""
    ledger = RoundLedger()
    solution = case(ledger)
    records = ledger.as_records()
    blob = json.dumps([solution, records], sort_keys=True)
    assert len([r for r in records if r["label"] == label]) == count
    assert ledger.total == rounds
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def recursion_case(side, factor, graph=None, suffix=""):
    """A recursive rounding pass at ``factor``: on the hub hypergraph at
    denom 1024, or on the packing side (independence 1) of ``graph``, the
    (nodes, seed, denom) of a G(n, 0.3) random graph.

    Both packing cases at factor 32 take two accumulation iterations.  In
    the seed-146 one the second iteration's nested pass drops 3 of the 12
    still-open old items, which keep their places ahead of the items it
    raises."""
    def case(ledger):
        if side == "matching":
            h = hub_hypergraph()
            return recursive_round(h, greedy_fractional_matching(h, 1024), factor, 1024,
                                   ledger=ledger)
        nodes, seed, denom = graph
        g = generate.random_graph(nodes, 0.3, seed=seed)
        return recursive_round_packing(g, initial_packing(g, denom), factor, denom, 1,
                                       ledger=ledger)
    case.__name__ = f"{side}_factor_{factor}{suffix}"
    return case


WITNESS = [
    # case, outer iterations, digest of [numerators in witness order, scale,
    # ledger records of the pass]
    (recursion_case("matching", 8), 1,
     "2e26c32709f87b4a1617dd3cdf04d50f25996462096982811a8cd15dac59b623"),
    (recursion_case("matching", 16), 1,
     "d903b694e52fe087e28c6fa56bed1e95682b4ac8b4190a04e6ef2180e668dfad"),
    (recursion_case("matching", 32), 1,
     "6f6f332759546068a46fac027523f7a348e0444cff81f9d2681d411fe995f7bf"),
    (recursion_case("packing", 8, (12, 9, 128)), 1,
     "706cfcd40753d23514bf6d0f4ca55519e507a85108dab49ea139271e0b9f8286"),
    (recursion_case("packing", 32, (12, 27, 1024)), 2,
     "fb045fb7eaaceac372db0f697c15688a3a799f2f2d5db334b9ae634951863008"),
    (recursion_case("packing", 32, (16, 146, 512), "_seed_146"), 2,
     "e2bea9717d3761419bdd2c8966691a3b99828da5b95a930519e5471075ea319e"),
]


@pytest.mark.parametrize(
    "case, iterations, digest", WITNESS, ids=[g[0].__name__ for g in WITNESS]
)
def test_recursion_witness_order(case, iterations, digest):
    """The order of a recursive pass's output is its witness order, which a
    greedy packing verdict accepts in many variants; this pins the one the
    pass builds, where each item sits where its last raise put it."""
    ledger = RoundLedger()
    y = case(ledger)
    records = ledger.as_records()
    blob = json.dumps([list(y.nums.items()), y.scale, records], sort_keys=True)
    assert records[-1]["label"].startswith("recursive_round")
    assert records[-1]["rounds"] == iterations
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
