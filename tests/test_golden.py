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
     "c52db4eaa3493cb046881a896482d272f89de46b5238186ea7cc597f308e74b4"),
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
    return sorted(maximal_independent_set(generate.random_graph(70, 0.95, seed=2), 69, ledger))


DRIVEN = [
    # case, driver label, solution size, ledger total, digest as in GOLDEN
    (dense_graph_matching_case, "maximal_driver", 33, 2218,
     "30e7f2280eddc0e3521c3b7c4faef30f5a0e61bf3e370569b6885568fcb0416e"),
    (rank4_matching_case, "maximal_driver", 4, 483,
     "8fe41358c674d25d90f0f352828c8f3b0c4b317c0d5553664eac8ede80f97ff5"),
    (dense_graph_mis_case, "mis_driver", 3, 105,
     "8bae195acdf578a1622a56bfd2ec8c1623f4b39534e2b5d8c1fb461110cd7807"),
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
     "6a11e446e2345a0ae91786e8b58581fe14b8ec87bb935bb1b377fd73d7d2eae0"),
    (recursion_case("matching", 16), 1,
     "6d793f09f721c0336a14301d627d5bcfae09cb9b61fed57a2d85e0f08791e0a7"),
    (recursion_case("matching", 32), 1,
     "26edd9a35c3964806a75a80f46ca8589c1c53aa4889a91a602729f00f8ba78e2"),
    (recursion_case("packing", 8, (12, 9, 128)), 1,
     "86faee781b01c1a746ad3abd82c24137b7c7e60febf8f4fa65ffa38788ba59e7"),
    (recursion_case("packing", 32, (12, 27, 1024)), 2,
     "e42614d054c44f8ee9adae957aac1279dce59b4e68a52f529b5ccd8434265f98"),
    (recursion_case("packing", 32, (16, 146, 512), "_seed_146"), 2,
     "1c7710a0ca9832e5a03582d47fa26ce59b212dd895fa11f3dfc84f864e6931c5"),
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
