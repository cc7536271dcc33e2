"""Golden outputs of three rounding-heavy runs, pinned byte for byte.

Each case pins the solution together with the ledger records of the run:
its size, its ledger total and a SHA-256 digest of both as canonical
JSON.  Speed work on the rounding engine must leave all three unchanged.

ROADMAP item 2 changes these values on purpose: a (Delta_L+1)-coloring
stage hands the basic rounding sweep fewer, larger color classes, which
changes which items each class raises and how many rounds are charged.
That change recomputes the values below and says so.
"""

import hashlib
import json
import random

import pytest

from hypermatch import generate
from hypermatch.core import build_hypergraph
from hypermatch.edge_coloring import edge_color
from hypermatch.ledger import RoundLedger
from hypermatch.packing import maximal_independent_set
from hypermatch.rounding import maximal_matching


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
    return sorted(maximal_matching(hub_hypergraph(), ledger).edges)


def line_graph_mis_case(ledger):
    g = generate.line_graph_of(generate.random_hypergraph(200, 600, 3, seed=4))
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
