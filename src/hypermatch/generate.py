"""Deterministic instance families for experiments and tests.

Every family is a pure function of its parameters and seed, so the same
invocation always produces the same instance, byte for byte, once
serialized.  Randomized families draw from their own random.Random so
runs cannot interfere with each other.
"""

from __future__ import annotations

import math
import random
from collections import Counter

from .core import Graph, Hypergraph, build_graph, build_hypergraph

SWITCH_TRIES_PER_EDGE = 100


def random_hypergraph(n: int, m: int, r: int, seed: int = 0) -> Hypergraph:
    """m distinct hyperedges, each a uniform r-subset of n vertices."""
    if r < 1 or n < r:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if m < 0 or m > math.comb(n, r):
        raise ValueError(f"cannot place {m} distinct {r}-subsets of {n} vertices")
    rng = random.Random(seed)
    edges: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    while len(edges) < m:
        e = frozenset(rng.sample(range(n), r))
        if e not in seen:
            seen.add(e)
            edges.append(e)
    return build_hypergraph(n, edges)


def random_graph(n: int, p: float, seed: int = 0) -> Graph:
    """Each of the n-choose-2 edges present independently with probability p."""
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must be in [0,1], got {p}")
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def d_regular(n: int, d: int, seed: int = 0) -> Graph:
    """Random d-regular simple graph via the pairing model with restarts.

    When 10000 pairings all hold a loop or a repeated edge, the last one is
    repaired by double-edge switches drawn from the same generator.
    """
    if d < 0 or d >= max(n, 1):
        raise ValueError(f"need 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    if d == 0:
        return build_graph(n, [])
    rng = random.Random(seed)
    for _ in range(10_000):
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        pairs = {
            (min(a, b), max(a, b))
            for a, b in zip(points[0::2], points[1::2])
        }
        if len(pairs) == n * d // 2 and all(a != b for a, b in pairs):
            return build_graph(n, sorted(pairs))
    edges = _switch_repair(points, rng)
    if edges is None:
        raise ValueError(
            f"no simple {d}-regular graph found for n={n} after 10000 tries"
            f" and {SWITCH_TRIES_PER_EDGE} switch tries per edge"
        )
    return build_graph(n, sorted(edges))


def _switch_repair(
    points: list[int], rng: random.Random
) -> list[tuple[int, int]] | None:
    """Simple edges with the degrees of the pairing `points`, or None.

    A switch takes a bad pair {a, b} (a loop or a repeat) and a random pair
    {c, e} and, in a random one of the two ways, rewires them to {a, c} and
    {b, e}.  It is kept only when both new pairs are distinct, absent
    edges, so each kept switch lowers the number of bad pairs; at most
    SWITCH_TRIES_PER_EDGE switches per edge are tried.
    """
    pairs = [(min(a, b), max(a, b)) for a, b in zip(points[0::2], points[1::2])]
    count = Counter(pairs)

    def bad_pairs() -> list[int]:
        return [i for i, (a, b) in enumerate(pairs) if a == b or count[(a, b)] > 1]

    bad = bad_pairs()
    for _ in range(SWITCH_TRIES_PER_EDGE * len(pairs)):
        if not bad:
            return pairs
        i, j = rng.choice(bad), rng.randrange(len(pairs))
        (a, b), (c, e) = pairs[i], pairs[j]
        if rng.random() < 0.5:
            c, e = e, c
        new = [(min(a, c), max(a, c)), (min(b, e), max(b, e))]
        count.subtract((pairs[i], pairs[j]))
        if i != j and new[0] != new[1] and all(x < y and not count[(x, y)] for x, y in new):
            pairs[i], pairs[j] = new
            count.update(new)
            bad = bad_pairs()
        else:
            count.update((pairs[i], pairs[j]))
    return None if bad else pairs


def star(n: int) -> Graph:
    """Node 0 joined to each of the other n-1 nodes."""
    if n < 1:
        raise ValueError(f"star needs n >= 1, got {n}")
    return build_graph(n, [(0, v) for v in range(1, n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(v, (v + 1) % n) for v in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return build_graph(n, [(v, v + 1) for v in range(n - 1)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
