"""Exact brute-force baselines for small instances.

These are deliberately independent of the main algorithms: they enumerate
or branch over the whole search space, so they are only usable below the
size budgets and raise OverBudgetError beyond them.  Tests and the CLI
verify subcommand lean on them for ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Graph, Hypergraph


# Hard instance-size limits for the exhaustive baselines.
MATCHING_EDGES = 24
MIS_NODES = 26
ARBORICITY_NODES = 14
NEIGHBORHOOD_NODES = 26
ENUMERATE_EDGES = 12


class OverBudgetError(Exception):
    """The instance is too large for an exhaustive computation."""


@dataclass(frozen=True)
class OracleAnswer:
    """Exact optimum plus one witness achieving it."""

    size: int
    witness: frozenset[int]


def _require(actual: int, limit: int, what: str) -> None:
    if actual > limit:
        raise OverBudgetError(f"{what} {actual} exceeds oracle budget {limit}")


def _edge_masks(h: Hypergraph) -> list[int]:
    masks = []
    for edge in h.edges:
        mask = 0
        for v in edge:
            mask |= 1 << v
        masks.append(mask)
    return masks


def max_matching(h: Hypergraph) -> OracleAnswer:
    """Maximum matching (size and edge ids) by branch and bound."""
    _require(h.m, MATCHING_EDGES, "edge count")
    masks = _edge_masks(h)
    m = len(masks)
    order = sorted(range(m), key=lambda i: masks[i])
    best = 0
    best_set: tuple[int, ...] = ()

    def descend(i: int, used: int, taken: tuple[int, ...]) -> None:
        nonlocal best, best_set
        if len(taken) > best:
            best = len(taken)
            best_set = taken
        if i == m or len(taken) + (m - i) <= best:
            return
        eid = order[i]
        if not masks[eid] & used:
            descend(i + 1, used | masks[eid], taken + (eid,))
        descend(i + 1, used, taken)

    descend(0, 0, ())
    return OracleAnswer(size=best, witness=frozenset(best_set))


def _adjacency_masks(g: Graph) -> list[int]:
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _mis_mask(mask: int, adj: list[int], memo: dict[int, int]) -> int:
    if mask == 0:
        return 0
    cached = memo.get(mask)
    if cached is not None:
        return cached
    pick = -1
    pick_deg = -1
    rest = mask
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        deg = (adj[v] & mask).bit_count()
        if deg > pick_deg:
            pick, pick_deg = v, deg
    if pick_deg == 0:
        result = mask.bit_count()
    elif pick_deg == 1:
        # Only isolated vertices and disjoint single edges remain: keep one
        # endpoint per edge and everything else.
        inside = sum((adj[v] & mask).bit_count() for v in _bits(mask)) // 2
        result = mask.bit_count() - inside
    else:
        with_pick = 1 + _mis_mask(mask & ~(adj[pick] | (1 << pick)), adj, memo)
        without = _mis_mask(mask & ~(1 << pick), adj, memo)
        result = max(with_pick, without)
    memo[mask] = result
    return result


def _bits(mask: int):
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _mis_witness(mask: int, adj: list[int], memo: dict[int, int]) -> int:
    """Rebuild one optimal set (as a bitmask) from the sizes in ``memo``."""
    picked = 0
    while mask:
        target = _mis_mask(mask, adj, memo)
        v = (mask & -mask).bit_length() - 1
        with_v = 1 + _mis_mask(mask & ~(adj[v] | (1 << v)), adj, memo)
        if with_v == target:
            picked |= 1 << v
            mask &= ~(adj[v] | (1 << v))
        else:
            mask &= ~(1 << v)
    return picked


def max_independent_set(g: Graph) -> OracleAnswer:
    """Maximum independent set by branching on a max-degree vertex."""
    _require(g.n, MIS_NODES, "node count")
    adj = _adjacency_masks(g)
    memo: dict[int, int] = {}
    size = _mis_mask((1 << g.n) - 1, adj, memo)
    witness = frozenset(_bits(_mis_witness((1 << g.n) - 1, adj, memo)))
    if len(witness) != size:
        raise RuntimeError("witness reconstruction disagrees with the size")
    return OracleAnswer(size=size, witness=witness)


def arboricity(g: Graph) -> int:
    """Smallest number of forests covering the edges.

    Computed as max over vertex subsets S of ceil(|E(S)| / (|S| - 1)),
    which is exact by the Nash-Williams formula.
    """
    _require(g.n, ARBORICITY_NODES, "node count")
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


def neighborhood_independence(g: Graph) -> int:
    """Largest independent set inside any single vertex neighborhood."""
    best = 0
    for v in range(g.n):
        nbrs = g.adjacency[v]
        _require(len(nbrs), NEIGHBORHOOD_NODES, "neighborhood size")
        index = {u: i for i, u in enumerate(nbrs)}
        adj = [0] * len(nbrs)
        for i, u in enumerate(nbrs):
            for w in g.adjacency[u]:
                j = index.get(w)
                if j is not None:
                    adj[i] |= 1 << j
        best = max(best, _mis_mask((1 << len(nbrs)) - 1, adj, {}))
    return best


def require_enumerable(edge_count: int) -> None:
    """Raise OverBudgetError where enumerate_maximal_matchings would refuse
    a hypergraph with this many edges."""
    _require(edge_count, ENUMERATE_EDGES, "edge count")


def enumerate_maximal_matchings(h: Hypergraph) -> list[frozenset[int]]:
    """All maximal matchings, as sorted frozensets of edge ids."""
    require_enumerable(h.m)
    masks = _edge_masks(h)
    m = h.m
    found: list[frozenset[int]] = []
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
        if any(
            not subset >> i & 1 and not masks[i] & used for i in range(m)
        ):
            continue
        found.append(frozenset(i for i in range(m) if subset >> i & 1))
    found.sort(key=sorted)
    return found
