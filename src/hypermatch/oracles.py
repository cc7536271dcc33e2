"""Exact brute-force baselines for small instances.

These are deliberately independent of the main algorithms and share no
logic with them.  Each stays exhaustive: `max_matching` and
`max_independent_set` branch over the whole search space, `arboricity` is
a DP over all vertex subsets, and `enumerate_maximal_matchings`
backtracks over every matching.  So they are only usable below the size
budgets and raise OverBudgetError beyond them.  Tests and the oracle
block of `hypermatch run` lean on them for ground truth.
"""

from __future__ import annotations

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
    which is exact by the Nash-Williams formula.  |E(S)| comes from a DP
    over all 2^n subsets: with v the highest vertex of S,
    |E(S)| = |E(S - v)| + |N(v) & (S - v)|.  The ceiling grows with
    |E(S)|, so only the densest subset of each size needs dividing.
    """
    _require(g.n, ARBORICITY_NODES, "node count")
    if g.m == 0:
        return 0
    adj = _adjacency_masks(g)
    inside = [0]  # inside[S] = |E(S)|, for S over the vertices added so far
    for v in range(g.n):
        inside += [
            edges + (adj[v] & rest).bit_count() for rest, edges in enumerate(inside)
        ]
    densest = [0] * (g.n + 1)  # the most edges inside any subset of each size
    for subset, edges in enumerate(inside):
        size = subset.bit_count()
        if edges > densest[size]:
            densest[size] = edges
    return max(-(-edges // (size - 1)) for size, edges in enumerate(densest[2:], 2))


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
    """All maximal matchings, as frozensets of edge ids, listed in the
    order of their sorted ids.

    Backtracks over edge ids, taking or skipping each one, and only takes
    an edge disjoint from those already taken; so every leaf is a matching
    and each matching is reached once.  A leaf is kept when every edge
    meets it (hyperedges are nonempty, so taken edges do).
    """
    require_enumerable(h.m)
    masks = _edge_masks(h)
    m = h.m
    found: list[frozenset[int]] = []

    def extend(i: int, used: int, taken: tuple[int, ...]) -> None:
        if i == m:
            if all(mask & used for mask in masks):
                found.append(frozenset(taken))
            return
        if not masks[i] & used:
            extend(i + 1, used | masks[i], taken + (i,))
        extend(i + 1, used, taken)

    extend(0, 0, ())
    found.sort(key=sorted)
    return found
