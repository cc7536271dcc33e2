"""Consumers of hypergraph maximal matching on plain graphs.

Three drivers live here.  Approximate maximum matching runs phases of
Hopcroft-Karp style augmentation where each phase packs a maximal set of
vertex-disjoint augmenting paths of one fixed odd length.  Bounded
out-degree orientation repeatedly reverses a maximal set of edge-disjoint
directed paths from nodes above the target bound to nodes below it.  An
orientation is one tail per edge id, checked against
ceil((1+eps)*lambda), which `out_degree_bound` alone computes.  The
orientation in turn splits the edge set into pseudo-forests, one per
out-going slot.

Both drivers pack their paths with one step, `_pack`: each path is
written as the set of elements it must not share with another path (its
exposed endpoints and traversed matching edges; or its edges and one
source and one sink slot of its end nodes), those sets become the
hyperedges of one hypergraph, and its maximal matching is the packing.
Both enumerate their paths with one depth-first search, `_simple_paths`,
under the module constant PATH_CAP: more than PATH_CAP paths in one
phase, or path/slot combinations in one orientation iteration, raise
PathBudgetError rather than silently truncating.

An orientation bound that no orientation meets is reported with a
certificate: when no node below the bound can be reached along out-edges
from a node above it, the reached nodes span more than bound edges per
node, and OrientationBoundError is raised at once.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import Graph, Verdict, build_hypergraph
from .ledger import RoundLedger
from .rounding import almost_maximal_matching, maximal_matching

PATH_CAP = 500_000
ORIENTATION_ROUND_FACTOR = 4


class PathBudgetError(RuntimeError):
    """Path enumeration, or the path/slot combinations built on it, exceeded PATH_CAP."""


class OrientationBoundError(RuntimeError):
    """The out-degree bound cannot be met, or is still violated after the
    iteration cap.

    Signals that the arboricity bound handed in was below the true
    arboricity of the graph.
    """


def validate_path_set(paths: Sequence[Sequence[int]], mode: str) -> Verdict:
    """Check that each path (a node sequence) is simple and that the paths
    are pairwise disjoint.

    Mode "vertex" forbids any shared node between two paths; mode "edge"
    forbids shared (undirected) edges but allows shared nodes.
    """
    if mode not in ("vertex", "edge"):
        return Verdict(False, f"unknown mode {mode!r}")
    seen: set = set()
    for path in paths:
        if len(path) < 2:
            return Verdict(False, f"path {path} has no edge")
        if len(set(path)) != len(path):
            return Verdict(False, f"path {path} repeats a node")
        if mode == "vertex":
            items = set(path)
        else:
            items = {frozenset(pair) for pair in zip(path, path[1:])}
        if seen & items:
            return Verdict(False, f"path {path} overlaps an earlier path")
        seen |= items
    return Verdict(True)


def _simple_paths(starts, step, accept, length: int, what: str):
    """Simple paths with exactly ``length`` edges from a start node, as
    (node sequence, edge id sequence) pairs in depth-first order.

    ``step(v, depth)`` lists the (node, edge id) moves out of v after
    ``depth`` edges; ``accept(nodes)`` says whether a full-length path
    counts.  ``what`` names the paths in the PathBudgetError message.
    """
    found: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    nodes: list[int] = []
    eids: list[int] = []
    on_path: set[int] = set()

    def extend() -> None:
        if len(eids) == length:
            if accept(nodes):
                found.append((tuple(nodes), tuple(eids)))
                if len(found) > PATH_CAP:
                    raise PathBudgetError(
                        f"more than {PATH_CAP} {what} of length {length}"
                    )
            return
        for u, eid in step(nodes[-1], len(eids)):
            if u in on_path:
                continue
            nodes.append(u)
            eids.append(eid)
            on_path.add(u)
            extend()
            on_path.discard(u)
            eids.pop()
            nodes.pop()

    for start in starts:
        nodes = [start]
        eids = []
        on_path = {start}
        extend()
    return found


def _pack(candidates, universe: int, disjoint: str, ledger, slack=None):
    """Pick a maximal set of disjoint paths among ``candidates``.

    A candidate is a (members, path) pair: ``members`` is the frozenset of
    elements in 0..universe-1 that the path must not share with another,
    and ``path`` a (node sequence, edge id sequence) pair.  Of paths with
    equal members only the first is kept.  The member sets are the
    hyperedges of one hypergraph; its maximal matching (almost maximal
    with a ``slack``) picks the paths, which must then be ``disjoint``
    ("vertex" or "edge") by `validate_path_set`.  Returns the picked paths
    and the paths still unblocked, each in candidate order.  More than
    PATH_CAP candidates raise PathBudgetError.
    """
    first: dict[frozenset[int], tuple] = {}
    for count, (members, path) in enumerate(candidates, 1):
        if count > PATH_CAP:
            raise PathBudgetError(f"more than {PATH_CAP} path/slot combinations")
        first.setdefault(members, path)
    hyp = build_hypergraph(universe, first)
    paths = list(first.values())
    if slack is None:
        packed, unblocked = maximal_matching(hyp, ledger), frozenset()
    else:
        packed, unblocked = almost_maximal_matching(hyp, slack, ledger)
    picked = [paths[i] for i in sorted(packed)]
    verdict = validate_path_set([nodes for nodes, _ in picked], disjoint)
    if not verdict:
        raise RuntimeError(f"packed paths not {disjoint}-disjoint: {verdict.reason}")
    return picked, [paths[i] for i in sorted(unblocked)]


def approx_max_graph_matching(
    g: Graph,
    eps: Fraction | int,
    almost_maximal: bool = False,
    ledger: RoundLedger | None = None,
) -> frozenset[int]:
    """Matching of size at least OPT/(1+eps), for 0 < eps <= 1.

    Runs one phase per odd length 1, 3, ..., 2*ceil(1/eps)-1.  A phase
    enumerates every augmenting path of that exact length, packs a
    maximal vertex-disjoint subset via hypergraph maximal matching (one
    hypergraph vertex per exposed endpoint and per matching edge), and
    flips all packed paths.  Shortest-augmenting-path length afterwards
    exceeds the phase length, which is what the size bound rests on.

    With almost_maximal=True each phase settles for an almost maximal
    packing and permanently discards the nodes of the few paths left
    unblocked; the guarantee weakens to OPT/(1+2*eps).
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    k = math.ceil(1 / eps)
    # node -> id of its matching edge
    mate: dict[int, int] = {}
    dead: set[int] = set()
    # (neighbor, edge id) pairs of each node, by neighbor
    adj = [
        sorted((sum(g.edges[eid]) - v, eid) for eid in g.incidence[v])
        for v in range(g.n)
    ]

    def step(v: int, depth: int) -> list[tuple[int, int]]:
        # off the matching after an even number of edges, along it after an odd one
        own = mate.get(v)
        if depth % 2 == 0:
            moves = [(u, eid) for u, eid in adj[v] if eid != own]
        else:
            moves = [] if own is None else [(sum(g.edges[own]) - v, own)]
        return [(u, eid) for u, eid in moves if u not in dead]

    def accept(nodes: list[int]) -> bool:
        # exposed far end, each path once (smaller endpoint first)
        return nodes[-1] not in mate and nodes[0] < nodes[-1]

    for length in range(1, 2 * k, 2):
        if ledger is not None:
            ledger.charge(
                "augmenting_phase", length, "radius-l path enumeration"
            )
        exposed = [v for v in range(g.n) if v not in mate and v not in dead]
        paths = _simple_paths(exposed, step, accept, length, "augmenting paths")
        if not paths:
            continue
        # hypergraph vertices: node v is v and matching edge eid is g.n + eid;
        # a path holds its two end nodes and the matching edges it traverses
        candidates = (
            (frozenset([nodes[0], nodes[-1]]) | {g.n + eid for eid in eids[1::2]}, (nodes, eids))
            for nodes, eids in paths
        )
        slack = eps / (4 * max(1, g.max_degree) ** k) if almost_maximal else None
        picked, unblocked = _pack(candidates, g.n + g.m, "vertex", ledger, slack)
        before = len(set(mate.values()))
        for nodes, eids in picked:
            for j in range(0, len(eids), 2):
                mate[nodes[j]] = mate[nodes[j + 1]] = eids[j]
        if len(set(mate.values())) != before + len(picked):
            raise RuntimeError("augmenting along the packed paths did not add one edge per path")
        for nodes, _ in unblocked:
            dead.update(nodes)
    return frozenset(mate.values())


@dataclass(frozen=True)
class Orientation:
    """The tail of each edge, by edge id, and the out-degree bound it claims."""

    tails: tuple[int, ...]
    bound: int

    @property
    def max_out_degree(self) -> int:
        return max(Counter(self.tails).values(), default=0)


def validate_orientation(g: Graph, o: Orientation) -> Verdict:
    if len(o.tails) != g.m:
        return Verdict(False, f"expected {g.m} tails, got {len(o.tails)}")
    for eid, tail in enumerate(o.tails):
        if tail not in g.edges[eid]:
            return Verdict(False, f"tail {tail} is not an endpoint of edge {eid} = {g.edges[eid]}")
    worst = o.max_out_degree
    if worst > o.bound:
        return Verdict(False, f"out-degree {worst} exceeds bound {o.bound}")
    return Verdict(True)


def out_degree_bound(lam: int, eps: Fraction | int) -> int:
    """ceil((1+eps)*lam): the bound that `low_outdegree_orientation` meets
    for an arboricity bound lam.  Raises ValueError unless eps > 0 and
    lam >= 0."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if lam < 0:
        raise ValueError(f"arboricity bound must be >= 0, got {lam}")
    return math.ceil((1 + eps) * lam)


def low_outdegree_orientation(
    g: Graph,
    lam: int,
    eps: Fraction | int,
    ledger: RoundLedger | None = None,
) -> Orientation:
    """Orient every edge so each node has out-degree <= ceil((1+eps)*lam).

    Starts with each edge's lower endpoint as its tail and, in iteration i,
    reverses a maximal edge-disjoint set of directed paths of inner
    length 1+i that lead from a node above the bound to one below it.
    Each node's excess units and slack units enter the path hypergraph
    as private slot vertices, numbered after the edge ids node by node,
    so disjointness covers the implicit source and sink multi-edges as
    well.

    Before each iteration's paths are enumerated, the nodes reachable
    along out-edges from a node above the bound are collected.  Every
    out-edge of a reached node stays among them, so if none of them is
    below the bound they span more than bound edges per node, no
    orientation meets the bound, and OrientationBoundError is raised at
    once.  If excess survives all ceil(4*log2(n)/eps) iterations,
    OrientationBoundError is raised as well.  Either way the arboricity
    bound lam was too small.
    """
    bound = out_degree_bound(lam, eps)
    tails = [u for u, _ in g.edges]
    outdeg = [0] * g.n
    for tail in tails:
        outdeg[tail] += 1
    iteration_cap = math.ceil(
        ORIENTATION_ROUND_FACTOR * math.log2(max(2, g.n)) / float(eps)
    )
    for i in range(iteration_cap):
        excess = [max(0, outdeg[v] - bound) for v in range(g.n)]
        total_excess = sum(excess)
        if total_excess == 0:
            break
        deficit = [max(0, bound - outdeg[v]) for v in range(g.n)]
        out_adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        for eid, ((u, v), tail) in enumerate(zip(g.edges, tails)):
            out_adj[tail].append((u + v - tail, eid))
        starts = [v for v in range(g.n) if excess[v] > 0]
        # The nodes reachable from above the bound keep every out-edge among
        # themselves; if none is below the bound they span more than
        # bound edges per node, and no orientation meets the bound.
        reached = set(starts)
        stack = list(starts)
        while stack:
            for u, _ in out_adj[stack.pop()]:
                if u not in reached:
                    reached.add(u)
                    stack.append(u)
        if not any(deficit[v] > 0 for v in reached):
            span = sum(outdeg[v] for v in reached)
            raise OrientationBoundError(
                f"out-degree bound {bound} cannot be met: the {len(reached)} nodes"
                f" reachable from a node above it span {span} > {bound}*{len(reached)}"
                f" edges; the arboricity bound {lam} is too small"
            )
        inner_length = 1 + i
        if ledger is not None:
            ledger.charge(
                "orientation_iteration",
                inner_length + 2,
                "augmenting paths of length 3+i",
            )
        paths = _simple_paths(
            starts,
            lambda v, depth: out_adj[v],
            lambda nodes: deficit[nodes[-1]] > 0,
            inner_length,
            "directed paths",
        )
        if not paths:
            continue
        # hypergraph vertices: edge ids, then the slots of each node v in
        # turn, its excess or its deficit many, from offset[v]
        offset = [g.m]
        for v in range(g.n):
            offset.append(offset[-1] + excess[v] + deficit[v])
        candidates = (
            (frozenset(eids) | {offset[nodes[0]] + j, offset[nodes[-1]] + j2}, (nodes, eids))
            for nodes, eids in paths
            for j in range(excess[nodes[0]])
            for j2 in range(deficit[nodes[-1]])
        )
        picked, _ = _pack(candidates, offset[-1], "edge", ledger)
        before = [outdeg[v] for v in range(g.n)]
        for nodes, eids in picked:
            for eid in eids:
                tails[eid] = sum(g.edges[eid]) - tails[eid]
            outdeg[nodes[0]] -= 1
            outdeg[nodes[-1]] += 1
        if any(outdeg[v] > bound for v in range(g.n) if before[v] <= bound):
            raise RuntimeError("reversal pushed a satisfied node above the bound")
        new_excess = sum(max(0, outdeg[v] - bound) for v in range(g.n))
        if new_excess != total_excess - len(picked):
            raise RuntimeError(f"reversing {len(picked)} paths left excess {new_excess}")
    total_excess = sum(max(0, outdeg[v] - bound) for v in range(g.n))
    if total_excess > 0:
        raise OrientationBoundError(
            f"out-degree above {bound} persists after {iteration_cap} iterations;"
            f" the arboricity bound {lam} is too small"
        )
    result = Orientation(tails=tuple(tails), bound=bound)
    verdict = validate_orientation(g, result)
    if not verdict:
        raise RuntimeError(f"orientation invalid: {verdict.reason}")
    return result


def pseudo_forest_decomposition(
    g: Graph, o: Orientation
) -> tuple[frozenset[int], ...]:
    """Split the edges into o.bound classes, each a pseudo-forest.

    Class k holds every edge that is the k-th outgoing edge of its tail
    (outgoing edges ordered by edge id), so each node has out-degree at
    most one within a class and every connected component carries at
    most one cycle.
    """
    verdict = validate_orientation(g, o)
    if not verdict:
        raise ValueError(f"orientation invalid: {verdict.reason}")
    outgoing: list[list[int]] = [[] for _ in range(g.n)]
    for eid, tail in enumerate(o.tails):
        outgoing[tail].append(eid)
    classes: list[set[int]] = [set() for _ in range(o.bound)]
    for v in range(g.n):
        for k, eid in enumerate(outgoing[v]):
            classes[k].add(eid)
    return tuple(frozenset(c) for c in classes)


def validate_pseudo_forest(g: Graph, edge_ids: frozenset[int]) -> Verdict:
    """Each connected component of the edge subset has at most one cycle,
    in other words no more edges than nodes."""
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    edge_count: dict[int, int] = {}
    node_count: dict[int, int] = {}
    for eid in edge_ids:
        u, v = g.edges[eid]
        for w in (u, v):
            if w not in parent:
                parent[w] = w
                node_count[w] = 1
    for eid in edge_ids:
        u, v = g.edges[eid]
        ru, rv = find(u), find(v)
        count = edge_count.pop(ru, 0) + 1
        if ru != rv:
            count += edge_count.pop(rv, 0)
            node_count[ru] += node_count.pop(rv)
            parent[rv] = ru
        edge_count[ru] = count
    for root, count in edge_count.items():
        size = node_count[root]
        if count > size:
            return Verdict(
                False,
                f"component of node {root} has {count} edges on {size} nodes",
            )
    return Verdict(True)
