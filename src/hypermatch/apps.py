"""Consumers of hypergraph maximal matching on plain graphs.

Three drivers live here.  Approximate maximum matching runs phases of
Hopcroft-Karp style augmentation where each phase packs a maximal set of
vertex-disjoint augmenting paths of one fixed odd length; the packing is
exactly a hypergraph maximal matching once every path is written as the
set of its exposed endpoints and traversed matching edges.  Bounded
out-degree orientation repeatedly reverses edge-disjoint directed paths
from nodes above the target bound to nodes below it, again selected as a
hypergraph maximal matching with source and sink multi-edges
materialized as slot vertices.  An orientation is one tail per edge id,
checked against ceil((1+eps)*lambda), which `out_degree_bound` alone
computes.  The orientation in turn splits the edge set into
pseudo-forests, one per out-going slot.

Both drivers enumerate their paths with one depth-first search,
`_simple_paths`, under the module constant PATH_CAP: more than PATH_CAP
paths in one phase, or path/slot combinations in one orientation
iteration, raise PathBudgetError rather than silently truncating.
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
    """Out-degree bound still violated after the iteration cap.

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
    matched_ids: set[int] = set()
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
        exposed = sorted(
            v for v in range(g.n) if v not in mate and v not in dead
        )
        paths = _simple_paths(exposed, step, accept, length, "augmenting paths")
        if not paths:
            continue
        elem_of_node = {v: i for i, v in enumerate(exposed)}
        elem_of_medge = {
            eid: len(exposed) + i for i, eid in enumerate(sorted(matched_ids))
        }
        members_list: list[frozenset[int]] = []
        rep_paths: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        seen_members: set[frozenset[int]] = set()
        for nodes, eids in paths:
            members = {elem_of_node[nodes[0]], elem_of_node[nodes[-1]]}
            members.update(elem_of_medge[eid] for eid in eids[1::2])
            frozen = frozenset(members)
            if frozen in seen_members:
                continue
            seen_members.add(frozen)
            members_list.append(frozen)
            rep_paths.append((nodes, eids))
        hyp = build_hypergraph(len(exposed) + len(matched_ids), members_list)
        if almost_maximal:
            slack = eps / (4 * max(1, g.max_degree) ** k)
            mm, unblocked = almost_maximal_matching(hyp, slack, ledger)
        else:
            mm = maximal_matching(hyp, ledger)
            unblocked = frozenset()
        picked = [rep_paths[i] for i in sorted(mm)]
        verdict = validate_path_set([nodes for nodes, _ in picked], "vertex")
        if not verdict:
            raise RuntimeError(f"packed paths not vertex-disjoint: {verdict.reason}")
        before = len(matched_ids)
        for nodes, eids in picked:
            for j, eid in enumerate(eids):
                if j % 2 == 0:
                    matched_ids.add(eid)
                    mate[nodes[j]] = mate[nodes[j + 1]] = eid
                else:
                    matched_ids.discard(eid)
        if len(matched_ids) != before + len(picked):
            raise RuntimeError("augmenting along the packed paths did not add one edge per path")
        for hid in unblocked:
            dead.update(rep_paths[hid][0])
    return frozenset(matched_ids)


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
    as private slot vertices, so disjointness covers the implicit
    source and sink multi-edges as well.  If excess survives all
    ceil(4*log2(n)/eps) iterations the arboricity bound was too small
    and OrientationBoundError is raised.
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
        inner_length = 1 + i
        if ledger is not None:
            ledger.charge(
                "orientation_iteration",
                inner_length + 2,
                "augmenting paths of length 3+i",
            )
        deficit = [max(0, bound - outdeg[v]) for v in range(g.n)]
        out_adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        for eid, ((u, v), tail) in enumerate(zip(g.edges, tails)):
            out_adj[tail].append((u + v - tail, eid))
        starts = [v for v in range(g.n) if excess[v] > 0]
        paths = _simple_paths(
            starts,
            lambda v, depth: out_adj[v],
            lambda nodes: deficit[nodes[-1]] > 0,
            inner_length,
            "directed paths",
        )
        if not paths:
            continue
        slot_id: dict[tuple[str, int, int], int] = {}
        next_id = g.m
        for v in range(g.n):
            for j in range(excess[v]):
                slot_id[("s", v, j)] = next_id
                next_id += 1
            for j in range(deficit[v]):
                slot_id[("t", v, j)] = next_id
                next_id += 1
        members_list: list[set[int]] = []
        path_of_member: list[int] = []
        for pidx, (nodes, eids) in enumerate(paths):
            for j in range(excess[nodes[0]]):
                for j2 in range(deficit[nodes[-1]]):
                    members_list.append(
                        set(eids)
                        | {slot_id[("s", nodes[0], j)], slot_id[("t", nodes[-1], j2)]}
                    )
                    path_of_member.append(pidx)
                    if len(members_list) > PATH_CAP:
                        raise PathBudgetError(
                            f"more than {PATH_CAP} path/slot combinations"
                        )
        hyp = build_hypergraph(next_id, members_list)
        mm = maximal_matching(hyp, ledger)
        if not mm:
            continue
        picked = [paths[path_of_member[hid]] for hid in sorted(mm)]
        verdict = validate_path_set([nodes for nodes, _ in picked], "edge")
        if not verdict:
            raise RuntimeError(f"packed paths not edge-disjoint: {verdict.reason}")
        before = [outdeg[v] for v in range(g.n)]
        for nodes, eids in picked:
            for eid in eids:
                tails[eid] = sum(g.edges[eid]) - tails[eid]
            outdeg[nodes[0]] -= 1
            outdeg[nodes[-1]] += 1
        if any(outdeg[v] > bound for v in range(g.n) if before[v] <= bound):
            raise RuntimeError("reversal pushed a satisfied node above the bound")
        new_excess = sum(max(0, outdeg[v] - bound) for v in range(g.n))
        if new_excess != total_excess - len(mm):
            raise RuntimeError(f"reversing {len(mm)} paths left excess {new_excess}")
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
