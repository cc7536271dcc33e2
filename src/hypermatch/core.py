"""Hypergraph and graph data model with exact-rational validators.

All fractional values are dyadic rationals (integer numerator over a power
of two), held as ``fractions.Fraction`` so every comparison in a validator
is exact.  Instances are immutable after construction and every function
here is pure, so sharing objects across threads or processes is safe.  The
one cache, a hypergraph's line graph, is immutable and deterministic too,
so a race can at worst build it twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


def next_power_of_two(value: int) -> int:
    """Smallest power of two >= max(value, 1)."""
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()


def is_dyadic(value: Fraction) -> bool:
    """True if value has a power-of-two denominator."""
    return is_power_of_two(value.denominator)


@dataclass(frozen=True)
class Hypergraph:
    """A hypergraph on vertex ids 0..n-1.

    ``edges`` is an ordered multiset: parallel hyperedges are first-class
    and keep distinct ids (their list positions).  ``rank`` is the largest
    hyperedge size, ``max_degree`` the largest vertex degree counting
    multiplicity.  ``line_graph`` keeps its result in ``_line_graph``.
    """

    n: int
    edges: tuple[frozenset[int], ...]
    rank: int
    max_degree: int
    incidence: tuple[tuple[int, ...], ...] = field(repr=False)
    _line_graph: Graph | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.incidence[v])

    def incident_edges(self, v: int) -> tuple[int, ...]:
        return self.incidence[v]


def build_hypergraph(n: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Validate and freeze a hypergraph.

    Raises:
        ValueError: on negative n, empty hyperedge, repeated vertex inside
            a hyperedge, or a vertex id outside 0..n-1.
    """
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    frozen: list[frozenset[int]] = []
    incidence: list[list[int]] = [[] for _ in range(n)]
    for eid, raw in enumerate(edges):
        members = list(raw)
        if not members:
            raise ValueError(f"hyperedge {eid} is empty")
        seen = frozenset(members)
        if len(seen) != len(members):
            raise ValueError(f"hyperedge {eid} repeats a vertex: {sorted(members)}")
        for v in members:
            if not 0 <= v < n:
                raise ValueError(f"hyperedge {eid} uses vertex {v} outside 0..{n - 1}")
            incidence[v].append(eid)
        frozen.append(seen)
    rank = max((len(e) for e in frozen), default=0)
    max_degree = max((len(inc) for inc in incidence), default=0)
    return Hypergraph(
        n=n,
        edges=tuple(frozen),
        rank=rank,
        max_degree=max_degree,
        incidence=tuple(tuple(inc) for inc in incidence),
    )


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph; edge ids are positions in ``edges``."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...] = field(repr=False)
    max_degree: int
    incident: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def incident_edges(self, v: int) -> tuple[int, ...]:
        return self.incident[v]

    def edge_id(self, u: int, v: int) -> int:
        """Edge id of {u, v}; raises KeyError if absent."""
        key = (u, v) if u < v else (v, u)
        for eid in self.incident[key[0]]:
            if self.edges[eid] == key:
                return eid
        raise KeyError(f"no edge {key}")

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate and freeze a simple graph (no loops, no parallel edges)."""
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    norm: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    adjacency: list[list[int]] = [[] for _ in range(n)]
    incident: list[list[int]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        if u == v:
            raise ValueError(f"edge {eid} is a self-loop at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {eid} = ({u},{v}) outside 0..{n - 1}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"edge {eid} duplicates {key}")
        seen.add(key)
        norm.append(key)
        adjacency[u].append(v)
        adjacency[v].append(u)
        incident[u].append(eid)
        incident[v].append(eid)
    return Graph(
        n=n,
        edges=tuple(norm),
        adjacency=tuple(tuple(sorted(a)) for a in adjacency),
        max_degree=max((len(a) for a in adjacency), default=0),
        incident=tuple(tuple(inc) for inc in incident),
    )


def line_graph(h: Hypergraph) -> Graph:
    """Graph on hyperedge ids; two ids adjacent iff the hyperedges intersect.

    Parallel hyperedges intersect, so they come out adjacent.  Built once
    per hypergraph and cached on it, so the edge coloring that seeds the
    rounding and the rounding's conflict graphs share one copy.
    """
    if h._line_graph is None:
        pairs: set[tuple[int, int]] = set()
        for inc in h.incidence:
            for i in range(len(inc)):
                for j in range(i + 1, len(inc)):
                    a, b = inc[i], inc[j]
                    pairs.add((a, b) if a < b else (b, a))
        object.__setattr__(h, "_line_graph", build_graph(h.m, sorted(pairs)))
    return h._line_graph


def graph_to_hypergraph(g: Graph) -> Hypergraph:
    """Rank-2 hypergraph with the same edge ids."""
    return build_hypergraph(g.n, [list(e) for e in g.edges])


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint hyperedge ids (validity is not implied;
    run validate_matching)."""

    edges: frozenset[int]

    def __len__(self) -> int:
        return len(self.edges)

    def sorted_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.edges))


@dataclass(frozen=True)
class FractionalAssignment:
    """Sparse map hyperedge id -> dyadic value in (0, 1], with a floor.

    ``floor`` is the promised minimum of all stored values: the assignment
    is (floor)-fractional.  Zero values are never stored.
    """

    values: dict[int, Fraction]
    floor: Fraction

    def get(self, eid: int) -> Fraction:
        return self.values.get(eid, ZERO)

    def total(self) -> Fraction:
        return sum(self.values.values(), ZERO)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.values))


def build_fractional_assignment(
    values: dict[int, Fraction], floor: Fraction
) -> FractionalAssignment:
    """Drop zeros, then enforce dyadicity, bounds and the floor."""
    if not (ZERO < floor <= ONE) or not is_dyadic(floor):
        raise ValueError(f"floor must be a dyadic value in (0,1], got {floor}")
    kept: dict[int, Fraction] = {}
    for eid, val in values.items():
        if val == ZERO:
            continue
        if not is_dyadic(val):
            raise ValueError(f"value of edge {eid} is not dyadic: {val}")
        if not (floor <= val <= ONE):
            raise ValueError(f"value of edge {eid} outside [{floor}, 1]: {val}")
        kept[eid] = val
    return FractionalAssignment(values=kept, floor=floor)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a validator; ``reason`` names the first violation."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class FractionalVerdict:
    ok: bool
    reason: str = ""
    half_tight: frozenset[int] = frozenset()

    def __bool__(self) -> bool:
        return self.ok


def vertex_loads(h: Hypergraph, x: FractionalAssignment) -> list[Fraction]:
    loads = [ZERO] * h.n
    for eid, val in x.values.items():
        for v in h.edges[eid]:
            loads[v] += val
    return loads


def validate_fractional_matching(
    h: Hypergraph, x: FractionalAssignment
) -> FractionalVerdict:
    """Exact check: ids in range and every vertex load sum <= 1.

    Also reports the half-tight vertices (load >= 1/2).
    """
    for eid in x.values:
        if not 0 <= eid < h.m:
            return FractionalVerdict(False, f"edge id {eid} outside 0..{h.m - 1}")
    loads = vertex_loads(h, x)
    for v, load in enumerate(loads):
        if load > ONE:
            return FractionalVerdict(False, f"vertex {v} carries load {load} > 1")
    half = frozenset(v for v, load in enumerate(loads) if load >= HALF)
    return FractionalVerdict(True, half_tight=half)


def validate_matching(
    h: Hypergraph, m: Matching, require_maximal: bool = False
) -> Verdict:
    """Check pairwise disjointness, optionally maximality."""
    used: dict[int, int] = {}
    for eid in sorted(m.edges):
        if not 0 <= eid < h.m:
            return Verdict(False, f"edge id {eid} outside 0..{h.m - 1}")
        for v in h.edges[eid]:
            if v in used:
                return Verdict(False, f"edges {used[v]} and {eid} share vertex {v}")
            used[v] = eid
    if require_maximal:
        for eid, members in enumerate(h.edges):
            if eid not in m.edges and all(v not in used for v in members):
                return Verdict(False, f"edge {eid} is disjoint from the matching")
    return Verdict(True)


def unblocked_edges(h: Hypergraph, m: Matching) -> frozenset[int]:
    """Hyperedges disjoint from every matched hyperedge (and unmatched)."""
    used: set[int] = set()
    for eid in m.edges:
        used.update(h.edges[eid])
    return frozenset(
        eid
        for eid, members in enumerate(h.edges)
        if eid not in m.edges and used.isdisjoint(members)
    )


def induced_subhypergraph(h: Hypergraph, keep_edges: Iterable[int]) -> tuple[Hypergraph, tuple[int, ...]]:
    """Hypergraph with the given edge ids only (same vertex set).

    Returns the new hypergraph and the old ids in new-id order.
    """
    kept = tuple(sorted(set(keep_edges)))
    sub = build_hypergraph(h.n, [sorted(h.edges[eid]) for eid in kept])
    return sub, kept


def induced_subgraph(g: Graph, keep_nodes: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on the given nodes, relabeled 0..k-1.

    Returns the new graph and the old node ids in new-id order.
    """
    kept = tuple(sorted(set(keep_nodes)))
    pos = {v: i for i, v in enumerate(kept)}
    edges = [
        (pos[u], pos[v])
        for u, v in g.edges
        if u in pos and v in pos
    ]
    return build_graph(len(kept), edges), kept


def validate_independent_set(
    g: Graph, nodes: frozenset[int], require_maximal: bool = False
) -> Verdict:
    for v in sorted(nodes):
        if not 0 <= v < g.n:
            return Verdict(False, f"node id {v} outside 0..{g.n - 1}")
    for v in sorted(nodes):
        for u in g.adjacency[v]:
            if u in nodes and u > v:
                return Verdict(False, f"nodes {v} and {u} are adjacent")
    if require_maximal:
        for v in range(g.n):
            if v not in nodes and not any(u in nodes for u in g.adjacency[v]):
                return Verdict(False, f"node {v} could be added")
    return Verdict(True)


def validate_edge_coloring(
    g: Graph | Hypergraph,
    colors: dict[int, int],
    palette: int | None = None,
    lists: dict[int, tuple[int, ...]] | None = None,
) -> Verdict:
    """Proper edge coloring check; optional palette cap and list membership.

    Works on a graph or a hypergraph: edges sharing any vertex must differ.
    """
    if set(colors) != set(range(g.m)):
        missing = sorted(set(range(g.m)) - set(colors))
        extra = sorted(set(colors) - set(range(g.m)))
        return Verdict(False, f"colored edge ids mismatch (missing {missing[:5]}, extra {extra[:5]})")
    for eid, c in colors.items():
        if palette is not None and not 1 <= c <= palette:
            return Verdict(False, f"edge {eid} uses color {c} outside 1..{palette}")
        if lists is not None and c not in lists[eid]:
            return Verdict(False, f"edge {eid} uses color {c} not on its list")
    for v in range(g.n):
        seen: dict[int, int] = {}
        for eid in g.incident_edges(v):
            c = colors[eid]
            if c in seen:
                return Verdict(False, f"edges {seen[c]} and {eid} at vertex {v} share color {c}")
            seen[c] = eid
    return Verdict(True)


def validate_vertex_coloring(
    g: Graph,
    colors: Sequence[int],
    lists: dict[int, tuple[int, ...]] | None = None,
) -> Verdict:
    if len(colors) != g.n:
        return Verdict(False, f"expected {g.n} colors, got {len(colors)}")
    for v in range(g.n):
        if lists is not None and colors[v] not in lists[v]:
            return Verdict(False, f"node {v} uses color {colors[v]} not on its list")
        for u in g.adjacency[v]:
            if u > v and colors[u] == colors[v]:
                return Verdict(False, f"nodes {v} and {u} share color {colors[v]}")
    return Verdict(True)
