"""Hypergraph and graph data model with exact-rational validators.

A graph is a hypergraph of rank 2 (rank 0 when it has no edges) that also
keeps adjacency lists, so every function taking a ``Hypergraph`` takes a
``Graph`` as it is.  Every edge, of a hypergraph or a graph, is the
tuple of its vertex ids in ascending order, as the instance files write
it.

``build_hypergraph`` and ``build_graph`` validate input from outside the
library, and also freeze instances the library builds itself: the
hypergraphs of the edge-coloring reduction and of the two path
hypergraphs in ``apps``, and the product graph of
``packing.vertex_color``.  A failure there on a derived instance is a
library bug that still raises ValueError.  Line graphs and induced
subgraphs are frozen from adjacency lists the library built sorted and
unique, under a cheaper check whose failure raises RuntimeError.
``induced_subhypergraph`` reuses the already validated hyperedges of its
input and checks only the ids it keeps.  A matching is a frozenset of
edge ids, as an independent set is a frozenset of node ids.

A fractional assignment holds integer numerators over one scale: the
engine's power-of-two denominator, so its values are dyadic by
construction, or the least common denominator of values given as
``Fraction``s.  The validators read the numerators as they are and test
loads as ``load > scale`` and ``2*load >= scale``; a ``Fraction`` is
built only for a message and for the read-only ``values`` view.
Instances and assignments are immutable after construction and every
function here is pure, so sharing objects across threads or processes is
safe.  An instance stores its vertex count and edges (and a graph its
adjacency lists); its rank, maximum degree and incidence lists are
derived views.  Each is built on first read and kept; all are immutable
and deterministic too, so a race can at worst build one twice.  A line
graph is built anew on each `line_graph` call and kept nowhere; the
rounding engine reads a `LineGraphView` instead, which counts conflicts
from the hyperedges themselves.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, combinations, compress, repeat
from operator import add, eq, ge, mul
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


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
    and keep distinct ids (their list positions).  Each edge is the tuple
    of its vertex ids in ascending order.  The instance stores
    ``n`` and ``edges`` only.  ``rank`` (the largest hyperedge size),
    ``max_degree`` (the largest vertex degree, counting multiplicity) and
    ``incidence`` derive from them on first read; they are kept outside
    ``==``, ``repr``, ``hash``, pickles and copies.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.incidence[v])

    @cached_property
    def rank(self) -> int:
        return max(map(len, self.edges), default=0)

    @cached_property
    def max_degree(self) -> int:
        return max(map(len, self.incidence), default=0)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """``incidence[v]``: the ids of the edges at v, in ascending order."""
        incidence: list[list[int]] = [[] for _ in range(self.n)]
        for eid, members in enumerate(self.edges):
            for v in members:
                incidence[v].append(eid)
        return tuple(map(tuple, incidence))


def build_hypergraph(n: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Validate and freeze a hypergraph.

    Raises:
        ValueError: on negative n, empty hyperedge, repeated vertex inside
            a hyperedge, or a vertex id outside 0..n-1.
    """
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    frozen: list[tuple[int, ...]] = []
    for eid, raw in enumerate(edges):
        members = list(raw)
        if not members:
            raise ValueError(f"hyperedge {eid} is empty")
        edge = tuple(sorted(members))
        if len(set(edge)) != len(edge):
            raise ValueError(f"hyperedge {eid} repeats a vertex: {list(edge)}")
        if not (0 <= edge[0] and edge[-1] < n):
            v = next(v for v in members if not 0 <= v < n)  # the first in input order
            raise ValueError(f"hyperedge {eid} uses vertex {v} outside 0..{n - 1}")
        frozen.append(edge)
    return Hypergraph(n=n, edges=tuple(frozen))


@dataclass(frozen=True)
class Graph(Hypergraph):
    """A simple undirected graph: a rank-2 hypergraph with adjacency lists.

    Edges are normalized ``(u, v)`` tuples with u < v; edge ids are their
    positions in ``edges``.  ``max_degree`` is read from ``adjacency``.
    """

    adjacency: tuple[tuple[int, ...], ...] = field(repr=False)

    @cached_property
    def max_degree(self) -> int:
        return max(map(len, self.adjacency), default=0)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def agreement(self, labels: Sequence[int]) -> Callable[[int], int]:
        """The coloring steps' count query: ``count(v)`` is the number of
        neighbors u of v with ``labels[u] == labels[v]``."""
        adjacency = self.adjacency

        def count(v: int) -> int:
            return list(map(labels.__getitem__, adjacency[v])).count(labels[v])

        return count


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate and freeze a simple graph (no loops, no parallel edges).

    ``edges`` is any iterable of pairs, read once.  The whole list is
    checked in bulk on its sorted adjacency lists, and a pair that is
    already a tuple ``(u, v)`` with u < v is stored as it is.  Only when
    that check fails does the per-edge scan run, so an error names the
    first bad edge in input order, with the same message as always.
    """
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    pairs = list(edges)
    adjacency = _checked_adjacency(n, pairs)
    if adjacency is None:
        return _scan_edges(n, pairs)
    return Graph(
        n=n,
        edges=tuple([e if e[0] < e[1] else (e[1], e[0]) for e in pairs]),
        adjacency=tuple(map(tuple, adjacency)),
    )


def _checked_adjacency(n: int, pairs: list) -> list[list[int]] | None:
    """Sorted adjacency lists of ``pairs``, or None unless every pair is a
    tuple of two distinct ids in 0..n-1 and no pair repeats in either
    orientation."""
    if not set(map(type, pairs)) <= {tuple}:
        return None
    adjacency: list[list[int]] = [[] for _ in range(n)]
    try:
        for u, v in pairs:
            adjacency[u].append(v)
            adjacency[v].append(u)
    except (ValueError, TypeError, IndexError):  # a bad pair or id: the scan names it
        return None
    for adj in adjacency:
        adj.sort()
    # A self-loop or a repeated pair lists one node twice; a negative id
    # heads the list of the node it was paired with.
    if any(adj and (adj[0] < 0 or any(map(eq, adj, adj[1:]))) for adj in adjacency):
        return None
    return adjacency


def _scan_edges(n: int, pairs: list) -> Graph:
    """`build_graph` edge by edge: raises on the first bad edge."""
    norm: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(pairs):
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
    return Graph(n=n, edges=tuple(norm), adjacency=tuple(tuple(sorted(a)) for a in adjacency))


def _freeze_graph(adjacency: list[list[int]]) -> Graph:
    """Freeze adjacency lists that the library derived itself.

    Each list must be strictly ascending, within 0..n-1 and free of its
    own node, and v must list u exactly when u lists v.  A violation is a
    library bug, so it raises RuntimeError.  Edges come out in
    lexicographic order: the graph ``build_graph`` makes of the sorted
    edge list.
    """
    n = len(adjacency)
    edges: list[tuple[int, int]] = []
    # pending[w]: the neighbors above w that have not yet listed w, ascending
    pending: list[Iterator[int]] = []
    for u, adj in enumerate(adjacency):
        if adj and (adj[0] < 0 or adj[-1] >= n or any(map(ge, adj, adj[1:]))):
            raise RuntimeError(f"adjacency of {u} is not strictly ascending in 0..{n - 1}")
        split = bisect_left(adj, u)
        if split < len(adj) and adj[split] == u:
            raise RuntimeError(f"adjacency of {u} lists {u} itself")
        for w in adj[:split]:
            if next(pending[w], -1) != u:
                raise RuntimeError(f"adjacency of {u} is not symmetric")
        upper = adj[split:]
        pending.append(iter(upper))
        edges.extend(zip(repeat(u), upper))
    for w, rest in enumerate(pending):
        if next(rest, None) is not None:
            raise RuntimeError(f"adjacency of {w} is not symmetric")
    return Graph(n=n, edges=tuple(edges), adjacency=tuple(map(tuple, adjacency)))


def line_graph(h: Hypergraph) -> Graph:
    """Graph on hyperedge ids; two ids adjacent iff the hyperedges intersect.

    Parallel hyperedges intersect, so they come out adjacent.  Each call
    builds a new graph; the rounding engine never builds one, and counts
    conflicts through a `LineGraphView` instead.
    """
    inc = h.incidence
    adjacency = []
    for eid, members in enumerate(h.edges):
        near: set[int] = set()
        for v in members:
            near.update(inc[v])
        near.discard(eid)
        adjacency.append(sorted(near))
    return _freeze_graph(adjacency)


class LineGraphView:
    """The line graph of some hyperedges of ``h``, answered from counts.

    Node i stands for hyperedge ``support[i]``, as in the subgraph of
    `line_graph` induced on ``support``, but no adjacency list is built.
    It answers what the coloring steps ask a `Graph`: ``n``,
    ``max_degree``, ``neighbors`` and the count query ``agreement``.

    Counts come from one identity.  Summing, over the vertices of e, the
    other hyperedges that hold the vertex and carry e's label counts a
    hyperedge f that meets e in t vertices t times, so the neighbors of
    e with e's label number

        sum over v in e of (#{f holding v : label(f) = label(e)} - 1)
        - sum over f meeting e in t >= 2 vertices, label(f) = label(e), of (t - 1).

    A vertex that e alone holds adds 0, so e keeps only its shared
    vertices.  Two hyperedges that meet in t >= 2 vertices hold
    t(t-1)/2 vertex pairs together, so they are found, with t, from the
    vertex pairs that more than one hyperedge holds.  The build takes
    time linear in the sum of squared hyperedge sizes and in t(t-1)/2
    over the hyperedge pairs meeting in t >= 2 vertices, which are at
    most the line graph's edges; a query takes time linear in the shared
    vertices and those pairs.  Nothing is exponential in the rank.
    Parallel hyperedges meet, so they count once, as in `line_graph`.
    """

    def __init__(self, h: Hypergraph, support: Iterable[int]) -> None:
        edges = [h.edges[i] for i in support]
        self.n = len(edges)
        self._edges = edges
        degree = Counter(chain.from_iterable(edges))
        multi = {v for v, d in degree.items() if d > 1}
        shared = [[v for v in e if v in multi] for e in edges]  # ascending, as e is
        holders: dict[tuple[int, int], list[int]] = {}
        for i, vs in enumerate(shared):
            for pair in combinations(vs, 2):
                holders.setdefault(pair, []).append(i)
        # hyperedges i < j meeting in t >= 2 vertices hold t(t-1)/2 pairs
        # together; each such i, j is kept with t - 1
        together = Counter(chain.from_iterable(map(combinations, holders.values(), repeat(2))))
        self._first = [i for i, _ in together]
        self._second = [j for _, j in together]
        self._extra = [(math.isqrt(8 * pairs + 1) - 1) // 2 for pairs in together.values()]
        self._width = h.n
        self._keys = [*chain.from_iterable(shared)]
        self._sizes = [*map(len, shared)]
        self._ends = [*accumulate(self._sizes)]
        self._starts = [0, *self._ends[:-1]]

    @cached_property
    def max_degree(self) -> int:
        return max(map(self.agreement([0] * self.n), range(self.n)), default=0)

    def neighbors(self, v: int) -> list[int]:
        """The nodes adjacent to v, ascending; a scan of all nodes."""
        e = set(self._edges[v])
        return [u for u, f in enumerate(self._edges) if u != v and not e.isdisjoint(f)]

    def agreement(self, labels: Sequence[int]) -> Callable[[int], int]:
        """``count(v)``: the neighbors u of v with ``labels[u] == labels[v]``.

        Counts the (vertex, label) pairs of all nodes once, and every
        node's count with them, when called.
        """
        # label * width + vertex is one-to-one, since every vertex is below width
        at = chain.from_iterable(map(repeat, map(mul, labels, repeat(self._width)), self._sizes))
        pairs = [*map(add, self._keys, at)]
        hist = Counter(pairs)
        total = [0, *accumulate(map(hist.__getitem__, pairs))]
        agree = [total[end] - total[start] - size
                 for start, end, size in zip(self._starts, self._ends, self._sizes)]
        same = map(eq, map(labels.__getitem__, self._first), map(labels.__getitem__, self._second))
        for i, j, extra in compress(zip(self._first, self._second, self._extra), same):
            agree[i] -= extra
            agree[j] -= extra
        return agree.__getitem__


@dataclass(frozen=True, init=False, eq=False)
class FractionalAssignment:
    """Sparse map item id -> value: integer numerators ``nums`` over ``scale``.

    The items are hyperedges of a fractional matching or vertices of a
    greedy packing.  ``nums`` is read-only and keeps insertion order, a
    packing's witness order; ``values`` is the same map of ``Fraction``s,
    built on first read.  Given ``values=``, the scale is their least
    common denominator; the rounding engine hands over its numerators over
    its power-of-two denominator as they are.  ``==`` compares values, so
    it ignores order and scale.  The values cannot change, so a verdict on
    them stands: the engine records in ``_valid_on`` the side and instance
    its validator passed them on, which ``==``, ``repr``, copies and
    pickles leave out.
    """

    nums: Mapping[int, int]
    scale: int
    _valid_on: tuple[str, Hypergraph] | None = None

    def __new__(cls, values: Mapping[int, Fraction]) -> FractionalAssignment:
        scale = math.lcm(*(val.denominator for val in values.values()))
        return cls._over({i: val.numerator * (scale // val.denominator) for i, val in values.items()}, scale)

    @classmethod
    def _over(cls, nums: dict[int, int], scale: int) -> FractionalAssignment:
        """Numerators ``nums`` over ``scale``, held without a copy."""
        x = object.__new__(cls)
        object.__setattr__(x, "nums", MappingProxyType(nums))
        object.__setattr__(x, "scale", scale)
        return x

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.values == other.values

    def __repr__(self) -> str:
        return f"FractionalAssignment(values={dict(self.values)!r})"

    def __reduce__(self):
        return FractionalAssignment._over, (dict(self.nums), self.scale)

    @cached_property
    def values(self) -> Mapping[int, Fraction]:
        return MappingProxyType({i: Fraction(num, self.scale) for i, num in self.nums.items()})

    def get(self, eid: int) -> Fraction:
        return self.values.get(eid, ZERO)

    def total(self) -> Fraction:
        return Fraction(sum(self.nums.values()), self.scale)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.nums))


def build_fractional_assignment(
    values: Mapping[int, Fraction], floor: Fraction
) -> FractionalAssignment:
    """Drop zeros, then enforce dyadicity and the bounds [floor, 1].

    The result is (floor)-fractional; ``floor`` itself is not stored.
    """
    if not (ZERO < floor <= ONE) or not is_dyadic(floor):
        raise ValueError(f"floor must be a dyadic value in (0,1], got {floor}")
    kept = {i: val for i, val in values.items() if val}
    for i, val in kept.items():
        if not is_dyadic(val):
            raise ValueError(f"value of item {i} is not dyadic: {val}")
        if not floor <= val <= ONE:
            raise ValueError(f"value of item {i} outside [{floor}, 1]: {val}")
    return FractionalAssignment(values=kept)


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


def _edge_loads(h: Hypergraph, nums: Mapping[int, int]) -> list[int]:
    loads = [0] * h.n
    edges = h.edges
    for eid, num in nums.items():
        for v in edges[eid]:
            loads[v] += num
    return loads


def validate_fractional_matching(
    h: Hypergraph, x: FractionalAssignment
) -> FractionalVerdict:
    """Exact check: ids in range, values in (0,1] and every vertex load <= 1.

    Also reports the half-tight vertices (load >= 1/2).  Values need not
    be dyadic here.
    """
    nums, scale = x.nums, x.scale
    for eid in nums:
        if not 0 <= eid < h.m:
            return FractionalVerdict(False, f"edge id {eid} outside 0..{h.m - 1}")
    for eid, num in nums.items():
        if not 0 < num <= scale:
            return FractionalVerdict(False, f"edge {eid} has value {Fraction(num, scale)} outside (0,1]")
    loads = _edge_loads(h, nums)
    for v, load in enumerate(loads):
        if load > scale:
            return FractionalVerdict(False, f"vertex {v} carries load {Fraction(load, scale)} > 1")
    half = frozenset(v for v, load in enumerate(loads) if 2 * load >= scale)
    return FractionalVerdict(True, half_tight=half)


def validate_matching(
    h: Hypergraph, m: frozenset[int], require_maximal: bool = False
) -> Verdict:
    """Check that the edge ids in ``m`` are pairwise disjoint, optionally
    that ``m`` is maximal."""
    used: dict[int, int] = {}
    for eid in sorted(m):
        if not 0 <= eid < h.m:
            return Verdict(False, f"edge id {eid} outside 0..{h.m - 1}")
        for v in h.edges[eid]:
            if v in used:
                return Verdict(False, f"edges {used[v]} and {eid} share vertex {v}")
            used[v] = eid
    if require_maximal:
        for eid, members in enumerate(h.edges):
            if eid not in m and all(v not in used for v in members):
                return Verdict(False, f"edge {eid} is disjoint from the matching")
    return Verdict(True)


def unblocked_edges(h: Hypergraph, m: frozenset[int]) -> frozenset[int]:
    """Hyperedges disjoint from every matched hyperedge (and unmatched)."""
    used: set[int] = set()
    for eid in m:
        used.update(h.edges[eid])
    return frozenset(
        eid
        for eid, members in enumerate(h.edges)
        if eid not in m and used.isdisjoint(members)
    )


def induced_subhypergraph(h: Hypergraph, keep_edges: Iterable[int]) -> tuple[Hypergraph, tuple[int, ...]]:
    """Hypergraph with the given edge ids only (same vertex set).

    Returns the new hypergraph and the old ids in new-id order.  Keeping
    every edge returns ``h`` itself.  The kept edges were validated when
    ``h`` was built, so they are reused as they are, not checked again.

    Raises:
        ValueError: on an edge id outside 0..m-1.
    """
    kept = tuple(sorted(set(keep_edges)))
    if kept and not (0 <= kept[0] and kept[-1] < h.m):
        raise ValueError(f"edge ids {kept[0]}..{kept[-1]} outside 0..{h.m - 1}")
    if len(kept) == h.m:
        return h, kept
    return Hypergraph(h.n, tuple(map(h.edges.__getitem__, kept))), kept


def induced_subgraph(g: Graph, keep_nodes: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on the given nodes, relabeled 0..k-1.

    Returns the new graph and the old node ids in new-id order.  Keeping
    every node returns ``g`` itself.

    Raises:
        ValueError: on a node id outside 0..n-1.
    """
    kept = tuple(sorted(set(keep_nodes)))
    if kept and not (0 <= kept[0] and kept[-1] < g.n):
        raise ValueError(f"node ids {kept[0]}..{kept[-1]} outside 0..{g.n - 1}")
    if len(kept) == g.n:
        return g, kept
    pos = {v: i for i, v in enumerate(kept)}
    # Relabeling is monotone, so each relabeled list stays ascending.
    return _freeze_graph([[pos[u] for u in g.adjacency[v] if u in pos] for v in kept]), kept


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
    h: Hypergraph,
    colors: dict[int, int],
    palette: int | None = None,
    lists: dict[int, tuple[int, ...]] | None = None,
) -> Verdict:
    """Proper edge coloring check; optional palette cap and list membership.

    Edges sharing any vertex must differ.
    """
    if set(colors) != set(range(h.m)):
        missing = sorted(set(range(h.m)) - set(colors))
        extra = sorted(set(colors) - set(range(h.m)))
        return Verdict(False, f"colored edge ids mismatch (missing {missing[:5]}, extra {extra[:5]})")
    for eid, c in colors.items():
        if palette is not None and not 1 <= c <= palette:
            return Verdict(False, f"edge {eid} uses color {c} outside 1..{palette}")
        if lists is not None and c not in lists[eid]:
            return Verdict(False, f"edge {eid} uses color {c} not on its list")
    for v in range(h.n):
        seen: dict[int, int] = {}
        for eid in h.incidence[v]:
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
