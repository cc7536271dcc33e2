"""Hypergraph and graph data model with exact-rational validators.

A graph is a hypergraph of rank 2 (rank 0 when it has no edges), so every
function taking a ``Hypergraph`` takes a ``Graph`` as it is.  An instance
is its vertex count ``n`` plus its ``edges``, each the tuple of its
vertex ids in ascending order, as the instance files write it.  Outside
input is frozen by ``build_hypergraph`` or ``build_graph``, which take
edges in any order and raise ValueError on the first bad one.  An
instance the library derives (a line graph, an induced subgraph,
``packing.vertex_color``'s product graph, the hypergraphs of the
edge-coloring reduction and of ``apps``' path packings) is frozen by
``freeze_graph`` or ``freeze_hypergraph``, which keep its edges as they
are and raise RuntimeError unless they are ascending tuples in 0..n-1:
a library bug is never a usage error.  ``induced_subhypergraph`` reuses
the already frozen hyperedges of its input and checks only the ids it
keeps.  A matching is a frozenset of edge ids, as an independent set is
a frozenset of node ids.

A fractional assignment holds integer numerators over one scale: the
engine's power-of-two denominator, so its values are dyadic by
construction, or the least common denominator of values given as
``Fraction``s.  The validators read the numerators as they are and test
loads as ``load > scale`` and ``2*load >= scale``; a ``Fraction`` is
built only for a message and for the read-only ``values`` view.
Instances and assignments are immutable after construction and every
function here is pure, so sharing objects across threads or processes is
safe.  An instance's rank, maximum degree, incidence lists and (for a
graph) adjacency lists are derived views, and so is a hypergraph's
``line_view``, the `LineGraphView` of all its hyperedges.  Each is built
on first read and kept; all are immutable and deterministic too, so a
race can at worst build one twice.  The line graph itself is built anew
on each `line_graph` call and kept nowhere.  The rounding engine never
builds it: it reads a `LineGraphView`, which counts conflicts from the
hyperedges themselves, by vertex and by the vertex pairs that two or more
hyperedges hold, and every pass that colors all hyperedges of one
instance, nested ones included, reads that instance's one ``line_view``.
The validators test their bounds in bulk and scan for the first
violation only when a bound fails, so a message names the violation that
a scan in the same order would.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import chain, combinations, compress, groupby, islice, repeat, starmap
from operator import add, eq, ge, itemgetter, lt, mul, sub
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

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
    ``max_degree`` (the largest vertex degree, counting multiplicity),
    ``incidence`` and ``line_view`` derive from them on first read; they
    are kept outside ``==``, ``repr``, ``hash``, pickles and copies.
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

    @cached_property
    def line_view(self) -> LineGraphView:
        """The `LineGraphView` of all hyperedges, node i standing for edge i."""
        return LineGraphView(self, range(self.m))


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


def freeze_hypergraph(n: int, edges: Iterable[tuple[int, ...]]) -> Hypergraph:
    """Freeze hyperedges that the library derived itself, as they are.

    Each must be a nonempty, strictly ascending tuple of ids in 0..n-1.
    A violation is a library bug, so it raises RuntimeError.  The tuples
    are checked column by column, one group per size; only a failed check
    scans them one by one, to name the first bad one.
    """
    edges = tuple(edges)
    if not _ascending_columns(n, edges):
        for eid, e in enumerate(edges):
            if not (type(e) is tuple and e and 0 <= e[0] and e[-1] < n and all(map(lt, e, e[1:]))):
                raise RuntimeError(f"derived hyperedge {eid} is not an ascending tuple in 0..{n - 1}: {e!r}")
    return Hypergraph(n=n, edges=edges)


def _ascending_columns(n: int, edges: tuple) -> bool:
    """Whether every one of ``edges`` is a nonempty, strictly ascending
    tuple of ids in 0..n-1, read column by column."""
    if not set(map(type, edges)) <= {tuple}:
        return False
    for size, group in groupby(sorted(edges, key=len), len):
        columns = [*zip(*group)]
        if not (size and min(columns[0]) >= 0 and max(columns[-1]) < n
                and all(all(map(lt, low, high)) for low, high in zip(columns, columns[1:]))):
            return False
    return True


@dataclass(frozen=True)
class Graph(Hypergraph):
    """A simple undirected graph: a rank-2 hypergraph.

    Edges are normalized ``(u, v)`` tuples with u < v; edge ids are their
    positions in ``edges``.  ``rank`` is 2 (0 without edges).
    ``adjacency``, the ascending neighbor lists, and ``max_degree``, read
    from it, are derived views like those of every hypergraph.
    """

    @cached_property
    def rank(self) -> int:
        return 2 if self.edges else 0

    @cached_property
    def max_degree(self) -> int:
        return max(map(len, self.adjacency), default=0)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adjacency: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        return tuple(map(tuple, map(sorted, adjacency)))

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
    checked in bulk, and a pair that is already a tuple ``(u, v)`` with
    u < v is stored as it is; the adjacency lists that check sorts are
    kept as the graph's ``adjacency``.  Only when that check fails does
    the per-edge scan run, so an error names the first bad edge in input
    order, with the same message as always.
    """
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    pairs = list(edges)
    checked = _checked_adjacency(n, pairs)
    if checked is None:
        return _scan_edges(n, pairs)
    adjacency, ascending = checked
    g = Graph(n=n, edges=tuple(pairs if ascending else [e if e[0] < e[1] else (e[1], e[0]) for e in pairs]))
    vars(g)["adjacency"] = tuple(map(tuple, adjacency))
    return g


def _checked_adjacency(n: int, pairs: list) -> tuple[list[list[int]], bool] | None:
    """Sorted adjacency lists of ``pairs`` and whether every pair is
    already ascending, or None unless every pair is a tuple of two
    distinct ids in 0..n-1 and no pair repeats in either orientation.

    A list laid out as `format_graph` writes a built graph (ascending
    pairs, in strictly ascending order) can repeat no pair, so only its
    first id is tested; any other list is scanned node by node.
    """
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
    ascending = all(starmap(lt, pairs))
    if ascending and all(map(lt, pairs, islice(pairs, 1, None))):
        if pairs and pairs[0][0] < 0:  # the smallest id
            return None
    # A self-loop or a repeated pair lists one node twice; a negative id
    # heads the list of the node it was paired with.
    elif any(adj and (adj[0] < 0 or any(map(eq, adj, adj[1:]))) for adj in adjacency):
        return None
    return adjacency, ascending


def _scan_edges(n: int, pairs: list) -> Graph:
    """`build_graph` edge by edge: raises on the first bad edge."""
    norm: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
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
    return Graph(n=n, edges=tuple(norm))


def freeze_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Freeze graph edges that the library derived itself, as they are.

    The edges must be ascending pairs of ids in 0..n-1, in strictly
    ascending order, so no pair repeats; a violation is a library bug, so
    it raises RuntimeError.  The result equals what ``build_graph`` makes
    of the same list.
    """
    edges = tuple(edges)
    if not (set(map(type, edges)) <= {tuple} and set(map(len, edges)) <= {2}
            and all(starmap(lt, edges)) and all(map(lt, edges, edges[1:]))
            and (not edges or edges[0][0] >= 0 and max(map(itemgetter(1), edges)) < n)):
        raise RuntimeError(f"derived edges are not ascending pairs in 0..{n - 1}, in ascending order")
    return Graph(n=n, edges=edges)


def line_graph(h: Hypergraph) -> Graph:
    """Graph on hyperedge ids; two ids adjacent iff the hyperedges intersect.

    Parallel hyperedges intersect, so they come out adjacent.  Each call
    builds a new graph; the rounding engine never builds one, and counts
    conflicts through a `LineGraphView` instead.
    """
    inc = h.incidence
    edges: list[tuple[int, int]] = []
    for eid, members in enumerate(h.edges):
        near: set[int] = set()
        for v in members:
            near.update(inc[v])
        edges.extend(zip(repeat(eid), sorted(f for f in near if f > eid)))
    return freeze_graph(h.m, edges)


class LineGraphView:
    """The line graph of some hyperedges of ``h``, answered from counts.

    Node i stands for hyperedge ``support[i]``, as in the subgraph of
    `line_graph` induced on ``support``, but no adjacency list is built.
    It answers what the coloring steps ask a `Graph`: ``n``,
    ``max_degree``, ``neighbors`` and the count query ``agreement``.

    Counts come from one identity, inclusion-exclusion cut off at vertex
    pairs.  A hyperedge f that meets e in t vertices holds t of e's
    vertices and t(t-1)/2 of its vertex pairs, and t - t(t-1)/2 +
    (t-1)(t-2)/2 = 1.  So the neighbors of e that carry e's label number

        sum over v in e of (#{f holding v : label(f) = label(e)} - 1)
        - sum over pairs p in e of (#{f holding p : label(f) = label(e)} - 1)
        + sum over f meeting e in t >= 3 vertices, label(f) = label(e),
          of (t-1)(t-2)/2.

    A vertex or pair that e alone holds adds 0, so only the pairs that
    two or more hyperedges hold are kept, and those are the only overlap
    data: two hyperedges meeting in 2 vertices need no term of their own.
    A vertex v is coded as v and a pair a < b as a*width + b, width being
    ``h.n``, and a label as a multiple of the code range, so one `Counter`
    counts all (label, vertex) keys at once and one all (label, pair)
    keys.  The hyperedges are read column by column, one group per
    hyperedge size.  Hyperedges meeting in t >= 3 vertices share a vertex
    triple, so they are found from the triples that two or more
    hyperedges hold, among the hyperedges that hold three shared pairs.
    The build takes time linear in the sum of squared hyperedge sizes,
    plus the cubed sizes of those hyperedges and the hyperedge pairs
    meeting in t >= 3 vertices; a query takes time linear in the
    vertices, the shared pairs and those hyperedge pairs.  The node
    degrees behind ``max_degree`` come from the counts the build keeps.
    Nothing is exponential in the rank.  Parallel hyperedges meet, so
    they count once, as in `line_graph`.
    """

    def __init__(self, h: Hypergraph, support: Iterable[int]) -> None:
        edges = [*map(h.edges.__getitem__, support)]
        self.n = len(edges)
        self._edges = edges
        self._width = width = h.n
        # (nodes, columns) per hyperedge size; nodes None stands for all.
        # An empty hyperedge, which only a raw `Hypergraph` holds, meets
        # nothing and joins no group.
        if len(set(map(len, edges))) > 1:
            by_size: dict[int, list[int]] = {}
            for i, e in enumerate(edges):
                by_size.setdefault(len(e), []).append(i)
            self._groups = [(nodes, [*zip(*map(edges.__getitem__, nodes))])
                            for size, nodes in by_size.items() if size]
        else:
            self._groups = [(None, [*zip(*edges)])] if edges and edges[0] else []
        self._degree = Counter(chain.from_iterable(edges))
        nodes_of, codes_of = [], []
        for nodes, columns in self._groups:
            scaled = [[*map(mul, column, repeat(width))] for column in columns]
            for a, b in combinations(range(len(columns)), 2):
                nodes_of.append(nodes)
                codes_of.append([*map(add, scaled[a], columns[b])])
        held = Counter(chain.from_iterable(codes_of))
        # the vertex pairs that two or more hyperedges hold, with their counts
        self._held = {code: k for code, k in held.items() if k > 1} if len(held) < held.total() else {}
        self._pair_node: list[int] = []
        self._pair_code: list[int] = []
        if self._held:
            for nodes, codes in zip(nodes_of, codes_of):
                kept = [*map(self._held.__contains__, codes)]
                self._pair_node += compress(range(self.n) if nodes is None else nodes, kept)
                self._pair_code += compress(codes, kept)
        self._first, self._second, self._extra = self._deep_overlaps()

    def _deep_overlaps(self) -> tuple[list[int], list[int], list[int]]:
        """The hyperedge pairs i < j meeting in t >= 3 vertices, each with
        its correction (t-1)(t-2)/2."""
        held_at: dict[int, list[int]] = {}
        for i, code in zip(self._pair_node, self._pair_code):
            held_at.setdefault(i, []).append(code)
        width, held = self._width, self._held
        holders: dict[tuple[int, int, int], list[int]] = {}
        for i, codes in held_at.items():
            if len(codes) < 3:
                continue
            shared = sorted({v for code in codes for v in divmod(code, width)})
            for a, b, c in combinations(shared, 3):
                if a * width + b in held and b * width + c in held and a * width + c in held:
                    holders.setdefault((a, b, c), []).append(i)
        meets = dict.fromkeys(pair for nodes in holders.values() if len(nodes) > 1
                              for pair in combinations(sorted(nodes), 2))
        edges = self._edges
        first = [i for i, _ in meets]
        second = [j for _, j in meets]
        extra = []
        for i, j in meets:
            t = len(set(edges[i]).intersection(edges[j]))
            extra.append((t - 1) * (t - 2) // 2)
        return first, second, extra

    def _tally(self, columns_at, vertex_count, pair_keys, pair_count, deep) -> list[int]:
        """Every node's count by the identity: ``columns_at`` holds the
        vertex keys per group and column, ``pair_keys`` the shared pairs'
        keys, each counted in its ``*_count``; ``deep`` the hyperedge
        pairs meeting in t >= 3 vertices that count."""
        agree = [0] * self.n
        for (nodes, _), columns in zip(self._groups, columns_at):
            counts = reduce(partial(map, add), [map(vertex_count.__getitem__, column) for column in columns])
            sums = map(sub, counts, repeat(len(columns)))
            if nodes is None:
                agree = [*sums]
            else:
                for i, count in zip(nodes, sums):
                    agree[i] = count
        for i, key in zip(self._pair_node, pair_keys):
            agree[i] -= pair_count[key] - 1
        for i, j, extra in deep:
            agree[i] += extra
            agree[j] += extra
        return agree

    @cached_property
    def max_degree(self) -> int:
        degrees = self._tally([columns for _, columns in self._groups], self._degree,
                              self._pair_code, self._held, zip(self._first, self._second, self._extra))
        return max(degrees, default=0)

    def neighbors(self, v: int) -> list[int]:
        """The nodes adjacent to v, ascending; a scan of all nodes."""
        e = set(self._edges[v])
        return [u for u, f in enumerate(self._edges) if u != v and not e.isdisjoint(f)]

    def agreement(self, labels: Sequence[int]) -> Callable[[int], int]:
        """``count(v)``: the neighbors u of v with ``labels[u] == labels[v]``.

        Counts the (label, vertex) and (label, shared pair) keys of all
        nodes once, and every node's count with them, when called.
        """
        width = self._width
        # label * width + vertex is one-to-one, since every vertex is below
        # width, and so is label * width^2 + pair code
        columns_at = []
        for nodes, columns in self._groups:
            at = [*map(mul, labels if nodes is None else map(labels.__getitem__, nodes), repeat(width))]
            columns_at.append([[*map(add, at, column)] for column in columns])
        pair_keys = [*map(add, map(mul, map(labels.__getitem__, self._pair_node), repeat(width * width)),
                          self._pair_code)]
        same = map(eq, map(labels.__getitem__, self._first), map(labels.__getitem__, self._second))
        return self._tally(columns_at, Counter(chain.from_iterable(chain.from_iterable(columns_at))),
                           pair_keys, Counter(pair_keys),
                           compress(zip(self._first, self._second, self._extra), same)).__getitem__


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
    nums, scale, count = x.nums, x.scale, h.m
    # Bounds by min and max; only a failed bound scans for the first
    # violation in the assignment's order.
    if nums and not (0 <= min(nums) and max(nums) < count):
        eid = next(eid for eid in nums if not 0 <= eid < count)
        return FractionalVerdict(False, f"edge id {eid} outside 0..{count - 1}")
    if nums and not (0 < min(nums.values()) and max(nums.values()) <= scale):
        eid, num = next((eid, num) for eid, num in nums.items() if not 0 < num <= scale)
        return FractionalVerdict(False, f"edge {eid} has value {Fraction(num, scale)} outside (0,1]")
    loads = _edge_loads(h, nums)
    if max(loads, default=0) > scale:
        v, load = next((v, load) for v, load in enumerate(loads) if load > scale)
        return FractionalVerdict(False, f"vertex {v} carries load {Fraction(load, scale)} > 1")
    # on integers, 2*load >= scale is load >= ceil(scale/2)
    half = frozenset(compress(range(h.n), map(ge, loads, repeat(-(-scale // 2)))))
    return FractionalVerdict(True, half_tight=half)


def validate_matching(
    h: Hypergraph, m: frozenset[int], require_maximal: bool = False
) -> Verdict:
    """Check that the edge ids in ``m`` are pairwise disjoint, optionally
    that ``m`` is maximal."""
    count, edges = h.m, h.edges
    used: dict[int, int] = {}
    for eid in sorted(m):
        if not 0 <= eid < count:
            return Verdict(False, f"edge id {eid} outside 0..{count - 1}")
        for v in edges[eid]:
            if v in used:
                return Verdict(False, f"edges {used[v]} and {eid} share vertex {v}")
            used[v] = eid
    # Maximal means the edges at the matched vertices are all the edges;
    # only a failed cover test scans for the first edge left out.
    if require_maximal and len(set().union(*map(h.incidence.__getitem__, used))) < count:
        for eid, members in enumerate(edges):
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
    # Relabeling is monotone, so the pairs come out in ascending order.
    edges = [(i, pos[u]) for i, v in enumerate(kept) for u in g.adjacency[v] if u > v and u in pos]
    return freeze_graph(len(kept), edges), kept


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
    # Maximal means the set and its neighbors cover every node; only a
    # failed cover test scans for the first node left out.
    if require_maximal and len(set(nodes).union(*map(g.adjacency.__getitem__, nodes))) < g.n:
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
