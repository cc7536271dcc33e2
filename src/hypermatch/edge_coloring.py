"""Edge coloring by reduction to hypergraph maximal matching.

The reduction makes one low-rank hyperedge per (edge, candidate color)
pair: the copies of an edge all share a private anchor vertex, and copies
of the same color at a shared endpoint collide on that endpoint's
per-color vertex.  A maximal matching of the reduction therefore picks at
most one color per edge and never the same color on touching edges; list
sizes exceeding the number of adjacent edges force every edge to be
picked.  On top of that sit the plain (2*max_degree - 1) coloring, a
seeded randomized hybrid, and an arboricity-sensitive variant driven by
degree peeling.

The last two color their edges in batches, each batch on the original
vertex ids.  The reduction numbers (vertex, color) pairs in sorted order
and anchors by batch position, so it builds the same matching instance as
it would for the batch relabeled into its own subgraph.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, repeat

from .core import (
    Graph,
    Hypergraph,
    Verdict,
    freeze_hypergraph,
    induced_subhypergraph,
    validate_edge_coloring,
)
from .ledger import RoundLedger
from .rounding import maximal_matching

RANDOM_TRIAL_FACTOR = 4
PEELING_ROUND_FACTOR = 4


class PeelingStallError(RuntimeError):
    """No vertex fell below the peeling threshold: the bound is too small."""


@dataclass(frozen=True)
class ListEdgeInstance:
    """A graph plus an ordered color list per edge: what a
    `list-edge-color` instance file holds."""

    g: Graph
    lists: dict[int, tuple[int, ...]]


@dataclass(frozen=True)
class EdgeColoringResult:
    colors: dict[int, int]
    palette: int | None
    stats: dict[str, int]


@dataclass(frozen=True)
class ReducedColoring:
    """Reduction output: the hypergraph and hyperedge -> (edge, color)."""

    hypergraph: Hypergraph
    decode: dict[int, tuple[int, int]]


def adjacent_edge_count(h: Hypergraph, eid: int) -> int:
    """Number of other hyperedges meeting this one in at least one vertex."""
    seen: set[int] = set()
    for v in h.edges[eid]:
        seen.update(h.incidence[v])
    return len(seen) - 1


def _check_lists(h: Hypergraph, lists: dict[int, tuple[int, ...]]) -> None:
    if set(lists) != set(range(h.m)):
        raise ValueError("lists must cover exactly the edge ids 0..m-1")
    for eid, colors in lists.items():
        if len(set(colors)) != len(colors):
            raise ValueError(f"edge {eid} has a repeated color in its list")
        if colors and min(colors) < 0:
            raise ValueError(f"edge {eid} has a negative color in its list")
        need = adjacent_edge_count(h, eid) + 1
        if len(colors) < need:
            raise ValueError(
                f"edge {eid} needs a list of size >= {need}, got {len(colors)}"
            )


def build_list_edge_instance(
    g: Graph, lists: dict[int, tuple[int, ...]]
) -> ListEdgeInstance:
    _check_lists(g, lists)
    return ListEdgeInstance(g=g, lists=dict(lists))


def reduce_hypergraph_list_edge_coloring(
    h: Hypergraph, lists: dict[int, tuple[int, ...]]
) -> ReducedColoring:
    """Rank r input becomes a rank r+1 matching instance.

    Vertices: one (v, c) copy per color c listed on an edge at v, plus one
    anchor per input edge.  Hyperedges: for each edge e and c in its list,
    the copies (v, c) over v in e together with e's anchor.
    """
    _check_lists(h, lists)
    # (v, c) pairs numbered in (v, c) order: vertex by vertex, each vertex's
    # colors the union of its edges' lists, ascending
    pair_id: list[dict[int, int]] = []
    pairs = 0
    for at in h.incidence:
        colors = sorted(set().union(*map(lists.__getitem__, at)))
        pair_id.append(dict(zip(colors, range(pairs, pairs + len(colors)))))
        pairs += len(colors)
    ordered = [*map(lists.__getitem__, range(h.m))]
    members: list[tuple[int, ...]] = []
    for eid, (e, colors) in enumerate(zip(h.edges, ordered)):
        # ascending, as pair ids follow (v, c) order and the anchor comes last
        columns = [map(pair_id[v].__getitem__, colors) for v in e]
        members += zip(*columns, repeat(pairs + eid, len(colors)))
    decode = dict(enumerate(zip(chain.from_iterable(map(repeat, range(h.m), map(len, ordered))),
                                chain.from_iterable(ordered))))
    reduced = freeze_hypergraph(pairs + h.m, members)
    return ReducedColoring(hypergraph=reduced, decode=decode)


def full_palette_lists(h: Hypergraph, palette: int) -> dict[int, tuple[int, ...]]:
    return {eid: tuple(range(1, palette + 1)) for eid in range(h.m)}


def decode_matching(
    reduced: ReducedColoring, edge_count: int, chosen: frozenset[int]
) -> dict[int, int]:
    """Map matched hyperedges back to edge colors, exactly one per edge."""
    colors: dict[int, int] = {}
    for hid in sorted(chosen):
        eid, c = reduced.decode[hid]
        if eid in colors:
            raise RuntimeError(f"edge {eid} has two matched copies")
        colors[eid] = c
    for eid in range(edge_count):
        if eid not in colors:
            raise RuntimeError(f"edge {eid} has no matched copy")
    return colors


def list_edge_color(
    h: Hypergraph,
    lists: dict[int, tuple[int, ...]],
    ledger: RoundLedger | None = None,
) -> EdgeColoringResult:
    """Proper list edge coloring via one maximal matching of the reduction."""
    if h.m == 0:
        return EdgeColoringResult(colors={}, palette=None, stats={
            "reduced_vertices": 0, "reduced_edges": 0, "reduced_rank": 0,
        })
    reduced = reduce_hypergraph_list_edge_coloring(h, lists)
    picked = maximal_matching(reduced.hypergraph, ledger)
    colors = decode_matching(reduced, h.m, picked)
    verdict = validate_edge_coloring(h, colors, lists=lists)
    if not verdict:
        raise RuntimeError(f"decoded coloring invalid: {verdict.reason}")
    r = reduced.hypergraph
    return EdgeColoringResult(colors=colors, palette=None, stats={
        "reduced_vertices": r.n, "reduced_edges": r.m, "reduced_rank": r.rank,
    })


def edge_color(g: Graph, ledger: RoundLedger | None = None) -> EdgeColoringResult:
    """Proper edge coloring with colors in 1..2*max_degree - 1."""
    palette = max(0, 2 * g.max_degree - 1)
    result = list_edge_color(g, full_palette_lists(g, palette), ledger)
    return replace(result, palette=palette)


def _color_batch(
    h: Hypergraph,
    eids: list[int],
    lists: dict[int, tuple[int, ...]],
    ledger: RoundLedger | None,
) -> dict[int, int]:
    """List-color the edges `eids` of h, with lists keyed by edge id."""
    sub, kept = induced_subhypergraph(h, eids)
    finished = list_edge_color(
        sub, {k: lists[eid] for k, eid in enumerate(kept)}, ledger
    )
    return {eid: finished.colors[k] for k, eid in enumerate(kept)}


def _uncolored_components(
    uncolored: list[int], adjacent: list[list[int]]
) -> list[list[int]]:
    """Group the uncolored edges into endpoint-connected components."""
    left = set(uncolored)
    components = []
    while left:
        start = min(left)
        stack = [start]
        comp = {start}
        left.remove(start)
        while stack:
            e = stack.pop()
            for f in adjacent[e]:
                if f in left:
                    left.remove(f)
                    comp.add(f)
                    stack.append(f)
        components.append(sorted(comp))
    return components


def randomized_edge_color(
    g: Graph, seed: int, ledger: RoundLedger | None = None
) -> EdgeColoringResult:
    """Seeded trial rounds of random color picks, deterministic finish.

    Each uncolored edge picks uniformly from its residual palette and
    keeps the pick when no touching edge picked the same color that
    round.  After the trial rounds every still-uncolored component is
    finished by the list coloring reduction on its residual palettes,
    whose sizes stay above the remaining adjacent-edge counts.
    """
    palette = max(0, 2 * g.max_degree - 1)
    if g.m == 0:
        return EdgeColoringResult(colors={}, palette=palette, stats={
            "trial_rounds": 0, "colored_in_trials": 0, "total_edges": 0,
            "components_finished": 0,
        })
    trials = max(1, math.ceil(RANDOM_TRIAL_FACTOR * math.log2(max(2, g.max_degree))))
    rng = random.Random(seed)
    inc = g.incidence  # the other edges at either end; a simple graph repeats none
    adjacent = [[f for v in e for f in inc[v] if f != eid] for eid, e in enumerate(g.edges)]
    residual: list[set[int]] = [set(range(1, palette + 1)) for _ in range(g.m)]
    colors: dict[int, int] = {}
    for _ in range(trials):
        open_edges = [eid for eid in range(g.m) if eid not in colors]
        if not open_edges:
            break
        picks = {eid: rng.choice(sorted(residual[eid])) for eid in open_edges}
        for eid in open_edges:
            if any(picks.get(f) == picks[eid] for f in adjacent[eid]):
                continue
            colors[eid] = picks[eid]
            for f in adjacent[eid]:
                residual[f].discard(picks[eid])
    colored_in_trials = len(colors)
    if ledger is not None:
        ledger.charge("random_trials", trials, "4*log2(max_degree)")
    leftovers = [eid for eid in range(g.m) if eid not in colors]
    components = _uncolored_components(leftovers, adjacent)
    for comp in components:
        lists = {eid: tuple(sorted(residual[eid])) for eid in comp}
        colors.update(_color_batch(g, comp, lists, ledger))
    verdict = validate_edge_coloring(g, colors, palette=palette)
    if not verdict:
        raise RuntimeError(f"randomized coloring invalid: {verdict.reason}")
    return EdgeColoringResult(colors=colors, palette=palette, stats={
        "trial_rounds": trials,
        "colored_in_trials": colored_in_trials,
        "total_edges": g.m,
        "components_finished": len(components),
    })


@dataclass(frozen=True)
class HPartition:
    """Vertex layers from repeated low-degree peeling."""

    layers: tuple[frozenset[int], ...]
    threshold: Fraction


def validate_h_partition(g: Graph, hp: HPartition) -> Verdict:
    seen: set[int] = set()
    for layer in hp.layers:
        if layer & seen:
            return Verdict(False, "layers overlap")
        seen |= layer
    if seen != set(range(g.n)):
        return Verdict(False, "layers do not cover every vertex")
    at_or_after: set[int] = set(range(g.n))
    for layer in hp.layers:
        for v in layer:
            ahead = sum(1 for u in g.adjacency[v] if u in at_or_after)
            if Fraction(ahead) > hp.threshold:
                return Verdict(
                    False, f"vertex {v} keeps {ahead} neighbors above threshold"
                )
        at_or_after -= layer
    return Verdict(True)


def h_partition(
    g: Graph,
    arboricity_bound: int,
    eps: Fraction,
    ledger: RoundLedger | None = None,
) -> HPartition:
    """Peel all vertices of remaining degree <= (2+eps)*bound, layer by layer.

    Stalls (and raises) when the bound is below the true arboricity, since
    then a remaining subgraph can be dense enough that nothing peels.
    Raises ValueError for eps > max(1, m): at eps = m every vertex already
    peels in the first layer, and a larger eps only inflates the threshold.
    """
    if arboricity_bound < 1:
        raise ValueError("arboricity bound must be at least 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eps > max(1, g.m):
        raise ValueError(f"eps must be at most max(1, m) = {max(1, g.m)}, got {eps}")
    threshold = (2 + eps) * arboricity_bound
    # Divided as a Fraction (the float log2 taken as it is), so that no eps
    # overflows a float or rounds to zero.
    cap = math.ceil(
        PEELING_ROUND_FACTOR * Fraction(math.log2(max(2, g.n))) / Fraction(eps)
    )
    remaining = set(range(g.n))
    layers: list[frozenset[int]] = []
    while remaining:
        peel = {
            v
            for v in remaining
            if Fraction(sum(1 for u in g.adjacency[v] if u in remaining))
            <= threshold
        }
        if not peel:
            raise PeelingStallError(
                f"no vertex has remaining degree <= {threshold}; "
                f"the arboricity bound {arboricity_bound} is too small"
            )
        layers.append(frozenset(peel))
        remaining -= peel
        if len(layers) > cap:
            raise PeelingStallError(
                f"peeling needed more than {cap} layers; "
                f"the arboricity bound {arboricity_bound} is too small"
            )
    if ledger is not None:
        ledger.charge("h_partition", len(layers), "4*log2(n)/eps")
    return HPartition(layers=tuple(layers), threshold=threshold)


def arboricity_edge_color(
    g: Graph,
    arboricity_bound: int,
    eps: Fraction,
    ledger: RoundLedger | None = None,
) -> EdgeColoringResult:
    """Proper coloring with max_degree + ceil((2+eps)*bound) - 1 colors.

    Peels the graph into layers, checks them with `validate_h_partition`,
    then colors edges from the deepest layer outward: each batch holds the
    edges whose earlier endpoint sits in the current layer, and there are
    always enough unused colors because a current-layer endpoint has few
    batch-or-later edges while the other endpoint is capped by its plain
    degree.  A partition that fails the check is a library bug and raises
    RuntimeError.
    """
    hp = h_partition(g, arboricity_bound, eps, ledger)
    verdict = validate_h_partition(g, hp)
    if not verdict:
        raise RuntimeError(f"H-partition invalid: {verdict.reason}")
    palette = g.max_degree + math.ceil(hp.threshold) - 1
    layer_of = {}
    for i, layer in enumerate(hp.layers):
        for v in layer:
            layer_of[v] = i
    batches: dict[int, list[int]] = {}
    for eid, (u, v) in enumerate(g.edges):
        batches.setdefault(min(layer_of[u], layer_of[v]), []).append(eid)
    used: list[set[int]] = [set() for _ in range(g.n)]
    colors: dict[int, int] = {}
    for i in sorted(batches, reverse=True):
        lists = {}
        for eid in batches[i]:
            u, v = g.edges[eid]
            lists[eid] = tuple(
                c for c in range(1, palette + 1) if c not in used[u] and c not in used[v]
            )
        for eid, c in _color_batch(g, batches[i], lists, ledger).items():
            colors[eid] = c
            for v in g.edges[eid]:
                used[v].add(c)
    verdict = validate_edge_coloring(g, colors, palette=palette)
    if not verdict:
        raise RuntimeError(f"layered coloring invalid: {verdict.reason}")
    return EdgeColoringResult(colors=colors, palette=palette, stats={
        "layers": len(hp.layers),
    })
