"""Greedy fractional packings and their rounding to independent sets.

This is the matching pipeline on the vertex side.  A greedy packing is a
`FractionalAssignment` of vertex values whose insertion order is a
witness order: under it every vertex fits its closed unit budget,

    x_v + sum of x_u over earlier neighbors u  <=  1.

In a graph whose neighborhood independence is bounded by r, closed loads
of a greedy packing never exceed max(r, 1), which is what makes the
doubling and rounding losses proportional to r rather than to the degree.
Rounding a packing to an integral one yields an independent set.

The rounding algorithm and the maximal driver live once, in `rounding`.
This module supplies their load model: nodes load their closed
neighborhood and are frozen by their own closed load, the conflict graph
is the graph itself, the greedy base is max_degree + 1 rounded up to a
power of two, rho is the independence bound, validity is
`verify_greedy_packing`, sub-instances are induced subgraphs, and the
color sweep also raises a node whose closed load is exactly 1/2.
"""

from __future__ import annotations

from fractions import Fraction

from .coloring import VertexColoring
from .core import (
    FractionalAssignment,
    Graph,
    Verdict,
    build_graph,
    induced_subgraph,
    is_dyadic,
    is_power_of_two,
    next_power_of_two,
    validate_independent_set,
    validate_vertex_coloring,
)
from .ledger import RoundLedger
from .rounding import (
    _approx,
    _basic_round,
    _drive,
    _greedy,
    _LoadModel,
    _recursive_round,
)


def verify_greedy_packing(g: Graph, p: FractionalAssignment) -> Verdict:
    """Check values are dyadic in (0,1] and their order is a valid witness.

    Budgets are summed as integer numerators over the assignment's scale.
    Only a scale that is not a power of two tests each value for dyadicity.
    """
    nums, scale = p.nums, p.scale
    dyadic = is_power_of_two(scale)
    for v, num in nums.items():
        if not 0 <= v < g.n:
            return Verdict(False, f"vertex id {v} outside 0..{g.n - 1}")
        if not 0 < num <= scale:
            return Verdict(False, f"vertex {v} has value {Fraction(num, scale)} outside (0,1]")
        if not (dyadic or is_dyadic(Fraction(num, scale))):
            return Verdict(False, f"vertex {v} has non-dyadic value {Fraction(num, scale)}")
    placed = [0] * g.n  # numerators of the vertices met so far in witness order
    for v, num in nums.items():
        budget = num + sum(map(placed.__getitem__, g.adjacency[v]))
        if budget > scale:
            return Verdict(False, f"vertex {v} exceeds its prefix budget: {Fraction(budget, scale)}")
        placed[v] = num
    return Verdict(True)


class _PackingModel(_LoadModel):
    """Nodes load their closed neighborhood and are frozen by their own load."""

    rho_name = "rho"
    driver = "mis_driver"
    raise_at_half = True
    noun = "vertex"
    kind = "greedy packing"
    suffix = "_packing"
    recursion_rule = "factor < denom/2"

    def __init__(
        self, g: Graph, independence: int = 1, ledger: RoundLedger | None = None
    ) -> None:
        self.graph = self.instance = g
        self.independence = independence
        self.ledger = ledger
        self.base = next_power_of_two(g.max_degree + 1)
        self.items = self.resources = g.n
        self.rho = max(1, independence)

    def conflict(self, support):
        return induced_subgraph(self.graph, support)[0]

    def loaded(self, i):
        return (i, *self.graph.adjacency[i])

    def freezing(self, i):
        return (i,)

    def verdict(self, x):
        return verify_greedy_packing(self.graph, x)

    def induce(self, alive):
        return induced_subgraph(self.graph, alive)

    def approx(self, sub):
        return approx_mis(sub, self.independence, self.ledger)

    def settled(self, chosen, maximal):
        return validate_independent_set(self.graph, chosen, require_maximal=maximal)

    def can_recurse(self, factor, denom):
        return 2 * factor < denom

    def greedy(self, denom):
        return initial_packing(self.graph, denom, self.ledger)

    def basic(self, x, factor, denom, coloring):
        return basic_round_packing(
            self.graph, x, factor, denom, self.independence, coloring, self.ledger
        )

    def recurse(self, x, factor, denom, coloring):
        return recursive_round_packing(
            self.graph, x, factor, denom, self.independence, coloring, self.ledger
        )


def initial_packing(
    g: Graph, denom: int | None = None, ledger: RoundLedger | None = None
) -> FractionalAssignment:
    """Uniform 1/denom start, then double under-loaded vertices.

    ``denom`` defaults to the smallest power of two >= max_degree + 1 (so
    the all-equal start has a witness in any order) and may only be
    overridden upwards.  Ends with every closed load >= 1/2.
    """
    if g.n == 0:
        return FractionalAssignment(values={})
    return _greedy(_PackingModel(g, ledger=ledger), denom)


def basic_round_packing(
    g: Graph,
    x: FractionalAssignment,
    factor: int,
    denom: int,
    independence: int,
    base_coloring: VertexColoring | None = None,
    ledger: RoundLedger | None = None,
) -> FractionalAssignment:
    """Round a (1/denom)-fractional packing up to floor factor/denom.

    Defective-colors the support subgraph with defect denom/(2*factor)-1,
    raises each class member whose closed load is still at most 1/2 to
    factor/denom, then doubles under-loaded support vertices.  Afterwards
    every input-support vertex has closed load >= 1/2, which caps the
    loss at a 1/(2*max(independence,1)) share.
    """
    model = _PackingModel(g, independence, ledger)
    return _basic_round(model, x, factor, denom, base_coloring)


def recursive_round_packing(
    g: Graph,
    x: FractionalAssignment,
    factor: int,
    denom: int,
    independence: int,
    base_coloring: VertexColoring | None = None,
    ledger: RoundLedger | None = None,
) -> FractionalAssignment:
    """Round a packing by a large factor, keeping a 1/(4*rho) share.

    Requires factor < denom/2.  Recurses through two nested factors with
    product 2*factor; the recursion is only taken while 4*factor < denom
    (otherwise a single basic pass is already valid and loses less), which
    keeps every nested call inside its own precondition.
    """
    model = _PackingModel(g, independence, ledger)
    return _recursive_round(model, x, factor, denom, base_coloring)


def approx_mis(
    g: Graph, independence: int, ledger: RoundLedger | None = None
) -> frozenset[int]:
    """Independent set of size at least MIS / (32 * max(independence,1)^3)."""
    return _approx(_PackingModel(g, independence, ledger))


def maximal_independent_set(
    g: Graph, independence: int, ledger: RoundLedger | None = None
) -> frozenset[int]:
    """Repeat approx_mis, removing closed neighborhoods, until maximal."""
    return _drive(_PackingModel(g, independence, ledger))[0]


def vertex_color(
    g: Graph,
    independence: int,
    lists: dict[int, tuple[int, ...]] | None = None,
    ledger: RoundLedger | None = None,
) -> VertexColoring:
    """Proper node coloring from palette {1..max_degree+1} or given lists.

    Works on the product graph with a node per (vertex, color) pair:
    pairs of the same vertex form a clique and same-color pairs of
    adjacent vertices are joined, so a maximal independent set picks
    exactly one color per vertex.  Since each node offers at least
    deg(v)+1 colors, at most deg(v) of its pairs can be blocked by
    neighbors, and maximality forces one pick.  The product's
    neighborhood independence is at most independence + 1.
    """
    if lists is None:
        palette = g.max_degree + 1
        lists = {v: tuple(range(1, palette + 1)) for v in range(g.n)}
    else:
        if sorted(lists) != list(range(g.n)):
            raise ValueError("lists must cover node ids 0..n-1 exactly")
        for v in range(g.n):
            if len(set(lists[v])) != len(lists[v]):
                raise ValueError(f"node {v} has duplicate list entries")
            need = len(g.adjacency[v]) + 1
            if len(lists[v]) < need:
                raise ValueError(
                    f"node {v} needs a list of size {need}, got {len(lists[v])}"
                )
    if g.n == 0:
        return VertexColoring(colors=(), palette_size=1)
    pair_id: dict[tuple[int, int], int] = {}
    for v in range(g.n):
        for c in lists[v]:
            pair_id[(v, c)] = len(pair_id)
    edges: list[tuple[int, int]] = []
    for v in range(g.n):
        own = [pair_id[(v, c)] for c in lists[v]]
        for i, p in enumerate(own):
            for q in own[i + 1 :]:
                edges.append((p, q))
    for u, v in g.edges:
        shared = set(lists[u]) & set(lists[v])
        for c in shared:
            edges.append((pair_id[(u, c)], pair_id[(v, c)]))
    product = build_graph(len(pair_id), edges)
    picked = maximal_independent_set(product, independence + 1, ledger)
    colors = []
    for v in range(g.n):
        own_colors = [c for c in lists[v] if pair_id[(v, c)] in picked]
        if len(own_colors) != 1:
            raise RuntimeError(
                f"vertex {v} decoded {len(own_colors)} colors instead of 1"
            )
        colors.append(own_colors[0])
    out = VertexColoring(
        colors=tuple(colors),
        palette_size=max(max(lst) for lst in lists.values()),
    )
    verdict = validate_vertex_coloring(g, out.colors, lists)
    if not verdict:
        raise RuntimeError(f"decoded coloring invalid: {verdict.reason}")
    return out
