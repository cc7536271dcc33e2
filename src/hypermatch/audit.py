"""Sampled locality audits for the round-charged primitives.

Round costs in this package are charged by formula rather than by
simulating messages, so this module supplies the counterweight: a named
primitive declares the radius T its output at a node may depend on, and
an audit reruns it on two instances that agree on the radius ball around
one vertex but differ somewhere far away.  Equal outputs at the vertex
on every sampled triple is the evidence that the formula-charged code
really is a radius-T function.

Global parameters a LOCAL algorithm receives up front (vertex count,
degree cap, palette bound, starting denominator) are passed explicitly
through ``params`` so that a far edit cannot smuggle information in
through a recomputed global bound.  The colorings read the palette bound
as the palette of the id coloring they start from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .coloring import (
    VertexColoring,
    defective_coloring,
    defective_radius,
    linial_coloring,
    reduction_schedule,
)
from .core import (
    Graph,
    Hypergraph,
    Verdict,
    build_fractional_assignment,
)
from .rounding import greedy_doubling_step, greedy_fractional_matching


def ball(h: Hypergraph, vertex: int, radius: int) -> frozenset[int]:
    """Vertices within ``radius`` hops; a hop crosses one (hyper)edge."""
    if not 0 <= vertex < h.n:
        raise ValueError(f"vertex {vertex} outside 0..{h.n - 1}")
    seen = {vertex}
    frontier = [vertex]
    for _ in range(radius):
        nxt: list[int] = []
        for v in frontier:
            for eid in h.incidence[v]:
                for u in h.edges[eid]:
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
        frontier = nxt
    return frozenset(seen)


def _incident_view(
    h: Hypergraph, nodes: frozenset[int]
) -> tuple[tuple[int, ...], ...]:
    """Edges with an endpoint among ``nodes``, as an id-free multiset."""
    return tuple(sorted(e for e in h.edges if any(v in nodes for v in e)))


def _uniform_start(h: Hypergraph, denom: int):
    return build_fractional_assignment(
        {eid: Fraction(1, denom) for eid in range(h.m)}, Fraction(1, denom)
    )


def _incident_values(h: Hypergraph, x, vertex: int):
    return tuple(sorted((h.edges[eid], x.get(eid)) for eid in h.incidence[vertex]))


def _greedy_step_output(h: Hypergraph, vertex: int, params: dict):
    y = greedy_doubling_step(h, _uniform_start(h, params["denom"]))
    return _incident_values(h, y, vertex)


def _greedy_output(h: Hypergraph, vertex: int, params: dict):
    x = greedy_fractional_matching(h, denom=params["denom"])
    return _incident_values(h, x, vertex)


def _id_coloring(g: Graph, palette_bound: int) -> VertexColoring:
    """Vertex ids as colors, in the global palette bound rather than g.n."""
    return VertexColoring(colors=tuple(range(g.n)), palette_size=palette_bound)


def _linial_output(g: Graph, vertex: int, params: dict):
    out = linial_coloring(
        g,
        initial=_id_coloring(g, params["palette_bound"]),
        degree_cap=params["degree_cap"],
    )
    return out.colors[vertex]


def _defective_output(g: Graph, vertex: int, params: dict):
    out = defective_coloring(
        g,
        _id_coloring(g, params["palette_bound"]),
        params["defect"],
        degree_cap=params["degree_cap"],
    )
    return out.colors[vertex]


@dataclass(frozen=True)
class AuditPrimitive:
    """Declared locality radius plus the per-vertex output to compare."""

    radius: Callable[[Hypergraph, dict], int]
    output_at: Callable[[Hypergraph, int, dict], object]


PRIMITIVES: dict[str, AuditPrimitive] = {
    "greedy_step": AuditPrimitive(
        radius=lambda inst, params: 1,
        output_at=_greedy_step_output,
    ),
    "greedy": AuditPrimitive(
        radius=lambda inst, params: params["denom"].bit_length() - 1,
        output_at=_greedy_output,
    ),
    "linial": AuditPrimitive(
        radius=lambda inst, params: len(
            reduction_schedule(params["palette_bound"], params["degree_cap"])
        ),
        output_at=_linial_output,
    ),
    "defective": AuditPrimitive(
        radius=lambda inst, params: defective_radius(
            params["palette_bound"], params["degree_cap"], params["defect"]
        ),
        output_at=_defective_output,
    ),
}


def audit_locality(
    algorithm: str,
    instance: Hypergraph,
    vertex: int,
    radius: int,
    perturbed: Hypergraph,
    params: dict | None = None,
) -> Verdict:
    """Rerun ``algorithm`` on two far-apart-differing instances.

    Raises ValueError when the primitive is unknown, the radius is below
    the primitive's declared locality, the instances disagree on vertex
    count, or the perturbation touches an edge incident to the radius
    ball.  Returns a true Verdict iff the outputs at ``vertex`` match.
    """
    if algorithm not in PRIMITIVES:
        raise ValueError(f"unknown primitive {algorithm!r}")
    primitive = PRIMITIVES[algorithm]
    params = params or {}
    declared = primitive.radius(instance, params)
    if radius < declared:
        raise ValueError(
            f"radius {radius} is below the declared locality {declared}"
        )
    if type(perturbed) is not type(instance) or perturbed.n != instance.n:
        raise ValueError("perturbed instance must keep the vertex set")
    b0 = ball(instance, vertex, radius)
    b1 = ball(perturbed, vertex, radius)
    if b0 != b1 or _incident_view(instance, b0) != _incident_view(perturbed, b1):
        raise ValueError("perturbation intersects the radius ball")
    out0 = primitive.output_at(instance, vertex, params)
    out1 = primitive.output_at(perturbed, vertex, params)
    if out0 != out1:
        return Verdict(
            False,
            f"{algorithm} at vertex {vertex} changed: {out0!r} vs {out1!r}",
        )
    return Verdict(True)
