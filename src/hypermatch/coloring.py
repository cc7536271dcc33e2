"""One-shot color reduction and defective coloring.

Both primitives rewrite a given coloring through cover-free set families
built from low-degree polynomials over a prime field: a color c < q^(k+1)
becomes the polynomial with the base-q digits of c as coefficients, and a
node picks a point (a, g_c(a)) of its polynomial that few neighbors can
claim.  Distinct polynomials of degree <= k agree on at most k points, so
with q > degree_cap * k a conflict-free point always exists, and with
smaller q the number of conflicts is still bounded, which yields defective
colorings.

A step reads its graph through one count query, ``g.agreement(labels)``:
how many neighbors of a node share its label.  The label is the color
for the input and defect checks and the polynomial's value at one point
for a step.  A `Graph` answers it from its adjacency lists, and a
`LineGraphView` from per-label histograms, so a hypergraph's line graph
is colored without being built.  A node takes the first point of its
polynomial that at most ``defect`` neighbors share (Kuhn's defective
step; a conflict-free point when the defect is 0), so a step evaluates
the polynomials at a point, one label per node, only when the first node
reaches that point.

The reduction schedule is computed from the declared palette bound (the
initial coloring's ``palette_size``) and degree cap alone, never from
realized colors, so every step is a pure radius-1 function of the
neighborhood.  Iterating until the palette bound stops shrinking
stabilizes at O(degree_cap^2) colors after a log* number of steps.

Frozen constants: a stabilized proper palette never exceeds
PALETTE_FACTOR_PROPER * degree_cap^2 and a defective palette never exceeds
PALETTE_FACTOR_DEFECTIVE * (degree_cap / defect)^2 (sweep-tested; violation
raises, it is never silently accepted).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Graph, LineGraphView
from .ledger import RoundLedger

PALETTE_FACTOR_PROPER = 16
PALETTE_FACTOR_DEFECTIVE = 128


@dataclass(frozen=True)
class VertexColoring:
    """Colors indexed by vertex id; defect 0 means proper."""

    colors: tuple[int, ...]
    palette_size: int
    defect: int = 0


def _is_prime(q: int) -> bool:
    """Primality of q >= 2 by trial division."""
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def _next_prime(q: int) -> int:
    while not _is_prime(q):
        q += 1
    return q


def _ceil_root(value: int, power: int) -> int:
    """Smallest q >= 1 with q**power >= value."""
    if value <= 1:
        return 1
    q = max(1, round(value ** (1.0 / power)))
    while q**power >= value:
        q -= 1
    while (q + 1) ** power < value:
        q += 1
    return q + 1


def _step_params(palette: int, degree_cap: int, defect: int) -> tuple[int, int]:
    """Pick (degree k, field size q) minimizing the new palette q^2.

    Constraints: q prime, q^(k+1) >= palette so every color encodes, and
    q > degree_cap*k/(defect+1) so the per-point conflict count stays
    at most defect.
    """
    max_k = max(1, palette.bit_length())
    steps = (
        (k, _next_prime(max(degree_cap * k // (defect + 1) + 1, _ceil_root(palette, k + 1), 2)))
        for k in range(1, max_k + 1)
    )
    return min(steps, key=lambda step: step[1])  # the first k of smallest q


def reduction_schedule(palette: int, degree_cap: int) -> list[tuple[int, int]]:
    """The (k, q) steps a proper reduction performs before stabilizing."""
    steps: list[tuple[int, int]] = []
    current = palette
    if degree_cap <= 0:
        return steps
    while True:
        k, q = _step_params(current, degree_cap, 0)
        if q * q >= current:
            return steps
        steps.append((k, q))
        current = q * q


def _check_initial(g: Graph | LineGraphView, colors: tuple[int, ...], palette: int) -> None:
    if len(colors) != g.n:
        raise ValueError(f"expected {g.n} colors, got {len(colors)}")
    # Pairwise distinct colors are proper on any graph.
    same = None if len(set(colors)) == len(colors) else g.agreement(colors)
    # Only a failed bound or an improper pair scans for the first bad node.
    in_range = not colors or 0 <= min(colors) and max(colors) < palette
    if in_range and (same is None or not any(map(same, range(len(colors))))):
        return
    for v, c in enumerate(colors):
        if not 0 <= c < palette:
            raise ValueError(f"node {v} has color {c} outside 0..{palette - 1}")
        # An earlier node sharing c with v would have raised already, so
        # every neighbor sharing c comes after v.
        if same is not None and same(v):
            u = next(u for u in g.neighbors(v) if colors[u] == c)
            raise ValueError(f"input coloring is improper: nodes {v},{u} share {c}")


def _apply_step(
    g: Graph | LineGraphView, colors: list[int], k: int, q: int, defect: int
) -> list[int]:
    """One reduction step: each node takes the first point of its polynomial
    with at most ``defect`` agreeing neighbors, and raises if none has.

    A neighbor that shares the node's new color agrees with it at the point
    taken, so the new coloring's defect is at most ``defect``.  A point's
    column (every node's polynomial at that point) is evaluated, by
    Horner's rule over the base-q digits of the nodes' colors, and its
    agreement counts are asked of ``g``, only when the first node reaches
    that point.
    """
    digits, rest = [], colors  # digits[j][v]: digit j of colors[v], highest first
    for _ in range(k + 1):
        digits.append([c % q for c in rest])
        rest = [c // q for c in rest]
    digits.reverse()
    labels_at: list = [None] * q
    agree_at: list = [None] * q
    new: list[int] = []
    for v in range(len(colors)):
        for a in range(q):
            if agree_at[a] is None:
                labels = digits[0]
                for row in digits[1:]:
                    labels = [(x * a + d) % q for x, d in zip(labels, row)]
                labels_at[a] = labels
                agree_at[a] = g.agreement(labels)
            if agree_at[a](v) <= defect:
                break
        else:
            raise RuntimeError("cover-free family exhausted; degree cap too small")
        new.append(a * q + labels_at[a][v])
    return new


def count_defect(g: Graph | LineGraphView, colors: list[int] | tuple[int, ...]) -> int:
    """The most neighbors any node shares its color with."""
    return max(map(g.agreement(colors), range(g.n)), default=0)


def linial_coloring(
    g: Graph | LineGraphView,
    initial: VertexColoring | None = None,
    degree_cap: int | None = None,
    ledger: RoundLedger | None = None,
) -> VertexColoring:
    """Proper coloring with at most PALETTE_FACTOR_PROPER * degree_cap^2 colors.

    Starts from ``initial`` (default: vertex ids, palette n), whose
    ``palette_size`` is the palette bound the schedule is computed from,
    and runs the reduction schedule until that bound stabilizes.  The
    ledger is charged one round per schedule step, a log* number in total.
    """
    if initial is None:
        initial = VertexColoring(colors=tuple(range(g.n)), palette_size=g.n)
    if initial.defect != 0:
        raise ValueError("initial coloring must be proper")
    palette = initial.palette_size
    cap = degree_cap if degree_cap is not None else g.max_degree
    if cap < g.max_degree:
        raise ValueError(f"degree cap {cap} below actual max degree {g.max_degree}")
    _check_initial(g, initial.colors, palette)
    if cap == 0:
        if ledger is not None:
            ledger.charge("linial", 1, "isolated nodes collapse to one color")
        return VertexColoring(colors=tuple(0 for _ in range(g.n)), palette_size=1)
    colors = list(initial.colors)
    schedule = reduction_schedule(palette, cap)
    for k, q in schedule:
        colors = _apply_step(g, colors, k, q, 0)
        palette = q * q
    if ledger is not None:
        ledger.charge("linial", len(schedule), "logstar(palette_bound)")
    if palette > PALETTE_FACTOR_PROPER * cap * cap:
        raise RuntimeError(
            f"stabilized palette {palette} exceeds {PALETTE_FACTOR_PROPER} * {cap}^2"
        )
    return VertexColoring(colors=tuple(colors), palette_size=palette)


def defective_coloring(
    g: Graph | LineGraphView,
    initial: VertexColoring,
    defect: int,
    degree_cap: int | None = None,
    ledger: RoundLedger | None = None,
) -> VertexColoring:
    """Coloring where every node has at most ``defect`` same-colored neighbors.

    Runs the proper reduction from ``initial`` (its ``palette_size`` is
    the palette bound) to stabilization, then one conflict-tolerant step
    whose field size is shrunk by a factor of defect+1, in which each node
    takes the first point that at most ``defect`` neighbors share.  The
    realized defect is counted again before the coloring is returned.
    With defect 0 this is exactly the proper reduction; with defect >=
    degree_cap one color suffices.
    """
    if defect < 0:
        raise ValueError(f"defect must be >= 0, got {defect}")
    cap = degree_cap if degree_cap is not None else g.max_degree
    if cap < g.max_degree:
        raise ValueError(f"degree cap {cap} below actual max degree {g.max_degree}")
    if defect >= cap:
        if ledger is not None:
            ledger.charge("defective", 1, "defect >= degree cap, one color")
        return VertexColoring(colors=tuple(0 for _ in range(g.n)), palette_size=1, defect=defect)
    proper = linial_coloring(g, initial, degree_cap=cap, ledger=ledger)
    if defect == 0:
        return proper
    k, q = _step_params(proper.palette_size, cap, defect)
    colors = _apply_step(g, list(proper.colors), k, q, defect)
    if ledger is not None:
        ledger.charge("defective", 1, "one conflict-tolerant reduction step")
    palette = q * q
    if palette * defect * defect > PALETTE_FACTOR_DEFECTIVE * cap * cap:
        raise RuntimeError(
            f"defective palette {palette} exceeds "
            f"{PALETTE_FACTOR_DEFECTIVE} * ({cap}/{defect})^2"
        )
    realized = count_defect(g, colors)
    if realized > defect:
        raise RuntimeError(f"defect {realized} exceeds requested {defect}")
    return VertexColoring(colors=tuple(colors), palette_size=palette, defect=defect)


def defective_radius(palette: int, degree_cap: int, defect: int) -> int:
    """Declared locality radius of defective_coloring with these parameters."""
    if degree_cap <= 0 or defect >= degree_cap:
        return 0
    steps = len(reduction_schedule(palette, degree_cap))
    return steps + (1 if defect > 0 else 0)
