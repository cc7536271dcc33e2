"""Color reduction sweeps: proper, line-graph and defective variants."""

import random

import pytest

from hypermatch import coloring, generate
from hypermatch.coloring import (
    PALETTE_FACTOR_DEFECTIVE,
    PALETTE_FACTOR_PROPER,
    VertexColoring,
    _apply_step,
    _step_params,
    count_defect,
    defective_coloring,
    defective_radius,
    linial_coloring,
    reduction_schedule,
)
from hypermatch.core import LineGraphView, build_graph, build_hypergraph, line_graph
from hypermatch.ledger import RoundLedger


def ids(g):
    return VertexColoring(colors=tuple(range(g.n)), palette_size=g.n)


def assert_proper(g, colors):
    for u, v in g.edges:
        assert colors[u] != colors[v], f"edge ({u},{v}) monochromatic"


def test_single_vertex_collapses_to_one_color():
    g = build_graph(1, [])
    out = linial_coloring(g)
    assert out.colors == (0,)
    assert out.palette_size == 1


def test_edgeless_graph_one_color():
    g = build_graph(6, [])
    out = linial_coloring(g)
    assert set(out.colors) == {0}
    assert out.palette_size == 1


def test_cycle_five_reduces_palette():
    g = generate.cycle(5)
    out = linial_coloring(g)
    assert_proper(g, out.colors)
    assert out.palette_size <= PALETTE_FACTOR_PROPER * 4


def test_long_cycle_reduces_to_constant_palette():
    g = generate.cycle(501)
    led = RoundLedger()
    out = linial_coloring(g, ledger=led)
    assert_proper(g, out.colors)
    assert out.palette_size <= PALETTE_FACTOR_PROPER * 4
    # the schedule is logstar-short even from a 501-color start
    assert 1 <= led.total_for("linial") <= 6


def test_high_degree_star_needs_no_reduction():
    # 500 ids already sit inside 16 * 499^2, so the schedule is empty
    g = generate.star(500)
    out = linial_coloring(g)
    assert out.colors == tuple(range(500))
    assert reduction_schedule(500, g.max_degree) == []


def test_schedule_length_grows_slowly():
    assert len(reduction_schedule(10**9, 3)) <= 7
    assert reduction_schedule(100, 100) == []


def test_degree_cap_below_actual_rejected():
    g = generate.cycle(5)
    with pytest.raises(ValueError):
        linial_coloring(g, degree_cap=1)


def test_initial_coloring_must_be_proper():
    g = generate.cycle(4)
    bad = VertexColoring(colors=(0, 0, 1, 2), palette_size=3)
    with pytest.raises(ValueError):
        linial_coloring(g, initial=bad)


@pytest.mark.parametrize("colors, message", [
    ((0, 5, 1), "node 1 has color 5 outside 0..2"),
    ((7, 0, 0), "node 0 has color 7 outside 0..2"),
    ((0, 0, 7), "input coloring is improper: nodes 0,1 share 0"),
    ((1, 2, 2), "input coloring is improper: nodes 1,2 share 2"),
], ids=["distinct-range", "repeated-range-first", "repeated-improper-first",
        "repeated-improper"])
def test_initial_coloring_errors_come_in_node_order(colors, message):
    g = generate.path(3)
    bad = VertexColoring(colors=colors, palette_size=3)
    with pytest.raises(ValueError) as err:
        linial_coloring(g, initial=bad)
    assert str(err.value) == message


def test_line_graph_coloring_single_hyperedge():
    h = build_hypergraph(3, [{0, 1, 2}])
    out = linial_coloring(line_graph(h))
    assert out.colors == (0,)


def test_line_graph_coloring_triangle():
    h = build_hypergraph(3, [{0, 1}, {1, 2}, {0, 2}])
    out = linial_coloring(line_graph(h))
    assert len(set(out.colors)) == 3
    assert out.palette_size <= PALETTE_FACTOR_PROPER * 16


def test_line_graph_coloring_disjoint_edges_may_share():
    h = build_hypergraph(6, [{0, 1, 2}, {3, 4, 5}])
    out = linial_coloring(line_graph(h))
    assert out.colors[0] == out.colors[1] == 0


def test_defect_at_least_degree_needs_one_color():
    g = generate.cycle(5)
    out = defective_coloring(g, ids(g), defect=2)
    assert out.palette_size == 1
    assert set(out.colors) == {0}


def test_defect_zero_is_proper():
    g = generate.cycle(5)
    out = defective_coloring(g, ids(g), defect=0)
    assert_proper(g, out.colors)
    assert out.defect == 0


def test_k4_defect_one():
    g = generate.complete(4)
    out = defective_coloring(g, ids(g), defect=1)
    assert count_defect(g, out.colors) <= 1
    assert (
        out.palette_size * 1 * 1
        <= PALETTE_FACTOR_DEFECTIVE * g.max_degree * g.max_degree
    )


@pytest.mark.parametrize("defect", [0, 1, 2, 3])
def test_defective_sweep_on_regular_instance(defect):
    g = generate.d_regular(24, 4, seed=9)
    out = defective_coloring(g, ids(g), defect)
    assert count_defect(g, out.colors) <= defect
    if defect > 0:
        assert (
            out.palette_size * defect * defect
            <= PALETTE_FACTOR_DEFECTIVE * g.max_degree * g.max_degree
        )


def test_defective_radius_declared_values():
    assert defective_radius(300, 2, 0) == len(reduction_schedule(300, 2))
    assert defective_radius(300, 2, 1) == len(reduction_schedule(300, 2)) + 1
    assert defective_radius(300, 2, 2) == 0  # defect >= cap: constant output
    assert defective_radius(10, 0, 0) == 0


def _all_points(color, k, q):
    """The polynomial whose coefficients are the base-q digits of ``color``,
    evaluated at every point 0..q-1."""
    coeffs = []
    c = color
    for _ in range(k + 1):
        coeffs.append(c % q)
        c //= q
    out = []
    for a in range(q):
        acc = 0
        for coef in reversed(coeffs):
            acc = (acc * a + coef) % q
        out.append(acc)
    return tuple(out)


def _reference_step(g, colors, k, q, defect):
    """One reduction step that evaluates every polynomial and asks every
    agreement count up front; a node takes the first point with at most
    ``defect`` agreeing neighbors."""
    own = [_all_points(c, k, q) for c in colors]
    agree = [g.agreement([p[a] for p in own]) for a in range(q)]
    new = []
    for v, poly in enumerate(own):
        admissible = [a for a in range(q) if agree[a](v) <= defect]
        if not admissible:
            raise RuntimeError("cover-free family exhausted; degree cap too small")
        new.append(admissible[0] * q + poly[admissible[0]])
    return new


def _greedy_colors(g):
    colors = []
    for v in range(g.n):
        taken = {colors[u] for u in g.neighbors(v) if u < v}
        colors.append(next(c for c in range(g.n) if c not in taken))
    return colors


def _step_instances(seed):
    rng = random.Random(seed)
    yield generate.random_graph(rng.randint(8, 40), rng.choice([0.1, 0.2, 0.4]), seed=seed)
    h = generate.random_hypergraph(rng.randint(8, 20), rng.randint(5, 30), 3, seed=seed)
    yield LineGraphView(h, range(h.m))
    support = sorted(rng.sample(range(h.m), h.m // 2))
    yield LineGraphView(h, support)


@pytest.mark.parametrize("seed", range(40))
def test_step_matches_the_all_points_reference(seed):
    """Ids, distinct colors spread over n^2 and a greedy proper coloring,
    each at the (k, q) of defect 0, 1 and 2."""
    rng = random.Random(seed)
    for g in _step_instances(seed):
        spread = rng.sample(range(max(1, g.n * g.n)), g.n)
        greedy = _greedy_colors(g)
        for colors, palette in ((list(range(g.n)), g.n), (spread, g.n * g.n),
                                (greedy, max(greedy, default=0) + 1)):
            for defect in (0, 1, 2):
                k, q = _step_params(palette, max(1, g.max_degree), defect)
                expected = _reference_step(g, colors, k, q, defect)
                assert _apply_step(g, colors, k, q, defect) == expected


def test_step_takes_the_first_admissible_point_not_the_fewest():
    """On a triangle colored by ids at defect 1 (k = 1, q = 2), node 0
    shares point 0 with node 2 but point 1 with no one.  Point 0 is
    admissible, so node 0 takes it, where the rule of fewest agreeing
    neighbors would take point 1."""
    g = generate.complete(3)
    k, q = _step_params(3, 2, 1)
    assert (k, q) == (1, 2)
    own = [_all_points(c, k, q) for c in range(3)]
    assert [g.agreement([p[a] for p in own])(0) for a in range(q)] == [1, 0]
    fewest = [2, 1, 0]  # node 0 at point 1, where it agrees with no one
    assert _reference_step(g, [0, 1, 2], k, q, 1) == [0, 1, 0] != fewest
    assert _apply_step(g, [0, 1, 2], k, q, 1) == [0, 1, 0]
    assert count_defect(g, [0, 1, 0]) == 1


def test_initial_coloring_must_cover_every_node():
    g = generate.cycle(5)
    with pytest.raises(ValueError) as err:
        linial_coloring(g, VertexColoring(colors=(0, 1, 2), palette_size=5))
    assert str(err.value) == "expected 5 colors, got 3"


def test_initial_coloring_with_a_defect_is_refused():
    g = generate.cycle(5)
    with pytest.raises(ValueError) as err:
        linial_coloring(g, VertexColoring(colors=tuple(range(5)), palette_size=5, defect=1))
    assert str(err.value) == "initial coloring must be proper"


def test_stabilized_palette_over_the_bound_raises(monkeypatch):
    g = generate.cycle(501)
    palette = linial_coloring(g).palette_size
    monkeypatch.setattr(coloring, "PALETTE_FACTOR_PROPER", 0)
    with pytest.raises(RuntimeError) as err:
        linial_coloring(g)
    assert str(err.value) == f"stabilized palette {palette} exceeds 0 * 2^2"


def test_negative_defect_is_refused():
    g = generate.cycle(5)
    with pytest.raises(ValueError) as err:
        defective_coloring(g, ids(g), -1)
    assert str(err.value) == "defect must be >= 0, got -1"


def test_defective_degree_cap_below_actual_rejected():
    g = generate.cycle(5)
    with pytest.raises(ValueError) as err:
        defective_coloring(g, ids(g), 0, degree_cap=1)
    assert str(err.value) == "degree cap 1 below actual max degree 2"


def test_defective_palette_over_the_bound_raises(monkeypatch):
    g = generate.d_regular(24, 4, seed=9)
    palette = defective_coloring(g, ids(g), 1).palette_size
    monkeypatch.setattr(coloring, "PALETTE_FACTOR_DEFECTIVE", 0)
    with pytest.raises(RuntimeError) as err:
        defective_coloring(g, ids(g), 1)
    assert str(err.value) == f"defective palette {palette} exceeds 0 * (4/1)^2"


def test_realized_defect_over_the_request_raises(monkeypatch):
    g = generate.d_regular(24, 4, seed=9)
    monkeypatch.setattr(coloring, "_apply_step", lambda g, colors, k, q, defect: [0] * g.n)
    with pytest.raises(RuntimeError) as err:
        defective_coloring(g, ids(g), 1)
    assert str(err.value) == "defect 4 exceeds requested 1"
