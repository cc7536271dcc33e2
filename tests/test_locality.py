"""Radius audits: rerunning primitives on far-apart-differing instances."""

import pytest
from helpers import drop_graph_edge, drop_hyperedge, loose_cycle

from hypermatch.audit import PRIMITIVES, AuditPrimitive, audit_locality, ball
from hypermatch.coloring import reduction_schedule
from hypermatch import generate


def test_ball_on_graphs():
    g = generate.cycle(10)
    assert ball(g, 0, 0) == frozenset({0})
    assert ball(g, 0, 1) == frozenset({9, 0, 1})
    assert ball(g, 0, 2) == frozenset({8, 9, 0, 1, 2})


def test_ball_on_hypergraphs():
    h = loose_cycle(6)
    assert ball(h, 0, 1) == frozenset({0, 1, 2, 10, 11})


def test_greedy_step_far_edit_passes():
    h = loose_cycle(15)
    perturbed = drop_hyperedge(h, 7)
    verdict = audit_locality(
        "greedy_step", h, 0, 1, perturbed, params={"denom": 4}
    )
    assert verdict.ok


def test_identity_perturbation_passes():
    h = loose_cycle(8)
    assert audit_locality("greedy_step", h, 3, 1, h, params={"denom": 4}).ok


def test_greedy_full_run_far_edit_passes():
    h = loose_cycle(15)
    perturbed = drop_hyperedge(h, 7)
    verdict = audit_locality(
        "greedy", h, 0, 2, perturbed, params={"denom": 4}
    )
    assert verdict.ok


def test_linial_far_edit_passes():
    g = generate.cycle(80)
    declared = len(reduction_schedule(80, 2))
    assert declared >= 1
    perturbed = drop_graph_edge(g, 40)
    verdict = audit_locality(
        "linial", g, 0, declared, perturbed,
        params={"palette_bound": 80, "degree_cap": 2},
    )
    assert verdict.ok


def test_defective_far_edit_passes():
    g = generate.cycle(80)
    radius = len(reduction_schedule(80, 2)) + 1
    perturbed = drop_graph_edge(g, 40)
    verdict = audit_locality(
        "defective", g, 0, radius, perturbed,
        params={"palette_bound": 80, "degree_cap": 2, "defect": 1},
    )
    assert verdict.ok


def test_unknown_primitive_rejected():
    h = loose_cycle(4)
    with pytest.raises(ValueError):
        audit_locality("quicksort", h, 0, 1, h)


def test_radius_below_declared_rejected():
    h = loose_cycle(8)
    with pytest.raises(ValueError):
        audit_locality("greedy", h, 0, 1, h, params={"denom": 4})


def test_vertex_set_must_match():
    h = loose_cycle(8)
    other = loose_cycle(9)
    with pytest.raises(ValueError):
        audit_locality("greedy_step", h, 0, 1, other, params={"denom": 4})


def test_type_must_match():
    h = loose_cycle(8)
    g = generate.cycle(16)
    with pytest.raises(ValueError):
        audit_locality("greedy_step", h, 0, 1, g, params={"denom": 4})


def test_perturbation_inside_ball_rejected():
    h = loose_cycle(8)
    perturbed = drop_hyperedge(h, 0)  # edge 0 contains the audited vertex
    with pytest.raises(ValueError):
        audit_locality("greedy_step", h, 0, 1, perturbed, params={"denom": 4})


def test_audit_catches_a_global_output():
    """A probe whose output is the global minimum degree fails its audit."""
    probe = AuditPrimitive(
        radius=lambda inst, params: 0,
        output_at=lambda g, v, params: min(g.degree(u) for u in range(g.n)),
    )
    PRIMITIVES["global_probe"] = probe
    try:
        g = generate.cycle(60)
        perturbed = drop_graph_edge(g, 30)
        verdict = audit_locality("global_probe", g, 0, 1, perturbed)
        assert not verdict.ok
        assert "changed" in verdict.reason
    finally:
        del PRIMITIVES["global_probe"]
