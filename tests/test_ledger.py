from fractions import Fraction

import pytest

from hypermatch import generate
from hypermatch.ledger import (
    RoundLedger,
    check_recurrence_bound,
    halving_depth,
)
from hypermatch.rounding import maximal_matching


def test_single_charge():
    led = RoundLedger()
    led.charge("linial", 5)
    assert led.total == 5


def test_charges_accumulate():
    led = RoundLedger()
    led.charge("a", 5, "five")
    led.charge("b", 3)
    assert led.total == 8
    assert led.total_for("a") == 5
    assert led.as_records() == [
        {"label": "a", "rounds": 5, "formula": "five"},
        {"label": "b", "rounds": 3, "formula": ""},
    ]


def test_negative_charge_rejected():
    with pytest.raises(ValueError):
        RoundLedger().charge("x", -1)


def test_recurrence_bound_rejects_rank_zero():
    with pytest.raises(ValueError, match="^rank and max_degree must be >= 1$"):
        check_recurrence_bound(10, 8, 0, 4, 2, 1)


def test_recurrence_bound_rounds_the_log_of_a_degree_up():
    # log2(5) rounds up to 3, the term of degree 8: 2*(2*2)^1*(4 + 3) = 56
    odd = check_recurrence_bound(10, 8, 2, 5, 2, 1)
    assert odd.bound == check_recurrence_bound(10, 8, 2, 8, 2, 1).bound == 56
    assert check_recurrence_bound(10, 8, 2, 4, 2, 1).bound == 48


def test_full_run_charges_a_finite_total():
    h = generate.random_graph(24, 0.2, seed=5)
    assert h.m >= 40  # the seed is fixed; keep the instance honest
    led = RoundLedger()
    maximal_matching(h, led)
    assert led.total > 0
    assert led.total_for("greedy") > 0


@pytest.mark.parametrize(
    "factor,depth",
    [(2, 0), (4, 0), (8, 1), (16, 2), (32, 2), (256, 3), (512, 3)],
)
def test_halving_depth(factor, depth):
    assert halving_depth(factor) == depth


def test_halving_depth_rejects_non_powers():
    with pytest.raises(ValueError):
        halving_depth(6)


def test_recurrence_bound_small_case():
    # factor 8, rank 2: depth 1, so the bound is 2*(32*2)*(c*4 + c*log2(delta))
    check = check_recurrence_bound(
        measured_total=0, factor=8, rank=2, max_degree=4, alpha=32, c=1
    )
    assert check.ok
    assert check.depth == 1
    assert check.bound == 2 * 64 * (4 + 2)
    tight = check_recurrence_bound(
        measured_total=769, factor=8, rank=2, max_degree=4, alpha=32, c=1
    )
    assert not tight.ok


def test_recurrence_bound_fractional_constant():
    check = check_recurrence_bound(
        measured_total=3, factor=2, rank=1, max_degree=2, alpha=32, c=Fraction(1, 2)
    )
    # depth 0: bound = 2 * (1/2 + 1/2) = 2 < 3
    assert check.bound == 2
    assert not check.ok
