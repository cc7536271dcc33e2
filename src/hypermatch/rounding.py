"""Fractional hypergraph matching and its deterministic rounding.

The pipeline: a greedy doubling pass builds a fractional matching that is
a (2*rank)-approximation of the maximum matching; a defective-coloring
based pass rounds it coarsely (losing 2*rank); a square-root recursion
composes such passes to round by a large factor while losing only 4*rank;
a driver extracts integral matchings and iterates to maximality.

The rounding algorithm and the maximal driver are written once here, as
the underscore-private engine below, and run on a load model.  Items
carry dyadic values and load resources; an item is frozen once a resource
that freezes it carries load at least 1/2.  A side is data the engine
reads: the conflict graph of any set of its items, its greedy base
denominator, its loads, its sub-instances and its checks.  This module
supplies the matching side (hyperedges load and are frozen by their
vertices, rho is the rank, and the conflict graph is a `LineGraphView`:
the line graph, answered from counts and never built); `packing` supplies
the closed-neighborhood model of greedy packings.  Both sides take and
return a `FractionalAssignment` that the engine builds and restricts
itself.  Value dicts inside the engine are kept in witness order, which
only the packing side reads.

Within one pass every value is k/D for one power of two D (1/denom for
the greedy pass; multiples of 1/denom for the rounding passes), so the
engine keeps integer numerators over D: values, loads, the frozen test
2*load >= D and the share checks.  An output holds its numerators over D
as they are, and a `Fraction` is built only for a message.

Every assignment the engine builds is validated exactly once.  Each
output is validated as the pass finishes and marked with the side and
instance it passed on; its values are read-only, so a later pass on that
side and instance skips the verdict in its input check (the greedy output
that `_approx` rounds next, the nested outputs of the recursion).  Every
assignment from outside, and every restriction the recursion builds, is
validated by the pass it enters.

Every intermediate assignment is a valid fractional matching: on the
matching side, after each color class, doubling round and recursive
accumulation, the model rechecks the values just raised and re-sums the
loads of the vertices they touch, in ascending vertex order.  Nothing
else changed since the previous recheck, so this raises on the same first
violation a full re-scan would, at the cost of the step rather than of
the whole instance.  All of it is exact integer arithmetic, so a violated
bound raises instead of drifting.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property

from .coloring import VertexColoring, defective_coloring, linial_coloring
from .core import (
    FractionalAssignment,
    Hypergraph,
    LineGraphView,
    induced_subhypergraph,
    is_dyadic,
    is_power_of_two,
    next_power_of_two,
    validate_fractional_matching,
    validate_matching,
)
from .ledger import RoundLedger


def _cascade_fits(factor: int, denom: int) -> bool:
    j = factor.bit_length() - 1
    return factor * j * j <= denom


def _check_params(factor: int, denom: int) -> None:
    """A rounding pass's factor and input denominator: powers of two, with
    factor <= denom, so that its output is (factor/denom)-fractional."""
    if not is_power_of_two(factor):
        raise ValueError(f"factor must be a power of two, got {factor}")
    if not is_power_of_two(denom):
        raise ValueError(f"denom must be a power of two, got {denom}")
    if factor > denom:
        raise ValueError(f"factor {factor} exceeds denom {denom}")


class _LoadModel:
    """One side of the rounding, as the engine sees it.

    Items 0..items-1 carry dyadic values and load resources
    0..resources-1; an item is frozen once a resource that freezes it
    carries load >= 1/2.  Besides the attributes below, a side supplies:

    - ``conflict(support)``: the conflict graph of the items ``support``
      (ascending), node j standing for item support[j]; the engine colors
      it on all items for the base coloring, and on each support;
    - ``loaded(i)`` and ``freezing(i)``: the resources item i loads and
      the resources that freeze it;
    - ``verdict(x)``: the validity verdict of an assignment;
    - ``can_recurse(factor, denom)``: the recursive pass's precondition;
    - ``greedy``, ``basic``, ``recurse`` and ``approx``: calls to the
      side's public passes, so that nested passes re-enter through them;
    - ``induce(alive)``: the sub-instance of the ascending items ``alive``
      and their ids in it; ``settled(chosen, maximal)``: the verdict on an
      integral output, which must be maximal if ``maximal`` is set.
    """

    instance: Hypergraph  # what ``verdict`` reads: the hypergraph or the graph
    base: int  # the default greedy denominator, a power of two
    items: int
    resources: int
    rho: int  # the loss parameter, >= 1
    rho_name: str  # how ledger formulas and messages spell rho
    driver: str  # the ledger label of the maximal driver's iterations
    raise_at_half: bool  # the sweep also raises an item frozen exactly at 1/2
    noun: str  # what messages call an item
    kind: str  # what messages call a valid assignment
    suffix: str  # appended to the greedy, basic and recursive ledger labels
    recursion_rule: str  # can_recurse, spelled out for messages
    ledger: RoundLedger | None

    def recheck(
        self, values: dict[int, int], scale: int, touched: list[int], where: str
    ) -> None:
        """Per-step validity recheck after the ``touched`` items were raised.

        ``values`` are numerators over ``scale``.  A side with no recheck
        leaves this empty.
        """

    def charge(self, label: str, rounds: int, formula: str) -> None:
        if self.ledger is not None:
            self.ledger.charge(label, rounds, formula)


def _base_coloring(model: _LoadModel) -> VertexColoring:
    """Proper coloring of the conflict graph of all items."""
    return linial_coloring(model.conflict(range(model.items)), ledger=model.ledger)


def _loads(model: _LoadModel, values: dict[int, int]) -> list[int]:
    loads = [0] * model.resources
    for i, val in values.items():
        for r in model.loaded(i):
            loads[r] += val
    return loads


def _frozen(model: _LoadModel, loads: list[int], scale: int, i: int, past=operator.ge) -> bool:
    """Whether a resource freezing item i carries load past 1/2 (numerators over scale)."""
    return any(past(2 * loads[r], scale) for r in model.freezing(i))


def _double(
    model: _LoadModel, values: dict[int, int], loads: list[int], scale: int, candidates
):
    """Double every one of ``candidates`` (items of ``values``) that is not
    frozen; returns the doubled items.

    Doubled items move to the end of the witness order in id order.  A
    packing node with closed load sigma < 1/2 can afford its value plus its
    full neighborhood after doubling, since that is at most 2*sigma < 1.
    """
    movers = sorted(i for i in candidates if not _frozen(model, loads, scale, i))
    for i in movers:
        val = values.pop(i)
        for r in model.loaded(i):
            loads[r] += val
        values[i] = val * 2
    return movers


def _double_rounds(model: _LoadModel, values, loads, scale: int, cap: int, items, where: str) -> int:
    """Double until nothing moves, rechecking each round; returns the round count.

    The first round tests every item of ``values``; each later round tests
    only the items the round before it doubled.  This is exact: within a
    pass loads only grow, so an item frozen in one round is frozen in every
    later one and would not move again.  Raises past ``cap`` rounds, and
    unless every one of ``items`` ends frozen.
    """
    rounds = 0
    moved = values
    while moved := _double(model, values, loads, scale, moved):
        rounds += 1
        if rounds > cap:
            raise RuntimeError(f"{where} exceeded {cap} rounds")
        model.recheck(values, scale, moved, where)
    for i in items:
        if not _frozen(model, loads, scale, i):
            raise RuntimeError(f"{model.noun} {i} ended {where} unfrozen")
    return rounds


def _finish(model: _LoadModel, values: dict[int, int], scale: int, low: int, what: str):
    """``values`` (numerators over ``scale``, each in [low, scale]) as a
    validated and marked assignment; a failure is a bug here."""
    for i, num in values.items():
        if not low <= num <= scale:
            value, floor = Fraction(num, scale), Fraction(low, scale)
            raise RuntimeError(f"{what} left {model.noun} {i} at {value}, outside [{floor}, 1]")
    out = FractionalAssignment._over(values, scale)
    verdict = model.verdict(out)
    if not verdict:
        raise RuntimeError(f"{what} produced an invalid {model.kind}: {verdict.reason}")
    # The values are read-only, so the next pass on this instance need not
    # validate them again.
    object.__setattr__(out, "_valid_on", (model.kind, model.instance))
    return out


def _greedy(model: _LoadModel, denom: int | None):
    """Uniform start at 1/denom, then freeze-and-double for log2(denom) rounds."""
    if denom is None:
        denom = model.base
    if not is_power_of_two(denom) or denom < model.base:
        raise ValueError(f"denom must be a power of two >= {model.base}, got {denom}")
    rounds = denom.bit_length() - 1  # after this many doublings an item holds 1: frozen
    values = dict.fromkeys(range(model.items), 1)  # numerators over denom
    loads = _loads(model, values)
    _double_rounds(model, values, loads, denom, rounds, values, "greedy doubling")
    out = _finish(model, values, denom, 1, "greedy")
    model.charge("greedy" + model.suffix, rounds, "log2(denom)")
    return out


def _check_input(model: _LoadModel, x, denom: int) -> None:
    """Values at least 1/denom; then the side's verdict and dyadic values,
    unless a pass of this side already validated x on this instance or an
    equal one."""
    nums, scale = x.nums, x.scale
    for i, num in nums.items():
        if num * denom < scale:
            raise ValueError(f"{model.noun} {i} has value {Fraction(num, scale)} below 1/{denom}")
    if x._valid_on == (model.kind, model.instance):
        return
    verdict = model.verdict(x)
    if not verdict:
        raise ValueError(f"input is not a {model.kind}: {verdict.reason}")
    if not is_power_of_two(scale):  # the least common denominator of dyadic values is one
        i = next(i for i, num in nums.items() if not is_dyadic(Fraction(num, scale)))
        raise ValueError(f"value of item {i} is not dyadic: {Fraction(nums[i], scale)}")


def _basic_round(model: _LoadModel, x, factor: int, denom: int, coloring):
    """Defective-color sweep to factor/denom, then doubling; see basic_round."""
    _check_params(factor, denom)
    _check_input(model, x, denom)
    support = x.support()
    if not support:
        return FractionalAssignment._over({}, denom)
    if coloring is None:
        coloring = _base_coloring(model)
    restricted = VertexColoring(
        colors=tuple(coloring.colors[i] for i in support),
        palette_size=coloring.palette_size,
    )
    defect = max(0, denom // (2 * factor) - 1)
    dcol = defective_coloring(model.conflict(support), restricted, defect, ledger=model.ledger)

    values: dict[int, int] = {}  # numerators over denom
    loads = [0] * model.resources
    by_color: dict[int, list[int]] = {}
    for k, i in enumerate(support):
        by_color.setdefault(dcol.colors[k], []).append(i)
    past = operator.gt if model.raise_at_half else operator.ge
    for color in sorted(by_color):
        raised = [i for i in by_color[color] if not _frozen(model, loads, denom, i, past)]
        for i in raised:
            values[i] = factor
            for r in model.loaded(i):
                loads[r] += factor
        model.recheck(values, denom, raised, "basic_round color sweep")
    for i in support:
        if i not in values and not _frozen(model, loads, denom, i):
            raise RuntimeError(f"{model.noun} {i} skipped its color class")
    cap = (denom // factor).bit_length() - 1
    doubling = _double_rounds(model, values, loads, denom, cap, support, "basic_round doubling")
    out = _finish(model, values, denom, factor, "basic rounding")
    if sum(values.values()) * 2 * model.rho * x.scale < sum(x.nums.values()) * denom:
        raise RuntimeError(
            f"basic rounding lost more than a 1/(2*{model.rho_name}) share"
        )
    model.charge(
        "basic_round" + model.suffix,
        dcol.palette_size + doubling,
        "palette(L^2 r^2) + log2(denom/factor)",
    )
    return out


def _split_factor(factor: int) -> tuple[int, int]:
    """Power-of-two pair (s1, s2) with s1*s2 = 2*factor and s1 >= s2.

    These are the two nested rounding factors standing in for sqrt(2L);
    the asymmetric split keeps the product exact so the recursion
    preconditions survive.
    """
    j = factor.bit_length()  # log2(2*factor)
    s1 = 1 << ((j + 1) // 2)
    s2 = 1 << (j // 2)
    return s1, s2


def _recursive_round(model: _LoadModel, x, factor: int, denom: int, coloring):
    """Square-root split recursion keeping a 1/(4*rho) share; see recursive_round."""
    _check_params(factor, denom)
    if not model.can_recurse(factor, denom):
        raise ValueError(
            f"recursive rounding needs {model.recursion_rule}, "
            f"got factor {factor}, denom {denom}"
        )
    # Below this a single basic pass is valid and loses less; it also keeps
    # every nested call inside its own precondition.  It checks the input.
    if factor <= 4 or 4 * factor >= denom:
        return model.basic(x, factor, denom, coloring)
    _check_input(model, x, denom)
    if coloring is None:
        coloring = _base_coloring(model)
    rho = model.rho
    total_x = sum(x.nums.values())  # numerator over x.scale
    s1, s2 = _split_factor(factor)
    values: dict[int, int] = {}  # numerators over denom
    loads = [0] * model.resources
    running = 0  # numerator over denom of the gains kept so far
    iterations = 0
    target_scale = 4 * rho * x.scale  # the target is total_x / target_scale
    while running * target_scale < total_x * denom and iterations < 16 * rho:
        z = FractionalAssignment._over(
            {i: num for i, num in x.nums.items() if not _frozen(model, loads, denom, i)},
            x.scale,
        )
        if not z.nums:
            break
        z1 = model.recurse(z, s1, denom, coloring)
        z2 = model.recurse(z1, s2, denom // s1, coloring)
        gain = sum(z2.nums.values())  # over 2 * z2.scale: half of z2 is kept
        if gain * 64 * rho * rho * x.scale < total_x * 2 * z2.scale:
            raise RuntimeError(
                f"iteration gain {Fraction(gain, 2 * z2.scale)} below "
                f"total/(64 {model.rho_name}^2) while behind"
            )
        # Merge keeps a valid witness: items already frozen stay in place,
        # still-open old items go next (their load is below 1/2, so any
        # order works), and the new contribution follows in its own order.
        # Nested outputs are multiples of 2*factor/denom, so every half is
        # a whole numerator over denom.
        if any(num * denom % (2 * z2.scale) for num in z2.nums.values()):
            raise RuntimeError(f"nested rounding left a value off the 1/{denom} grid")
        added = {i: num * denom // (2 * z2.scale) for i, num in z2.nums.items()}
        old = [i for i in values if i not in added]
        old.sort(key=lambda i: not _frozen(model, loads, denom, i))
        merged = {i: values[i] for i in old}
        for i, half in added.items():
            merged[i] = values.get(i, 0) + half
            for r in model.loaded(i):
                loads[r] += half
        values = merged
        running += sum(added.values())
        iterations += 1
        model.recheck(values, denom, list(added), "recursive_round accumulate")
    if running * target_scale < total_x * denom:
        raise RuntimeError(
            f"recursive rounding kept {Fraction(running, denom)} < "
            f"{Fraction(total_x, target_scale)} after {iterations} iterations"
        )
    out = _finish(model, values, denom, factor, "recursive rounding")
    model.charge(
        "recursive_round" + model.suffix, iterations, f"16*{model.rho_name} iterations"
    )
    return out


def _approx(model: _LoadModel) -> frozenset[int]:
    """Greedy start at the base denominator, a recursive stage when it allows
    one, and one basic stage down to integrality; returns the items valued 1,
    checked by the side's ``settled``."""
    if not model.items:
        return frozenset()
    denom = model.base
    x = model.greedy(denom)
    if denom > 1:
        # Without a recursive stage the basic stage colors all items itself:
        # its support is every item, so one conflict graph serves both.
        coloring = None
        lg = denom.bit_length() - 1
        stage = denom // (lg * lg)
        left = 1 << (stage.bit_length() - 1) if stage >= 1 else 1
        if left >= 2 and model.can_recurse(left, denom):
            coloring = _base_coloring(model)
            x = model.recurse(x, left, denom, coloring)
        else:
            left = 1
        remaining = denom // left
        if remaining > 1:
            x = model.basic(x, remaining, remaining, coloring)
    chosen = frozenset(i for i, num in x.nums.items() if num == x.scale)
    if len(chosen) != len(x.nums):
        raise RuntimeError("final round left fractional values")
    verdict = model.settled(chosen, False)
    if not verdict:
        raise RuntimeError(f"approximation output invalid: {verdict.reason}")
    return chosen


def _drive(model: _LoadModel, limit: int | None = None, formula: str = "log2(n)"):
    """Re-run the side's approximation until no item is left unblocked.

    Each iteration approximates on the sub-instance of the alive items and
    drops every alive item with a freezing resource that a chosen item
    loads.  Without a ``limit`` it runs at most 32 rho^3 log2(n) + 1
    iterations (n resources) and the output must be maximal.  A second
    iteration needs a greedy base of at least 128: below it `_approx` ends
    in one basic pass over every item, whose output is already maximal.
    Returns the chosen and the still alive items; charges ``model.driver``.
    """
    cap = math.ceil(32 * model.rho**3 * math.log2(max(2, model.resources))) + 1
    chosen: set[int] = set()
    alive = tuple(range(model.items))
    iterations = 0
    while alive and (limit is None or iterations < limit):
        sub, old_ids = model.induce(alive)
        found = model.approx(sub)
        if not found:
            raise RuntimeError("approximation came back empty on a nonempty instance")
        chosen.update(old_ids[i] for i in found)
        blocked = {r for i in found for r in model.loaded(old_ids[i])}
        alive = tuple(i for i in alive if blocked.isdisjoint(model.freezing(i)))
        iterations += 1
        if limit is None and iterations > cap:
            raise RuntimeError(f"driver exceeded {cap} iterations")
    verdict = model.settled(frozenset(chosen), limit is None)
    if not verdict:
        raise RuntimeError(f"driver output invalid: {verdict.reason}")
    model.charge(model.driver, iterations, f"32 {model.rho_name}^3 {formula} iterations")
    return frozenset(chosen), frozenset(alive)


class _MatchingModel(_LoadModel):
    """Hyperedges load their vertices and are frozen by any of them."""

    rho_name = "rank"
    driver = "maximal_driver"
    raise_at_half = False
    noun = "edge"
    kind = "fractional matching"
    suffix = ""
    recursion_rule = "factor*log2(factor)^2 <= denom"

    def __init__(self, h: Hypergraph, ledger: RoundLedger | None = None) -> None:
        self.h = self.instance = h
        self.ledger = ledger
        self.base = next_power_of_two(h.max_degree)
        self.items = h.m
        self.resources = h.n
        self.rho = max(1, h.rank)

    def conflict(self, support):
        """A `LineGraphView`; the one of all items is built once per model."""
        return self._every if len(support) == self.items else LineGraphView(self.h, support)

    @cached_property
    def _every(self):
        return LineGraphView(self.h, range(self.items))

    def loaded(self, i):
        return self.h.edges[i]

    freezing = loaded

    def verdict(self, x):
        return validate_fractional_matching(self.h, x)

    def can_recurse(self, factor, denom):
        return _cascade_fits(factor, denom)

    def greedy(self, denom):
        return greedy_fractional_matching(self.h, denom, self.ledger)

    def basic(self, x, factor, denom, coloring):
        return basic_round(self.h, x, factor, denom, coloring, self.ledger)

    def recurse(self, x, factor, denom, coloring):
        return recursive_round(self.h, x, factor, denom, coloring, self.ledger)

    def induce(self, alive):
        return induced_subhypergraph(self.h, alive)

    def approx(self, sub):
        return approx_max_matching(sub, self.ledger)

    def settled(self, chosen, maximal):
        return validate_matching(self.h, chosen, require_maximal=maximal)

    def recheck(self, values, scale, touched, where):
        """Check the touched values and re-sum the loads of their vertices.

        Nothing else changed since the last recheck, so this reports the
        first violation a full scan would: values in witness order, then
        vertices in ascending id order.
        """
        h = self.h
        for i in touched:
            if not 0 <= values[i] <= scale:
                value = Fraction(values[i], scale)
                raise RuntimeError(f"{where}: edge {i} value {value} outside [0,1]")
        for v in sorted({v for i in touched for v in h.edges[i]}):
            load = sum(values.get(e, 0) for e in h.incidence[v])
            if load > scale:
                raise RuntimeError(f"{where}: vertex {v} overloaded to {Fraction(load, scale)}")


def greedy_doubling_step(
    h: Hypergraph, x: FractionalAssignment
) -> FractionalAssignment:
    """One freeze-and-double round, a pure radius-1 update.

    An edge keeps its value when some endpoint already carries load at
    least 1/2 and doubles otherwise.  Loads only ever grow under this
    update, so iterating it is exactly the greedy driver's sticky
    freezing.  The input must be a fractional matching of dyadic values.
    """
    model = _MatchingModel(h)
    _check_input(model, x, x.scale)
    values = dict(x.nums)
    _double(model, values, _loads(model, values), x.scale, values)
    return _finish(model, values, x.scale, 1, "greedy doubling step")


def greedy_fractional_matching(
    h: Hypergraph,
    denom: int | None = None,
    ledger: RoundLedger | None = None,
) -> FractionalAssignment:
    """Uniform start at 1/denom, then freeze-and-double for log2(denom) rounds.

    An edge freezes once an endpoint is half-tight (load >= 1/2); all other
    values double.  Afterwards every edge has a half-tight endpoint, which
    pins the total at a (2*rank)-approximation of the maximum matching.
    ``denom`` defaults to the smallest power of two >= max_degree and may
    only be overridden upwards.
    """
    if h.max_degree < 1:
        raise ValueError("hypergraph has no edges")
    return _greedy(_MatchingModel(h, ledger), denom)


def basic_round(
    h: Hypergraph,
    x: FractionalAssignment,
    factor: int,
    denom: int,
    edge_coloring: VertexColoring | None = None,
    ledger: RoundLedger | None = None,
) -> FractionalAssignment:
    """Round a (1/denom)-fractional matching up to floor factor/denom.

    ``factor`` and ``denom`` are powers of two with factor <= denom.
    Defective-colors the line graph of the support (a `LineGraphView`)
    with defect denom/(2*factor)-1,
    sweeps the color classes raising unfrozen edges to factor/denom (then
    freezing around newly half-tight vertices), and finishes with doubling
    rounds.  Keeps at least a 1/(2*rank) share of the input total and only
    shrinks the support.
    """
    model = _MatchingModel(h, ledger)
    return _basic_round(model, x, factor, denom, edge_coloring)


def recursive_round(
    h: Hypergraph,
    x: FractionalAssignment,
    factor: int,
    denom: int,
    edge_coloring: VertexColoring | None = None,
    ledger: RoundLedger | None = None,
) -> FractionalAssignment:
    """Round by a large factor, losing at most 3/4 of the input total.

    Takes ``factor`` and ``denom`` as basic_round does, and additionally
    needs factor * log2(factor)^2 <= denom.  Factors <= 4 delegate to
    basic_round.  Otherwise each iteration drops the edges already blocked
    by a half-tight vertex, rounds the rest by two nested factors
    multiplying to 2*factor, and adds half of the result; it stops as soon
    as the running total reaches a 1/(4*rank) share of the input.
    """
    model = _MatchingModel(h, ledger)
    return _recursive_round(model, x, factor, denom, edge_coloring)


def approx_max_matching(h: Hypergraph, ledger: RoundLedger | None = None) -> frozenset[int]:
    """Integral matching of size at least OPT / (32 * rank^3).

    Greedy start, a recursive rounding stage when the degree allows a
    factor >= 2, and one basic rounding stage down to integrality.
    """
    return _approx(_MatchingModel(h, ledger))


def maximal_matching(
    h: Hypergraph, ledger: RoundLedger | None = None
) -> frozenset[int]:
    """Repeat approx_max_matching on the unblocked remainder until empty."""
    return _drive(_MatchingModel(h, ledger))[0]


def almost_maximal_matching(
    h: Hypergraph, slack: Fraction, ledger: RoundLedger | None = None
) -> tuple[frozenset[int], frozenset[int]]:
    """Run enough driver iterations to block all but a ``slack`` share.

    Returns the matching and the hyperedges still unblocked by it; their
    maximum matching is at most a slack fraction of the original optimum.
    """
    if not 0 < slack < 1:
        raise ValueError(f"slack must be in (0,1), got {slack}")
    r = max(1, h.rank)
    limit = math.ceil(32 * r**3 * math.log(1 / slack))
    return _drive(_MatchingModel(h, ledger), limit, "ln(1/slack)")
