"""Fractional hypergraph matching and its deterministic rounding.

The pipeline: a greedy doubling pass builds a fractional matching that is
a (2*rank)-approximation of the maximum matching; a defective-coloring
based pass rounds it coarsely (losing 2*rank); a square-root recursion
composes such passes to round by a large factor while losing only 4*rank;
a driver extracts integral matchings and iterates to maximality.

The rounding algorithm is written once here, as the underscore-private
engine below, and runs on a load model.  Items carry dyadic values and
load resources; an item is frozen once a resource that freezes it carries
load at least 1/2.  This module supplies the matching model (hyperedges
load and are frozen by their vertices, the conflict graph of a support is
its line graph, rho is the rank); `packing` supplies the closed-
neighborhood model of greedy packings.  Value dicts inside the engine are
kept in witness order, which only the packing side reads.

Within one pass every value is k/D for one power of two D (1/denom for
the greedy pass; multiples of 1/denom for the rounding passes), so the
engine keeps integer numerators over D: values, loads, and the frozen
test 2*load >= D.  `Fraction`s are built only for the output, so every
public value stays an exact `Fraction` and every final validator runs on
them.

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
from dataclasses import dataclass
from fractions import Fraction

from .coloring import VertexColoring, defective_coloring, edge_coloring_init
from .core import (
    ONE,
    ZERO,
    FractionalAssignment,
    Hypergraph,
    Matching,
    build_fractional_assignment,
    induced_subgraph,
    induced_subhypergraph,
    is_power_of_two,
    line_graph,
    next_power_of_two,
    unblocked_edges,
    validate_fractional_matching,
    validate_matching,
)
from .ledger import RoundLedger


def _cascade_fits(factor: int, denom: int) -> bool:
    j = factor.bit_length() - 1
    return factor * j * j <= denom


@dataclass(frozen=True)
class RoundingParams:
    """Rounding factor and input denominator, both powers of two.

    The output of a rounding step is (factor/denom)-fractional.  The
    recursive cascade additionally needs factor * log2(factor)^2 <= denom.
    """

    factor: int
    denom: int

    def validate(self) -> None:
        if not is_power_of_two(self.factor):
            raise ValueError(f"factor must be a power of two, got {self.factor}")
        if not is_power_of_two(self.denom):
            raise ValueError(f"denom must be a power of two, got {self.denom}")
        if self.factor > self.denom:
            raise ValueError(f"factor {self.factor} exceeds denom {self.denom}")


class _LoadModel:
    """One side of the rounding, as the engine sees it.

    Items 0..items-1 carry dyadic values and load resources
    0..resources-1; an item is frozen once a resource that freezes it
    carries load >= 1/2.  Besides the attributes below a side supplies:

    - ``loaded(i)`` and ``freezing(i)``: the resources item i loads and
      the resources that freeze it;
    - ``conflict(support)``: the conflict graph of a sorted support, node
      k standing for support[k]; ``base_coloring()`` colors all items;
    - ``verdict(x)``: the validity verdict; ``wrap(values, floor)``: the
      output from exact values, which the engine keeps in witness order;
      ``restrict(x, keep)``: a valid x cut down to the items ``keep`` accepts;
    - ``can_recurse(factor, denom)``: the recursive pass's precondition;
    - ``greedy``, ``basic`` and ``recurse``: calls to the side's public
      passes, so that nested passes re-enter through them.
    """

    items: int
    resources: int
    rho: int  # the loss parameter, >= 1
    rho_name: str  # how ledger formulas and messages spell rho
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


def _numerators(values: dict[int, Fraction]) -> tuple[dict[int, int], int]:
    """Exact values as numerators over their least common denominator."""
    scale = math.lcm(*(val.denominator for val in values.values()))
    return {i: val.numerator * (scale // val.denominator) for i, val in values.items()}, scale


def _fractions(values: dict[int, int], scale: int) -> dict[int, Fraction]:
    return {i: Fraction(val, scale) for i, val in values.items()}


def _loads(model: _LoadModel, values: dict[int, int]) -> list[int]:
    loads = [0] * model.resources
    for i, val in values.items():
        for r in model.loaded(i):
            loads[r] += val
    return loads


def _frozen(model: _LoadModel, loads: list[int], scale: int, i: int, past=operator.ge) -> bool:
    """Whether a resource freezing item i carries load past 1/2 (numerators over scale)."""
    return any(past(2 * loads[r], scale) for r in model.freezing(i))


def _double(model: _LoadModel, values: dict[int, int], loads: list[int], scale: int):
    """Double every item that is not frozen; returns the doubled items.

    Doubled items move to the end of the witness order in id order.  A
    packing node with closed load sigma < 1/2 can afford its value plus its
    full neighborhood after doubling, since that is at most 2*sigma < 1.
    """
    movers = sorted(i for i in values if not _frozen(model, loads, scale, i))
    for i in movers:
        val = values.pop(i)
        for r in model.loaded(i):
            loads[r] += val
        values[i] = val * 2
    return movers


def _finish(model: _LoadModel, values: dict[int, int], scale: int, floor: Fraction, what: str):
    out = model.wrap(_fractions(values, scale), floor)
    verdict = model.verdict(out)
    if not verdict:
        raise RuntimeError(f"{what} produced an invalid {model.kind}: {verdict.reason}")
    return out


def _greedy(model: _LoadModel, base: int, denom: int | None):
    """Uniform start at 1/denom, then freeze-and-double for log2(denom) rounds."""
    if denom is None:
        denom = base
    if not is_power_of_two(denom) or denom < base:
        raise ValueError(f"denom must be a power of two >= {base}, got {denom}")
    rounds = denom.bit_length() - 1
    values = dict.fromkeys(range(model.items), 1)  # numerators over denom
    loads = _loads(model, values)
    for _ in range(rounds):
        if not _double(model, values, loads, denom):
            break
    for i in values:
        if not _frozen(model, loads, denom, i):
            raise RuntimeError(f"{model.noun} {i} ended the greedy pass unfrozen")
    out = _finish(model, values, denom, Fraction(1, denom), "greedy")
    model.charge("greedy" + model.suffix, rounds, "log2(denom)")
    return out


def _check_input(model: _LoadModel, x, denom: int) -> None:
    floor = Fraction(1, denom)
    for i, val in x.values.items():
        if val < floor:
            raise ValueError(f"{model.noun} {i} has value {val} below 1/{denom}")
    verdict = model.verdict(x)
    if not verdict:
        raise ValueError(f"input is not a {model.kind}: {verdict.reason}")


def _basic_round(model: _LoadModel, x, factor: int, denom: int, coloring):
    """Defective-color sweep to factor/denom, then doubling; see basic_round."""
    RoundingParams(factor, denom).validate()
    _check_input(model, x, denom)
    target = Fraction(factor, denom)
    support = x.support()
    if not support:
        return model.wrap({}, target)
    if coloring is None:
        coloring = model.base_coloring()
    restricted = VertexColoring(
        colors=tuple(coloring.colors[i] for i in support),
        palette_size=coloring.palette_size,
    )
    defect = max(0, denom // (2 * factor) - 1)
    conflict = model.conflict(support)
    dcol = defective_coloring(conflict, restricted, defect, ledger=model.ledger)

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
    doubling = 0
    cap = (denom // factor).bit_length() - 1
    while moved := _double(model, values, loads, denom):
        doubling += 1
        if doubling > cap:
            raise RuntimeError(f"doubling exceeded log2(denom/factor) = {cap}")
        model.recheck(values, denom, moved, "basic_round doubling")
    for i in support:
        if not _frozen(model, loads, denom, i):
            raise RuntimeError(f"support {model.noun} {i} ended unfrozen")
    out = _finish(model, values, denom, target, "basic rounding")
    if out.total() * 2 * model.rho < x.total():
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
    RoundingParams(factor, denom).validate()
    if not model.can_recurse(factor, denom):
        raise ValueError(
            f"recursive rounding needs {model.recursion_rule}, "
            f"got factor {factor}, denom {denom}"
        )
    _check_input(model, x, denom)
    # Below this a single basic pass is valid and loses less; it also keeps
    # every nested call inside its own precondition.
    if factor <= 4 or 4 * factor >= denom:
        return model.basic(x, factor, denom, coloring)
    if coloring is None:
        coloring = model.base_coloring()
    rho = model.rho
    total_x = x.total()
    target = Fraction(total_x, 4 * rho)
    s1, s2 = _split_factor(factor)
    values: dict[int, int] = {}  # numerators over denom
    loads = [0] * model.resources
    running = ZERO
    iterations = 0
    while running < target and iterations < 16 * rho:
        z = model.restrict(x, lambda i: not _frozen(model, loads, denom, i))
        if not z.values:
            break
        z1 = model.recurse(z, s1, denom, coloring)
        z2 = model.recurse(z1, s2, denom // s1, coloring)
        gain = z2.total() / 2
        if gain * 64 * rho * rho < total_x:
            raise RuntimeError(
                f"iteration gain {gain} below total/(64 {model.rho_name}^2) "
                "while behind"
            )
        # Merge keeps a valid witness: items already frozen stay in place,
        # still-open old items go next (their load is below 1/2, so any
        # order works), and the new contribution follows in its own order.
        # Nested outputs are multiples of 2*factor/denom, so every half is
        # a whole numerator over denom.
        added = {i: val * denom / 2 for i, val in z2.values.items()}
        if any(half.denominator != 1 for half in added.values()):
            raise RuntimeError(f"nested rounding left a value off the 1/{denom} grid")
        old = [i for i in values if i not in added]
        old.sort(key=lambda i: not _frozen(model, loads, denom, i))
        merged = {i: values[i] for i in old}
        for i, half in added.items():
            merged[i] = values.get(i, 0) + half.numerator
            for r in model.loaded(i):
                loads[r] += half.numerator
        values = merged
        running += gain
        iterations += 1
        model.recheck(values, denom, list(added), "recursive_round accumulate")
    if running < target:
        raise RuntimeError(
            f"recursive rounding kept {running} < {target} after {iterations} iterations"
        )
    out = _finish(model, values, denom, Fraction(factor, denom), "recursive rounding")
    model.charge(
        "recursive_round" + model.suffix, iterations, f"16*{model.rho_name} iterations"
    )
    return out


def _approx(model: _LoadModel, denom: int, coloring=None) -> frozenset[int]:
    """Greedy start, a recursive stage when the degree allows it, and one
    basic stage down to integrality; returns the items valued 1."""
    x = model.greedy(denom)
    if denom > 1:
        if coloring is None:
            coloring = model.base_coloring()
        lg = denom.bit_length() - 1
        stage = denom // (lg * lg)
        left = 1 << (stage.bit_length() - 1) if stage >= 1 else 1
        if left >= 2 and model.can_recurse(left, denom):
            x = model.recurse(x, left, denom, coloring)
        else:
            left = 1
        remaining = denom // left
        if remaining > 1:
            x = model.basic(x, remaining, remaining, coloring)
    chosen = frozenset(i for i, val in x.values.items() if val == ONE)
    if len(chosen) != len(x.values):
        raise RuntimeError("final round left fractional values")
    return chosen


def _drive(n: int, rho: int, alive: tuple[int, ...], step, limit: int | None = None):
    """Apply ``step`` to the alive items until none are left.

    Without a ``limit`` the loop may run at most 32 rho^3 log2(n) + 1
    iterations.  Returns the items still alive and the iteration count.
    """
    cap = math.ceil(32 * max(1, rho) ** 3 * math.log2(max(2, n))) + 1
    iterations = 0
    while alive and (limit is None or iterations < limit):
        alive = step(alive)
        iterations += 1
        if limit is None and iterations > cap:
            raise RuntimeError(f"driver exceeded {cap} iterations")
    return alive, iterations


class _MatchingModel(_LoadModel):
    """Hyperedges load their vertices and are frozen by any of them."""

    rho_name = "rank"
    raise_at_half = False
    noun = "edge"
    kind = "fractional matching"
    suffix = ""
    recursion_rule = "factor*log2(factor)^2 <= denom"

    def __init__(self, h: Hypergraph, ledger: RoundLedger | None = None) -> None:
        self.h = h
        self.ledger = ledger
        self.items = h.m
        self.resources = h.n
        self.rho = max(1, h.rank)

    def loaded(self, i):
        return self.h.edges[i]

    freezing = loaded

    def conflict(self, support):
        full = line_graph(self.h)
        if len(support) == self.h.m:
            return full
        return induced_subgraph(full, support)[0]

    def base_coloring(self):
        return edge_coloring_init(self.h, self.ledger)

    def verdict(self, x):
        return validate_fractional_matching(self.h, x)

    def wrap(self, values, floor):
        return build_fractional_assignment(values, floor)

    def restrict(self, x, keep):
        return self.wrap({i: val for i, val in x.values.items() if keep(i)}, x.floor)

    def can_recurse(self, factor, denom):
        return _cascade_fits(factor, denom)

    def greedy(self, denom):
        return greedy_fractional_matching(self.h, denom, self.ledger)

    def basic(self, x, factor, denom, coloring):
        params = RoundingParams(factor, denom)
        return basic_round(self.h, x, params, coloring, self.ledger)

    def recurse(self, x, factor, denom, coloring):
        params = RoundingParams(factor, denom)
        return recursive_round(self.h, x, params, coloring, self.ledger)

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
    freezing.
    """
    model = _MatchingModel(h)
    values, scale = _numerators(x.values)
    _double(model, values, _loads(model, values), scale)
    return build_fractional_assignment(_fractions(values, scale), x.floor)


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
    return _greedy(_MatchingModel(h, ledger), next_power_of_two(h.max_degree), denom)


def basic_round(
    h: Hypergraph,
    x: FractionalAssignment,
    params: RoundingParams,
    edge_coloring: VertexColoring | None = None,
    ledger: RoundLedger | None = None,
) -> FractionalAssignment:
    """Round a (1/denom)-fractional matching up to floor factor/denom.

    Defective-colors the support line graph with defect denom/(2*factor)-1,
    sweeps the color classes raising unfrozen edges to factor/denom (then
    freezing around newly half-tight vertices), and finishes with doubling
    rounds.  Keeps at least a 1/(2*rank) share of the input total and only
    shrinks the support.
    """
    model = _MatchingModel(h, ledger)
    return _basic_round(model, x, params.factor, params.denom, edge_coloring)


def recursive_round(
    h: Hypergraph,
    x: FractionalAssignment,
    params: RoundingParams,
    edge_coloring: VertexColoring | None = None,
    ledger: RoundLedger | None = None,
) -> FractionalAssignment:
    """Round by a large factor, losing at most 3/4 of the input total.

    Factors <= 4 delegate to basic_round.  Otherwise each iteration drops
    the edges already blocked by a half-tight vertex, rounds the rest by
    two nested factors multiplying to 2*factor, and adds half of the
    result; it stops as soon as the running total reaches a 1/(4*rank)
    share of the input.
    """
    model = _MatchingModel(h, ledger)
    return _recursive_round(model, x, params.factor, params.denom, edge_coloring)


def approx_max_matching(
    h: Hypergraph,
    ledger: RoundLedger | None = None,
    edge_coloring: VertexColoring | None = None,
) -> Matching:
    """Integral matching of size at least OPT / (32 * rank^3).

    Greedy start, a recursive rounding stage when the degree allows a
    factor >= 2, and one basic rounding stage down to integrality.
    """
    if h.m == 0:
        return Matching(edges=frozenset())
    model = _MatchingModel(h, ledger)
    m = Matching(edges=_approx(model, next_power_of_two(h.max_degree), edge_coloring))
    verdict = validate_matching(h, m)
    if not verdict:
        raise RuntimeError(f"extracted edges are not disjoint: {verdict.reason}")
    return m


def _matching_driver(
    h: Hypergraph, ledger: RoundLedger | None, limit: int | None, formula: str
) -> tuple[Matching, frozenset[int]]:
    """Repeat approx_max_matching on the unblocked remainder.

    Runs until nothing is left or for ``limit`` iterations; the output must
    be maximal only when there is no limit.
    """
    picked: set[int] = set()

    def step(alive: tuple[int, ...]) -> tuple[int, ...]:
        sub, old_ids = induced_subhypergraph(h, alive)
        found = approx_max_matching(sub, ledger)
        if not found.edges:
            raise RuntimeError("approximate matching came back empty on a nonempty instance")
        picked.update(old_ids[i] for i in found.edges)
        return tuple(sorted(unblocked_edges(h, Matching(edges=frozenset(picked)))))

    alive, iterations = _drive(h.n, h.rank, tuple(range(h.m)), step, limit)
    m = Matching(edges=frozenset(picked))
    verdict = validate_matching(h, m, require_maximal=limit is None)
    if not verdict:
        raise RuntimeError(f"driver output invalid: {verdict.reason}")
    if ledger is not None:
        ledger.charge("maximal_driver", iterations, formula)
    return m, frozenset(alive)


def maximal_matching(
    h: Hypergraph, ledger: RoundLedger | None = None
) -> Matching:
    """Repeat approx_max_matching on the unblocked remainder until empty."""
    return _matching_driver(h, ledger, None, "32 rank^3 log2(n) iterations")[0]


def almost_maximal_matching(
    h: Hypergraph, slack: Fraction, ledger: RoundLedger | None = None
) -> tuple[Matching, frozenset[int]]:
    """Run enough driver iterations to block all but a ``slack`` share.

    Returns the matching and the hyperedges still unblocked by it; their
    maximum matching is at most a slack fraction of the original optimum.
    """
    if not 0 < slack < 1:
        raise ValueError(f"slack must be in (0,1), got {slack}")
    r = max(1, h.rank)
    limit = math.ceil(32 * r**3 * math.log(1 / slack))
    return _matching_driver(h, ledger, limit, "32 rank^3 ln(1/slack) iterations")
