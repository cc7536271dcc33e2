"""Command line interface: generate instances, run algorithms, verify solutions.

Three subcommands, each driven by one table whose keys are its choices:

  generate FAMILY [key=value ...]   write an instance file       (_FAMILIES)
  run --algo NAME --in FILE ...     run, report, write solution  (_ALGORITHMS)
  verify KIND --in FILE SOLUTION    re-validate a solution file  (_VERIFY_KINDS)

`generate` rejects a missing, malformed or unknown parameter before it
reads `--in` or builds anything.  `run --oracle` on an algorithm without
an oracle comparison (`rand-edge-color`, `vertex-color`) is a usage error
raised before the instance is read.  `verify orientation` checks
out-degrees against ceil((1+eps)*lambda) when given both `--lambda` and
`--eps`, against the solution's own maximum when given neither, and
rejects one without the other; `verify pseudo-forests` takes the two
flags by the same rule and then allows at most ceil((1+eps)*lambda)
classes.  Every other kind rejects both.

Exit codes: 0 all verdicts pass, 1 verification failure, 2 usage or parse
error, 3 oracle budget exceeded.  Reports carry no timestamp, so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from typing import Callable, NamedTuple

from . import apps, edge_coloring, generate, io, oracles, packing, rounding
from .core import (
    Graph,
    Hypergraph,
    Verdict,
    induced_subhypergraph,
    line_graph,
    validate_edge_coloring,
    validate_independent_set,
    validate_matching,
    validate_vertex_coloring,
    unblocked_edges,
)
from .ledger import RoundLedger

SCHEMA_VERSION = 1


class UsageError(Exception):
    """Bad arguments or preconditions; maps to exit code 2."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_instance(text: str) -> Hypergraph:
    head = text.split(None, 1)
    if not head:
        raise io.ParseError("empty instance file")
    if head[0] == "hgr":
        return io.parse_hypergraph(text)
    if head[0] == "gr":
        return io.parse_graph(text)
    raise io.ParseError(f"unknown instance header {head[0]!r}")


def _parse_graph_with_lists(text: str) -> edge_coloring.ListEdgeInstance:
    """A gr instance followed by one 'edge-id: colors' line per edge.

    Blank lines are skipped, as `io.parse_graph` skips them: the graph part
    is the header and the next m non-blank lines.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    header = lines[0].split() if lines else []
    if len(header) != 3 or header[0] != "gr":
        raise io.ParseError("expected a gr header followed by color lists")
    try:
        m = int(header[2])
    except ValueError:
        raise io.ParseError(
            f"header m: expected an integer, got {header[2]!r}"
        ) from None
    g = io.parse_graph("\n".join(lines[: 1 + max(m, 0)]) + "\n")
    lists = io.parse_lists("\n".join(lines[1 + m :]))
    return edge_coloring.build_list_edge_instance(g, lists)


def _parse(text: str, lists: bool):
    """The instance in `text`; with `lists`, a graph followed by color lists."""
    return _parse_graph_with_lists(text) if lists else _parse_instance(text)


def _independence_for(g: Graph, force_oracle: bool) -> tuple[int, str]:
    """Neighborhood independence from the oracle, else the safe bound."""
    try:
        return oracles.neighborhood_independence(g), "oracle"
    except oracles.OverBudgetError:
        if force_oracle:
            raise
        return max(1, g.max_degree), "max_degree_fallback"


def _check(ok: bool, reason: str) -> Verdict:
    """A verdict that carries `reason` only when it fails."""
    return Verdict(ok, "" if ok else reason)


def _to_json(block: dict) -> dict:
    """A report block with each `Verdict` in it written as {ok, reason}."""
    return {
        key: {"ok": bool(v.ok), "reason": v.reason} if isinstance(v, Verdict) else v
        for key, v in sorted(block.items())
    }


def _instance_summary(path: str, instance: Hypergraph) -> dict:
    return {
        "path": path,
        "kind": "graph" if isinstance(instance, Graph) else "hypergraph",
        "n": instance.n,
        "m": instance.m,
        "rank": instance.rank,
        "max_degree": instance.max_degree,
    }


# Runners take (instance, args, ledger) and return (solution_text, summary,
# verdicts, oracle); oracle() computes the oracle block lazily (it may raise
# OverBudgetError) and is None when the algorithm has no oracle.  A failing
# `Verdict` in the oracle block fails the run.  Runners look library
# functions up when called, so a rebound module attribute (as a tracer
# installs) is the one they reach.


def _matched(m: frozenset[int], verdicts: dict, oracle, **summary):
    """The result of a run whose solution is a matching."""
    summary = {"kind": "matching", "size": len(m), **summary}
    return io.format_id_set(m), summary, verdicts, oracle


def _optimum_oracle(h: Hypergraph, m: frozenset[int]):
    return lambda: {"optimum": oracles.max_matching(h).size, "size": len(m)}


def _arboricity_oracle(g: Graph, key: str, claimed: int):
    """Oracle block checking a claimed arboricity bound, reported as `key`."""

    def oracle():
        a = oracles.arboricity(g)
        verdict = _check(claimed >= a, f"{key} below true arboricity")
        return {"arboricity": a, key: claimed, "verdict": verdict}

    return oracle


def _check_reduction_soundness(h, lists) -> Verdict:
    # The reduction has one hyperedge per listed color of each edge.
    oracles.require_enumerable(sum(map(len, lists.values())))
    reduced = edge_coloring.reduce_hypergraph_list_edge_coloring(h, lists)
    for mm in oracles.enumerate_maximal_matchings(reduced.hypergraph):
        try:
            colors = edge_coloring.decode_matching(reduced, h.m, mm)
        except RuntimeError as exc:
            return Verdict(False, f"a maximal matching fails to decode: {exc}")
        verdict = validate_edge_coloring(h, colors, lists=lists)
        if not verdict:
            return Verdict(False, f"a decoded coloring is improper: {verdict.reason}")
    return Verdict(True)


def _soundness_oracle(g: Graph, lists):
    """Oracle block: every maximal matching of the list reduction of g
    decodes to a proper coloring."""
    return lambda: {"reduction_soundness": _check_reduction_soundness(g, lists)}


def _edge_colored(g: Graph, res, oracle, palette=None, lists=None):
    """The result of a run whose solution is an edge coloring, checked
    against `lists` when given, else against `palette`."""
    verdict = validate_edge_coloring(g, res.colors, palette=palette, lists=lists)
    name = "coloring_proper" if lists is None else "coloring_respects_lists"
    summary = {"kind": "edge-coloring", "max_color": max(res.colors.values()),
               "stats": res.stats}
    if lists is None:
        summary["palette_bound"] = palette
    return io.format_coloring(res.colors), summary, {name: verdict}, oracle


def _run_maximal_matching(h, args, ledger):
    if args.slack is None:
        m = rounding.maximal_matching(h, ledger)
        verdicts = {"matching_maximal": validate_matching(h, m, require_maximal=True)}
        return _matched(m, verdicts, _optimum_oracle(h, m))
    m, unblocked = rounding.almost_maximal_matching(h, args.slack, ledger)
    verdicts = {
        "matching_valid": validate_matching(h, m),
        "unblocked_consistent": _check(
            unblocked == unblocked_edges(h, m),
            "reported unblocked set disagrees with a recount",
        ),
    }

    def oracle():
        opt = oracles.max_matching(h).size
        left = 0
        if unblocked:
            rest = induced_subhypergraph(h, sorted(unblocked))[0]
            left = oracles.max_matching(rest).size
        verdict = _check(left <= args.slack * opt, "unblocked share above slack")
        return {"optimum": opt, "unblocked_optimum": left, "verdict": verdict}

    return _matched(m, verdicts, oracle, unblocked=sorted(unblocked))


def _run_approx_matching(h, args, ledger):
    m = rounding.approx_max_matching(h, ledger)
    verdicts = {"matching_valid": validate_matching(h, m)}
    return _matched(m, verdicts, _optimum_oracle(h, m))


def _run_edge_color(g, args, ledger):
    res = edge_coloring.edge_color(g, ledger)
    oracle = _soundness_oracle(g, edge_coloring.full_palette_lists(g, res.palette))
    return _edge_colored(g, res, oracle, palette=res.palette)


def _run_list_edge_color(inst, args, ledger):
    res = edge_coloring.list_edge_color(inst.g, inst.lists, ledger)
    oracle = _soundness_oracle(inst.g, inst.lists)
    return _edge_colored(inst.g, res, oracle, lists=inst.lists)


def _run_rand_edge_color(g, args, ledger):
    res = edge_coloring.randomized_edge_color(g, args.seed, ledger)
    return _edge_colored(g, res, None, palette=res.palette)


def _run_arb_edge_color(g, args, ledger):
    res = edge_coloring.arboricity_edge_color(g, args.arboricity, args.eps, ledger)
    oracle = _arboricity_oracle(g, "bound", args.arboricity)
    return _edge_colored(g, res, oracle, palette=res.palette)


def _run_mis(g, args, ledger):
    independence, source = _independence_for(g, args.oracle)
    s = packing.maximal_independent_set(g, independence, ledger)
    verdicts = {
        "independent_and_maximal": validate_independent_set(g, s, require_maximal=True)
    }

    def oracle():
        best = oracles.max_independent_set(g).size
        r = independence if source == "oracle" else oracles.neighborhood_independence(g)
        bound = Fraction(best, 32 * max(1, r) ** 3)
        verdict = _check(len(s) >= bound, f"size {len(s)} below {bound}")
        return {"optimum": best, "independence": r, "size": len(s),
                "verdict": verdict}

    summary = {"kind": "independent-set", "size": len(s),
               "independence": independence, "independence_source": source}
    return io.format_id_set(s), summary, verdicts, oracle


def _run_vertex_color(g, args, ledger):
    independence, source = _independence_for(g, args.oracle)
    out = packing.vertex_color(g, independence, ledger=ledger)
    palette = g.max_degree + 1
    verdicts = {
        "coloring_proper": validate_vertex_coloring(g, out.colors),
        "palette_respected": _check(
            all(1 <= c <= palette for c in out.colors), "color outside palette"
        ),
    }
    summary = {"kind": "vertex-coloring", "palette_bound": palette,
               "colors_used": len(set(out.colors)),
               "independence": independence, "independence_source": source}
    colors = {v: out.colors[v] for v in range(g.n)}
    return io.format_coloring(colors), summary, verdicts, None


def _run_approx_graph_matching(g, args, ledger):
    m = apps.approx_max_graph_matching(g, args.eps, ledger=ledger)
    valid = validate_matching(g, m)

    def oracle():
        opt = oracles.max_matching(g).size
        need = math.ceil(opt / (1 + args.eps))
        verdict = _check(len(m) >= need, f"size {len(m)} below {need}")
        return {"optimum": opt, "required": need, "size": len(m),
                "verdict": verdict}

    return _matched(m, {"matching_valid": valid}, oracle)


def _run_orientation(g, args, ledger):
    o = apps.low_outdegree_orientation(g, args.lam, args.eps, ledger)
    verdicts = {"orientation_bounded": apps.validate_orientation(g, o)}
    summary = {"kind": "orientation", "bound": o.bound,
               "max_out_degree": o.max_out_degree}
    oracle = _arboricity_oracle(g, "lambda", args.lam)
    return io.format_orientation(g.edges, o.tails), summary, verdicts, oracle


def _run_pseudo_forests(g, args, ledger):
    o = apps.low_outdegree_orientation(g, args.lam, args.eps, ledger)
    classes = apps.pseudo_forest_decomposition(g, o)
    covered = sorted(eid for cls in classes for eid in cls)
    verdicts = {
        "orientation_bounded": apps.validate_orientation(g, o),
        "partition_exact": _check(
            covered == list(range(g.m)), "classes do not partition the edges"
        ),
    }
    for idx, cls in enumerate(classes, 1):
        verdicts[f"class_{idx}_pseudo_forest"] = apps.validate_pseudo_forest(g, cls)
    assignment = {eid: idx for idx, cls in enumerate(classes, 1) for eid in cls}
    summary = {"kind": "pseudo-forests", "classes": len(classes),
               "class_sizes": [len(c) for c in classes]}
    oracle = _arboricity_oracle(g, "lambda", args.lam)
    return io.format_coloring(assignment), summary, verdicts, oracle


class _Algorithm(NamedTuple):
    """One `run --algo` choice.  Once the instance is parsed, the
    preconditions are checked in this order: graph, flags, edges."""

    run: Callable
    graph: bool = True  # needs a gr instance
    flags: tuple[str, ...] = ()  # options that must be given
    edges: bool = False  # needs at least one edge
    oracle: bool = True  # has an oracle comparison
    lists: bool = False  # the instance file carries color lists


_ALGORITHMS = {
    "maximal-matching": _Algorithm(_run_maximal_matching, graph=False),
    "approx-matching": _Algorithm(_run_approx_matching, graph=False),
    "edge-color": _Algorithm(_run_edge_color, edges=True),
    "list-edge-color": _Algorithm(_run_list_edge_color, edges=True, lists=True),
    "rand-edge-color": _Algorithm(_run_rand_edge_color, edges=True, oracle=False),
    "mis": _Algorithm(_run_mis),
    "vertex-color": _Algorithm(_run_vertex_color, oracle=False),
    "approx-graph-matching": _Algorithm(_run_approx_graph_matching, flags=("--eps",)),
    "orientation": _Algorithm(_run_orientation, flags=("--lambda", "--eps")),
    "pseudo-forests": _Algorithm(_run_pseudo_forests, flags=("--lambda", "--eps")),
    "arb-edge-color": _Algorithm(
        _run_arb_edge_color, flags=("--arboricity", "--eps"), edges=True
    ),
}

# argparse dest of each option that `_Algorithm.flags` may name
_DEST = {"--eps": "eps", "--lambda": "lam", "--arboricity": "arboricity"}


def _cmd_run(args) -> int:
    algo = _ALGORITHMS[args.algo]
    if args.oracle and not algo.oracle:
        raise UsageError(f"{args.algo} has no oracle comparison")
    parsed = _parse(_read(args.infile), algo.lists)
    instance: Hypergraph = parsed.g if algo.lists else parsed
    if algo.graph and not isinstance(instance, Graph):
        raise UsageError(f"{args.algo} needs a gr instance, got a hypergraph")
    for flag in algo.flags:
        if getattr(args, _DEST[flag]) is None:
            raise UsageError(f"{args.algo} needs {flag}")
    if algo.edges and instance.m == 0:
        raise UsageError(f"{args.algo} needs at least one edge")
    ledger = RoundLedger()
    solution, summary, verdicts, oracle = algo.run(parsed, args, ledger)
    if args.out:
        _write(args.out, solution)
    oracle_block = None
    if oracle is not None:
        try:
            oracle_block = oracle()
        except oracles.OverBudgetError:
            if args.oracle:
                raise
    params = {
        "seed": args.seed,
        "eps": str(args.eps) if args.eps is not None else None,
        "lambda": args.lam,
        "arboricity": args.arboricity,
        "slack": str(args.slack) if args.slack is not None else None,
        "oracle_forced": bool(args.oracle),
    }
    report = {
        "schema_version": SCHEMA_VERSION,
        "algorithm": args.algo,
        "instance": _instance_summary(args.infile, instance),
        "parameters": params,
        "solution": summary,
        "verdicts": _to_json(verdicts),
        "oracle": None if oracle_block is None else _to_json(oracle_block),
        "ledger": {"entries": ledger.as_records(), "total": ledger.total},
    }
    failed = [name for name, v in verdicts.items() if not v.ok]
    for key, v in (oracle_block or {}).items():
        if isinstance(v, Verdict) and not v.ok:
            failed.append("oracle" if key == "verdict" else key)
    if args.json:
        _write(args.json, json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        status = f"FAIL ({', '.join(failed)})" if failed else "ok"
        sys.stdout.write(f"{args.algo}: {status} rounds={ledger.total}\n")
    return 1 if failed else 0


def _solution(parse):
    """A (text, instance) solution parser from one that reads the text alone."""
    return lambda text, _: parse(text)


def _matching_check(maximal: bool):
    return lambda h, m, _: validate_matching(h, m, require_maximal=maximal)


def _independent_check(maximal: bool):
    return lambda g, s, _: validate_independent_set(g, s, require_maximal=maximal)


def _check_vertex_coloring(g: Graph, colors, args) -> Verdict:
    if sorted(colors) != list(range(g.n)):
        return Verdict(False, "coloring must assign every node exactly once")
    return validate_vertex_coloring(g, [colors[v] for v in range(g.n)])


def _given_bound(args) -> int | None:
    """ceil((1+eps)*lambda) from `--lambda` and `--eps`, or None if neither."""
    if (args.lam is None) != (args.eps is None):
        raise UsageError(f"verify {args.kind} needs --lambda and --eps together")
    return None if args.lam is None else apps.out_degree_bound(args.lam, args.eps)


def _check_orientation(g: Graph, tails, args) -> Verdict:
    bound = _given_bound(args)
    if bound is None:
        bound = max(Counter(tails).values(), default=0)
    return apps.validate_orientation(g, apps.Orientation(tails, bound))


def _check_pseudo_forests(g: Graph, assignment, args) -> Verdict:
    bound = _given_bound(args)
    if sorted(assignment) != list(range(g.m)):
        return Verdict(False, "every edge needs exactly one class")
    classes: dict[int, set[int]] = {}
    for eid, cls in assignment.items():
        classes.setdefault(cls, set()).add(eid)
    if bound is not None and len(classes) > bound:
        return Verdict(False, f"{len(classes)} classes exceed the bound {bound}")
    for cls in sorted(classes):
        verdict = apps.validate_pseudo_forest(g, frozenset(classes[cls]))
        if not verdict:
            return Verdict(False, f"class {cls}: {verdict.reason}")
    return Verdict(True)


class _VerifyKind(NamedTuple):
    """One `verify` kind."""

    parse: Callable  # (solution text, instance) -> solution
    check: Callable  # (instance, solution, args) -> Verdict
    graph: str | None = None  # needs a gr instance; the error names this kind
    lists: bool = False  # the instance file carries color lists
    bounds: bool = False  # takes --lambda and --eps


_VERIFY_KINDS = {
    "matching": _VerifyKind(_solution(io.parse_id_set), _matching_check(False)),
    "maximal-matching": _VerifyKind(_solution(io.parse_id_set), _matching_check(True)),
    "independent-set": _VerifyKind(
        _solution(io.parse_id_set), _independent_check(False), "independent-set"
    ),
    "mis": _VerifyKind(
        _solution(io.parse_id_set), _independent_check(True), "independent-set"
    ),
    "edge-coloring": _VerifyKind(
        _solution(io.parse_coloring),
        lambda g, colors, _: validate_edge_coloring(g, colors),
        "edge-coloring",
    ),
    "list-edge-coloring": _VerifyKind(
        _solution(io.parse_coloring),
        lambda inst, colors, _: validate_edge_coloring(
            inst.g, colors, lists=inst.lists
        ),
        lists=True,
    ),
    "vertex-coloring": _VerifyKind(
        _solution(io.parse_coloring), _check_vertex_coloring, "vertex-coloring"
    ),
    "orientation": _VerifyKind(io.parse_orientation, _check_orientation, "orientation", bounds=True),
    "pseudo-forests": _VerifyKind(
        _solution(io.parse_coloring), _check_pseudo_forests, "pseudo-forests", bounds=True
    ),
}


def _cmd_verify(args) -> int:
    kind = _VERIFY_KINDS[args.kind]
    if not kind.bounds and (args.lam is not None or args.eps is not None):
        raise UsageError(f"verify {args.kind} takes no --lambda or --eps")
    instance_text = _read(args.infile)
    solution_text = _read(args.solution)
    instance = _parse(instance_text, kind.lists)
    if kind.graph is not None and not isinstance(instance, Graph):
        raise UsageError(f"{kind.graph} verification needs a gr instance")
    verdict = kind.check(instance, kind.parse(solution_text, instance), args)
    if verdict.ok:
        sys.stdout.write("pass\n")
        return 0
    sys.stdout.write(f"fail: {verdict.reason}\n")
    return 1


class _Family(NamedTuple):
    """One `generate` family.  `make` takes the key=value parameters in
    order, then --seed if `seeded`, then the --in instance if `source`."""

    make: Callable
    params: tuple[tuple[str, type], ...] = ()  # key and type of each parameter
    seeded: bool = False
    source: bool = False


_FAMILIES = {
    "random-hypergraph": _Family(
        generate.random_hypergraph, (("n", int), ("m", int), ("r", int)), seeded=True
    ),
    "random-graph": _Family(
        generate.random_graph, (("n", int), ("p", float)), seeded=True
    ),
    "d-regular": _Family(generate.d_regular, (("n", int), ("d", int)), seeded=True),
    "star": _Family(generate.star, (("n", int),)),
    "cycle": _Family(generate.cycle, (("n", int),)),
    "path": _Family(generate.path, (("n", int),)),
    "complete": _Family(generate.complete, (("n", int),)),
    "line-graph-of": _Family(line_graph, source=True),
}

# parameter type -> (placeholder, noun) in its error messages
_PARAM_TYPES = {int: ("int", "an integer"), float: ("float", "a number")}


def _cmd_generate(args) -> int:
    family = _FAMILIES[args.family]
    params: dict[str, str] = {}
    for item in args.params:
        key, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"family parameters look like key=value, got {item!r}")
        params[key] = value
    values: list = []
    for key, kind in family.params:
        placeholder, noun = _PARAM_TYPES[kind]
        if key not in params:
            raise UsageError(f"{args.family} needs {key}=<{placeholder}>")
        try:
            values.append(kind(params.pop(key)))
        except ValueError as exc:
            raise UsageError(f"{key} must be {noun}") from exc
    if params:
        raise UsageError(f"unknown parameters for {args.family}: {sorted(params)}")
    if family.seeded:
        values.append(args.seed)
    if family.source:
        if args.infile is None:
            raise UsageError(f"{args.family} needs --in <instance>")
        values.append(_parse_instance(_read(args.infile)))
    try:
        inst = family.make(*values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    fmt = io.format_graph if isinstance(inst, Graph) else io.format_hypergraph
    _write(args.out, fmt(inst))
    return 0


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from exc


# Cached for in-process callers (tests, benchmark, library); one-shot runs gain nothing.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermatch",
        description="hypergraph matching pipelines with verified outputs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a deterministic instance")
    gen.add_argument("family", choices=tuple(_FAMILIES))
    gen.add_argument("params", nargs="*", help="family parameters, key=value")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--in", dest="infile", help="source instance (line-graph-of)")
    gen.add_argument("--out", help="output path (default stdout)")

    run = sub.add_parser("run", help="run an algorithm and report verdicts")
    run.add_argument("--algo", required=True, choices=tuple(_ALGORITHMS))
    run.add_argument("--in", dest="infile", required=True)
    run.add_argument("--out", help="solution output path")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--eps", type=_fraction)
    run.add_argument("--lambda", dest="lam", type=int)
    run.add_argument("--arboricity", type=int)
    run.add_argument("--slack", type=_fraction)
    run.add_argument("--oracle", action="store_true",
                     help="force the oracle comparison; over budget exits 3")
    run.add_argument("--json", help="write the JSON report here ('-' = stdout)")

    ver = sub.add_parser("verify", help="re-run a validator on a solution file")
    ver.add_argument("kind", choices=tuple(_VERIFY_KINDS))
    ver.add_argument("--in", dest="infile", required=True)
    ver.add_argument("solution")
    ver.add_argument("--eps", type=_fraction)
    ver.add_argument("--lambda", dest="lam", type=int)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # The handler is looked up per call, so a rebound `_cmd_*` is reached.
    handler = globals()[f"_cmd_{args.command}"]
    try:
        return handler(args)
    except (UsageError, io.ParseError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except oracles.OverBudgetError as exc:
        sys.stderr.write(f"oracle budget: {exc}\n")
        return 3
    except (apps.OrientationBoundError, apps.PathBudgetError,
            edge_coloring.PeelingStallError) as exc:
        sys.stderr.write(f"failed: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
