"""Command line interface: generate instances, run algorithms, verify solutions.

Three subcommands, each driven by one table whose keys are its choices:

  generate FAMILY [key=value ...]   write an instance file       (_FAMILIES)
  run --algo NAME --in FILE ...     run, report, write solution  (_ALGORITHMS)
  verify KIND --in FILE SOLUTION    re-validate a solution file  (_VERIFY_KINDS)

Each `_ALGORITHMS` row holds its oracle comparison and names a solution
kind, a `_VERIFY_KINDS` row.  The kind writes `run`'s solution file, reads
it for `verify`, and holds the one check both commands give it; `run`
reports that check first.  A `pseudo-forests` run reports its own verdicts
instead: the orientation and one per class, which its file cannot show.

`generate` rejects a missing, malformed or unknown parameter before it
reads `--in` or builds anything.  `run --oracle` on an algorithm without
an oracle comparison (`rand-edge-color`, `vertex-color`) is a usage error
raised before the instance is read, and so is any of `--eps`, `--lambda`,
`--arboricity` and `--slack` given to an algorithm that does not read it
(`--seed` is accepted everywhere).  `verify orientation` checks
out-degrees against ceil((1+eps)*lambda) when given both `--lambda` and
`--eps`, against the solution's own maximum when given neither, and
rejects one without the other; `verify pseudo-forests` takes the two
flags by the same rule and then allows at most ceil((1+eps)*lambda)
classes.  Every other kind rejects both.  `run` refuses an `--out` or
`--json` path that cannot be written before it solves, and writes none.

Exit codes: 0 all verdicts pass, 1 verification failure, 2 usage or parse
error (a file that cannot be read or written included), 3 oracle budget
exceeded, 4 out of memory.  Reports carry no timestamp, so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import stat
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
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _check_writable(path: str | None) -> None:
    """Raise the usage error `_write` would raise for ``path`` where that
    can be told before anything is written: a missing parent directory, a
    directory, or no permission to write the file or create it.  Creates
    and truncates nothing."""
    if path is None or path == "-":
        return
    parent = os.path.dirname(path) or "."
    try:
        code = 0 if stat.S_ISDIR(os.stat(parent).st_mode) else errno.ENOTDIR
    except OSError as exc:
        code = exc.errno
    if not code and os.path.isdir(path):
        code = errno.EISDIR
    if not code and not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    if code:
        exc = OSError(code, os.strerror(code), path)
        raise UsageError(f"cannot write {path}: {exc}") from exc


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


# (write, read) of each solution file format: (solution, instance) -> text and
# (text, instance) -> solution.  Both look `io`'s functions up when called.
_ID_SET = (lambda ids, _: io.format_id_set(ids), lambda text, _: io.parse_id_set(text))
_COLORING = (lambda c, _: io.format_coloring(c), lambda text, _: io.parse_coloring(text))
_ORIENTATION = (lambda tails, g: io.format_orientation(g.edges, tails),
                lambda text, g: io.parse_orientation(text, g))


def _check_vertex_coloring(g: Graph, colors, _) -> Verdict:
    if sorted(colors) != list(range(g.n)):
        return Verdict(False, "coloring must assign every node exactly once")
    return validate_vertex_coloring(g, [colors[v] for v in range(g.n)])


def _check_orientation(g: Graph, tails, bound: int | None) -> Verdict:
    """Out-degrees against `bound`, else against the solution's own maximum."""
    if bound is None:
        bound = max(Counter(tails).values(), default=0)
    return apps.validate_orientation(g, apps.Orientation(tails, bound))


def _check_pseudo_forests(g: Graph, assignment, bound: int | None) -> Verdict:
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


class _Kind(NamedTuple):
    """One solution kind: the file `run --out` writes and `verify` reads,
    and the one check both commands give it.  The check's bound is the
    palette or out-degree bound a run supplies, or the one `verify` takes
    from --lambda and --eps; None when there is none."""

    write: Callable
    read: Callable
    check: Callable  # (instance, solution, bound) -> Verdict
    verdict: str | None  # the check's name in a run report; None: no run reports it
    graph: str | None = None  # needs a gr instance; the error names this kind
    lists: bool = False  # the instance file carries color lists
    bounds: bool = False  # `verify` takes --lambda and --eps


_VERIFY_KINDS = {
    "matching": _Kind(*_ID_SET, lambda h, m, _: validate_matching(h, m), "matching_valid"),
    "maximal-matching": _Kind(
        *_ID_SET, lambda h, m, _: validate_matching(h, m, require_maximal=True),
        "matching_maximal"),
    "independent-set": _Kind(
        *_ID_SET, lambda g, s, _: validate_independent_set(g, s), None, "independent-set"),
    "mis": _Kind(
        *_ID_SET, lambda g, s, _: validate_independent_set(g, s, require_maximal=True),
        "independent_and_maximal", "independent-set"),
    "edge-coloring": _Kind(
        *_COLORING, lambda g, c, palette: validate_edge_coloring(g, c, palette=palette),
        "coloring_proper", "edge-coloring"),
    "list-edge-coloring": _Kind(
        *_COLORING, lambda inst, c, _: validate_edge_coloring(inst.g, c, lists=inst.lists),
        "coloring_respects_lists", lists=True),
    "vertex-coloring": _Kind(
        *_COLORING, _check_vertex_coloring, "coloring_proper", "vertex-coloring"),
    "orientation": _Kind(
        *_ORIENTATION, _check_orientation, "orientation_bounded", "orientation", bounds=True),
    "pseudo-forests": _Kind(
        *_COLORING, _check_pseudo_forests, None, "pseudo-forests", bounds=True),
}


class _Solved(NamedTuple):
    """What a runner, given (instance, args, ledger), returns.  Runners
    look library functions up when called, so a rebound module attribute
    (as a tracer installs) is reached."""

    solution: object  # in the form its kind writes
    summary: dict
    bound: int | None = None  # given to the kind's check
    verdicts: dict = {}  # the run's own, reported after the kind's
    kind: str | None = None  # when not the algorithm's


def _matched(m: frozenset[int], **summary) -> _Solved:
    """The result of a run whose solution is a matching."""
    return _Solved(m, {"kind": "matching", "size": len(m), **summary})


def _edge_colored(res) -> _Solved:
    """The result of a run whose solution is an edge coloring."""
    summary = {"kind": "edge-coloring", "max_color": max(res.colors.values()),
               "stats": res.stats}
    if res.palette is not None:
        summary["palette_bound"] = res.palette
    return _Solved(res.colors, summary, res.palette)


def _run_maximal_matching(h, args, ledger):
    if args.slack is None:
        return _matched(rounding.maximal_matching(h, ledger))
    m, unblocked = rounding.almost_maximal_matching(h, args.slack, ledger)
    consistent = _check(unblocked == unblocked_edges(h, m),
                        "reported unblocked set disagrees with a recount")
    return _matched(m, unblocked=sorted(unblocked))._replace(
        verdicts={"unblocked_consistent": consistent}, kind="matching")


def _run_mis(g, args, ledger):
    independence, source = _independence_for(g, args.oracle)
    s = packing.maximal_independent_set(g, independence, ledger)
    summary = {"kind": "independent-set", "size": len(s),
               "independence": independence, "independence_source": source}
    return _Solved(s, summary)


def _run_vertex_color(g, args, ledger):
    independence, source = _independence_for(g, args.oracle)
    out = packing.vertex_color(g, independence, ledger=ledger)
    palette = out.palette_size  # max_degree + 1
    in_palette = _check(all(1 <= c <= palette for c in out.colors), "color outside palette")
    summary = {"kind": "vertex-coloring", "palette_bound": palette,
               "colors_used": len(set(out.colors)),
               "independence": independence, "independence_source": source}
    colors = {v: out.colors[v] for v in range(g.n)}
    return _Solved(colors, summary, verdicts={"palette_respected": in_palette})


def _run_orientation(g, args, ledger):
    o = apps.low_outdegree_orientation(g, args.lam, args.eps, ledger)
    summary = {"kind": "orientation", "bound": o.bound,
               "max_out_degree": o.max_out_degree}
    return _Solved(o.tails, summary, o.bound)


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
    return _Solved(assignment, summary, verdicts=verdicts)


# Oracle comparisons, each (instance, args, solved) -> the report's oracle block.  One
# may raise OverBudgetError; a failing `Verdict` in its block fails the run.


def _against_optimum(optimum: int, size: int, need=None, **block) -> dict:
    """A solution's size beside the optimum; with `need`, whether it reaches `need`."""
    if need is not None:
        block["verdict"] = _check(size >= need, f"size {size} below {need}")
    return {"optimum": optimum, "size": size, **block}


def _matching_oracle(h, args, solved) -> dict:
    """With --slack, the unblocked edges' optimum against slack times the optimum."""
    opt = oracles.max_matching(h).size
    if args.slack is None:
        return _against_optimum(opt, len(solved.solution))
    unblocked = solved.summary["unblocked"]
    left = 0
    if unblocked:
        left = oracles.max_matching(induced_subhypergraph(h, unblocked)[0]).size
    verdict = _check(left <= args.slack * opt, "unblocked share above slack")
    return {"optimum": opt, "unblocked_optimum": left, "verdict": verdict}


def _graph_matching_oracle(g, args, solved) -> dict:
    opt = oracles.max_matching(g).size
    need = math.ceil(opt / (1 + args.eps))
    return _against_optimum(opt, len(solved.solution), need, required=need)


def _mis_oracle(g, args, solved) -> dict:
    r = solved.summary["independence"]
    if solved.summary["independence_source"] != "oracle":
        r = oracles.neighborhood_independence(g)
    best = oracles.max_independent_set(g).size
    need = Fraction(best, 32 * max(1, r) ** 3)
    return _against_optimum(best, len(solved.solution), need, independence=r)


def _arboricity_oracle(key: str, dest: str):
    """The comparison of the arboricity bound given as ``args.<dest>`` with
    the true arboricity, reported as `key`."""

    def oracle(g, args, solved) -> dict:
        a, claimed = oracles.arboricity(g), getattr(args, dest)
        verdict = _check(claimed >= a, f"{key} below true arboricity")
        return {"arboricity": a, key: claimed, "verdict": verdict}

    return oracle


def _check_reduction_soundness(h, lists) -> Verdict:
    """Every maximal matching of the list reduction of h decodes to a
    proper coloring."""
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


class _Algorithm(NamedTuple):
    """One `run --algo` choice.  Before the instance is read, `--oracle`
    and the options of `_DEST` outside ``flags`` and ``optional`` are
    refused; once it is parsed, the preconditions are checked in this
    order: graph, flags, edges."""

    run: Callable  # (instance, args, ledger) -> _Solved
    kind: str  # its `_VERIFY_KINDS` key
    graph: bool = True  # needs a gr instance
    flags: tuple[str, ...] = ()  # options that must be given
    optional: tuple[str, ...] = ()  # options read when given
    edges: bool = False  # needs at least one edge
    oracle: Callable | None = None  # its oracle comparison; None: it has none


_ALGORITHMS = {
    "maximal-matching": _Algorithm(
        _run_maximal_matching, "maximal-matching", graph=False, optional=("--slack",),
        oracle=_matching_oracle),
    "approx-matching": _Algorithm(
        lambda h, args, ledger: _matched(rounding.approx_max_matching(h, ledger)),
        "matching", graph=False, oracle=_matching_oracle),
    "edge-color": _Algorithm(
        lambda g, args, ledger: _edge_colored(edge_coloring.edge_color(g, ledger)),
        "edge-coloring", edges=True, oracle=lambda g, args, solved: {
            "reduction_soundness": _check_reduction_soundness(
                g, edge_coloring.full_palette_lists(g, solved.bound))}),
    "list-edge-color": _Algorithm(
        lambda inst, args, ledger: _edge_colored(
            edge_coloring.list_edge_color(inst.g, inst.lists, ledger)),
        "list-edge-coloring", edges=True, oracle=lambda inst, args, solved: {
            "reduction_soundness": _check_reduction_soundness(inst.g, inst.lists)}),
    "rand-edge-color": _Algorithm(
        lambda g, args, ledger: _edge_colored(
            edge_coloring.randomized_edge_color(g, args.seed, ledger)),
        "edge-coloring", edges=True),
    "mis": _Algorithm(_run_mis, "mis", oracle=_mis_oracle),
    "vertex-color": _Algorithm(_run_vertex_color, "vertex-coloring"),
    "approx-graph-matching": _Algorithm(
        lambda g, args, ledger: _matched(
            apps.approx_max_graph_matching(g, args.eps, ledger=ledger)),
        "matching", flags=("--eps",), oracle=_graph_matching_oracle),
    "orientation": _Algorithm(
        _run_orientation, "orientation", flags=("--lambda", "--eps"),
        oracle=_arboricity_oracle("lambda", "lam")),
    "pseudo-forests": _Algorithm(
        _run_pseudo_forests, "pseudo-forests", flags=("--lambda", "--eps"),
        oracle=_arboricity_oracle("lambda", "lam")),
    "arb-edge-color": _Algorithm(
        lambda g, args, ledger: _edge_colored(edge_coloring.arboricity_edge_color(
            g, args.arboricity, args.eps, ledger)),
        "edge-coloring", flags=("--arboricity", "--eps"), edges=True,
        oracle=_arboricity_oracle("bound", "arboricity")),
}

# argparse dest of each option that `_Algorithm.flags` and `optional` may name
_DEST = {"--eps": "eps", "--lambda": "lam", "--arboricity": "arboricity", "--slack": "slack"}


def _cmd_run(args) -> int:
    algo = _ALGORITHMS[args.algo]
    if args.oracle and algo.oracle is None:
        raise UsageError(f"{args.algo} has no oracle comparison")
    for flag, dest in _DEST.items():
        if getattr(args, dest) is not None and flag not in algo.flags + algo.optional:
            raise UsageError(f"{args.algo} takes no {flag}")
    lists = _VERIFY_KINDS[algo.kind].lists
    parsed = _parse(_read(args.infile), lists)
    instance: Hypergraph = parsed.g if lists else parsed
    if algo.graph and not isinstance(instance, Graph):
        raise UsageError(f"{args.algo} needs a gr instance, got a hypergraph")
    for flag in algo.flags:
        if getattr(args, _DEST[flag]) is None:
            raise UsageError(f"{args.algo} needs {flag}")
    if algo.edges and instance.m == 0:
        raise UsageError(f"{args.algo} needs at least one edge")
    _check_writable(args.out)
    _check_writable(args.json)
    ledger = RoundLedger()
    solved = algo.run(parsed, args, ledger)
    kind = _VERIFY_KINDS[solved.kind or algo.kind]
    verdicts = solved.verdicts
    if kind.verdict is not None:
        verdicts = {kind.verdict: kind.check(parsed, solved.solution, solved.bound), **verdicts}
    if args.out:
        _write(args.out, kind.write(solved.solution, parsed))
    oracle_block = None
    if algo.oracle is not None:
        try:
            oracle_block = algo.oracle(parsed, args, solved)
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
        "solution": solved.summary,
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


def _given_bound(args) -> int | None:
    """ceil((1+eps)*lambda) from `--lambda` and `--eps`, or None if neither."""
    if (args.lam is None) != (args.eps is None):
        raise UsageError(f"verify {args.kind} needs --lambda and --eps together")
    return None if args.lam is None else apps.out_degree_bound(args.lam, args.eps)


def _cmd_verify(args) -> int:
    kind = _VERIFY_KINDS[args.kind]
    if not kind.bounds and (args.lam is not None or args.eps is not None):
        raise UsageError(f"verify {args.kind} takes no --lambda or --eps")
    instance_text = _read(args.infile)
    solution_text = _read(args.solution)
    instance = _parse(instance_text, kind.lists)
    if kind.graph is not None and not isinstance(instance, Graph):
        raise UsageError(f"{kind.graph} verification needs a gr instance")
    solution = kind.read(solution_text, instance)
    bound = _given_bound(args) if kind.bounds else None
    verdict = kind.check(instance, solution, bound)
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
    except (UsageError, ValueError) as exc:  # io.ParseError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except oracles.OverBudgetError as exc:
        sys.stderr.write(f"oracle budget: {exc}\n")
        return 3
    except (apps.OrientationBoundError, apps.PathBudgetError,
            edge_coloring.PeelingStallError) as exc:
        sys.stderr.write(f"failed: {exc}\n")
        return 1
    except MemoryError:
        sys.stderr.write("error: out of memory; the instance may declare more "
                         "vertices or edges than fit\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
