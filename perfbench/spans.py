"""Span recorder for the traced run, and the per-layer metrics derived from it.

`Tracer` wraps every public module-level function of the traced
`hypermatch` modules and rebinds the wrapper at every name a caller looks
it up by: the defining module (for calls inside it) and every module that
imported the function by name (`edge_coloring.maximal_matching`,
`rounding.defective_coloring`, `cli.validate_matching`, ...).  The
program itself is not edited.  Spans are kept in memory as tuples and
written out when the run ends.

A span's self time is its duration minus the durations of its direct
children.  The run is single-threaded, so children are disjoint
sub-intervals of their parent, and the self times of one call add up to
the duration of its root span (`cli.main`).
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

TRACED_MODULES = (
    "cli", "io", "core", "coloring", "rounding", "packing",
    "edge_coloring", "apps", "oracles", "ledger",
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _linial_palettes(args, kwargs, result):
    g, initial, bound = (_arg(args, kwargs, i, k) for i, k in
                         enumerate(("g", "initial", "palette_bound")))
    if bound is None:
        bound = g.n if initial is None else initial.palette_size
    return {"palette_in": bound, "palette_out": result.palette_size}


# Counts taken at a function's boundary, from its arguments and result.
PROBES = {
    "coloring.linial_coloring": _linial_palettes,
    "coloring.defective_coloring": lambda a, k, r: {"palette_out": r.palette_size},
    "core.line_graph": lambda a, k, r: {"edges_out": r.m},
}
for _name in ("reduce_hypergraph_list_edge_coloring", "reduce_list_edge_coloring",
              "reduce_edge_coloring"):
    PROBES[f"edge_coloring.{_name}"] = lambda a, k, r: {"edges_out": r.hypergraph.m}
for _name in ("parse_hypergraph", "parse_graph", "parse_id_set", "parse_matching",
              "parse_coloring", "parse_lists", "parse_orientation"):
    PROBES[f"io.{_name}"] = lambda a, k, r: {"bytes": len(_arg(a, k, 0, "text"))}
for _name in ("format_hypergraph", "format_graph", "format_id_set", "format_matching",
              "format_coloring", "format_lists", "format_orientation"):
    PROBES[f"io.{_name}"] = lambda a, k, r: {"bytes": len(r)}


class Tracer:
    """Records (name, parent, start, end, instance, raised, counts) spans."""

    def __init__(self) -> None:
        self.spans: list = []
        self.instance = ""
        self._stack: list[int] = []
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"hypermatch.{short}"]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrappers[fn] = self._wrap(name, fn, PROBES.get(name))
        self._patches = [
            (mod, attr, obj, wrappers[obj])
            for modname, mod in list(sys.modules.items())
            if modname == "hypermatch" or modname.startswith("hypermatch.")
            for attr, obj in list(vars(mod).items())
            if inspect.isfunction(obj) and obj in wrappers
        ]

    def _wrap(self, name, fn, probe):
        spans, stack = self.spans, self._stack

        def span(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, parent, start, end, self.instance, type(exc).__name__, None)
                raise
            end = perf_counter()
            stack.pop()
            counts = probe(args, kwargs, result) if probe else None
            spans[sid] = (name, parent, start, end, self.instance, "", counts)
            return result

        return span

    def __enter__(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)
        return False

    def write(self, path) -> None:
        """One tab-separated line per span: id, parent, name, start, end,
        self, instance, raised exception, counts."""
        selfs = self_times(self.spans, 0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\tself\tinstance\traised\tcounts\n")
            for sid, (name, parent, start, end, inst, raised, counts) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{start!r}\t{end!r}\t{selfs[sid]!r}\t"
                         f"{inst}\t{raised}\t{counts or ''}\n")


def self_times(spans, offset: int) -> list[float]:
    """Self time of spans[i] for a slice whose first span has id `offset`."""
    out = [end - start for _, _, start, end, *_ in spans]
    for name, parent, start, end, *_ in spans:
        if parent >= offset:
            out[parent - offset] -= end - start
    return out


# Layer -> span names whose self times it sums.  `calls` and boundary
# counts are taken on entries into the layer from outside it, so a
# recursion or a delegation inside one layer counts once.
_EXPLICIT = {
    "rounding.greedy_fractional_matching":
        ("rounding.greedy_fractional_matching", "rounding.greedy_doubling_step"),
    "rounding.maximal_matching":
        ("rounding.maximal_matching", "rounding.almost_maximal_matching"),
    "coloring.defective_coloring": ("coloring.defective_coloring", "coloring.count_defect"),
    "apps.pseudo_forest": ("apps.pseudo_forest_decomposition", "apps.validate_pseudo_forest"),
    "cli": ("cli.main",),
}


def layer_of(name: str) -> str:
    for layer, members in _EXPLICIT.items():
        if name in members:
            return layer
    module, func = name.split(".", 1)
    if module == "oracles":
        return "oracles"
    for prefix in ("validate", "parse", "format", "reduce"):
        if func.startswith(prefix + "_") and module in ("core", "io", "edge_coloring"):
            return f"{module}.{prefix}"
    return name


def call_layers(spans, offset: int) -> dict[str, dict[str, float]]:
    """Per-layer self_s, calls and boundary counts of one traced call."""
    layers: dict[str, dict[str, float]] = {}
    selfs = self_times(spans, offset)
    names = [layer_of(s[0]) for s in spans]
    for i, (name, parent, _, _, _, raised, counts) in enumerate(spans):
        layer = names[i]
        acc = layers.setdefault(layer, {"self_s": 0.0, "calls": 0, "refused": 0})
        acc["self_s"] += selfs[i]
        if parent >= offset and names[parent - offset] == layer:
            continue
        acc["calls"] += 1
        acc["refused"] += raised == "OverBudgetError"
        for key, value in (counts or {}).items():
            acc[key] = acc.get(key, 0) + value
    return layers


# name, unit, better: the per-layer metrics of BENCHMARK.json, in order
PER_LAYER = (
    ("rounding.basic_round.self_s", "s", "lower"),
    ("rounding.basic_round.calls", "count", "lower"),
    ("ledger.basic_round.rounds", "count", "lower"),
    ("rounding.recursive_round.self_s", "s", "lower"),
    ("rounding.recursive_round.calls", "count", "lower"),
    ("ledger.recursive_round.rounds", "count", "lower"),
    ("rounding.greedy_fractional_matching.self_s", "s", "lower"),
    ("ledger.greedy.rounds", "count", "lower"),
    ("rounding.approx_max_matching.self_s", "s", "lower"),
    ("rounding.maximal_matching.self_s", "s", "lower"),
    ("ledger.maximal_driver.rounds", "count", "lower"),
    ("coloring.linial_coloring.self_s", "s", "lower"),
    ("coloring.linial_coloring.calls", "count", "lower"),
    ("coloring.linial_coloring.palette_in", "colors", "lower"),
    ("coloring.linial_coloring.palette_out", "colors", "lower"),
    ("coloring.linial_coloring.shrink", "ratio", "lower"),
    ("coloring.defective_coloring.self_s", "s", "lower"),
    ("coloring.defective_coloring.calls", "count", "lower"),
    ("coloring.defective_coloring.palette_out", "colors", "lower"),
    ("core.line_graph.self_s", "s", "lower"),
    ("core.line_graph.calls", "count", "lower"),
    ("core.line_graph.edges_out", "edges", "lower"),
    ("core.build_graph.self_s", "s", "lower"),
    ("core.build_graph.calls", "count", "lower"),
    ("core.build_hypergraph.self_s", "s", "lower"),
    ("core.induced_subhypergraph.self_s", "s", "lower"),
    ("core.validate.self_s", "s", "lower"),
    ("core.validate.calls", "count", "lower"),
    ("core.vertex_loads.self_s", "s", "lower"),
    ("core.build_fractional_assignment.self_s", "s", "lower"),
    ("packing.initial_packing.self_s", "s", "lower"),
    ("packing.basic_round_packing.self_s", "s", "lower"),
    ("packing.basic_round_packing.calls", "count", "lower"),
    ("packing.recursive_round_packing.self_s", "s", "lower"),
    ("packing.approx_mis.self_s", "s", "lower"),
    ("packing.maximal_independent_set.self_s", "s", "lower"),
    ("packing.closed_loads.self_s", "s", "lower"),
    ("packing.verify_greedy_packing.self_s", "s", "lower"),
    ("ledger.mis_driver.rounds", "count", "lower"),
    ("edge_coloring.reduce.self_s", "s", "lower"),
    ("edge_coloring.reduce.calls", "count", "lower"),
    ("edge_coloring.reduce.edges_out", "edges", "lower"),
    ("edge_coloring.decode_matching.self_s", "s", "lower"),
    ("edge_coloring.h_partition.self_s", "s", "lower"),
    ("apps.approx_max_graph_matching.self_s", "s", "lower"),
    ("apps.low_outdegree_orientation.self_s", "s", "lower"),
    ("apps.pseudo_forest.self_s", "s", "lower"),
    ("oracles.self_s", "s", "lower"),
    ("oracles.calls", "count", "lower"),
    ("oracles.refused", "count", "lower"),
    ("oracles.refused_ratio", "ratio", "lower"),
    ("io.parse.self_s", "s", "lower"),
    ("io.parse.bytes", "bytes", "lower"),
    ("io.format.self_s", "s", "lower"),
    ("io.format.bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("ledger.charges", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

LEDGER_LABELS = ("basic_round", "recursive_round", "greedy", "maximal_driver", "mis_driver")


def call_metrics(spans, offset: int, report: dict) -> dict[str, float]:
    """Every additive per-layer metric of one traced call.

    Ratios (`shrink`, `refused_ratio`, `overhead_ratio`) are left to
    `finish`, which divides sums over the whole workload.
    """
    layers = call_layers(spans, offset)
    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        head, _, field = name.rpartition(".")
        out[name] = layers.get(head, {}).get(field, 0.0 if field == "self_s" else 0)
    entries = report["ledger"]["entries"]
    for label in LEDGER_LABELS:
        out[f"ledger.{label}.rounds"] = sum(e["rounds"] for e in entries if e["label"] == label)
    out["ledger.charges"] = len(entries)
    return out


def finish(totals: dict[str, float], overhead_ratio: float) -> dict[str, float]:
    """Fill in the ratio metrics from workload-wide sums."""
    out = dict(totals)
    pin = out["coloring.linial_coloring.palette_in"]
    out["coloring.linial_coloring.shrink"] = (
        out["coloring.linial_coloring.palette_out"] / pin if pin else 0.0)
    calls = out["oracles.calls"]
    out["oracles.refused_ratio"] = out["oracles.refused"] / calls if calls else 0.0
    out["trace.overhead_ratio"] = overhead_ratio
    return out
