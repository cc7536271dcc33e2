"""Seeded instance generators for the four benchmark workloads.

Every workload is a pure function of (seed, size): the same seed gives the
same instance files byte for byte.  The random draws live here; the
program's own `core.build_graph` / `core.build_hypergraph` /
`core.line_graph` freeze the instances and `io.format_*` writes them, so
generation exercises those layers the way a user preparing inputs would.

Shapes are held fixed across seeds where run time depends on them
(edge count and max degree of the edge-coloring graphs, hyperedge count
per hub), so that a seed changes which instance is drawn but not how much
work it is.  Without that, the quadratic colour-class sweep turns a
+-10% spread in m*(2*max_degree - 1) into a +-30% spread in time.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

WORKLOADS = ("edge-color", "hub-matching", "line-graph-mis", "small-corpus")


@dataclass
class Instance:
    """One `hypermatch run` call and what the benchmark needs to check it."""

    name: str
    algo: str
    text: str
    n: int
    m: int
    rank: int
    max_degree: int
    run_args: list[str] = field(default_factory=list)
    verify_kind: str = ""
    verify_args: list[str] = field(default_factory=list)
    # for the benchmark's own re-check
    edges: list[tuple[int, ...]] = field(default_factory=list, repr=False)
    lists: dict[int, tuple[int, ...]] | None = field(default=None, repr=False)
    params: dict = field(default_factory=dict)

    @property
    def suffix(self) -> str:
        return ".hgr" if self.text.startswith("hgr") else ".gr"

    def shape(self) -> dict:
        return {"n": self.n, "m": self.m, "rank": self.rank, "max_degree": self.max_degree}


def _graph_instance(name, algo, edges, n, verify_kind, run_args=(), verify_args=(), **params):
    from hypermatch import core, io

    g = core.build_graph(n, edges)
    return Instance(
        name=name, algo=algo, text=io.format_graph(g), n=g.n, m=g.m,
        rank=2 if g.m else 0, max_degree=g.max_degree, run_args=list(run_args),
        verify_kind=verify_kind, verify_args=list(verify_args),
        edges=list(g.edges), params=params,
    )


def _hypergraph_instance(name, algo, edges, n, verify_kind, run_args=(), **params):
    from hypermatch import core, io

    h = core.build_hypergraph(n, edges)
    return Instance(
        name=name, algo=algo, text=io.format_hypergraph(h), n=h.n, m=h.m,
        rank=h.rank, max_degree=h.max_degree, run_args=list(run_args),
        verify_kind=verify_kind, edges=[tuple(sorted(e)) for e in h.edges],
        params=params,
    )


def _max_degree(n: int, edges) -> int:
    deg = [0] * n
    for e in edges:
        for v in e:
            deg[v] += 1
    return max(deg, default=0)


def gnp_with_shape(rng: random.Random, n: int, p: float, m: int, max_degree: int):
    """G(n, p) draws, kept only when they have exactly m edges and max degree.

    That is G(n, p) conditioned on its shape, i.e. uniform over the graphs
    with that (m, max_degree); the targets sit at the mode of both.
    """
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if len(edges) == m and _max_degree(n, edges) == max_degree:
            return edges


def graph_with_shape(rng: random.Random, n: int, m: int, max_degree: int | None = None):
    """m distinct uniform edges on n nodes, optionally with a fixed max degree."""
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        edges = sorted(rng.sample(pairs, m))
        if max_degree is None or _max_degree(n, edges) == max_degree:
            return edges


def rank3_edges(rng: random.Random, n: int, m: int, pinned=None):
    """m distinct 3-sets; with `pinned`, edge i holds vertex pinned[i % len]."""
    seen: set[frozenset[int]] = set()
    out: list[tuple[int, ...]] = []
    others = range(len(pinned) if pinned else 0, n)
    while len(out) < m:
        if pinned:
            e = frozenset((pinned[len(out) % len(pinned)], *rng.sample(others, 2)))
        else:
            e = frozenset(rng.sample(others, 3))
        if e not in seen:
            seen.add(e)
            out.append(tuple(sorted(e)))
    return out


def degeneracy(n: int, edges) -> int:
    """Largest min-degree met while peeling; an upper bound on arboricity."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    alive = set(range(n))
    best = 0
    while alive:
        v = min(alive, key=lambda x: (len(adj[x] & alive), x))
        best = max(best, len(adj[v] & alive))
        alive.remove(v)
    return best


# (n, p, m, max_degree, instances) per size
EDGE_COLOR = {"full": (36, 0.12, 76, 8, 2), "tiny": (10, 0.3, 13, 4, 2)}
# (n, m, hubs, instances): m / hubs > 512 puts denom at 1024
HUB = {"full": (600, 1040, 2, 1), "tiny": (60, 80, 2, 1)}
# (n, m) of the rank-3 hypergraph whose line graph is the instance, instances
LINE_MIS = {"full": (800, 2600, 1), "tiny": (40, 60, 1)}
# instances per algorithm
CORPUS = {"full": 10, "tiny": 1}


def edge_color(rng: random.Random, size: str) -> list[Instance]:
    n, p, m, delta, count = EDGE_COLOR[size]
    return [
        _graph_instance(f"g{i:02d}", "edge-color", gnp_with_shape(rng, n, p, m, delta),
                        n, "edge-coloring", palette=2 * delta - 1)
        for i in range(count)
    ]


def hub_matching(rng: random.Random, size: str) -> list[Instance]:
    n, m, hubs, count = HUB[size]
    return [
        _hypergraph_instance(f"h{i:02d}", "maximal-matching",
                             rank3_edges(rng, n, m, pinned=tuple(range(hubs))),
                             n, "maximal-matching")
        for i in range(count)
    ]


def line_graph_mis(rng: random.Random, size: str) -> list[Instance]:
    from hypermatch import core

    n, m, count = LINE_MIS[size]
    out = []
    for i in range(count):
        lg = core.line_graph(core.build_hypergraph(n, rank3_edges(rng, n, m)))
        out.append(_graph_instance(f"l{i:02d}", "mis", lg.edges, lg.n, "mis"))
    return out


def small_corpus(rng: random.Random, size: str) -> list[Instance]:
    """All eleven algorithms on instances inside the oracle budgets."""
    from hypermatch import io

    count = CORPUS[size]
    half = "1/2"
    out: list[Instance] = []
    for i in range(count):
        slack = i % 2 == 1  # every other maximal-matching run is almost-maximal
        out.append(_hypergraph_instance(f"mm{i:02d}", "maximal-matching",
                                        rank3_edges(rng, 10, 14), 10,
                                        "matching" if slack else "maximal-matching",
                                        ["--slack", half] if slack else []))
        out.append(_hypergraph_instance(f"am{i:02d}", "approx-matching",
                                        rank3_edges(rng, 10, 14), 10, "matching"))
        # max degree 2 keeps the reduced instance (m * 3 hyperedges) in the
        # enumeration budget, so the reduction-soundness oracle runs
        out.append(_graph_instance(f"ec{i:02d}", "edge-color",
                                   graph_with_shape(rng, 6, 4, 2), 6, "edge-coloring",
                                   palette=3))
        le = _graph_instance(f"le{i:02d}", "list-edge-color",
                             graph_with_shape(rng, 5, 3), 5, "list-edge-coloring")
        lists = {}
        for eid, (u, v) in enumerate(le.edges):
            adjacent = sum(1 for (a, b) in le.edges if {a, b} & {u, v}) - 1
            lists[eid] = tuple(sorted(rng.sample(range(1, 8), adjacent + 2)))
        le.text, le.lists = le.text + io.format_lists(lists), lists
        out.append(le)
        out.append(_graph_instance(f"re{i:02d}", "rand-edge-color",
                                   graph_with_shape(rng, 10, 15), 10, "edge-coloring",
                                   ["--seed", str(rng.randrange(1 << 16))]))
        out.append(_graph_instance(f"mi{i:02d}", "mis", graph_with_shape(rng, 10, 15),
                                   10, "mis"))
        out.append(_graph_instance(f"vc{i:02d}", "vertex-color",
                                   graph_with_shape(rng, 10, 15), 10, "vertex-coloring"))
        out.append(_graph_instance(f"ag{i:02d}", "approx-graph-matching",
                                   graph_with_shape(rng, 10, 15), 10, "matching",
                                   ["--eps", half]))
        for algo, tag in (("orientation", "or"), ("pseudo-forests", "pf")):
            edges = graph_with_shape(rng, 10, 15)
            lam = degeneracy(10, edges)
            args = ["--lambda", str(lam), "--eps", half]
            out.append(_graph_instance(f"{tag}{i:02d}", algo, edges, 10, algo,
                                       args, args if algo == "orientation" else [],
                                       bound=(3 * lam + 1) // 2))
        edges = graph_with_shape(rng, 10, 15)
        a = degeneracy(10, edges)
        inst = _graph_instance(f"ae{i:02d}", "arb-edge-color", edges, 10, "edge-coloring",
                               ["--arboricity", str(a), "--eps", "1"])
        inst.params["palette"] = inst.max_degree + 3 * a - 1
        out.append(inst)
    return out


GENERATORS = {
    "edge-color": edge_color,
    "hub-matching": hub_matching,
    "line-graph-mis": line_graph_mis,
    "small-corpus": small_corpus,
}


def generate(workload: str, seed: int, size: str = "full") -> list[Instance]:
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"), size)
