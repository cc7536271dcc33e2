"""Small instances and reference sums that several test modules share."""

from fractions import Fraction

from hypermatch.core import build_graph, build_hypergraph


def triangle():
    return build_hypergraph(3, [{0, 1}, {1, 2}, {0, 2}])


def loose_cycle(k: int):
    """k rank-3 edges on 2k vertices, consecutive edges sharing one vertex."""
    edges = [(2 * i, 2 * i + 1, (2 * i + 2) % (2 * k)) for i in range(k)]
    return build_hypergraph(2 * k, edges)


def drop_hyperedge(h, eid):
    return build_hypergraph(h.n, [e for i, e in enumerate(h.edges) if i != eid])


def drop_graph_edge(g, eid):
    return build_graph(g.n, [e for i, e in enumerate(g.edges) if i != eid])


def vertex_loads(h, x):
    """Per-vertex sum of the values of the hyperedges holding it."""
    loads = [Fraction(0)] * h.n
    for eid, val in x.values.items():
        for v in h.edges[eid]:
            loads[v] += val
    return loads


def closed_loads(g, values):
    """Per-vertex sum of the values over its closed neighborhood."""
    return [sum((values.get(u, 0) for u in g.adjacency[v]), values.get(v, Fraction(0)))
            for v in range(g.n)]
