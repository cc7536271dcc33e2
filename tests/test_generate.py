import pytest

from hypermatch import generate
from hypermatch.core import build_hypergraph, line_graph


def test_random_hypergraph_shape_and_determinism():
    a = generate.random_hypergraph(10, 20, 3, seed=7)
    b = generate.random_hypergraph(10, 20, 3, seed=7)
    assert a.edges == b.edges
    assert a.m == 20
    assert a.rank == 3
    assert all(len(e) == 3 for e in a.edges)
    assert len(set(a.edges)) == 20  # distinct subsets


def test_random_hypergraph_rejects_impossible_counts():
    with pytest.raises(ValueError):
        generate.random_hypergraph(4, 7, 2, seed=0)  # only 6 pairs exist


def test_random_graph_determinism_and_seed_sensitivity():
    a = generate.random_graph(12, 0.4, seed=1)
    b = generate.random_graph(12, 0.4, seed=1)
    c = generate.random_graph(12, 0.4, seed=2)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_d_regular_degrees():
    g = generate.d_regular(12, 3, seed=5)
    assert all(g.degree(v) == 3 for v in range(12))
    with pytest.raises(ValueError):
        generate.d_regular(5, 3, seed=0)  # odd n * d


def test_d_regular_repairs_an_exhausted_pairing_loop():
    # no simple pairing turns up in 10000 tries here, so switches finish it
    a = generate.d_regular(10, 8, seed=2)
    b = generate.d_regular(10, 8, seed=2)
    assert a.edges == b.edges
    assert a.m == 40  # build_graph rejects loops and repeated edges
    assert all(a.degree(v) == 8 for v in range(10))


def test_fixed_families():
    star = generate.star(5)
    assert star.m == 4 and star.degree(0) == 4
    cyc = generate.cycle(6)
    assert cyc.m == 6 and all(cyc.degree(v) == 2 for v in range(6))
    pth = generate.path(5)
    assert pth.m == 4 and pth.degree(0) == 1
    k4 = generate.complete(4)
    assert k4.m == 6
    with pytest.raises(ValueError):
        generate.cycle(2)


def test_line_graph_of_graph_and_hypergraph():
    lg = line_graph(generate.path(4))
    assert lg.n == 3
    assert lg.edges == ((0, 1), (1, 2))
    h = build_hypergraph(6, [{0, 1, 2}, {2, 3, 4}, {4, 5, 0}])
    lh = line_graph(h)
    assert lh.n == 3
    assert lh.m == 3
