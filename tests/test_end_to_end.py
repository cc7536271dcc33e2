"""End-to-end property: on small random graphs and rank <= 3 hypergraphs,
every `run --algo` choice exits 0 with every verdict and oracle verdict
ok, and `verify` accepts the solution file it wrote.

Parameters are the ones the guarantees need: lambda and `--arboricity`
are the true arboricity, eps is 1/2 (1 for `arb-edge-color`), `--slack`
is 1/4 and every list holds deg(e) + 1 colors, deg(e) being the number
of edges adjacent to e.
"""

import contextlib
import io as stdio
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatch import cli, edge_coloring, io, oracles
from hypermatch.core import Graph, build_graph, build_hypergraph


@st.composite
def graphs(draw, min_edges=0):
    n = draw(st.integers(1 if min_edges == 0 else 2, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return build_graph(n, [])
    return build_graph(n, draw(st.lists(st.sampled_from(pairs), unique=True,
                                        min_size=min_edges)))


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(1, 10))
    members = st.sets(st.integers(0, n - 1), min_size=1, max_size=min(3, n))
    return build_hypergraph(n, draw(st.lists(members, max_size=14)))


@st.composite
def runs(draw, algo):
    """(instance text, run options, verify kind, verify options) for `algo`."""
    row = cli._ALGORITHMS[algo]
    kind, options, verify_options = row.kind, [], []
    if not row.graph:
        h = draw(st.one_of(hypergraphs(), graphs()))
        if algo == "maximal-matching" and draw(st.booleans()):
            kind, options = "matching", ["--slack", "1/4"]
        text = (io.format_graph if isinstance(h, Graph) else io.format_hypergraph)(h)
        return text, options, kind, verify_options
    g = draw(graphs(min_edges=1 if row.edges else 0))
    text = io.format_graph(g)
    if algo == "list-edge-color":
        lists = {
            eid: tuple(draw(st.permutations(range(2 * g.max_degree + 1)))[
                :edge_coloring.adjacent_edge_count(g, eid) + 1])
            for eid in range(g.m)
        }
        text += io.format_lists(lists)
    elif algo == "rand-edge-color":
        options = ["--seed", str(draw(st.integers(0, 9)))]
    elif algo == "approx-graph-matching":
        options = ["--eps", "1/2"]
    elif algo == "arb-edge-color":
        options = ["--arboricity", str(oracles.arboricity(g)), "--eps", "1"]
    elif algo in ("orientation", "pseudo-forests"):
        options = verify_options = ["--lambda", str(oracles.arboricity(g)), "--eps", "1/2"]
    return text, options, kind, verify_options


def _main(*argv) -> tuple[int, str]:
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("algo", sorted(cli._ALGORITHMS))
@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_every_algorithm_passes_its_checks_and_verify(algo, data):
    text, options, kind, verify_options = data.draw(runs(algo))
    with tempfile.TemporaryDirectory() as tmp:
        inst, sol, rpt = (str(Path(tmp) / name) for name in ("instance", "solution", "report"))
        Path(inst).write_text(text)
        assert _main("run", "--algo", algo, "--in", inst, *options,
                     "--out", sol, "--json", rpt) == (0, "")
        report = json.loads(Path(rpt).read_text())
        assert all(v["ok"] for v in report["verdicts"].values()), report["verdicts"]
        oracle = report["oracle"] or {}
        assert all(v["ok"] for v in oracle.values() if isinstance(v, dict)), oracle
        assert _main("verify", kind, "--in", inst, sol, *verify_options) == (0, "pass\n")
