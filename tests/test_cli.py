"""End-to-end command line tests.

Most tests call cli.main(argv) in-process and check the exit code plus
whatever the command left on disk or stdout; the last one runs the
command-line examples script (`cli_examples.sh`) as CI does.  Exit codes: 0 pass, 1 failed
verdict, 2 usage or parse error, 3 oracle over budget, 4 out of memory.
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hypermatch import apps, cli, generate, io, oracles, rounding

try:
    import resource
except ImportError:  # not on every platform
    resource = None
from hypermatch.core import validate_edge_coloring


def run_cli(*argv):
    return cli.main(list(argv))


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def cycle5(tmp_path):
    return write(tmp_path / "c5.gr", io.format_graph(generate.cycle(5)))


@pytest.fixture
def triangle(tmp_path):
    return write(tmp_path / "k3.gr", io.format_graph(generate.complete(3)))


def c5_with_lists():
    """Cycle on five nodes, each edge with a private three-color list."""
    g = generate.cycle(5)
    lines = [io.format_graph(g).rstrip("\n")]
    for eid in range(g.m):
        lines.append(f"{eid}: {3 * eid + 1} {3 * eid + 2} {3 * eid + 3}")
    return "\n".join(lines) + "\n"


# per algorithm: the instance of its happy-path test and the options it needs
ALGORITHM_CASES = {
    "maximal-matching": (
        io.format_hypergraph(generate.random_hypergraph(10, 14, 3, seed=6)), ()),
    "approx-matching": (
        io.format_hypergraph(generate.random_hypergraph(9, 10, 3, seed=4)), ()),
    "edge-color": (io.format_graph(generate.complete(3)), ()),
    "list-edge-color": (c5_with_lists(), ()),
    "rand-edge-color": (io.format_graph(generate.cycle(5)), ("--seed", "3")),
    "mis": (io.format_graph(generate.complete(5)), ()),
    "vertex-color": (io.format_graph(generate.cycle(5)), ()),
    "approx-graph-matching": (io.format_graph(generate.cycle(5)), ("--eps", "1/3")),
    "orientation": (io.format_graph(generate.path(6)),
                    ("--lambda", "1", "--eps", "1")),
    "pseudo-forests": (io.format_graph(generate.cycle(8)),
                       ("--lambda", "2", "--eps", "1/2")),
    "arb-edge-color": (io.format_graph(generate.path(6)),
                       ("--arboricity", "1", "--eps", "1")),
}

# Every --algo case above, plus the hypergraph algorithms and edge-color on
# a gr instance whose vertex ids pass 8, where a frozenset of two vertices
# may list them out of order.
GRAPH12 = io.format_graph(generate.random_graph(12, 0.3, seed=2))
PINNED_CASES = {
    **{algo: (algo, *case) for algo, case in ALGORITHM_CASES.items()},
    "maximal-matching-gr": ("maximal-matching", GRAPH12, ()),
    "maximal-matching-slack-gr": ("maximal-matching", GRAPH12, ("--slack", "1/4")),
    "approx-matching-gr": ("approx-matching", GRAPH12, ()),
    "edge-color-gr": ("edge-color", GRAPH12, ()),
}

# SHA-256 of the --json report followed by the --out solution, run in the
# instance's directory so that the report's path is "instance"
PINNED_DIGESTS = {
    "maximal-matching": "47fa35b6d19f6973a3f3ace38a34173de7a81bbd6579f03bd0c0a0bcd4d81337",
    "approx-matching": "769e032ddaee08b8253ba932d16ae82ca30876db8b6435f458478ce42d019803",
    "edge-color": "a7d4db8a4d966bf06302be4e741690f9b575e0cc3edcd3aeba151d2ee78e0f87",
    "list-edge-color": "478347da58b38a202164cbbe5e8a0ecea729dfb30bc9597859ffed82f48fe2cf",
    "rand-edge-color": "723a0c1921f465d52f44b6a518ad36651711ca85f8cda0968302a9a61547820e",
    "mis": "982729488713e2b848f80bb44f6b07259a113c638a7ba2e8f793e51099462e06",
    "vertex-color": "d850f463cf6d8407a2fb803c3c8003c8fa91ccfb16ae9e1e76cbc60f3802ef3a",
    "approx-graph-matching": "ac1e484649e69f7315c391b196ff69b224f960b2a27d152e5236acf7cb609b90",
    "orientation": "4c194319449278d4cae34182aa2f00903c30488bad96c9a6855ca63a26f4202f",
    "pseudo-forests": "ea26f0d264424c3269848b0765d5afe8ba8cf221d605dc49ca7485e337b63b10",
    "arb-edge-color": "9d57b225316575897fe5ead841dd23764e470330ae16f11bd7c239a1ec5b2a51",
    "maximal-matching-gr": "610bf14ca398159734e0df7970010ec260ff54cd0c4695db5a37bf586a19b88b",
    "maximal-matching-slack-gr": "a170fb28367c844a03dd868b7b8506b0ff3b2f189bfff62d2a112f0e3ff86db0",
    "approx-matching-gr": "f64bacbd4cec006d144f746c9e8e2424c2f86af3f62d48edf0facef6aea39353",
    "edge-color-gr": "1cf084bcd4360bd983205b7f22727b0d279432c87551945e7b997d91442a4a84",
}


class TestGenerate:
    def test_cycle_file(self, tmp_path, capsys):
        out = tmp_path / "c5.gr"
        assert run_cli("generate", "cycle", "n=5", "--out", str(out)) == 0
        g = io.parse_graph(out.read_text())
        assert (g.n, g.m) == (5, 5)
        assert capsys.readouterr().out == ""

    def test_complete_to_stdout(self, capsys):
        assert run_cli("generate", "complete", "n=4") == 0
        g = io.parse_graph(capsys.readouterr().out)
        assert g.m == 6

    def test_random_hypergraph_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.hgr", tmp_path / "b.hgr"
        args = ("generate", "random-hypergraph", "n=10", "m=20", "r=3", "--seed", "7")
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        h = io.parse_hypergraph(a.read_text())
        assert (h.n, h.m, h.rank) == (10, 20, 3)

    def test_line_graph_of(self, tmp_path, capsys):
        p4 = write(tmp_path / "p4.gr", io.format_graph(generate.path(4)))
        assert run_cli("generate", "line-graph-of", "--in", p4) == 0
        g = io.parse_graph(capsys.readouterr().out)
        assert g.edges == ((0, 1), (1, 2))

    def test_line_graph_needs_input(self):
        assert run_cli("generate", "line-graph-of") == 2

    def test_missing_parameter(self):
        assert run_cli("generate", "cycle") == 2

    def test_unknown_parameter(self):
        assert run_cli("generate", "cycle", "n=5", "girth=9") == 2

    def test_unknown_parameter_rejected_before_building(self, capsys):
        assert run_cli("generate", "star", "n=0", "girth=3") == 2
        assert capsys.readouterr().err == "error: unknown parameters for star: ['girth']\n"

    def test_malformed_parameter(self):
        assert run_cli("generate", "cycle", "five") == 2

    def test_family_rejects_bad_size(self):
        # cycle needs three nodes; the ValueError surfaces as usage error
        assert run_cli("generate", "cycle", "n=2") == 2


class TestRunHappyPaths:
    def test_edge_color_triangle(self, triangle, tmp_path, capsys):
        sol = tmp_path / "k3.col"
        code = run_cli("run", "--algo", "edge-color", "--in", triangle,
                       "--out", str(sol))
        assert code == 0
        line = capsys.readouterr().out
        assert line.startswith("edge-color: ok")
        assert "rounds=" in line
        colors = io.parse_coloring(sol.read_text())
        assert set(colors) == {0, 1, 2}
        assert len(set(colors.values())) == 3
        assert max(colors.values()) <= 3

    def test_maximal_matching_star(self, tmp_path):
        star = write(tmp_path / "s5.gr", io.format_graph(generate.star(5)))
        sol = tmp_path / "s5.mat"
        assert run_cli("run", "--algo", "maximal-matching", "--in", star,
                       "--out", str(sol)) == 0
        picked = io.parse_id_set(sol.read_text())
        assert len(picked) == 1

    def test_mis_on_complete_graph(self, tmp_path):
        k5 = write(tmp_path / "k5.gr", io.format_graph(generate.complete(5)))
        sol = tmp_path / "k5.mis"
        assert run_cli("run", "--algo", "mis", "--in", k5,
                       "--out", str(sol)) == 0
        assert len(io.parse_id_set(sol.read_text())) == 1

    def test_mis_oracle_reuses_independence(self, tmp_path, monkeypatch):
        calls = []
        exact = oracles.neighborhood_independence
        monkeypatch.setattr(oracles, "neighborhood_independence",
                            lambda g: calls.append(g) or exact(g))
        k5 = write(tmp_path / "k5.gr", io.format_graph(generate.complete(5)))
        rpt = tmp_path / "k5.json"
        assert run_cli("run", "--algo", "mis", "--in", k5,
                       "--json", str(rpt)) == 0
        report = json.loads(rpt.read_text())
        assert report["solution"]["independence_source"] == "oracle"
        assert report["oracle"]["independence"] == 1
        assert len(calls) == 1

    def test_approx_matching_on_hypergraph(self, tmp_path):
        h = generate.random_hypergraph(9, 10, 3, seed=4)
        inst = write(tmp_path / "h.hgr", io.format_hypergraph(h))
        assert run_cli("run", "--algo", "approx-matching", "--in", inst) == 0

    def test_approx_graph_matching(self, tmp_path, cycle5):
        sol = tmp_path / "c5.mat"
        assert run_cli("run", "--algo", "approx-graph-matching",
                       "--in", cycle5, "--eps", "1/3", "--out", str(sol)) == 0
        assert len(io.parse_id_set(sol.read_text())) == 2

    def test_orientation_on_tree(self, tmp_path):
        p6 = write(tmp_path / "p6.gr", io.format_graph(generate.path(6)))
        sol = tmp_path / "p6.or"
        assert run_cli("run", "--algo", "orientation", "--in", p6,
                       "--lambda", "1", "--eps", "1", "--out", str(sol)) == 0
        assert run_cli("verify", "orientation", "--in", p6, str(sol),
                       "--lambda", "1", "--eps", "1") == 0

    def test_pseudo_forests_cycle(self, tmp_path):
        c8 = write(tmp_path / "c8.gr", io.format_graph(generate.cycle(8)))
        sol = tmp_path / "c8.pf"
        assert run_cli("run", "--algo", "pseudo-forests", "--in", c8,
                       "--lambda", "2", "--eps", "1/2", "--out", str(sol)) == 0
        assert run_cli("verify", "pseudo-forests", "--in", c8, str(sol)) == 0

    def test_arboricity_edge_color_path(self, tmp_path):
        p6 = write(tmp_path / "p6.gr", io.format_graph(generate.path(6)))
        assert run_cli("run", "--algo", "arb-edge-color", "--in", p6,
                       "--arboricity", "1", "--eps", "1") == 0

    def test_randomized_edge_color(self, cycle5, tmp_path):
        sol = tmp_path / "c5.col"
        assert run_cli("run", "--algo", "rand-edge-color", "--in", cycle5,
                       "--seed", "3", "--out", str(sol)) == 0
        colors = io.parse_coloring(sol.read_text())
        g = generate.cycle(5)
        assert validate_edge_coloring(g, colors, palette=2 * g.max_degree - 1)

    def test_vertex_color(self, cycle5):
        assert run_cli("run", "--algo", "vertex-color", "--in", cycle5) == 0

    def test_slack_mode(self, tmp_path, capsys):
        h = generate.random_hypergraph(10, 12, 3, seed=2)
        inst = write(tmp_path / "h.hgr", io.format_hypergraph(h))
        sol = tmp_path / "h.mat"
        assert run_cli("run", "--algo", "maximal-matching", "--in", inst,
                       "--slack", "1/2", "--out", str(sol)) == 0
        # the solution is a valid (not necessarily maximal) matching
        assert run_cli("verify", "matching", "--in", inst, str(sol)) == 0


class TestJsonReport:
    @pytest.mark.parametrize("algo", list(ALGORITHM_CASES))
    def test_report_bytes_are_reproducible(self, algo, tmp_path):
        text, options = ALGORITHM_CASES[algo]
        inst = write(tmp_path / "instance", text)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        s1, s2 = tmp_path / "s1.out", tmp_path / "s2.out"
        args = ("run", "--algo", algo, "--in", inst, *options)
        assert run_cli(*args, "--json", str(r1), "--out", str(s1)) == 0
        assert run_cli(*args, "--json", str(r2), "--out", str(s2)) == 0
        assert r1.read_bytes() == r2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()

    @pytest.mark.parametrize("case", list(PINNED_CASES))
    def test_report_and_solution_bytes_are_pinned(self, case, tmp_path, monkeypatch):
        algo, text, options = PINNED_CASES[case]
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "instance", text)
        assert run_cli("run", "--algo", algo, "--in", "instance", *options,
                       "--json", "report.json", "--out", "solution") == 0
        blob = (tmp_path / "report.json").read_bytes() + (tmp_path / "solution").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == PINNED_DIGESTS[case]

    def test_report_shape(self, triangle, tmp_path):
        rpt = tmp_path / "r.json"
        assert run_cli("run", "--algo", "edge-color", "--in", triangle,
                       "--json", str(rpt)) == 0
        report = json.loads(rpt.read_text())
        assert report["schema_version"] == 1
        assert report["algorithm"] == "edge-color"
        assert report["instance"]["kind"] == "graph"
        assert report["instance"]["n"] == 3
        assert report["verdicts"]["coloring_proper"]["ok"] is True
        assert report["oracle"]["reduction_soundness"]["ok"] is True
        assert report["ledger"]["total"] >= 0
        assert isinstance(report["ledger"]["entries"], list)

    def test_report_to_stdout(self, triangle, capsys):
        assert run_cli("run", "--algo", "edge-color", "--in", triangle,
                       "--json", "-") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["algorithm"] == "edge-color"


class TestVerify:
    def test_edge_coloring_round_trip(self, triangle, tmp_path, capsys):
        sol = tmp_path / "k3.col"
        run_cli("run", "--algo", "edge-color", "--in", triangle,
                "--out", str(sol))
        capsys.readouterr()
        assert run_cli("verify", "edge-coloring", "--in", triangle,
                       str(sol)) == 0
        assert capsys.readouterr().out == "pass\n"

    def test_tampered_coloring_fails(self, triangle, tmp_path, capsys):
        # all three triangle edges share vertices, one color cannot work
        sol = write(tmp_path / "bad.col", "0 1\n1 1\n2 1\n")
        assert run_cli("verify", "edge-coloring", "--in", triangle, sol) == 1
        assert capsys.readouterr().out.startswith("fail:")

    def test_overlapping_matching_fails(self, triangle, tmp_path):
        sol = write(tmp_path / "bad.mat", "0\n1\n")
        assert run_cli("verify", "matching", "--in", triangle, sol) == 1

    def test_non_maximal_matching_fails(self, cycle5, tmp_path, capsys):
        sol = write(tmp_path / "empty.mat", "")
        assert run_cli("verify", "maximal-matching", "--in", cycle5, sol) == 1
        assert "fail:" in capsys.readouterr().out

    def test_vertex_coloring_must_cover_every_node(self, cycle5, tmp_path):
        sol = write(tmp_path / "part.col", "0 1\n1 2\n")
        assert run_cli("verify", "vertex-coloring", "--in", cycle5, sol) == 1

    def test_mis_kind_checks_maximality(self, tmp_path):
        k5 = write(tmp_path / "k5.gr", io.format_graph(generate.complete(5)))
        good = write(tmp_path / "one.set", "2\n")
        empty = write(tmp_path / "none.set", "")
        assert run_cli("verify", "mis", "--in", k5, good) == 0
        assert run_cli("verify", "independent-set", "--in", k5, empty) == 0
        assert run_cli("verify", "mis", "--in", k5, empty) == 1

    def test_orientation_kind_needs_graph(self, tmp_path):
        hgr = write(tmp_path / "h.hgr", "hgr 3 1 3\n0 1 2\n")
        sol = write(tmp_path / "h.or", "0 1\n")
        assert run_cli("verify", "orientation", "--in", hgr, sol) == 2

    def test_orientation_needs_lambda_and_eps_together(self, tmp_path, capsys):
        # out-degrees 1, 1, 0: within the solution's own maximum, above
        # ceil((1 + 1/2) * 0) = 0
        p3 = write(tmp_path / "p3.gr", io.format_graph(generate.path(3)))
        sol = write(tmp_path / "p3.or", "0 1\n1 2\n")
        assert run_cli("verify", "orientation", "--in", p3, sol) == 0
        assert run_cli("verify", "orientation", "--in", p3, sol,
                       "--lambda", "0", "--eps", "1/2") == 1
        capsys.readouterr()
        for lone in (("--lambda", "0"), ("--eps", "1/2")):
            assert run_cli("verify", "orientation", "--in", p3, sol, *lone) == 2
            assert capsys.readouterr().err == (
                "error: verify orientation needs --lambda and --eps together\n")

    @pytest.mark.parametrize("lam, eps, error", [
        ("2", "-1", "eps must be positive, got -1"),
        ("2", "0", "eps must be positive, got 0"),
        ("-3", "1/2", "arboricity bound must be >= 0, got -3"),
    ])
    def test_orientation_bound_is_checked_as_run_checks_it(
        self, lam, eps, error, tmp_path, capsys
    ):
        p3 = write(tmp_path / "p3.gr", io.format_graph(generate.path(3)))
        sol = write(tmp_path / "p3.or", "0 1\n1 2\n")
        bounds = ("--lambda", lam, f"--eps={eps}")
        assert run_cli("run", "--algo", "orientation", "--in", p3, *bounds) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert run_cli("verify", "orientation", "--in", p3, sol, *bounds) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize(
        "kind", sorted(k for k, kind in cli._VERIFY_KINDS.items() if not kind.bounds)
    )
    @pytest.mark.parametrize("option", [("--lambda", "1"), ("--eps", "1/2")])
    def test_only_orientation_takes_lambda_and_eps(self, kind, option, tmp_path, capsys):
        # orientation and pseudo-forests take them; every other kind
        # refuses them before any file is read
        absent = str(tmp_path / "absent")
        assert run_cli("verify", kind, "--in", absent, absent, *option) == 2
        assert capsys.readouterr().err == f"error: verify {kind} takes no --lambda or --eps\n"

    def test_vertex_coloring_passes_when_proper(self, cycle5, tmp_path, capsys):
        sol = write(tmp_path / "c5.col", "0 1\n1 2\n2 1\n3 2\n4 3\n")
        assert run_cli("verify", "vertex-coloring", "--in", cycle5, sol) == 0
        assert capsys.readouterr().out == "pass\n"

    @pytest.mark.parametrize("text, reason", [
        ("0 1\n", "every edge needs exactly one class"),
        ("0 1\n1 1\n2 1\n3 1\n4 1\n5 1\n",
         "class 1: component of node 0 has 6 edges on 4 nodes"),
    ])
    def test_pseudo_forests_failures(self, text, reason, tmp_path, capsys):
        k4 = write(tmp_path / "k4.gr", io.format_graph(generate.complete(4)))
        sol = write(tmp_path / "k4.pf", text)
        assert run_cli("verify", "pseudo-forests", "--in", k4, sol) == 1
        assert capsys.readouterr().out == f"fail: {reason}\n"

    def test_pseudo_forests_class_count_is_bounded(self, tmp_path, capsys):
        # ceil((1 + 1/2) * 3) = 5 classes at most
        k5 = write(tmp_path / "k5.gr", io.format_graph(generate.complete(5)))
        bounds = ("--lambda", "3", "--eps", "1/2")
        ten = write(tmp_path / "ten.pf", "".join(f"{e} {e + 1}\n" for e in range(10)))
        assert run_cli("verify", "pseudo-forests", "--in", k5, ten) == 0
        assert run_cli("verify", "pseudo-forests", "--in", k5, ten, *bounds) == 1
        assert capsys.readouterr().out == "pass\nfail: 10 classes exceed the bound 5\n"
        ran = tmp_path / "k5.pf"
        assert run_cli("run", "--algo", "pseudo-forests", "--in", k5, *bounds,
                       "--out", str(ran)) == 0
        assert run_cli("verify", "pseudo-forests", "--in", k5, str(ran), *bounds) == 0
        assert capsys.readouterr().out.endswith("pass\n")

    def test_pseudo_forests_need_lambda_and_eps_together(self, tmp_path, capsys):
        k4 = write(tmp_path / "k4.gr", io.format_graph(generate.complete(4)))
        sol = write(tmp_path / "k4.pf", "".join(f"{e} 1\n" for e in range(6)))
        for lone in (("--lambda", "3"), ("--eps", "1/2")):
            assert run_cli("verify", "pseudo-forests", "--in", k4, sol, *lone) == 2
            assert capsys.readouterr().err == (
                "error: verify pseudo-forests needs --lambda and --eps together\n")
        assert run_cli("verify", "pseudo-forests", "--in", k4, sol, "--lambda", "3",
                       "--eps", "-1") == 2
        assert capsys.readouterr().err == "error: eps must be positive, got -1\n"


class TestListEdgeColoring:
    def combined(self, tmp_path):
        return write(tmp_path / "c5.lists", c5_with_lists())

    def test_run_and_verify(self, tmp_path, capsys):
        inst = self.combined(tmp_path)
        sol = tmp_path / "c5.lc"
        assert run_cli("run", "--algo", "list-edge-color", "--in", inst,
                       "--out", str(sol)) == 0
        capsys.readouterr()
        assert run_cli("verify", "list-edge-coloring", "--in", inst,
                       str(sol)) == 0
        colors = io.parse_coloring(sol.read_text())
        for eid, c in colors.items():
            assert c in {3 * eid + 1, 3 * eid + 2, 3 * eid + 3}

    def test_off_list_color_fails(self, tmp_path, capsys):
        inst = self.combined(tmp_path)
        sol = write(tmp_path / "bad.lc", "0 99\n1 4\n2 7\n3 10\n4 13\n")
        assert run_cli("verify", "list-edge-coloring", "--in", inst, sol) == 1
        assert "fail:" in capsys.readouterr().out

    def test_blank_lines_are_skipped(self, tmp_path):
        # blank lines inside the graph part and between graph and lists
        inst = write(tmp_path / "p3.lists",
                     "gr 3 2\n0 1\n\n1 2\n\n0: 5 7\n1: 7 9\n")
        sol = tmp_path / "p3.lc"
        assert run_cli("run", "--algo", "list-edge-color", "--in", inst,
                       "--out", str(sol)) == 0
        assert run_cli("verify", "list-edge-coloring", "--in", inst,
                       str(sol)) == 0

    @pytest.mark.parametrize("count, error", [
        ("x", "header m: expected an integer, got 'x'"),
        ("-1", "header announces -1 edges, found 0"),
    ])
    def test_bad_edge_count_is_a_parse_error(self, count, error, tmp_path, capsys):
        inst = write(tmp_path / "bad.lists", f"gr 3 {count}\n0 1\n0: 5\n")
        assert run_cli("run", "--algo", "list-edge-color", "--in", inst) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_edgeless_graph_is_rejected(self, tmp_path, capsys):
        inst = write(tmp_path / "e3.lists", "gr 3 0\n")
        assert run_cli("run", "--algo", "list-edge-color", "--in", inst) == 2
        assert capsys.readouterr().err == (
            "error: list-edge-color needs at least one edge\n")


def os_error(path, mode):
    """The message `open` gives for ``path`` in ``mode``, which must fail."""
    with pytest.raises(OSError) as info:
        open(path, mode)
    return str(info.value)


class TestExitCodes:
    def test_missing_instance_file(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.gr")
        assert run_cli("run", "--algo", "mis", "--in", absent) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read {absent}: {os_error(absent, 'r')}\n")

    @pytest.mark.parametrize("argv", [
        ("run", "--algo", "mis", "--in", "{c5}", "--out", "{bad}"),
        ("run", "--algo", "mis", "--in", "{c5}", "--json", "{bad}"),
        ("generate", "cycle", "n=5", "--out", "{bad}"),
    ], ids=["run-out", "run-json", "generate-out"])
    def test_unwritable_output_is_a_usage_error(self, argv, cycle5, tmp_path, capsys):
        bad = str(tmp_path / "absent" / "x")
        assert run_cli(*(arg.format(c5=cycle5, bad=bad) for arg in argv)) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {bad}: {os_error(bad, 'w')}\n")

    def test_malformed_instance(self, tmp_path):
        bad = write(tmp_path / "bad.gr", "gr 2 1\n0\n")
        assert run_cli("run", "--algo", "mis", "--in", bad) == 2

    def test_unknown_algorithm(self, cycle5):
        assert run_cli("run", "--algo", "quantum", "--in", cycle5) == 2

    def test_missing_required_option(self, cycle5):
        assert run_cli("run", "--algo", "approx-graph-matching",
                       "--in", cycle5) == 2
        assert run_cli("run", "--algo", "orientation", "--in", cycle5,
                       "--eps", "1") == 2
        assert run_cli("run", "--algo", "arb-edge-color", "--in", cycle5,
                       "--eps", "1") == 2

    def test_bad_eps_value(self, cycle5):
        assert run_cli("run", "--algo", "approx-graph-matching",
                       "--in", cycle5, "--eps", "zero") == 2

    def test_path_budget_exceeded_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(apps, "PATH_CAP", 2)
        k4 = write(tmp_path / "k4.gr", io.format_graph(generate.complete(4)))
        assert run_cli("run", "--algo", "approx-graph-matching", "--in", k4,
                       "--eps", "1") == 1
        assert capsys.readouterr().err.startswith("failed: more than 2 ")

    @pytest.mark.parametrize("algo", ["orientation", "pseudo-forests"])
    def test_infeasible_bound_exits_one(self, tmp_path, capsys, algo):
        # 144 edges on 60 nodes: no orientation has out-degree 2 everywhere
        g60 = write(tmp_path / "g60.gr", io.format_graph(generate.random_graph(60, 0.07, seed=0)))
        assert run_cli("run", "--algo", algo, "--in", g60,
                       "--lambda", "1", "--eps", "1/2") == 1
        assert capsys.readouterr().err.startswith(
            "failed: out-degree bound 2 cannot be met: the 50 nodes reachable"
        )

    @pytest.mark.parametrize("algo", ALGORITHM_CASES)
    def test_options_an_algorithm_does_not_read_are_refused(self, algo, tmp_path, capsys):
        # refused before the instance is read: the file does not exist
        reads = {
            "maximal-matching": ("--slack",),
            "approx-graph-matching": ("--eps",),
            "orientation": ("--lambda", "--eps"),
            "pseudo-forests": ("--lambda", "--eps"),
            "arb-edge-color": ("--arboricity", "--eps"),
        }.get(algo, ())
        absent = str(tmp_path / "absent.gr")
        for option in ("--eps", "--lambda", "--arboricity", "--slack"):
            if option not in reads:
                value = "1/2" if option in ("--eps", "--slack") else "2"
                assert run_cli("run", "--algo", algo, "--in", absent, option, value) == 2
                assert capsys.readouterr().err == f"error: {algo} takes no {option}\n"

    def test_seed_is_accepted_where_it_is_not_read(self, cycle5, tmp_path):
        # its default 0 is in every report, so no algorithm refuses it
        report = tmp_path / "mis.json"
        assert run_cli("run", "--algo", "mis", "--in", cycle5, "--seed", "4",
                       "--json", str(report)) == 0
        assert json.loads(report.read_text())["parameters"]["seed"] == 4

    def test_oracle_unavailable_for_randomized_run(self, cycle5, tmp_path):
        # rejected before solving, so no solution file is written
        sol = tmp_path / "c5.out"
        for algo in ("rand-edge-color", "vertex-color"):
            assert run_cli("run", "--algo", algo, "--in", cycle5,
                           "--out", str(sol), "--oracle") == 2
            assert not sol.exists()

    def test_forced_oracle_over_budget(self, tmp_path):
        # thirty hyperedges push the matching oracle past its subset budget
        h = generate.random_hypergraph(12, 30, 3, seed=1)
        inst = write(tmp_path / "big.hgr", io.format_hypergraph(h))
        sol = tmp_path / "big.mat"
        assert run_cli("run", "--algo", "maximal-matching", "--in", inst,
                       "--out", str(sol), "--oracle") == 3
        # the solution was written before the oracle gave up
        assert sol.exists()
        assert run_cli("verify", "maximal-matching", "--in", inst,
                       str(sol)) == 0

    def test_unforced_oracle_over_budget_still_passes(self, tmp_path):
        h = generate.random_hypergraph(12, 30, 3, seed=1)
        inst = write(tmp_path / "big.hgr", io.format_hypergraph(h))
        rpt = tmp_path / "big.json"
        assert run_cli("run", "--algo", "maximal-matching", "--in", inst,
                       "--json", str(rpt)) == 0
        assert json.loads(rpt.read_text())["oracle"] is None

    def test_orientation_bound_error_exits_one(self, tmp_path):
        # fifteen edges on six nodes cannot orient with out-degree two
        k6 = write(tmp_path / "k6.gr", io.format_graph(generate.complete(6)))
        assert run_cli("run", "--algo", "orientation", "--in", k6,
                       "--lambda", "1", "--eps", "1") == 1

    @pytest.mark.parametrize("algo, text, error", [
        ("mis", "", "empty instance file"),
        ("mis", "graph 2 1\n0 1\n", "unknown instance header 'graph'"),
        ("list-edge-color", "hgr 2 1 2\n0 1\n0: 1 2\n",
         "expected a gr header followed by color lists"),
    ])
    def test_instance_header_errors(self, algo, text, error, tmp_path, capsys):
        inst = write(tmp_path / "bad.inst", text)
        assert run_cli("run", "--algo", algo, "--in", inst) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_mis_falls_back_to_max_degree_over_the_oracle_budget(self, tmp_path, capsys):
        # the hub's 27 neighbors exceed the 26-node independence oracle
        star = write(tmp_path / "s28.gr", io.format_graph(generate.star(28)))
        rpt = tmp_path / "s28.json"
        assert run_cli("run", "--algo", "mis", "--in", star, "--json", str(rpt)) == 0
        report = json.loads(rpt.read_text())
        assert report["solution"]["independence_source"] == "max_degree_fallback"
        assert report["solution"]["independence"] == 27
        assert report["oracle"] is None
        assert run_cli("run", "--algo", "mis", "--in", star, "--oracle") == 3
        assert capsys.readouterr().err == (
            "oracle budget: neighborhood size 27 exceeds oracle budget 26\n")

    def test_failing_slack_oracle_exits_one(self, tmp_path, monkeypatch, capsys):
        # A planted fault: no edge matched and every edge reported unblocked.
        # The recount agrees, so only the oracle's slack comparison fails.
        monkeypatch.setattr(rounding, "almost_maximal_matching",
                            lambda h, slack, ledger: (frozenset(), frozenset(range(h.m))))
        inst = write(tmp_path / "h.hgr", ALGORITHM_CASES["maximal-matching"][0])
        rpt = tmp_path / "h.json"
        argv = ("run", "--algo", "maximal-matching", "--in", inst, "--slack", "1/2", "--oracle")
        assert run_cli(*argv, "--json", str(rpt)) == 1
        report = json.loads(rpt.read_text())
        assert report["verdicts"]["unblocked_consistent"]["ok"]
        assert report["oracle"]["verdict"] == {"ok": False, "reason": "unblocked share above slack"}
        assert report["oracle"]["unblocked_optimum"] == report["oracle"]["optimum"] > 0
        assert run_cli(*argv) == 1
        assert capsys.readouterr().out == "maximal-matching: FAIL (oracle) rounds=0\n"

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    @pytest.mark.parametrize("algo, header", [
        ("mis", "gr 1000000000 1"),
        ("maximal-matching", "hgr 1000000000 1 2"),
    ])
    def test_out_of_memory_exits_four(self, tmp_path, algo, header):
        # a 20-byte file that declares 10^9 vertices, in a child process
        # whose address space is capped at 600 MB
        inst = write(tmp_path / "huge.inst", f"{header}\n0 1\n")

        def cap_address_space():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            limit = 600 * 10**6
            if hard != resource.RLIM_INFINITY:
                limit = min(limit, hard)
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *sys.path])}
        done = subprocess.run(
            [sys.executable, "-m", "hypermatch.cli", "run", "--algo", algo, "--in", inst],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=cap_address_space,
        )
        assert done.returncode == 4, done.stderr
        assert done.stderr == (
            "error: out of memory; the instance may declare more vertices or edges than fit\n")

    def test_hypergraph_rejected_by_graph_algorithm(self, tmp_path):
        hgr = write(tmp_path / "h.hgr", "hgr 3 1 3\n0 1 2\n")
        assert run_cli("run", "--algo", "edge-color", "--in", hgr) == 2


class TestInProcessCalls:
    """Many `main` calls in one process share one argparse parser."""

    def test_options_do_not_leak_between_calls(self, tmp_path):
        h = generate.random_hypergraph(10, 12, 3, seed=2)
        inst = write(tmp_path / "h.hgr", io.format_hypergraph(h))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert run_cli("run", "--algo", "maximal-matching", "--in", inst,
                       "--slack", "1/2", "--oracle", "--json", str(first)) == 0
        assert run_cli("run", "--algo", "maximal-matching", "--in", inst,
                       "--json", str(second)) == 0
        params = json.loads(first.read_text())["parameters"]
        assert (params["slack"], params["oracle_forced"]) == ("1/2", True)
        params = json.loads(second.read_text())["parameters"]
        assert (params["slack"], params["oracle_forced"]) == (None, False)
        assert "unblocked" not in json.loads(second.read_text())["solution"]

    @pytest.mark.parametrize("argv", [
        ("run", "--algo", "quantum", "--in", "x.gr"),
        ("run", "--in", "x.gr"),
        ("verify", "matching", "--in", "x.gr"),
        ("generate", "cycle", "n=five"),
        ("run", "--algo", "orientation", "--in", "x.gr", "--eps", "1"),
    ], ids=["bad-choice", "missing-option", "missing-positional",
            "bad-parameter", "missing-flag"])
    def test_usage_error_is_unchanged_after_a_success(
        self, argv, cycle5, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "x.gr", io.format_graph(generate.cycle(5)))
        cli._build_parser.cache_clear()
        assert run_cli(*argv) == 2
        fresh = capsys.readouterr().err
        assert fresh
        assert run_cli("run", "--algo", "orientation", "--in", cycle5,
                       "--lambda", "2", "--eps", "1/2") == 0
        capsys.readouterr()
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == fresh

    def test_interleaved_commands(self, tmp_path, capsys):
        c5, k4 = str(tmp_path / "c5.gr"), str(tmp_path / "k4.gr")
        assert run_cli("generate", "cycle", "n=5", "--out", c5) == 0
        assert run_cli("run", "--algo", "edge-color", "--in", c5,
                       "--out", str(tmp_path / "c5.col")) == 0
        assert run_cli("generate", "complete", "n=4", "--out", k4) == 0
        assert run_cli("verify", "edge-coloring", "--in", c5,
                       str(tmp_path / "c5.col")) == 0
        assert run_cli("run", "--algo", "mis", "--in", k4,
                       "--out", str(tmp_path / "k4.mis")) == 0
        assert run_cli("verify", "mis", "--in", k4, str(tmp_path / "k4.mis")) == 0
        one_edge = write(tmp_path / "one.mat", "0\n")
        assert run_cli("verify", "maximal-matching", "--in", c5, one_edge) == 1
        assert run_cli("generate", "line-graph-of", "--in", k4) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:4] == ["edge-color: ok rounds=18", "pass",
                           "mis: ok rounds=7", "pass"]
        assert out[4].startswith("fail: ")
        assert out[5] == "gr 6 12"

    def test_parser_is_built_once_per_process(self, cycle5, tmp_path):
        cli._build_parser.cache_clear()
        assert run_cli("generate", "path", "n=3", "--out", str(tmp_path / "p.gr")) == 0
        sol = str(tmp_path / "c5.mis")
        assert run_cli("run", "--algo", "mis", "--in", cycle5, "--out", sol) == 0
        assert run_cli("verify", "mis", "--in", cycle5, sol) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_importing_the_cli_builds_no_parser(self):
        code = ("import sys; import hypermatch.cli as cli; "
                "sys.exit(cli._build_parser.cache_info().currsize)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_rebound_handler_is_the_one_reached(self, monkeypatch):
        calls = []
        cli._build_parser()
        monkeypatch.setattr(cli, "_cmd_verify",
                            lambda args: calls.append(args.kind) or 7)
        assert run_cli("verify", "mis", "--in", "x.gr", "y.sol") == 7
        assert calls == ["mis"]


def test_command_line_examples_cover_every_choice():
    """The script runs every `run --algo` choice and every `verify` kind."""
    script = Path(__file__).with_name("cli_examples.sh").read_text()
    assert set(re.findall(r"\brun --algo ([\w-]+)", script)) == set(cli._ALGORITHMS)
    assert set(re.findall(r"\bverify ([\w-]+)", script)) == set(cli._VERIFY_KINDS)


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_command_line_examples(tmp_path):
    """The CI script of command-line examples, through `python -m hypermatch.cli`."""
    script = Path(__file__).with_name("cli_examples.sh")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *sys.path])}
    done = subprocess.run(
        ["bash", str(script), sys.executable, "-m", "hypermatch.cli"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
