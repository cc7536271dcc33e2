"""The benchmark's own re-check of solution files.

Independent of `hypermatch.core`'s validators: these read the instance
edges the generator drew and the solution text the CLI wrote, so a bug
shared by the solver and the program's validators still shows here.
Each check returns "" when the solution holds and a reason otherwise.
"""

from __future__ import annotations


def _ints(text: str) -> list[list[int]]:
    return [[int(tok) for tok in line.split()] for line in text.splitlines() if line.strip()]


def _pairs(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for row in _ints(text):
        if len(row) != 2 or row[0] in out:
            return {}
        out[row[0]] = row[1]
    return out


def _matching(inst, text: str) -> str:
    ids = [row[0] for row in _ints(text)]
    if len(set(ids)) != len(ids) or not all(0 <= i < inst.m for i in ids):
        return "matching ids repeat or fall outside 0..m-1"
    covered: set[int] = set()
    for i in ids:
        if covered & set(inst.edges[i]):
            return f"matched edge {i} shares a vertex"
        covered |= set(inst.edges[i])
    if inst.verify_kind == "maximal-matching":
        for eid, e in enumerate(inst.edges):
            if not covered & set(e):
                return f"edge {eid} could still be added"
    return ""


def _independent_set(inst, text: str) -> str:
    chosen = {row[0] for row in _ints(text)}
    if not all(0 <= v < inst.n for v in chosen):
        return "vertex id outside 0..n-1"
    blocked = set(chosen)
    for u, v in inst.edges:
        if u in chosen and v in chosen:
            return f"edge ({u},{v}) inside the set"
        if u in chosen:
            blocked.add(v)
        if v in chosen:
            blocked.add(u)
    if len(blocked) != inst.n:
        return "set is not maximal"
    return ""


def _edge_coloring(inst, text: str) -> str:
    colors = _pairs(text)
    if sorted(colors) != list(range(inst.m)):
        return "not one color per edge"
    seen: set[tuple[int, int]] = set()
    for eid, (u, v) in enumerate(inst.edges):
        c = colors[eid]
        if (u, c) in seen or (v, c) in seen:
            return f"edge {eid} clashes on color {c}"
        seen.update(((u, c), (v, c)))
        if inst.lists is not None and c not in inst.lists[eid]:
            return f"edge {eid} uses color {c} off its list"
        if "palette" in inst.params and not 1 <= c <= inst.params["palette"]:
            return f"edge {eid} color {c} outside 1..{inst.params['palette']}"
    return ""


def _vertex_coloring(inst, text: str) -> str:
    colors = _pairs(text)
    if sorted(colors) != list(range(inst.n)):
        return "not one color per vertex"
    if not all(1 <= c <= inst.max_degree + 1 for c in colors.values()):
        return "color outside 1..max_degree+1"
    for u, v in inst.edges:
        if colors[u] == colors[v]:
            return f"edge ({u},{v}) monochromatic"
    return ""


def _orientation(inst, text: str) -> str:
    rows = _ints(text)
    if len(rows) != inst.m:
        return "not one direction per edge"
    out = [0] * inst.n
    for (u, v), row in zip(inst.edges, rows):
        if sorted(row) != [u, v]:
            return f"direction {row} does not match edge ({u},{v})"
        out[row[0]] += 1
    if max(out, default=0) > inst.params["bound"]:
        return f"out-degree {max(out)} above {inst.params['bound']}"
    return ""


def _pseudo_forests(inst, text: str) -> str:
    classes = _pairs(text)
    if sorted(classes) != list(range(inst.m)):
        return "not one class per edge"
    if len(set(classes.values())) > inst.params["bound"]:
        return f"more than {inst.params['bound']} classes"
    for cls in set(classes.values()):
        parent = list(range(inst.n))
        edges = [0] * inst.n

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        members = [inst.edges[e] for e, c in classes.items() if c == cls]
        for u, v in members:
            parent[find(u)] = find(v)
        nodes = [0] * inst.n
        for v in range(inst.n):
            nodes[find(v)] += 1
        for u, _ in members:
            edges[find(u)] += 1
        if any(edges[r] > nodes[r] for r in range(inst.n)):
            return f"class {cls} has a component with two cycles"
    return ""


CHECKS = {
    "matching": _matching,
    "maximal-matching": _matching,
    "mis": _independent_set,
    "edge-coloring": _edge_coloring,
    "list-edge-coloring": _edge_coloring,
    "vertex-coloring": _vertex_coloring,
    "orientation": _orientation,
    "pseudo-forests": _pseudo_forests,
}


def check_solution(inst, text: str) -> str:
    try:
        return CHECKS[inst.verify_kind](inst, text)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable solution: {exc!r}"


def check_report(inst, report: dict) -> str:
    """The JSON report agrees with the instance and claims no failure."""
    summary = report.get("instance", {})
    if report.get("algorithm") != inst.algo:
        return "report names another algorithm"
    if (summary.get("n"), summary.get("m")) != (inst.n, inst.m):
        return "report describes another instance"
    bad = [name for name, v in report.get("verdicts", {}).items() if not v.get("ok")]
    oracle = report.get("oracle") or {}
    for key in ("verdict", "reduction_soundness"):
        if key in oracle and not oracle[key].get("ok"):
            bad.append(f"oracle.{key}")
    if bad:
        return "failed verdicts: " + ", ".join(bad)
    ledger = report.get("ledger", {})
    if ledger.get("total") != sum(e["rounds"] for e in ledger.get("entries", [])):
        return "ledger total disagrees with its entries"
    return ""
