"""Plain-text instance and solution formats.

Instance formats:

* hypergraph: header ``hgr <n> <m> <r>`` then one line per hyperedge
  listing its vertex ids in ascending order, space separated;
* graph: header ``gr <n> <m>`` then one ``u v`` line per edge.

Edge ids are line positions.  Parsers are strict: wrong counts, ids out of
range, rank mismatch or trailing garbage raise ParseError.  Body tokens go
through labeled ``_int`` only after plain ``int()`` failed on them.

Graph text laid out exactly as ``format_graph`` writes it (a ``gr n m``
line, then ``u v`` lines of ASCII digits, each ended by a newline) is read
in bulk: one split of the body, converted and paired straight into
``build_graph``, with no per-row container.  Text in any other layout
(blank lines, tabs, CRLF, padding spaces, signs, wrong token counts) is
read row by row.  The two paths accept the same texts, build equal graphs
and raise the same messages.

Solution formats (one record per line):

* matching / independent set: one id per line;
* edge or vertex coloring: ``<id> <color>``;
* color lists: ``<id>: <c1> <c2> ...``;
* orientation: ``<tail> <head>`` per edge, in edge-id order;
* pseudo-forest decomposition: ``<edge-id> <class>``.
"""

from __future__ import annotations

from .core import Graph, Hypergraph, build_graph, build_hypergraph


class ParseError(ValueError):
    """Malformed instance or solution text."""


def _tokenize(text: str) -> list[list[str]]:
    rows = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped:
            rows.append(stripped.split())
    return rows


def _int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what}: expected an integer, got {token!r}") from None


def format_hypergraph(h: Hypergraph) -> str:
    lines = [f"hgr {h.n} {h.m} {h.rank}"]
    for members in h.edges:
        lines.append(" ".join(map(str, members)))
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> Hypergraph:
    rows = _tokenize(text)
    if not rows or rows[0][:1] != ["hgr"]:
        raise ParseError("missing 'hgr <n> <m> <r>' header")
    if len(rows[0]) != 4:
        raise ParseError(f"bad hgr header: {' '.join(rows[0])!r}")
    n = _int(rows[0][1], "header n")
    m = _int(rows[0][2], "header m")
    r = _int(rows[0][3], "header r")
    body = rows[1:]
    if len(body) != m:
        raise ParseError(f"header announces {m} hyperedges, found {len(body)}")
    try:
        edges = [list(map(int, row)) for row in body]
    except ValueError:
        edges = [[_int(tok, f"hyperedge {i}") for tok in row] for i, row in enumerate(body)]
    try:
        h = build_hypergraph(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if h.rank != r:
        raise ParseError(f"header announces rank {r}, edges have rank {h.rank}")
    return h


def format_graph(g: Graph) -> str:
    lines = [f"gr {g.n} {g.m}"]
    for u, v in g.edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def _canonical_graph(text: str):
    """``(n, pairs)`` if ``text`` is laid out exactly as `format_graph`
    writes it, else None.

    Canonical text is a ``gr n m`` line, then m ``u v`` lines of ASCII
    digits, each ended by a newline.  The pairs come from one split of the
    body, converted and paired lazily, with no per-row container.
    """
    head, newline, body = text.partition("\n")
    fields = head.split(" ")
    if len(fields) != 3 or fields[0] != "gr" or not newline or not body.isascii():
        return None
    n, m = fields[1:]
    if not (n.isascii() and n.isdigit() and m.isascii() and m.isdigit()):
        return None
    m = int(m)
    # With the digits deleted, the body must read " \n" once per row (its
    # length is compared first, so a huge m allocates nothing).  Then a
    # newline at the end and two tokens per row leave no row short.
    separators = body.encode("ascii").translate(None, b"0123456789")
    if len(separators) != 2 * m or separators != b" \n" * m or (m and body[-1] != "\n"):
        return None
    tokens = body.split()
    if len(tokens) != 2 * m:
        return None
    ints = map(int, tokens)
    return int(n), zip(ints, ints)


def _graph_rows(text: str) -> tuple[int, list[tuple[int, int]]]:
    """``(n, pairs)`` read row by row, for text in any layout."""
    rows = _tokenize(text)
    if not rows or rows[0][:1] != ["gr"]:
        raise ParseError("missing 'gr <n> <m>' header")
    if len(rows[0]) != 3:
        raise ParseError(f"bad gr header: {' '.join(rows[0])!r}")
    n = _int(rows[0][1], "header n")
    m = _int(rows[0][2], "header m")
    body = rows[1:]
    if len(body) != m:
        raise ParseError(f"header announces {m} edges, found {len(body)}")
    try:
        return n, [(int(u), int(v)) for u, v in body]
    except ValueError:
        edges = []
        for i, row in enumerate(body):
            if len(row) != 2:
                raise ParseError(f"edge {i}: expected 'u v', got {' '.join(row)!r}")
            edges.append((_int(row[0], f"edge {i}"), _int(row[1], f"edge {i}")))
        return n, edges


def parse_graph(text: str) -> Graph:
    canonical = _canonical_graph(text)
    n, pairs = _graph_rows(text) if canonical is None else canonical
    try:
        return build_graph(n, pairs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_id_set(ids) -> str:
    return "".join(f"{i}\n" for i in sorted(ids))


def parse_id_set(text: str) -> frozenset[int]:
    rows = _tokenize(text)
    ids = []
    for row in rows:
        if len(row) != 1:
            raise ParseError(f"expected one id per line, got {' '.join(row)!r}")
        ids.append(_int(row[0], "id"))
    if len(set(ids)) != len(ids):
        raise ParseError("duplicate id in set")
    return frozenset(ids)


def format_coloring(colors: dict[int, int]) -> str:
    return "".join(f"{k} {colors[k]}\n" for k in sorted(colors))


def parse_coloring(text: str) -> dict[int, int]:
    rows = _tokenize(text)
    out: dict[int, int] = {}
    for row in rows:
        if len(row) != 2:
            raise ParseError(f"expected '<id> <color>', got {' '.join(row)!r}")
        key = _int(row[0], "id")
        if key in out:
            raise ParseError(f"id {key} colored twice")
        out[key] = _int(row[1], "color")
    return out


def format_lists(lists: dict[int, tuple[int, ...]]) -> str:
    lines = []
    for key in sorted(lists):
        lines.append(f"{key}: " + " ".join(str(c) for c in lists[key]))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_lists(text: str) -> dict[int, tuple[int, ...]]:
    out: dict[int, tuple[int, ...]] = {}
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        head, sep, tail = stripped.partition(":")
        if not sep:
            raise ParseError(f"expected '<id>: c1 c2 ...', got {stripped!r}")
        key = _int(head.strip(), "list id")
        if key in out:
            raise ParseError(f"id {key} listed twice")
        try:
            colors = tuple(map(int, tail.split()))
        except ValueError:
            colors = tuple(_int(tok, f"list of {key}") for tok in tail.split())
        if len(set(colors)) != len(colors):
            raise ParseError(f"list of {key} repeats a color")
        out[key] = colors
    return out


def format_orientation(edges, tails) -> str:
    return "".join(f"{tail} {u + v - tail}\n" for (u, v), tail in zip(edges, tails))


def parse_orientation(text: str, g: Graph) -> tuple[int, ...]:
    """Read directed 'tail head' lines (edge-id order); returns tails."""
    rows = _tokenize(text)
    if len(rows) != g.m:
        raise ParseError(f"expected {g.m} directed edges, found {len(rows)}")
    tails = []
    for i, row in enumerate(rows):
        if len(row) != 2:
            raise ParseError(f"line {i}: expected '<tail> <head>'")
        try:
            tail, head = int(row[0]), int(row[1])
        except ValueError:
            tail, head = _int(row[0], f"line {i}"), _int(row[1], f"line {i}")
        key = (tail, head) if tail < head else (head, tail)
        if key != g.edges[i]:
            raise ParseError(f"line {i}: {tail}->{head} is not edge {i} = {g.edges[i]}")
        tails.append(tail)
    return tuple(tails)
