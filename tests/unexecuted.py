"""List the library statements that the tier-1 suite never executes.

Runs the suite in this process under `sys.settrace` and prints
``file:line: statement`` for each statement of ``src/hypermatch`` that no
test ran, then their count.  Docstrings, ``def`` and ``class`` lines and
``global``/``nonlocal`` declarations are skipped; a compound statement
counts as run when its header (an ``if``'s test, a ``for``'s iterable)
ran.  Code that runs only in a child process counts as unexecuted.  The
suite runs at about half its usual speed.  The exit status is pytest's,
or 1 when pytest passed but more than ``--max N`` statements went
unexecuted.  Other arguments go to pytest::

    python tests/unexecuted.py
    python tests/unexecuted.py --max 18
    python tests/unexecuted.py -k test_cli
"""

from __future__ import annotations

import argparse
import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hypermatch"

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Global, ast.Nonlocal)
_BODIES = ("body", "orelse", "finalbody", "handlers")


def _header_end(node: ast.stmt) -> int:
    """The last line of a statement's own code: all of a simple statement,
    the header of a compound one."""
    part = {
        ast.If: "test", ast.While: "test", ast.For: "iter", ast.AsyncFor: "iter",
    }.get(type(node))
    if part is not None:
        return getattr(node, part).end_lineno
    if isinstance(node, (ast.With, ast.AsyncWith)):
        return node.items[-1].context_expr.end_lineno
    return node.end_lineno


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(path: Path) -> list[tuple[int, int]]:
    """(first, last) line of each statement of a module, headers only."""
    found = []

    def visit(body):
        for k, node in enumerate(body):
            if isinstance(node, ast.ExceptHandler):
                visit(node.body)
                continue
            if not (isinstance(node, _SKIPPED) or (k == 0 and _is_docstring(node))
                    or isinstance(node, ast.Try)):
                found.append((node.lineno, _header_end(node)))
            for name in _BODIES:
                visit(getattr(node, name, ()))

    visit(ast.parse(path.read_text(encoding="utf-8")).body)
    return found


def main(argv: list[str]) -> int:
    import pytest

    parser = argparse.ArgumentParser(allow_abbrev=False, add_help=False)
    parser.add_argument("--max", type=int, default=None)
    options, argv = parser.parse_known_args(argv)

    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        stolen = sys.gettrace() is not tracer
        sys.settrace(None)
        threading.settrace(None)
    if stolen:
        print("warning: a test replaced the tracer; the list below is too long")
    count = 0
    for name, path in files.items():
        lines = path.read_text(encoding="utf-8").splitlines()
        hit = ran[name]
        for first, last in statements(path):
            if not any(line in hit for line in range(first, last + 1)):
                count += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{count} statements never executed (pytest exit status {int(status)})")
    if status == 0 and options.max is not None and count > options.max:
        print(f"error: more than {options.max} statements never executed")
        return 1
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
