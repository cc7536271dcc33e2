"""Properties of the library source itself."""

import ast
from pathlib import Path

import hypermatch

PACKAGE = Path(hypermatch.__file__).resolve().parent


def test_no_assert_statements():
    # `python -O` strips asserts, so an invariant must raise on its own
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
