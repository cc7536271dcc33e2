"""Properties of the library source itself."""

import ast
import sys
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


def test_runtime_imports_only_the_standard_library():
    # the package declares no dependencies: every absolute import must be
    # a standard-library module
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "fractions" in imported  # the scan did read the package
    assert imported - sys.stdlib_module_names == set()
