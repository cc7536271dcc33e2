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


def test_only_the_input_modules_name_the_validating_builders():
    # `build_graph` and `build_hypergraph` are for outside input and raise
    # ValueError, a usage error; an instance the library derives goes
    # through `core.freeze_graph` or `core.freeze_hypergraph`, whose
    # RuntimeError marks a library bug.  The package re-exports the
    # builders without calling them.
    allowed = {"__init__.py", "core.py", "generate.py", "io.py"}
    builders = {"build_graph", "build_hypergraph"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:  # a name, or an attribute such as core.build_graph
                names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if names & builders:
                found.append(f"{path.name}:{node.lineno}")
    assert any(name.startswith("io.py:") for name in found)  # the scan did find the builders
    assert [name for name in found if name.split(":")[0] not in allowed] == []
