"""The package imports nothing beyond the standard library and the
dependencies pyproject.toml declares, so it runs where only those exist."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = {"numpy", "scipy", "mpmath"}
# optional extras, imported only inside the function that needs them
OPTIONAL = {"sklearn"}   # scikit-learn, the `digits` extra


def imports(tree):
    """(top-level package, whether imported outside any function) of every absolute import."""
    in_function = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            yield name.split(".")[0], id(node) not in in_function


def test_declared_dependencies_match_pyproject():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert {re.split(r"[<>=!~ \[;]", dep)[0] for dep in project["dependencies"]} == DECLARED


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "nsm").glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_declared(path):
    stdlib = set(sys.stdlib_module_names)
    for name, module_level in imports(ast.parse(path.read_text(), str(path))):
        allowed = stdlib | DECLARED | (set() if module_level else OPTIONAL)
        assert name in allowed, f"{path.name} imports {name!r}"
