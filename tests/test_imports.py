"""Package layout: every oamsim module imports the others at module level."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "oamsim"


def _imports_oamsim(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "oamsim"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "oamsim" for alias in node.names)
    return False


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_oamsim_import_inside_a_function(path):
    """A function-level import hides a cycle between modules."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = sorted({node.lineno
                    for func in ast.walk(tree)
                    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for node in ast.walk(func) if _imports_oamsim(node)})
    assert not lines, f"{path.name} imports an oamsim module inside a function, lines {lines}"
