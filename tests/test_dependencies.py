import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def _imported_packages() -> dict[str, str]:
    """Top-level package of every absolute import in the package source, with
    the first file importing it; imports inside functions are included."""
    found: dict[str, str] = {}
    for path in sorted((ROOT / "src" / "d4kit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.partition(".")[0], path.name)
    return found


def test_every_third_party_import_is_a_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in project["dependencies"]}
    imported = _imported_packages()
    assert "numpy" in imported
    third_party = {
        name: file
        for name, file in imported.items()
        if name not in sys.stdlib_module_names and name != "d4kit"
    }
    undeclared = {name: file for name, file in third_party.items() if name.lower() not in declared}
    assert not undeclared, f"imported but not in [project] dependencies: {undeclared}"
