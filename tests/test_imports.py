"""Import hygiene: every name a module of the package imports is used in it.

A name imported only to be offered again to other modules (a re-export) is
reported too: callers import each name from the module that defines it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hillstab"


def unused_imports(tree: ast.Module) -> list[str]:
    """The names bound by the import statements of tree that no other part
    of it reads, ``from __future__`` imports excepted."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import math\nimport numpy as np\n"
                     "from .coeff import integral, mean\n"
                     "x = np.pi + mean(1)\n")
    assert unused_imports(tree) == ["math (line 2)", "integral (line 4)"]
