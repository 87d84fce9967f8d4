"""Import hygiene: every name a module of the package imports is used in it.

A name imported only to be offered again to other modules (a re-export) is
reported too: callers import each name from the module that defines it.
Likewise every private name a module defines at its top level is read
somewhere in the package, outside its own definition.
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


def private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """The top-level statements of tree that define a private name (one
    leading underscore, dunders excepted): functions, classes and
    assignments, by name."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        defined.update((name, node) for name in names
                       if name.startswith("_") and not name.endswith("__"))
    return defined


def read_names(node: ast.AST) -> set[str]:
    """The names node reads: loaded names, attributes and the names of
    from-imports."""
    read = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            read.update(alias.name for alias in n.names)
    return read


def unused_private_names(modules: dict[str, ast.Module]) -> list[str]:
    """The private names defined at the top level of the modules (by file
    name) that no top-level statement of any of them reads, the one that
    defines the name excepted."""
    reads = [(node, read_names(node)) for tree in modules.values()
             for node in tree.body]
    return [f"{name} ({path}, line {node.lineno})"
            for path, tree in modules.items()
            for name, node in private_definitions(tree).items()
            if not any(name in read for other, read in reads
                       if other is not node)]


def test_every_private_name_is_read():
    modules = {path.name: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(modules) == []


def test_unused_private_name_is_found():
    modules = {"a.py": ast.parse("import math\n"
                                 "_LIMIT, _SPARE = 3, 4\n"
                                 "_SCALE: float = 2.0\n"
                                 "def _walk(x):\n"
                                 "    return _walk(x - 1) if x else 0\n"
                                 "class _Box:\n"
                                 "    pass\n"
                                 "def run():\n"
                                 "    return _LIMIT + math.pi\n"),
               "b.py": ast.parse("from . import a\n"
                                 "from .a import run\n"
                                 "__all__ = ['run']\n"
                                 "x = a._SCALE + run()\n")}
    assert unused_private_names(modules) == [
        "_SPARE (a.py, line 2)", "_walk (a.py, line 4)",
        "_Box (a.py, line 6)"]
