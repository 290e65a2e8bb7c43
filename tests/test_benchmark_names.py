"""The popgrid names that the benchmark uses, resolved without running it.

``perfbench`` imports popgrid inside its functions, so a name removed from
popgrid fails there only when a benchmark pass reaches that line. This test
reads each ``perfbench/*.py`` with ``ast`` instead, and resolves against the
popgrid under test every name imported from popgrid and every attribute
chain on an imported popgrid name, such as ``io.BinaryRaster.from_raster``.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
from pathlib import Path
from types import ModuleType
from typing import Iterator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def own_nodes(scope: ast.AST) -> list[ast.AST]:
    """The nodes of ``scope``, nested scopes themselves included but not
    their bodies."""
    nodes, todo = [], list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        nodes.append(node)
        if not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return nodes


def popgrid_uses(scope: ast.AST, bound: dict[str, str]) -> Iterator[str]:
    """The dotted popgrid paths that ``scope`` and its nested scopes use.
    ``bound`` maps a local name to the popgrid path an enclosing scope
    imported under it."""
    nodes = own_nodes(scope)
    bound = dict(bound)
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "popgrid":
                    yield alias.name
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").split(".")[0] == "popgrid":
            for alias in node.names:
                yield f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    inner = {id(node.value) for node in nodes if isinstance(node, ast.Attribute)}
    for node in nodes:
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in bound:
                yield ".".join([bound[node.id], *reversed(chain)])
        elif isinstance(node, SCOPES):
            yield from popgrid_uses(node, bound)


def resolve(dotted: str) -> object:
    """The object at ``dotted``, importing a submodule that its package has
    not imported yet; raises ImportError or AttributeError."""
    first, *rest = dotted.split(".")
    obj = importlib.import_module(first)
    for name in rest:
        if isinstance(obj, ModuleType) and not hasattr(obj, name):
            with contextlib.suppress(ModuleNotFoundError):
                importlib.import_module(f"{obj.__name__}.{name}")
        obj = getattr(obj, name)
    return obj


def test_every_popgrid_name_the_benchmark_uses_resolves():
    used: dict[str, str] = {}
    for path in sorted(PERFBENCH.glob("*.py")):
        for dotted in popgrid_uses(ast.parse(path.read_text(encoding="utf-8"), str(path)), {}):
            used.setdefault(dotted, path.name)
    assert "popgrid.cli.main" in used  # imported inside a function
    unresolved = []
    for dotted, where in sorted(used.items()):
        try:
            resolve(dotted)
        except (ImportError, AttributeError) as e:
            unresolved.append(f"{where}: {dotted} ({e})")
    assert unresolved == []
