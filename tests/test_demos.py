"""Demo import checks: every name a demo takes from tiltvae exists.

The demos are parsed, not run (05 trains two VAEs). A name imported with
``from tiltvae... import name`` must resolve, and so must every attribute a
demo reads off a module it imported with ``import tiltvae... as alias``.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _missing_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tiltvae":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if not hasattr(module, a.name)]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "tiltvae":
                    aliases[a.asname or a.name] = importlib.import_module(a.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and not hasattr(aliases[node.value.id], node.attr)):
            missing.append(f"{node.value.id}.{node.attr}")
    return missing


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    assert _missing_names(path) == []
