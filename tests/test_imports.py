"""Source hygiene: every name a module imports is used or re-exported."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "memwave"


def unused_imports(source: str) -> list[str]:
    """Imported names never loaded in ``source`` and not listed in a literal
    ``__all__``; a module whose ``__all__`` is computed re-exports them all."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            if not isinstance(node.value, (ast.List, ast.Tuple)):
                return []
            exported |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used and name not in exported]


def test_guard_sees_an_unused_import():
    assert unused_imports("import json\nfrom math import pi, tau\n__all__ = ['tau']\n") == [
        "json (line 1)", "pi (line 2)"]
    assert unused_imports("import numpy as np\nfrom .x import y\n__all__ = [n for n in dir()]\n") == []
    assert unused_imports("import a.b\nfrom c import d as e\na.b.f(e)\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
