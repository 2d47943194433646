"""Source hygiene: every name a module, demo or test imports is used or
re-exported, every name a module exports and every memwave name a demo
refers to exists, and the package neither imports nor loads scipy."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys
import types

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "memwave"
DEMOS = SRC.parents[1] / "demos"
TESTS = SRC.parents[1] / "tests"


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(DEMOS.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def stale_exports(module) -> list[str]:
    """Names in ``module.__all__`` that the module does not bind."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def _module_from(source: str):
    module = types.ModuleType("probe")
    exec(source, module.__dict__)
    return module


def test_guard_sees_a_stale_export():
    assert stale_exports(_module_from("from math import pi\ndef f(): pass\n__all__ = ['pi', 'f', 'gone']\n")) == [
        "gone"]
    assert stale_exports(_module_from("x = 1\n")) == []


@pytest.mark.parametrize("name", ["memwave", *(f"memwave.{p.stem}" for p in sorted(SRC.glob("*.py"))
                                               if not p.stem.startswith("__"))])
def test_every_export_resolves(name):
    assert stale_exports(importlib.import_module(name)) == []


def _resolve(dotted: str):
    """The object at a dotted memwave path (submodules are imported), or None."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        parent, _, name = dotted.rpartition(".")
        return getattr(_resolve(parent), name, None) if parent else None


def unresolved_memwave_names(source: str) -> list[str]:
    """Dotted paths of the memwave names ``source`` imports, and of the
    attributes it reads off an imported memwave module, that do not exist.
    The source is parsed, not executed."""
    tree = ast.parse(source)
    bound = {}  # local name -> dotted memwave path
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "memwave":
                    bound[alias.asname or "memwave"] = alias.name if alias.asname else "memwave"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "memwave":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    paths = set(bound.values())
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound and inspect.ismodule(_resolve(bound[node.id])):
            paths.add(".".join([bound[node.id], *chain]))
    return sorted(p for p in paths if _resolve(p) is None)


def test_guard_sees_an_unresolved_demo_name():
    assert unresolved_memwave_names(
        "from memwave import moving as mv\nfrom memwave.moving import gap_diagnostics, gone\n"
        "import memwave.nowhere as nw\nmv.gap_diagnostics(mv.build_moving_spectrum).pair_map\n"
        "mv.missing.attr\nreport.missing\n"
    ) == ["memwave.moving.gone", "memwave.moving.missing", "memwave.moving.missing.attr", "memwave.nowhere"]
    assert unresolved_memwave_names("import memwave.moving\nmemwave.moving.frame_bounds\n") == []


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_memwave_names_resolve(path):
    assert unresolved_memwave_names(path.read_text(encoding="utf-8")) == []


def scipy_imports(source: str) -> list[str]:
    """Every import of scipy in ``source``, at top level or inside a function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy" and not node.level:
            found.append(f"{node.module} (line {node.lineno})")
    return found


def test_guard_sees_a_scipy_import():
    assert scipy_imports("import scipy.linalg\ndef f():\n    from scipy.special import gamma\n") == [
        "scipy.linalg (line 1)", "scipy.special (line 3)"]
    assert scipy_imports("import numpy\nfrom .scipy import x\nfrom scipyx import y\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_does_not_import_scipy(path):
    # scipy is a test-only oracle; loading it costs every run about 0.35 s
    assert scipy_imports(path.read_text(encoding="utf-8")) == []


def test_pipelines_load_no_scipy_module(tmp_path):
    # nor numpy.ma, which np.median and np.unique import on their first call
    script = (
        "import sys\n"
        "import memwave\n"
        "from memwave import runner\n"
        "before = set(sys.modules)\n"
        "loaded = [sorted(m for m in sys.modules if m.startswith('scipy'))]\n"
        "for pipeline, key, value in (('simulate', 'N', 4), ('biorthogonal', 'family_N', 2)):\n"
        "    config = runner.load_config(overrides={key: value})\n"
        "    _, passed = runner.run_pipeline(config, pipeline, outdir=sys.argv[1] + '/' + pipeline)\n"
        "    assert passed, pipeline\n"
        "    loaded.append(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "print(loaded, sorted(m for m in set(sys.modules) - before if m.startswith('numpy.ma')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    assert out.stdout.strip() == "[[], [], []] []"
