"""Demos run end to end as scripts."""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_demo(name, cwd):
    # from a fresh working directory, where the demo writes its demo_output/
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=cwd,
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out


def test_canonical_product_demo_runs(tmp_path):
    out = _run_demo("04_canonical_product.py", tmp_path)
    assert re.search(r"exponential type: empirical \S+ vs quoted \S+", out.stdout), out.stdout


def test_biorthogonal_demo_runs(tmp_path):
    out = _run_demo("05_biorthogonal_family.py", tmp_path)
    deviation = re.search(r"shipped family Gram deviation (\S+)", out.stdout)
    assert deviation and float(deviation.group(1)) <= 1e-3, out.stdout
    assert (tmp_path / "demo_output" / "biorthogonal_manifest.json").is_file()
