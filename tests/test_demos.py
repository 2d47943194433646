"""Demos run end to end as scripts."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

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


# every other demo, with one line of its output that shows it got through
_DEMO_LINES = {
    "01_eigenvalue_tables.py": r"gap certified from n = \d+",
    "02_memory_cubic.py": r"\|mu1_n\| increasing: True",
    "03_moving_spectrum_gaps.py": r"\[pass\] branch1_separation",
    "06_minimum_norm_control.py": r"scaled by its own diagonal: condition \d\.\d\de\+\d\d",
    "07_null_control_simulation.py": r"verdict at 1e-6: PASS",
    "08_moving_vs_frozen_support.py": r"moving: zeta\(T\)",
    "09_horizon_and_velocity_sweeps.py": r"cond\(DGD\)",
}


def test_every_demo_is_run():
    assert set(_DEMO_LINES) | {"04_canonical_product.py", "05_biorthogonal_family.py"} == {
        p.name for p in (ROOT / "demos").glob("*.py")}


@pytest.mark.parametrize("name", sorted(_DEMO_LINES))
def test_demo_runs(tmp_path, name):
    out = _run_demo(name, tmp_path)
    assert re.search(_DEMO_LINES[name], out.stdout), out.stdout
