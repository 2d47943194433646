"""Demos run end to end as scripts."""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_biorthogonal_demo_runs(tmp_path):
    # from a fresh working directory, where it writes its demo_output/
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / "05_biorthogonal_family.py")], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    deviation = re.search(r"shipped family Gram deviation (\S+)", out.stdout)
    assert deviation and float(deviation.group(1)) <= 1e-3, out.stdout
    assert (tmp_path / "demo_output" / "biorthogonal_manifest.json").is_file()
