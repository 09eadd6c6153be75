"""Tests of tools/floor_fit.py, the per-step floor and slope of a source
tree."""

import os
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tree_without_trsw_refused(tmp_path):
    # with this checkout's trsw importable from PYTHONPATH, a tree that
    # holds none must not be timed in its stead
    missing = str(tmp_path / "missing")
    env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(_ROOT, "tools", "floor_fit.py"),
         missing, "--cells", "50,100", "--steps", "3", "--repeats", "1"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.strip() == (f"error: no trsw package in {missing} "
                                   f"or {missing}/src")
