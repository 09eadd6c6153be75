"""Tests of tools/floor_fit.py, the per-step floor and slope of a source
tree."""

import json
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


def test_smoke_run(tmp_path):
    # every section runs and the JSON holds a host-adjusted time for each
    # candidate: 5 field counts and 3 flux group sizes per N
    out = tmp_path / "fit.json"
    done = subprocess.run(
        [sys.executable, os.path.join(_ROOT, "tools", "floor_fit.py"),
         _ROOT, "--cells", "50,100", "--steps", "3", "--repeats", "1",
         "--json", str(out)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("N =     50") == 4
    doc = json.loads(out.read_text())
    assert doc["cells"] == [50, 100]
    assert sorted(doc["step_s"]) == ["ex2", "ex3b"]
    for key, count in (("interface_values_s", 5), ("numerical_flux_s", 3)):
        assert sorted(doc[key]) == ["100", "50"]
        for times in doc[key].values():
            assert len(times) == count and min(times) > 0.0
