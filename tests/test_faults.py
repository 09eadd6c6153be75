"""Tests of tools/faults.py, the page faults and times per run of a source
tree."""

import json
import os
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_smoke_run():
    # one header, one row per call, then the JSON summary
    done = subprocess.run(
        [sys.executable, os.path.join(_ROOT, "tools", "faults.py"), ".",
         "--scenario", "ex2", "--cells", "50", "--t-final", "0.01",
         "--calls", "3"],
        cwd=_ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, *rows, summary = done.stdout.splitlines()
    assert header.split() == ["call", "faults", "sys_ms", "user_ms",
                              "wall_s", "steps"]
    assert [row.split()[0] for row in rows] == ["1", "2", "3"]
    doc = json.loads(summary)
    assert os.path.samefile(doc["src"], _ROOT)
    assert (doc["scenario"], doc["cells"], doc["calls"]) == ("ex2", 50, 3)
    assert len(doc["per_call"]) == 3 and doc["steps"] > 0
    assert doc["steps"] == int(rows[-1].split()[-1])
    assert sorted(doc["after_second"]) == [
        "max_faults", "median_faults", "median_sys_ms", "median_wall_s"]


def test_tree_without_trsw_refused(tmp_path):
    # with this checkout's trsw importable from PYTHONPATH, a tree that
    # holds none must not be measured in its stead
    missing = str(tmp_path / "missing")
    env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(_ROOT, "tools", "faults.py"),
         missing, "--scenario", "ex2", "--cells", "50", "--calls", "3"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.strip() == (f"error: no trsw package in {missing} "
                                   f"or {missing}/src")
