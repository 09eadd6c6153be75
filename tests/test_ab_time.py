"""Tests of tools/ab_time.py, the in-process A/B timing of two source
trees."""

import importlib.util
import os
import shutil
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "ab_time", os.path.join(_ROOT, "tools", "ab_time.py"))
ab_time = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_time)


def test_same_tree_both_sides(capsys):
    assert ab_time.main([_ROOT, os.path.join(_ROOT, "src"),
                         "--scenario", "lake-at-rest", "--cells", "8",
                         "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("outputs identical: lake-at-rest at N = 8")
    assert lines[-1].startswith("B/A median ratio ")
    assert lines[-1].endswith(" of 2 pairs")
    # the copies are gone again, so a later call imports afresh
    assert not any(name.startswith(("trsw_a", "trsw_b"))
                   for name in sys.modules)


def test_differing_outputs_refused(tmp_path, capsys):
    other = tmp_path / "src"
    shutil.copytree(os.path.join(_ROOT, "src", "trsw"), other / "trsw",
                    ignore=shutil.ignore_patterns("__pycache__"))
    model = other / "trsw" / "model.py"
    text = model.read_text()
    assert "    cfl: float = 0.5\n" in text
    model.write_text(text.replace("    cfl: float = 0.5\n",
                                  "    cfl: float = 0.4\n"))
    assert ab_time.main([_ROOT, str(other), "--scenario", "lake-at-rest",
                         "--cells", "8", "--t-final", "0.05",
                         "--pairs", "1"]) == 1
    assert capsys.readouterr().out.startswith("outputs differ")
