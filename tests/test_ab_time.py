"""Tests of tools/ab_time.py, the in-process A/B timing of two source
trees."""

import importlib.util
import os
import re
import shutil
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the tools import their shared helpers as siblings, as when run as scripts
sys.path.insert(0, os.path.join(_ROOT, "tools"))
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
    for side, line in zip("AB", lines[1:3]):
        assert re.fullmatch(rf"{side}: median \S+ s, IQR \S+ s; adjusted "
                            r"median \S+ s, IQR \S+ s  \(.+\)", line)
    assert re.match(r"B/A median ratio \S+ adjusted, \S+ raw, ", lines[-1])
    # two pairs cannot tell the sides apart
    assert ", not resolved; " in lines[-1]
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


def test_cli_same_tree_both_sides(capsys):
    assert ab_time.main([_ROOT, os.path.join(_ROOT, "src"),
                         "--scenario", "lake-at-rest", "--cells", "8",
                         "--t-final", "0.05", "--cli", "0.02,0.04",
                         "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # two snapshots and the diagnostics file
    assert lines[0] == "outputs identical: lake-at-rest at N = 8, " \
                       "3 files, exit 0"
    assert lines[-1].endswith(" of 2 pairs")
    assert not any(name.startswith(("trsw_a", "trsw_b"))
                   for name in sys.modules)


def test_cli_differing_file_bytes_refused(tmp_path, capsys):
    # the same solution, written with one more space in a snapshot header:
    # the library mode sees no difference, the CLI mode refuses to time
    other = tmp_path / "src"
    shutil.copytree(os.path.join(_ROOT, "src", "trsw"), other / "trsw",
                    ignore=shutil.ignore_patterns("__pycache__"))
    fileio = other / "trsw" / "fileio.py"
    text = fileio.read_text()
    assert 'f"# scenario: {scenario.name}"' in text
    fileio.write_text(text.replace('f"# scenario: {scenario.name}"',
                                   'f"# scenario:  {scenario.name}"'))
    args = [_ROOT, str(other), "--scenario", "lake-at-rest", "--cells", "8",
            "--t-final", "0.05", "--pairs", "1"]
    assert ab_time.main(args) == 0
    assert capsys.readouterr().out.startswith("outputs identical")
    assert ab_time.main(args + ["--cli", "0.02,0.04"]) == 1
    assert capsys.readouterr().out == \
        "outputs differ: lake-at-rest at N = 8\n"


def test_resolved_needs_nine_in_ten_pairs_beyond_the_spread():
    a = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    faster = [t - 0.1 for t in a]
    assert ab_time.score(a, faster) == (10, True)
    assert ab_time.score(faster, a) == (0, True)
    # 9 of 10 pairs still resolves, 8 of 10 does not
    assert ab_time.score(a, faster[:9] + [a[9] + 0.1]) == (9, True)
    assert ab_time.score(a, faster[:8] + [t + 0.1 for t in a[8:]]) == \
        (8, False)
    # B wins every pair, by less than A's interquartile range of 0.045
    assert ab_time.score(a, [t - 0.04 for t in a]) == (10, False)
    # fewer than ten pairs resolve nothing
    assert ab_time.score(a[:9], faster[:9]) == (9, False)


def test_host_adjustment_cancels_a_slowdown():
    # four calls of equal work; the host runs at half speed around the
    # second and third, which doubles their times and the controls
    # around them alike
    raw = [0.2, 0.4, 0.4, 0.2]
    controls = [0.01, 0.02, 0.02, 0.02, 0.01]
    # each call's pair of controls: (0.01, 0.02), (0.02, 0.02), ...
    adjusted = ab_time.host_adjusted(raw, controls, 0.01)
    assert adjusted == pytest.approx([0.2 / 1.5, 0.2, 0.2, 0.2 / 1.5])
    # a slower call between steady controls stays slower
    assert ab_time.host_adjusted([0.2, 0.3], [0.01] * 3, 0.01) == \
        pytest.approx([0.2, 0.3])


def test_verdict_follows_adjusted_times():
    # ten pairs, B doing 10% less work than A, on a host that switches
    # between full and half speed every third control: A's raw times
    # spread wider than the gap, its adjusted ones not at all
    order = [side for k in range(10) for side in ("ab", "ba")[k % 2]]
    slow = [1.0 + (k // 3) % 2 for k in range(len(order) + 1)]
    work = {"a": 0.10, "b": 0.09}
    raw = [work[side] * 0.5 * (x + y)
           for side, x, y in zip(order, slow, slow[1:])]
    adjusted = ab_time.host_adjusted(raw, [0.01 * x for x in slow], 0.01)

    def by_side(times):
        return [[t for side, t in zip(order, times) if side == s]
                for s in "ab"]

    assert not ab_time.score(*by_side(raw))[1]
    assert ab_time.score(*by_side(adjusted)) == (10, True)
