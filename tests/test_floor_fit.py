"""Tests of tools/floor_fit.py, the per-step floor and slope of a source
tree."""

import importlib.util
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import trsw

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


def test_flux_times_on_a_tree_whose_kernels_take_the_pieces(monkeypatch):
    # trees from before the stage kernels took the Scenario have
    # assemble_fluxes(u, topo, coriolis, grid, numerics, ws); the tool
    # calls the signature the tree has
    tools = os.path.join(_ROOT, "tools")
    monkeypatch.syspath_prepend(tools)
    spec = importlib.util.spec_from_file_location(
        "floor_fit", os.path.join(tools, "floor_fit.py"))
    floor_fit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(floor_fit)
    assemble = trsw.stepper.assemble_fluxes
    calls = []

    def by_pieces(u, topo, coriolis, grid, numerics, ws):
        calls.append(grid.n)
        assemble(u, SimpleNamespace(topography=topo, coriolis=coriolis,
                                    grid=grid, numerics=numerics), ws)

    monkeypatch.setattr(trsw.stepper, "assemble_fluxes", by_pieces)
    times = floor_fit.flux_times(trsw, 50, 1)
    assert calls == [50, 50, 50]
    assert len(times) == 3 and min(times) > 0.0
