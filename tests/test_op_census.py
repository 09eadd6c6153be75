"""Tests of tools/op_census.py, the count of a run's numpy calls."""

import importlib.util
import os
import sys

import numpy as np

import trsw

_TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools")
sys.path.insert(0, _TOOLS)
_spec = importlib.util.spec_from_file_location(
    "op_census", os.path.join(_TOOLS, "op_census.py"))
op_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(op_census)


def test_ex2_census(capsys):
    tally, steps = op_census.census(trsw, "ex2", 16)
    stages = 3 * steps
    assert steps > 10
    # the proxy is gone once the run returns
    assert all(getattr(trsw, name).np is np for name in op_census._MODULES)
    # the stage states, the tendency and the finite mask are rows end to
    # end: the combine and the step's finite check take no strided operand
    assert tally.calls["stepper.ssp_rk3_combine"] == stages
    assert tally.strided["stepper.ssp_rk3_combine"] == 0
    assert tally.strided["stepper._rk3_step"] == 0
    # the drain's rows are flat, but for the copies in of the flux rows
    # and the densities, which the state and flux layouts fix
    assert tally.strided["stepper.draining_limit"] == 2 * stages
    assert 0 < sum(tally.strided.values()) < sum(tally.calls.values())

    assert op_census.main(["ex2", "--cells", "16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"ex2 at N = 16: {steps} steps, {stages} "
                               "stages;")
    assert "in-place operators not counted" in lines[0]
    assert lines[-1] == (f"run: {sum(tally.calls.values())} calls, "
                         f"{sum(tally.strided.values())} strided")
    total = lines[-2].split()
    assert total[0] == "total"
    assert float(total[1]) == round(sum(tally.calls.values()) / stages, 1)


def test_timed_census_per_call_site(capsys):
    tally, steps = op_census.census(trsw, "ex2", 16, timed=True,
                                    t_final=0.05)
    stages = 3 * steps
    calls = sum(tally.calls.values())
    # every counted call is timed, under its kernel, line and function
    assert sum(tally.site_calls.values()) == calls
    for kernel, n in tally.calls.items():
        assert sum(c for (k, _, _), c in tally.site_calls.items()
                   if k == kernel) == n
    assert all(ns > 0 for ns in tally.site_ns.values())
    # values are the size of the result: the switch's power writes all
    # n + 1 interfaces, masked or not, and copyto its destination
    power = [site for site in tally.site_calls
             if site[0] == "flux.diffusion_switch" and site[2] == "power"]
    assert len(power) == 1
    assert tally.site_calls[power[0]] == stages
    assert tally.site_values[power[0]] == 17 * stages
    copies = [site for site in tally.site_calls
              if site[0] == "stepper.draining_limit" and site[2] == "copyto"]
    assert copies and all(tally.site_values[site] > 0 for site in copies)
    # an untimed census times nothing
    untimed, _ = op_census.census(trsw, "ex2", 16, t_final=0.05)
    assert untimed.calls == tally.calls and not untimed.site_calls

    assert op_census.main(["ex2", "--cells", "16", "--t-final", "0.05",
                           "--time"]) == 0
    lines = capsys.readouterr().out.splitlines()
    head = lines.index(next(line for line in lines
                            if line.startswith("call site")))
    rows = lines[head + 1:-2]
    assert len(rows) == len(tally.site_calls)
    # slowest site first, then the total of the run's calls
    ms = [float(row.split()[-2]) for row in rows]
    assert ms == sorted(ms, reverse=True)
    total = lines[-2].split()
    assert total[0] == "total"
    assert float(total[1]) == round(calls / stages, 1)
    assert lines[-1] == f"run: {calls} calls, " \
        f"{sum(tally.strided.values())} strided"
