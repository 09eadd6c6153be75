"""Per-step wall time of a trsw tree as floor + slope * W, W the cells a
step stages, and the cost of stacking fields in one ``interface_values``
call and components in one ``numerical_flux`` group.

    python tools/floor_fit.py [SRC] [--cells 50,100,...,25600] [--steps 30]
        [--repeats 3] [--json OUT]

SRC is a checkout or its ``src`` directory (default: the checkout this
file sits in); its ``trsw`` package is the only one imported. For ex2
and ex3b at each N the tool runs ``run_simulation`` without records for
``--steps`` steps and takes the wall time from the first accepted step
to the last, divided by the steps between them, so building the scenario
and the first step stay outside; the best of ``--repeats`` runs counts.
A step stages only the window of cells between the still water at the
ends of the grid (``StepReport.window``; the whole grid on trees from
before it), so W is the mean width of the windows of those steps, and
the tool prints the share W/N of each point. It then fits t = floor +
slope * W by least squares on the relative residuals (each point
weighted by 1/t, so the small grids that set the floor count as much as
the large ones) and prints each point with its residual.

It also times ``interface_values`` on k = 1 to 5 copies of a random
padded field of N cells laid end to end, with preallocated outputs and
work, after checking each copy's values against a call on the field
alone. It prints the time per field relative to one field per call:
below 1, stacking k fields gains. The largest k(N+4) that still gains
is the crossover behind ``workspace._STACK_CELLS``.

Last it times ``numerical_flux`` on the interface states of ex2's initial
state at N cells, with k = 1, 2 and 4 components per group (forced
through ``workspace._STACK_CELLS``), after checking that each k gives
the fluxes and speeds of k = 1 bit for bit. It prints the time per call
at k = 1 and the ratio of each k to it: below 1, the groups of k gain,
and the largest k(N+1) that still gains is the flux's side of the same
crossover. ``--json`` writes everything to a file.

The candidates of one N, the k of either sweep, are timed in batches of
about 20 ms, ``--repeats`` rounds that take each candidate in turn, and
the control kernel of ``tools/ab_time.py`` is timed before the first
batch and after each. Each batch is host-adjusted as ab_time adjusts a
call, its time over the mean of the two control times around it, and a
candidate's time is the median of its adjusted batches, in seconds of
the control's reference host: a host that slows down between two
candidates stretches their controls alike.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import platform
import statistics
import sys
import time
import timeit

import numpy as np

from ab_time import CONTROL, host_adjusted
from trees import import_trsw

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SCENARIOS = ("ex2", "ex3b")
_CELLS = tuple(50 * 2 ** j for j in range(10))  # 50 .. 25600


class _Done(Exception):
    pass


def step_time(trsw, scenario: str, cells: int, steps: int) -> tuple:
    """Seconds per step over steps 2..``steps`` of one run, and the mean
    number of cells those steps staged, their windows' widths."""
    stamps, widths = [], []

    def on_step(state, report):
        stamps.append(time.perf_counter())
        i0, i1 = getattr(report, "window", (0, cells))
        widths.append(i1 - i0)
        if len(stamps) == steps:
            raise _Done

    sc = trsw.make_scenario(scenario, cells=cells, t_final=1e9,
                            snapshots=())
    try:
        result = trsw.run_simulation(sc, on_step=on_step,
                                     collect_records=False)
    except _Done:
        return ((stamps[-1] - stamps[0]) / (steps - 1),
                statistics.mean(widths[1:]))
    raise SystemExit(f"error: {scenario} at N = {cells} stopped after "
                     f"{result.steps} steps: {result.failure_message}")


def fit(cells, seconds) -> dict:
    """floor + slope * cells, least squares on relative residuals."""
    n, t = np.asarray(cells, float), np.asarray(seconds, float)
    a = np.column_stack([np.ones_like(n), n]) / t[:, None]
    (floor, slope), *_ = np.linalg.lstsq(a, np.ones_like(t), rcond=None)
    model = floor + slope * n
    return {"floor_s": floor, "slope_s_per_cell": slope,
            "relative_residuals": ((t - model) / model).tolist()}


def adjusted_times(calls, repeats: int) -> list:
    """Host-adjusted seconds per call of each function of ``calls``, in
    batches of about 20 ms between calls of the control kernel, over
    ``repeats`` rounds that take the functions in turn; the median of
    each function's batches counts."""
    timers = [timeit.Timer(fn) for fn in calls]
    numbers = [max(1, int(0.02 / max(t.timeit(1), 1e-7))) for t in timers]
    control = timeit.Timer(CONTROL)
    raw, controls = [], [control.timeit(1)]
    for _ in range(repeats):
        for timer, number in zip(timers, numbers):
            raw.append(timer.timeit(number) / number)
            controls.append(control.timeit(1))
    adjusted = host_adjusted(raw, controls, CONTROL.nominal_s)
    return [statistics.median(adjusted[i::len(calls)])
            for i in range(len(calls))]


def stacked_times(trsw, cells: int, repeats: int):
    """Host-adjusted seconds per interface_values call on k = 1..5
    padded fields of ``cells`` cells laid end to end, with preallocated
    outputs and work; exits if a field's values differ from those of a
    call on it alone."""
    iv = trsw.reconstruction.interface_values
    pad = cells + 4
    field = np.random.default_rng(cells).normal(size=pad)

    def buffers(k):
        return ((np.empty(k * pad - 3), np.empty(k * pad - 2)),
                (np.empty(k * pad - 1), np.empty(k * pad - 2),
                 np.empty(k * pad - 2)))

    row_minus, row_plus = iv(field, 1.3, 0.01, *buffers(1))
    calls = []
    for k in range(1, 6):
        flat = np.tile(field, k)
        res, work = buffers(k)
        minus, plus = iv(flat, 1.3, 0.01, res, work)
        for j in range(k):
            got = slice(j * pad, j * pad + cells + 1)
            if not (np.array_equal(minus[got], row_minus)
                    and np.array_equal(plus[got], row_plus)):
                raise SystemExit(f"error: field {j} of {k} at N = {cells} "
                                 "differs from a call on it alone")
        calls.append(functools.partial(iv, flat, 1.3, 0.01, res, work))
    return adjusted_times(calls, repeats)


def _assemble_fluxes(trsw, u, scenario, ws) -> None:
    """The tree's ``stepper.assemble_fluxes`` on the state ``u``, given
    the scenario whole or, as trees from before the stage kernels took
    it take them, its bottom, rotation, grid and numerics."""
    fn = trsw.stepper.assemble_fluxes
    pieces = {"scenario": scenario, "topo": scenario.topography,
              "coriolis": scenario.coriolis, "grid": scenario.grid,
              "numerics": scenario.numerics}
    names = list(inspect.signature(fn).parameters)[1:-1]
    fn(u, *(pieces[name] for name in names), ws)


def flux_times(trsw, cells: int, repeats: int):
    """Host-adjusted seconds per numerical_flux call with k = 1, 2 and 4
    components per group, on the interface states of ex2's initial state
    at ``cells`` cells; exits if a k gives other fluxes or speeds than
    k = 1."""
    workspace = trsw.workspace
    sc = trsw.make_scenario("ex2", cells=cells)
    u = sc.initial_state().array
    saved, want, calls = workspace._STACK_CELLS, None, []
    try:
        for k in (1, 2, 4):
            workspace._STACK_CELLS = k * (cells + 1)
            ws = workspace.Workspace(cells)
            _assemble_fluxes(trsw, u, sc, ws)
            bits = [x.tobytes() for x in (ws.flux, *ws.speeds)]
            if want is None:
                want = bits
            elif bits != want:
                raise SystemExit(f"error: numerical_flux at k = {k}, "
                                 f"N = {cells} differs from k = 1")
            calls.append(functools.partial(trsw.flux.numerical_flux,
                                           ws.switch, ws))
    finally:
        workspace._STACK_CELLS = saved
    return adjusted_times(calls, repeats)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", nargs="?", default=_ROOT,
                        help="checkout or src directory (default: this one)")
    parser.add_argument("--cells", default=",".join(map(str, _CELLS)))
    parser.add_argument("--steps", type=int, default=30)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", help="write the results to this file")
    args = parser.parse_args(argv)
    if args.steps < 2 or args.repeats < 1:
        parser.error("--steps must be at least 2 and --repeats at least 1")
    cells = [int(c) for c in args.cells.split(",")]
    trsw = import_trsw(args.src)
    doc = {"src": os.path.abspath(args.src), "cells": cells,
           "steps": args.steps, "repeats": args.repeats,
           "machine": {"cpu": platform.processor() or platform.machine(),
                       "python": platform.python_version(),
                       "numpy": np.__version__},
           "step_s": {}, "stepped_cells": {}, "fit": {},
           "interface_values_s": {}, "numerical_flux_s": {}}

    for scenario in _SCENARIOS:
        # a run is deterministic: its repeats stage the same windows
        times, widths = zip(*(min(step_time(trsw, scenario, n, args.steps)
                                  for _ in range(args.repeats))
                              for n in cells))
        doc["step_s"][scenario] = list(times)
        doc["stepped_cells"][scenario] = list(widths)
        doc["fit"][scenario] = f = fit(widths, times)
        print(f"{scenario}: floor {f['floor_s'] * 1e3:.3f} ms + "
              f"{f['slope_s_per_cell'] * 1e6:.4f} us * W (cells stepped)")
        for n, w, t, r in zip(cells, widths, times,
                              f["relative_residuals"]):
            print(f"  N = {n:6d}  {t * 1e3:9.3f} ms/step  stepped "
                  f"{w / n:.3f}  residual {r:+.3f}")

    print("interface_values, time per field of k stacked fields over one "
          "field per call:")
    for n in cells:
        per_call = stacked_times(trsw, n, args.repeats)
        doc["interface_values_s"][str(n)] = per_call
        ratios = "  ".join(f"k={k}: {t / (k * per_call[0]):.2f}"
                           for k, t in enumerate(per_call, 1))
        print(f"  N = {n:6d}  k=1: {per_call[0] * 1e6:8.1f} us  {ratios}")

    print("numerical_flux, time per call with k components per group "
          "over k = 1:")
    for n in cells:
        per_call = flux_times(trsw, n, args.repeats)
        doc["numerical_flux_s"][str(n)] = per_call
        ratios = "  ".join(f"k={k}: {t / per_call[0]:.2f}"
                           for k, t in zip((2, 4), per_call[1:]))
        print(f"  N = {n:6d}  k=1: {per_call[0] * 1e6:8.1f} us  {ratios}")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
