"""The stepped window: a run whose stages step only the cells between the
still-water runs at the ends of its grid ends in the bits of a run that
steps every cell, with the same snapshots, records and step reports.

Each comparison runs a scenario twice: as it is, and with
``stepper.pick_window`` patched to return the whole grid. All but one
run with ``_WIDTH_STEP`` = 1, so that windows are no wider than the halo
makes them and each edge sits exactly ``HALO`` cells inside its run.
"""

import dataclasses

import numpy as np
import pytest

from trsw import stepper
from trsw.model import CoriolisSpec, Scenario, Topography, build_grid
from trsw.scenarios import SCENARIO_IDS, make_scenario
from trsw.stepper import HALO, level_runs, pick_window, run_simulation


def _run(scenario):
    """The run's outputs as bytes and text, its reports without their
    windows, and the windows."""
    reports = []
    res = run_simulation(scenario, on_step=lambda state, report:
                         reports.append(report))
    fields = []
    for report in reports:
        for x in dataclasses.astuple(dataclasses.replace(report,
                                                         window=None)):
            for y in x if isinstance(x, tuple) else (x,):
                fields.append(y.hex() if isinstance(y, float) else y)
    rows = np.array([r.row() for r in res.records], float)
    outputs = (res.failed, res.failure_message, res.steps, res.t.hex(),
               res.state.array.tobytes(),
               [(t, s.array.tobytes()) for t, s in res.snapshots],
               rows.tobytes(), fields)
    return outputs, [r.window for r in reports]


def _assert_window_exact(monkeypatch, scenario, width_step=1):
    """Run ``scenario`` windowed and whole; assert equal outputs and
    return them with the windows of the windowed run."""
    monkeypatch.setattr(stepper, "_WIDTH_STEP", width_step)
    with np.errstate(all="ignore"):
        windowed, windows = _run(scenario)
        with monkeypatch.context() as whole:
            whole.setattr(stepper, "pick_window",
                          lambda u, bounds, level, flags: (0, u.shape[1]))
            stepped, full = _run(scenario)
    n = scenario.grid.n
    assert set(full) == {(0, n)}
    assert windowed == stepped
    return windowed, windows


def _narrower(windows, n):
    return [w for w in windows if w[1] - w[0] < n]


@pytest.mark.parametrize("name", [s for s in SCENARIO_IDS if s != "ex5"])
def test_every_scenario(monkeypatch, name):
    t_final = 20.0 if name.startswith("ex3") else None
    scenario = make_scenario(name, cells=400, t_final=t_final)
    _, windows = _assert_window_exact(monkeypatch, scenario)
    assert _narrower(windows, 400)


def test_ex5_fails_alike(monkeypatch):
    # the unbounded rotation ends the run non-finite at the same step on
    # both paths
    scenario = make_scenario("ex5", cells=400, t_final=70.0)
    outputs, windows = _assert_window_exact(monkeypatch, scenario)
    assert outputs[:2] == (True, "non-finite solution at t=61.8945")
    assert _narrower(windows, 400)


def _embedded(seed, still):
    """The seeded piecewise-constant moving state of tests/test_mirror.py
    between ``still`` cells of water at rest on each side, with the depth
    and buoyancy of the piece beside them."""
    from test_mirror import _from_fields, _piecewise

    rng = np.random.default_rng(seed)
    n = int(rng.integers(16, 65))
    pieces = int(rng.integers(1, 5))
    h = _piecewise(rng, n, 0.1, 2.0, pieces)
    if seed % 3 == 0 and pieces > 1:
        h[h == h.min()] = 0.0
    u = _piecewise(rng, n, -2.0, 2.0, pieces)
    v = _piecewise(rng, n, -1.0, 1.0, pieces)
    b = _piecewise(rng, n, 0.2, 3.0, pieces)
    rest = np.zeros(still)
    h, b = (np.concatenate((np.full(still, x[0]), x, np.full(still, x[-1])))
            for x in (h, b))
    u, v = (np.concatenate((rest, x, rest)) for x in (u, v))
    m = n + 2 * still
    grid = build_grid(-1.0, 1.0, m)
    scenario = Scenario(name=f"window-{seed}", grid=grid,
                        coriolis=CoriolisSpec(0.0),
                        topography=Topography(np.zeros(m + 1)),
                        height=np.ones_like, b0=np.ones_like, t_final=0.05)
    return _from_fields(scenario, h, u, v, b, np.zeros(m + 1))


@pytest.mark.parametrize("seed", range(6))
def test_seeded_piecewise_state(monkeypatch, seed):
    # the moving pieces, a dry one for a third of the seeds, between
    # still water; runs that end flagged end so on both paths
    _, windows = _assert_window_exact(monkeypatch, _embedded(seed, 40))
    assert windows[0][0] == 40 - HALO


def test_equator_inside_a_still_run(monkeypatch):
    # a beta-plane at rest but for a jet at y = 25, with q = -0.0 beside
    # it: the still water reaches across the equator, where f changes
    # sign and with it the sign of f*p, and so of q after a step. The
    # left run, which must keep one sign of f, ends there
    grid = build_grid(-50.0, 50.0, 400)
    scenario = Scenario(
        name="equator", grid=grid, coriolis=CoriolisSpec(0.0, 0.1),
        topography=Topography(np.zeros(401)),
        height=lambda y: 1.0 + 0.1 * np.exp(-(y - 25.0) ** 2),
        u0=lambda y: np.where(np.abs(y - 25.0) < 2.0, 0.05, -0.0),
        b0=np.ones_like, t_final=5.0)
    _, windows = _assert_window_exact(monkeypatch, scenario)
    # cell 199 has f < 0 at its centre and f = +0.0 at its right interface
    assert level_runs(scenario) == (199, 200)
    assert windows[0][0] == 199 - HALO


@pytest.mark.parametrize("b_dry", [1.0, -1.0], ids=["hb+0", "hb-0"])
def test_dry_still_run(monkeypatch, b_dry):
    # a dam break onto a dry bed: still water at the left end, a dry bed
    # at the right; a negative buoyancy there makes hb = -0.0 and, with
    # q = -0.0 under f > 0, R's sum over the dry run -0.0
    grid = build_grid(-1.0, 1.0, 256)
    scenario = Scenario(
        name="dry-end", grid=grid, coriolis=CoriolisSpec(1.0),
        topography=Topography(np.zeros(257)),
        height=lambda y: np.where(y < 0.0, 1.0, 0.0),
        u0=lambda y: np.where(y < 0.0, 0.0, -1.0),
        b0=lambda y: np.where(y < 0.0, 1.0, b_dry), t_final=0.1)
    _, windows = _assert_window_exact(monkeypatch, scenario)
    assert windows[0] == (128 - HALO, 128 + HALO)


def test_uniform_water_over_a_bump(monkeypatch):
    # equal depths over a bump near the right end are no still run: the
    # bump drives a flow, so the window reaches past it
    grid = build_grid(-1.0, 1.0, 256)
    scenario = Scenario(
        name="bump-end", grid=grid, coriolis=CoriolisSpec(0.0),
        topography=Topography(np.where(abs(grid.interfaces - 0.7) < 0.1,
                                       0.05, 0.0)),
        height=lambda y: 1.0 + 0.1 * np.exp(-400.0 * y ** 2),
        b0=np.ones_like, t_final=0.05)
    _, windows = _assert_window_exact(monkeypatch, scenario)
    right = level_runs(scenario)[1]
    assert right < 60
    assert windows[0][1] == 256 - right + HALO


@pytest.mark.parametrize("f0,beta,u,v", [(1.0, 0.0, 0.1, 0.0),
                                         (0.0, 0.1, 0.0, 0.01)],
                         ids=["zonal-f-plane", "meridional-beta-plane"])
def test_uniform_flow_is_no_still_run(monkeypatch, f0, beta, u, v):
    # equal cells that move: f*q sums up in R and f*p varies with f on
    # the beta-plane, so their tendencies differ from cell to cell and
    # the window is the whole grid
    grid = build_grid(-50.0, 50.0, 400)
    scenario = Scenario(
        name="flow", grid=grid, coriolis=CoriolisSpec(f0, beta),
        topography=Topography(np.zeros(401)),
        height=lambda y: 1.0 + 0.1 * np.exp(-y ** 2),
        u0=lambda y: np.full_like(y, u), v0=lambda y: np.full_like(y, v),
        b0=np.ones_like, t_final=2.0)
    _, windows = _assert_window_exact(monkeypatch, scenario)
    assert set(windows) == {(0, 400)}


def test_window_grows(monkeypatch):
    # ex2's dam break reaches into both still runs: each window contains
    # the one before it
    _, windows = _assert_window_exact(monkeypatch,
                                   make_scenario("ex2", cells=200))
    distinct = sorted(set(windows), key=windows.index)
    assert len(distinct) > 2
    for (a0, a1), (b0, b1) in zip(distinct, distinct[1:]):
        assert b0 <= a0 and a1 <= b1
    (first0, first1), (last0, last1) = distinct[0], distinct[-1]
    assert last0 < first0 and first1 < last1


def test_ex6_steps_a_small_share(monkeypatch):
    # at the default width step ex6 steps 512 of its 4000 cells, bit for
    # bit: a change that silently disables the window fails here
    _, windows = _assert_window_exact(monkeypatch,
                                      make_scenario("ex6", cells=4000),
                                      width_step=stepper._WIDTH_STEP)
    share = sum(i1 - i0 for i0, i1 in windows)
    assert share < 0.16 * 4000 * len(windows)


def test_pick_window():
    n = 1000
    u = np.zeros((4, n))
    u[0], u[3] = 1.0, 2.0
    flags = np.empty((5, n), bool)
    # one still run: the whole grid, which no later pick narrows
    assert pick_window(u, (n, 0), (n, n), flags) == (0, n)
    u[0, 500:510] = 1.5
    assert pick_window(u, (0, n), (n, n), flags) == (0, n)
    # the window keeps HALO cells of each run, rounded out to the width
    # step, and contains the window before it
    # (the 24 cells [493, 517) take 104 more, 52 on each side)
    assert pick_window(u, (n, 0), (n, n), flags) == (441, 569)
    assert pick_window(u, (300, 400), (n, n), flags) == (281, 537)
    # the level runs bound the still ones
    assert pick_window(u, (n, 0), (100, n), flags) == (49, 561)
    # no still water at an end: the window reaches it
    u[1, 0] = 1e-300
    assert pick_window(u, (n, 0), (n, n), flags) == (0, 640)


def test_window_workspace_inside_the_run_workspace():
    # a window's workspace lies in the run's rows past u1, u2 and tend and
    # in its boolean block, from a cache line on; one too wide does not fit
    from trsw.workspace import Workspace

    run_ws = Workspace(1000)
    assert run_ws.fits(760) and not run_ws.fits(780)
    ws = Workspace(760, within=run_ws)
    assert ws.block.ctypes.data % 64 == 0
    assert np.shares_memory(ws.block, run_ws.block[12:])
    assert not np.shares_memory(ws.block, run_ws.block[:12])
    assert np.shares_memory(ws.flag_block, run_ws.flag_block)
    assert ws.tend.shape == (4, 760)
