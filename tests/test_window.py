"""The stepped window: a run whose stages step only the cells between the
still-water runs at the ends of its grid ends in the bits of a run that
steps every cell, with the same snapshots, records and step reports.

Each comparison runs a scenario twice: as it is, and with
``stepper.pick_window`` patched to return the whole grid. Most run with
``_WIDTH_STEP`` = 1, so that windows are no wider than the halo makes
them and each edge sits exactly ``HALO`` cells inside its run; those of
ex6's and ex4's windows and of a pick too wide for the run's workspace
run at the default width step. A seeded corpus of states with still
ends is exact at ``HALO`` and not at ``HALO - 1``, so a halo above or
below the stencil's reach fails.
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


def _window_and_whole(monkeypatch, scenario, width_step=1):
    """Run ``scenario`` windowed and whole: the outputs and the windows
    of each run."""
    monkeypatch.setattr(stepper, "_WIDTH_STEP", width_step)
    with np.errstate(all="ignore"):
        windowed, windows = _run(scenario)
        with monkeypatch.context() as whole:
            whole.setattr(stepper, "pick_window",
                          lambda u, bounds, level, flags: (0, u.shape[1]))
            stepped, full = _run(scenario)
    return windowed, windows, stepped, full


def _assert_window_exact(monkeypatch, scenario, width_step=1):
    """Run ``scenario`` windowed and whole; assert equal outputs and
    return them with the windows of the windowed run."""
    windowed, windows, stepped, full = _window_and_whole(
        monkeypatch, scenario, width_step)
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


def _still_ends(seed):
    """A seeded state of 20 to 199 disturbed cells between still runs of
    8 to 39 cells at both ends, over a bottom that is level over each run
    and not between them: smooth fields for half the seeds and
    piecewise-constant ones for the others, dry cells among the disturbed
    ones for a third of the seeds and a dry end for a fifth, q = -0.0 in
    the runs for half of them, and f = 0, an f-plane or a beta-plane. The
    run ends at its 40th step."""
    from test_mirror import _from_fields, _piecewise

    rng = np.random.default_rng(seed)
    ends = [int(a) for a in rng.integers(8, 40, 2)]
    m = int(rng.integers(20, 200))
    ranges = ((0.1, 2.0), (-1.0, 1.0), (-1.0, 1.0), (0.2, 3.0))
    if seed % 2:
        pieces = int(rng.integers(2, 6))
        h, u, v, b = (_piecewise(rng, m, lo, hi, pieces) for lo, hi in ranges)
    else:
        x = np.linspace(0.0, 1.0, m)
        h, u, v, b = (lo + (hi - lo) * np.sin(rng.uniform(1.0, 8.0) * x
                                              + rng.uniform(0.0, 3.0)) ** 2
                      for lo, hi in ranges)
    if seed % 3 == 0:
        h[rng.integers(0, m, m // 8 + 1)] = 0.0
    still = [rng.uniform(0.1, 2.0, 2), rng.uniform(0.2, 3.0, 2)]
    if seed % 5 == 0:
        still[0][seed % 2] = 0.0  # one end dry
    rest = -0.0 if seed // 2 % 2 else 0.0
    h, b = (np.concatenate((np.full(ends[0], x[0]), inner,
                            np.full(ends[1], x[1])))
            for x, inner in zip(still, (h, b)))
    u, v = (np.concatenate((np.full(ends[0], r), inner, np.full(ends[1], r)))
            for r, inner in ((rest, u), (0.0, v)))
    n = len(h)
    z = np.zeros(n + 1)
    z[ends[0] + 1:n - ends[1]] = rng.uniform(0.0, 0.5) * np.sin(
        np.linspace(0.0, np.pi, m + 1)[1:-1]) ** 2
    coriolis = (CoriolisSpec(0.0), CoriolisSpec(rng.uniform(-2.0, 2.0)),
                CoriolisSpec(rng.uniform(-1.0, 1.0),
                             rng.uniform(-3.0, 3.0)))[seed // 3 % 3]
    scenario = _from_fields(
        Scenario(name=f"still-ends-{seed}", grid=build_grid(-1.0, 1.0, n),
                 coriolis=coriolis, topography=Topography(z),
                 height=np.ones_like, b0=np.ones_like, t_final=1.0),
        h, u, v, b, z)
    return _ending_at_step(scenario, 40)


class _Enough(Exception):
    pass


def _ending_at_step(scenario, steps):
    """``scenario`` ending when its step ``steps`` does, or as it is if
    it ends sooner."""
    times = []

    def count(state, report):
        times.append(report.t)
        if len(times) == steps:
            raise _Enough

    try:
        with np.errstate(all="ignore"):
            run_simulation(scenario, on_step=count, collect_records=False)
    except _Enough:
        return dataclasses.replace(scenario, t_final=times[-1])
    return scenario


_STILL_ENDS = range(24)


@pytest.mark.parametrize("seed", _STILL_ENDS)
def test_halo_is_the_stencils_reach(monkeypatch, seed):
    # each edge sits HALO cells inside its run, where the first step's
    # disturbance reaches the edge cell in the last stage: exact
    scenario = _still_ends(seed)
    _, windows = _assert_window_exact(monkeypatch, scenario)
    assert _narrower(windows, scenario.grid.n)


def test_halo_below_the_stencils_reach_is_not_exact(monkeypatch):
    # one cell less and some state of the corpus leaves the window's bits
    # for the whole grid's, so a halo above the reach fails here and one
    # below it fails the test above
    monkeypatch.setattr(stepper, "HALO", HALO - 1)
    for seed in _STILL_ENDS:
        windowed, _, stepped, _ = _window_and_whole(monkeypatch,
                                                    _still_ends(seed))
        if windowed != stepped:
            return
    pytest.fail(f"every state is exact with a halo of {HALO - 1}")


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


def _rounded(lo, hi):
    """[lo, hi) widened to a multiple of the width step, the cells added
    split between its ends, and shifted to start no further left than
    the grid's first cell."""
    width = -(-(hi - lo) // stepper._WIDTH_STEP) * stepper._WIDTH_STEP
    lo = max(lo - (width - (hi - lo)) // 2, 0)
    return lo, lo + width


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
    assert pick_window(u, (n, 0), (n, n), flags) == _rounded(500 - HALO,
                                                             510 + HALO)
    assert pick_window(u, (300, 700), (n, n), flags) == (300, 700)
    # the level runs bound the still ones
    assert pick_window(u, (n, 0), (100, n), flags) == _rounded(100 - HALO,
                                                               510 + HALO)
    # no still water at an end: the window reaches it
    u[1, 0] = 1e-300
    assert pick_window(u, (n, 0), (n, n), flags) == _rounded(0, 510 + HALO)


def test_pick_window_scans_from_the_edges():
    # before the first step each run is scanned from its end of the grid;
    # past it every cell beyond an edge is a copy of the edge's cell, and
    # the pick compares only the HALO cells inside it: a disturbed cell
    # further out, which no windowed step leaves, is not seen, while one
    # inside the halo, from the cell next to the edge's on, moves the edge
    n = 1000
    u = np.zeros((4, n))
    u[0], u[3] = 1.0, 2.0
    u[0, 500:510] = 1.5
    flags = np.empty((5, n), bool)
    u[0, 100] = 1.25
    assert pick_window(u, (n, 0), (n, n), flags) == _rounded(100 - HALO,
                                                             510 + HALO)
    assert pick_window(u, (300, 700), (n, n), flags) == (300, 700)
    u[0, 100] = 1.0
    for cell, window in ((301, _rounded(301 - HALO, 700)),
                         (299 + HALO, _rounded(299, 700)),
                         (300 + HALO, (300, 700)),
                         (698, _rounded(300, 699 + HALO)),
                         (699 - HALO, (300, 700))):
        u[0, cell] = 1.25
        assert pick_window(u, (300, 700), (n, n), flags) == window
        u[0, cell] = 1.0


def test_window_workspace_at_the_start_of_the_run_workspace():
    # a window's workspace lies over the run's from its first float, on a
    # cache line, and its boolean block over the run's; the run's u2
    # rows, where a windowed step spreads its new state, share no memory
    # with the window's u1, which holds the window's new state, at any
    # width that fits
    from trsw.workspace import Workspace

    for n in (200, 1000, 4096, 8192):
        run_ws = Workspace(n)
        widths = [m for m in range(1, n + 1) if run_ws.fits(m)]
        assert n in widths and not run_ws.fits(n + 1)
        for m in widths:
            ws = Workspace(m, within=run_ws)
            assert ws.block.ctypes.data == run_ws.block.ctypes.data
            assert ws.block.ctypes.data % 64 == 0
            assert ws.flag_block.ctypes.data == run_ws.flag_block.ctypes.data
            assert ws.u1.shape == run_ws.u2[:, :m].shape == (4, m)
            assert not np.shares_memory(ws.u1, run_ws.u2)


def test_window_wider_than_three_quarters(monkeypatch):
    # ex4's window grows to 1792 of 2000 cells before it is the whole
    # grid: windows wider than about 0.77 N, whose workspace used to fall
    # back to the whole grid, step windowed, bit for bit
    _, windows = _assert_window_exact(monkeypatch,
                                      make_scenario("ex4", cells=2000,
                                                    t_final=4.5),
                                      width_step=stepper._WIDTH_STEP)
    wide = sorted({i1 - i0 for i0, i1 in windows} - {2000})
    assert [w for w in wide if w > 0.77 * 2000] == [1664, 1792]


def test_pick_too_wide_for_the_run_workspace(monkeypatch):
    # a pick of 3968 of 4120 cells leaves more than the width step out,
    # but its workspace takes a fourth flux group row, and 52 rows of
    # 3972 floats exceed the run block's 50 of 4124: the run steps the
    # whole grid, bit for bit
    from test_mirror import _from_fields
    from trsw.workspace import Workspace

    n, still = 4120, 76 + HALO
    h = np.ones(n)
    h[still:n - still] += 0.05 * np.cos(np.linspace(0.0, 9.0, n - 2 * still))
    flat = np.zeros(n + 1)
    scenario = _ending_at_step(_from_fields(
        Scenario(name="too-wide", grid=build_grid(-1.0, 1.0, n),
                 coriolis=CoriolisSpec(0.0), topography=Topography(flat),
                 height=np.ones_like, b0=np.ones_like, t_final=1.0),
        h, np.zeros(n), np.zeros(n), np.ones(n), flat), 5)
    flags = np.empty((5, n), bool)
    assert pick_window(scenario.initial_state().array, (n, 0),
                       level_runs(scenario), flags) == (76, 4044)
    assert not Workspace(n).fits(3968)
    _, windows = _assert_window_exact(monkeypatch, scenario,
                                      width_step=stepper._WIDTH_STEP)
    assert windows == [(0, n)] * 5


def test_new_state_spread_once_per_step(monkeypatch):
    # the stages, the combination and the checks run on the window's
    # cells, and only the new state is spread over the grid
    spreads = []
    spread = stepper.Window.spread

    def counted(self, u):
        spreads.append(u.shape[1])
        return spread(self, u)

    monkeypatch.setattr(stepper.Window, "spread", counted)
    reports = []
    res = run_simulation(make_scenario("ex6", cells=1000, t_final=2.0),
                         on_step=lambda state, report: reports.append(report))
    assert not res.failed and res.steps > 1
    assert spreads == [i1 - i0 for i0, i1 in (r.window for r in reports)]
    assert max(spreads) < 1000
