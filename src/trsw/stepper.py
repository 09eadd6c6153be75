"""Semi-discrete right-hand side, positivity-preserving draining limiter,
SSP-RK3 time stepping, and the simulation driver.

Boundary conditions are zero-order extrapolation: two ghost cells per side
copy the outermost physical cells (one feeds the boundary-cell slopes, one
spare for the stencil). The reconstruction pads the fields it limits, and
the draining limiter reads h and hb from the (4, n) stage state, with one
edge-copied ghost per side. Stage states are plain (4, n) arrays checked
for h, hb >= 0, and the stage kernels take them as such; a ConservedState
is built only for the accepted step, and ``rhs`` alone takes one. The
kernels that read the run's fixed data (grid, bottom, rotation, numerics)
take its Scenario whole.

Each step stages only the cells of a window [i0, i1) (``pick_window``).
Outside it each end of the grid is one run of still water: cells equal
bit for bit in h, q, p and hb, with q = p = 0, over a level bottom
(equal values at both interfaces of every cell) and with one sign bit of
f at every centre and interface of the run. Every cell of such a run
computes the same tendency in every stage, and the SSP-RK3 combination
works cell by cell, so a step is the whole-grid step run on the
window's cells, in a workspace of the window's width, and every cell
outside takes the new state of the window's outermost cell on its side
(``Window.spread``). f's magnitude never enters: with q = p = 0 it meets
only signed zeros, whose signs in f*p and so in q are why a run keeps
one sign of f (ex6 starts with q = -0.0 in its far field; after a step
the half with f > 0 holds +0.0 there).

The window's edges are boundaries like the grid's ends: beyond an edge
lie ghost copies of the edge cell, in the state (the still-run scan) and
in the bottom and the sign of f (``level_runs``). The window keeps
``HALO`` = 4 cells of each still run, the stencil's reach on such a
boundary. A stage's tendency in cell j reads cells j-2..j+2, but a run's
last cell has an equal neighbour, so one argument of its minmod slope is
sigma*0, the slope is exactly 0 and the cell reconstructs to its own
value on both sides. Only the interface between the run and the
disturbance takes a new flux: each stage moves a disturbance one cell
into a run. A run of a cells keeps the run's tendency on its first a-1,
a-2 and a-3 cells in stages 1, 2 and 3, and the run's new state on its
first a-3. The window's edge cell stands in for every cell beyond it,
through its ghosts in every stage and ``Window.spread`` after the step,
so it must lie 4 cells inside the run: i0 <= a-4. The drain adds no
reach: it scales a flux by its donor's drain time, which reads the
donor's other interface, but only the h and hb fluxes, and between two
run cells those are signed zeros, which any scale keeps (a NaN scale
fails the step on the whole grid and on the window alike). R, a sum from
the left end, is 0 at i0 as at the left boundary, since every increment
over a still run is a zero; its sign there may differ from the window's
+0.0 where hb = -0.0, but R at interfaces enters only D = L - R of the
depth solve, and a zero D takes the fallback depth whatever its sign.
The right end mirrors this. The fluxes at the window's outermost
interfaces and its speeds are then those of the whole grid's boundaries
and still runs, so dt, the ledger's boundary fluxes and the count of
limited interfaces come from the window, and so do the stage minima
(``check_nonnegative`` gives a zero one sign).

``run_simulation`` owns one Workspace (``trsw.workspace``) for the whole
run, and every kernel of a stage writes into it. Arrays handed out under
a run's workspace (the interface states in its side pairs ``l_side``,
``q_side``, ``p_side``, ``b_side``, ``h_side`` and ``v_side``, fluxes,
speeds, stage states and tendencies) are valid until the next stage,
which writes over them; the draining limiter scales the stage's fluxes in
place. The accepted state of a step is a copy, and so are the snapshots
and records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, List, Optional, Tuple

import numpy as np

from .flux import diffusion_switch, numerical_flux
from .model import (_TINY, ConservedState, Scenario, Topography,
                    check_nonnegative)
from .reconstruction import _fill_ghosts, build_interface_states
from .workspace import Workspace

# keeps the limited update strictly nonnegative under round-off
_DRAIN_SAFETY = 1.0 - 1.0e-10
# cells of each end's still run inside the window (see above)
HALO = 4
# a window's width is a multiple of this many cells, so that one that
# grows by a few cells per step is rebuilt every few steps only, and it
# leaves at least this many cells out, or the grid is stepped whole: the
# window's fixed cost per step, its scans, the spread of its new state
# and its strided view of the state, is about what a step of that many
# cells costs (ex2 at N = 200 steps no faster on 128 of its cells)
_WIDTH_STEP = 128


class IntegrationError(RuntimeError):
    """Raised when the solution stops being finite; the message names the
    time."""

    def __init__(self, t: float, message: str = "non-finite solution"):
        super().__init__(f"{message} at t={t:.6g}")


def source_term(u: np.ndarray, p_side: np.ndarray, scenario: Scenario,
                out, work) -> np.ndarray:
    """Coriolis source for the q component of the (4, n) state ``u``.

    Constant f uses f * p_bar directly; variable f integrates f*p over the
    cell with Simpson's rule on the inner one-sided interface values, the
    (2, n+1) minus/plus pair ``p_side``. ``out`` receives the source and
    ``work`` is one scratch array of n values.
    """
    p, coriolis = u[2], scenario.coriolis
    if coriolis.is_constant:
        return np.multiply(p, coriolis.f0, out=out)
    f_center, f_iface = scenario.coriolis_values
    src = np.multiply(f_iface[:-1], p_side[1, :-1], out=out)
    centre = np.multiply(f_center, 4.0, out=work)
    centre *= p
    src += centre
    src += np.multiply(f_iface[1:], p_side[0, 1:], out=centre)
    src /= 6.0
    return src


def assemble_fluxes(u: np.ndarray, scenario: Scenario, ws: Workspace) -> None:
    """Interface states plus central-upwind fluxes for the (4, n) state
    ``u``, written into the workspace ``ws``: the fluxes to ``ws.flux``
    and the one-sided speeds (a_plus, a_minus) to ``ws.speeds``."""
    build_interface_states(u, scenario, ws)
    grid = scenario.grid
    switch = diffusion_switch(ws.l_cell_left, ws.l_cell_right, grid.dy,
                              grid.length, out=ws.switch,
                              work=ws.switch_work)
    numerical_flux(switch, ws)


def _tendency(u: np.ndarray, flux: np.ndarray, scenario: Scenario,
              ws: Workspace) -> np.ndarray:
    """Flux divergence plus the Coriolis source on q, per cell, (4, n),
    in ``ws.tend``, for the state ``u`` whose interface states ``ws``
    holds."""
    # one division by -dy gives the bits of negating and dividing by dy
    tend = np.subtract(flux[:, 1:], flux[:, :-1], out=ws.tend)
    tend /= -scenario.grid.dy
    tend[1] += source_term(u, ws.p_side, scenario, out=ws.source_out,
                           work=ws.source_work)
    return tend


def rhs(state: ConservedState, scenario: Scenario,
        ws: Workspace) -> np.ndarray:
    """Semi-discrete tendencies d/dt (h, q, p, hb) per cell, (4, n), in
    the workspace ``ws``.

    Flux divergence plus the Coriolis source on q; no positivity limiting
    (that is time-step dependent and belongs to the stepper).
    """
    u = state.array
    assemble_fluxes(u, scenario, ws)
    return _tendency(u, ws.flux, scenario, ws)


def cfl_dt(a_max: float, dy: float, cfl: float, t_remaining: float) -> float:
    """The step to take with t_remaining left to the next event:
    cfl*dy/a_max, or all of t_remaining when that comes within a relative
    1e-12 of it or the state is quiescent (a_max <= 0). A NaN a_max gives
    NaN and an infinite one 0."""
    if a_max <= 0.0:
        return t_remaining
    dt = cfl * dy / a_max
    return t_remaining if dt >= t_remaining * (1.0 - 1.0e-12) else dt


def draining_limit(u: np.ndarray, flux: np.ndarray, dt: float, dy: float,
                   ws: Workspace) -> Tuple[np.ndarray, int]:
    """Rescale the h and hb flux components so no cell loses more of either
    quantity than it holds within dt.

    ``u`` is the (4, n) state; its h and hb rows are extended by one
    edge-copied ghost cell per side, the donor of inflow at a boundary
    interface.

    Each cell's drain time is dy*rho / (sum of its outgoing fluxes); every
    interface flux is scaled by min(dt, drain time of the donor cell)/dt,
    the donor being the upwind cell by flux sign. Momentum fluxes are left
    untouched. The h and hb rows of ``flux`` are scaled in place, and
    ``flux`` comes back with the number of limited interfaces, those whose
    nonzero h or hb flux was scaled down. When no donor drains within dt
    every scale would be exactly dt/dt = 1, so ``flux`` comes back
    unwritten with a count of 0; it does so before picking the donors
    when no cell drains within dt. The temporaries are flat arrays of the
    workspace ``ws``, the h and hb rows end to end (see ``trsw.workspace``).
    """
    # rows h and hb end to end, the flux rows with a zero before, between
    # and after them
    flux_rows, rho = flux[::3], u[::3]
    ws.drain_ext_zeros[...] = 0.0
    np.copyto(ws.drain_ext_rows, flux_rows)
    # out through the right face where its flux is positive, and through
    # the left face where its flux is negative
    outgoing = np.maximum(ws.drain_ext_hi, 0.0, out=ws.drain_out)
    outgoing -= np.minimum(ws.drain_ext_lo, 0.0, out=ws.drain_in)
    rho_ext = ws.rho_ext
    np.copyto(ws.rho_mid, rho)
    np.copyto(ws.rho_first, rho[:, 0])
    np.copyto(ws.rho_last, rho[:, -1])
    t_drain = np.multiply(rho_ext, _DRAIN_SAFETY * dy, out=rho_ext)
    t_drain /= np.maximum(outgoing, _TINY, out=outgoing)
    # no cell, ghosts included, drains within dt, so no donor does
    if np.greater_equal(t_drain, dt, out=ws.drain_idle).all():
        return flux, 0
    # the donor is the upwind cell: left of the interface when f > 0
    donor_t = ws.donor
    np.copyto(donor_t, ws.rho_hi)
    np.copyto(donor_t, ws.rho_lo,
              where=np.greater(ws.drain_flux, 0.0, out=ws.drain_mask))
    # the junction between the rows is no interface, so it never limits
    donor_t[ws.junction] = np.inf
    # written so that a NaN drain time takes the scaling path below
    if np.greater_equal(donor_t, dt, out=ws.drain_mask).all():
        return flux, 0
    # only a nonzero flux that is scaled down counts, tested before scaling
    moving = np.not_equal(ws.drain_flux, 0.0, out=ws.drain_moving)
    scale = np.minimum(dt, donor_t, out=donor_t)
    scale /= dt
    np.multiply(flux_rows, ws.donor_rows, out=flux_rows)
    below = np.less(scale, 1.0, out=ws.drain_mask)
    below &= moving
    limited = np.logical_or(*ws.drain_below, out=ws.limited)
    return flux, int(np.count_nonzero(limited))


def ssp_rk3_combine(u, dt: float, f: Callable, u1, u2):
    """Three-stage third-order strong-stability-preserving Runge-Kutta
    update of u' = f(u) (Shu-Osher form). f is called once per stage, on
    u, u1 and u2 in that order, and the caller gives up what it returns:
    it is scaled in place.

    ``u1`` and ``u2``, arrays shaped like u, receive the stage states, and
    the result is written over ``u1`` once f(u2) has returned, so ``u``
    must not be ``u1``.
    """
    out = u1
    k = f(u)
    k *= dt
    u1 = np.add(u, k, out=u1)
    k = f(u1)
    k *= dt
    k += u1
    k *= 0.25
    u2 = np.multiply(u, 0.75, out=u2)
    u2 += k
    k = f(u2)
    k *= dt
    k += u2
    k *= 2.0 / 3.0
    u_new = np.divide(u, 3.0, out=out)
    u_new += k
    return u_new


@dataclass(frozen=True)
class StepReport:
    """Record of one accepted step."""

    t: float              # simulation clock after the step
    dt: float             # step actually taken
    a_max: float          # largest one-sided wave speed at the step's start
    limit: str            # what set dt: "wave speed" or "event"
    n_limited: int        # interfaces whose nonzero h or hb flux the
                          # drain scaled down, over all stages
    min_h: float          # minimum depth over all stages
    min_hb: float
    window: Tuple[int, int]  # the cells [i0, i1) that the stages stepped
    # effective boundary fluxes of the whole step (SSP-weighted), for the
    # exact conservation ledger: (left, right) for h and hb
    bflux_h: Tuple[float, float] = (0.0, 0.0)
    bflux_hb: Tuple[float, float] = (0.0, 0.0)


def _leading(same: np.ndarray) -> int:
    """The number of leading True values of the boolean row ``same``."""
    k = int(same.argmin())
    return len(same) if same[k] else k


def level_runs(scenario: Scenario) -> Tuple[int, int]:
    """The number of cells at the left and at the right end of the grid
    whose bottom is level and equal to the end cell's, bit for bit, and
    over which f keeps the end's sign bit at every centre and interface:
    the longest still runs a state can have there."""
    z = scenario.topography.z_iface.view(np.int64)
    runs = []
    for end in (slice(None), slice(None, None, -1)):
        z_end = z[end]
        cells = _leading(z_end == z_end[0]) - 1
        if not scenario.coriolis.is_constant:
            f_center, f_iface = (np.signbit(f)[end]
                                 for f in scenario.coriolis_values)
            sign = f_iface[0]
            cells = min(cells, _leading(f_iface == sign) - 1,
                        _leading(f_center == sign))
        runs.append(cells)
    return runs[0], runs[1]


def _still_run(cells: np.ndarray, limit: int, flags: np.ndarray,
               start: int = 0) -> int:
    """The number of leading cells, up to ``limit``, of the (4, m) state
    ``cells`` that are still water, q = p = 0, equal to the first bit for
    bit. Cells 0..``start`` are known to be equal, so only those from
    ``start`` on are compared; a positive ``limit`` must exceed it.
    ``flags`` is a (5, m) or larger boolean block of scratch."""
    if limit <= 0 or cells[1, start] != 0.0 or cells[2, start] != 0.0:
        return 0
    bits = cells[:, start:limit].view(np.int64)
    same = np.equal(bits, bits[:, :1], out=flags[:4, :limit - start])
    return start + _leading(np.logical_and.reduce(
        same, axis=0, out=flags[4, :limit - start]))


def pick_window(u: np.ndarray, bounds: Tuple[int, int],
                level: Tuple[int, int], flags: np.ndarray) -> Tuple[int, int]:
    """The window [i0, i1) of a step from the (4, n) state ``u``: all but
    ``HALO`` cells of each end's still run, within the runs ``level`` of
    ``level_runs``, lie outside it (see the module docstring).

    The window contains ``bounds``, the previous step's window, (n, 0)
    before the first step: it never narrows, so each end is scanned only
    as far as can move its edge, and a whole grid is not scanned at all.
    Before the first step each run is scanned from its end of the grid;
    after it every cell beyond an edge of ``bounds`` is a copy of the
    edge's cell, bit for bit (the first pick leaves only still-run cells
    outside, and every later step spreads copies, ``Window.spread``), so
    each end is scanned from its edge inward only, ``HALO`` cells.
    A window that grows has its width rounded up to a multiple of
    ``_WIDTH_STEP`` cells, the cells added split between its ends; one
    that would leave fewer than ``_WIDTH_STEP`` cells out, or a grid that
    is one still run, is the whole grid. ``flags`` is a (5, n) or larger
    boolean block of scratch."""
    n = u.shape[1]
    i0, i1 = bounds
    if i1 - i0 == n:
        return bounds
    e0, e1 = (0, 0) if i0 > i1 else (i0, n - i1)
    left = _still_run(u, min(level[0], i0 + HALO), flags, e0)
    right = _still_run(u[:, ::-1], min(level[1], n - i1 + HALO), flags, e1)
    lo, hi = min(i0, max(left - HALO, 0)), max(i1, min(n - right + HALO, n))
    if (lo, hi) == bounds:
        return bounds
    width = -(-(hi - lo) // _WIDTH_STEP) * _WIDTH_STEP
    if lo >= hi or width > n - _WIDTH_STEP:
        return 0, n
    lo = max(min(lo - (width - (hi - lo)) // 2, n - width), 0)
    return lo, lo + width


class Window:
    """The window of a run's steps, with the scenario and the workspace
    that its stages read, ``cells`` and ``ws``: the run's own, or what
    the stage kernels read of the scenario over the window and a
    workspace of the window's width laid over the run's workspace
    ``run_ws``, built when the window changes. A window whose workspace
    does not fit there is the whole grid."""

    def __init__(self, scenario: Scenario, ws: Workspace):
        self.scenario, self.run_ws = scenario, ws
        self.level = level_runs(scenario)
        self.bounds = (scenario.grid.n, 0)  # no step yet
        self.cells, self.ws = scenario, ws

    def fit(self, u: np.ndarray) -> Tuple[int, int]:
        """Pick the window of the step from the (4, n) state ``u``, the
        initial state or one that ``spread`` built; return its bounds."""
        scenario, run_ws = self.scenario, self.run_ws
        n = scenario.grid.n
        bounds = pick_window(u, self.bounds, self.level, run_ws.flag_block)
        if bounds == self.bounds:
            return bounds
        i0, i1 = bounds if run_ws.fits(bounds[1] - bounds[0]) else (0, n)
        self.bounds, self.cells, self.ws = (i0, i1), scenario, run_ws
        if i1 - i0 < n:
            values = ()
            if not scenario.coriolis.is_constant:
                f_center, f_iface = scenario.coriolis_values
                values = (f_center[i0:i1], f_iface[i0:i1 + 1])
            # the whole grid, whose dy and length hold for every cell (the
            # window's own (y_max - y_min)/m need not equal dy bit for
            # bit, and the diffusion switch scales by the whole domain's
            # length), and the bottom and the values of f over the window
            self.cells = SimpleNamespace(
                grid=scenario.grid, coriolis=scenario.coriolis,
                numerics=scenario.numerics, coriolis_values=values,
                topography=Topography(scenario.topography.z_iface[i0:i1 + 1]))
            self.ws = Workspace(i1 - i0, within=run_ws)
        return self.bounds

    def spread(self, u: np.ndarray) -> np.ndarray:
        """The (4, n) state of the grid whose window holds the state ``u``:
        ``u`` itself when the window is the whole grid, else ``u`` copied
        into the run's u2 rows, which lie past the window's u1, with the
        cells beyond the window's edges its ghosts, copies of the edge
        cells (the reconstruction's ghost fill)."""
        if self.ws is self.run_ws:
            return u
        (i0, i1), out = self.bounds, self.run_ws.u2
        np.copyto(out[:, i0:i1], u)
        return _fill_ghosts(out, i0, i1)


def _rk3_step(u0: np.ndarray, t: float, t_event: float,
              window: Window) -> Tuple[ConservedState, StepReport]:
    """One SSP-RK3 step from the (4, n) state ``u0`` at time t, run on
    the cells of ``window``, fitted to u0 first, in the window's
    workspace (its ``flux`` and ``speeds``), and spread over the grid.
    cfl_dt sizes the step from the stage-1 speeds; a step that reaches
    t_event ends on it exactly. Every stage drains its fluxes at dt, so h
    and hb stay nonnegative; each later stage state and the new state are
    checked for that once (ValueError), which gives the report its
    minima. Non-finite speeds or output raise IntegrationError."""
    i0, i1 = window.fit(u0)
    cells, ws = window.cells, window.ws
    u = u0[:, i0:i1]
    assemble_fluxes(u, cells, ws)
    a_plus, a_minus = ws.speeds
    # the stage-1 speeds, read now, as stage 2 writes over them
    a_max = float(max(a_plus.max(initial=0.0), -a_minus.min(initial=0.0)))
    t_remaining = t_event - t
    scenario = window.scenario
    dy = scenario.grid.dy
    dt = cfl_dt(a_max, dy, scenario.numerics.cfl, t_remaining)
    if not 0.0 < dt < np.inf:  # a_max is NaN or infinite
        raise IntegrationError(t, "non-finite wave speed")
    landed = dt == t_remaining
    t_after = t_event if landed else t + dt
    bounds = []  # the h and hb fluxes at both boundaries, per stage
    limited = []  # interfaces with a flux the drain scaled down, per stage
    minima = []  # (min h, min hb) of u1, u2 and the new state

    def stage(v):
        if bounds:  # a later stage: check and reconstruct its state
            minima.append(check_nonnegative(v))
            assemble_fluxes(v, cells, ws)
        flux, n = draining_limit(v, ws.flux, dt, dy, ws)
        bounds.append((flux[0, 0], flux[0, -1], flux[3, 0], flux[3, -1]))
        limited.append(n)
        return _tendency(v, flux, cells, ws)

    u_new = ssp_rk3_combine(u, dt, stage, ws.u1, ws.u2)
    if not np.isfinite(u_new, out=ws.finite).all():
        raise IntegrationError(t_after)
    # checks the new state and takes its minima
    state = ConservedState(window.spread(u_new))
    minima.append(state.minima)

    min_h, min_hb = (float(min(m)) for m in zip(*minima))
    # the weights 1/6, 1/6, 2/3 with which each stage's fluxes enter u_new
    weighted = [(x0 + x1 + 4.0 * x2) / 6.0 for x0, x1, x2 in zip(*bounds)]
    return state, StepReport(
        t=t_after, dt=dt, a_max=a_max,
        limit="event" if landed else "wave speed",
        n_limited=sum(limited), min_h=min_h, min_hb=min_hb,
        window=(i0, i1),
        bflux_h=tuple(weighted[:2]), bflux_hb=tuple(weighted[2:]))


@dataclass
class SimulationResult:
    """Outcome of run_simulation; ``failed`` flags an aborted integration
    with whatever partial outputs were collected."""

    scenario: Scenario
    state: ConservedState
    t: float
    snapshots: List[Tuple[float, ConservedState]] = field(default_factory=list)
    records: list = field(default_factory=list)
    steps: int = 0
    failed: bool = False
    failure_message: str = ""


def run_simulation(scenario: Scenario,
                   on_step: Optional[Callable] = None,
                   on_snapshot: Optional[Callable] = None,
                   collect_records: bool = True) -> SimulationResult:
    """Integrate a scenario to its final time.

    The run steps from event to event, the snapshot times and the final
    time in order: steps are clipped so each event is landed on exactly
    (no output interpolation), and an event counts as reached once the
    clock is at or past it, whether the step landed on it or got there by
    rounding. ``on_step(state, report)`` fires after every accepted step,
    ``on_snapshot(t, state)`` at snapshot times; a final time of 0 gives
    one snapshot of the initial state. Deterministic: identical scenarios
    produce identical outputs.

    A step that cannot be completed (non-finite wave speeds or solution,
    or negative h or h*b in a stage) ends the run with ``failed`` set; the
    result keeps the last good state, its time, and the snapshots and
    records collected so far.
    """
    from .diagnostics import ConservationLedger, make_record

    # first, so that it can take the block the previous run freed
    ws = Workspace(scenario.grid.n)
    window = Window(scenario, ws)
    state = scenario.initial_state()
    result = SimulationResult(scenario, state, 0.0)
    ledger = ConservationLedger(state, scenario.grid)
    if collect_records:
        result.records.append(make_record(0.0, state, scenario, ledger, ws))

    t, t_final = 0.0, scenario.t_final
    for t_event in sorted(set(scenario.snapshots) | {t_final}):
        while t < t_event:
            try:
                state, report = _rk3_step(state.array, t, t_event, window)
            except (IntegrationError, ValueError) as err:
                result.failed = True
                result.failure_message = str(err)
                if isinstance(err, ValueError):  # h or h*b < 0 in the step
                    result.failure_message += f" at t={t:.6g}"
                return result
            t = report.t
            ledger.update(report)
            result.state, result.t = state, t
            result.steps += 1
            if collect_records:
                result.records.append(make_record(t, state, scenario, ledger,
                                                  ws))
            if on_step is not None:
                on_step(state, report)
        if t_event in scenario.snapshots or t_final == 0.0:
            result.snapshots.append((t_event, state))
            if on_snapshot is not None:
                on_snapshot(t_event, state)
    return result
