"""Semi-discrete right-hand side, positivity-preserving draining limiter,
SSP-RK3 time stepping, and the simulation driver.

Boundary conditions are zero-order extrapolation: two ghost cells per side
copy the outermost physical cells (one feeds the boundary-cell slopes, one
spare for the stencil). The reconstruction pads the fields it limits, and
the draining limiter reads h and hb from the (4, n) stage state, with one
edge-copied ghost per side. Stage states are plain (4, n) arrays checked
for h, hb >= 0, and the stage kernels take them as such; a ConservedState
is built only for the accepted step, and ``rhs`` alone takes one.

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
from typing import Callable, List, Optional, Tuple

import numpy as np

from .flux import diffusion_switch, numerical_flux
from .model import (_TINY, ConservedState, CoriolisSpec, Grid, Numerics,
                    Scenario, Topography, check_nonnegative)
from .reconstruction import build_interface_states
from .workspace import Workspace

# keeps the limited update strictly nonnegative under round-off
_DRAIN_SAFETY = 1.0 - 1.0e-10


class IntegrationError(RuntimeError):
    """Raised when the solution stops being finite; the message names the
    time."""

    def __init__(self, t: float, message: str = "non-finite solution"):
        super().__init__(f"{message} at t={t:.6g}")


def source_term(u: np.ndarray, p_side: np.ndarray, coriolis: CoriolisSpec,
                grid: Grid, out, work) -> np.ndarray:
    """Coriolis source for the q component of the (4, n) state ``u``.

    Constant f uses f * p_bar directly; variable f integrates f*p over the
    cell with Simpson's rule on the inner one-sided interface values, the
    (2, n+1) minus/plus pair ``p_side``. ``out`` receives the source and
    ``work`` is one scratch array of n values.
    """
    p = u[2]
    if coriolis.is_constant:
        return np.multiply(p, coriolis.f0, out=out)
    f_center, f_iface = grid.coriolis_values(coriolis)
    src = np.multiply(f_iface[:-1], p_side[1, :-1], out=out)
    centre = np.multiply(f_center, 4.0, out=work)
    centre *= p
    src += centre
    src += np.multiply(f_iface[1:], p_side[0, 1:], out=centre)
    src /= 6.0
    return src


def assemble_fluxes(u: np.ndarray, topo: Topography, coriolis: CoriolisSpec,
                    grid: Grid, numerics: Numerics, ws: Workspace) -> None:
    """Interface states plus central-upwind fluxes for the (4, n) state
    ``u``, written into the workspace ``ws``: the fluxes to ``ws.flux``
    and the one-sided speeds (a_plus, a_minus) to ``ws.speeds``."""
    build_interface_states(u, topo, coriolis, grid, numerics, ws)
    switch = diffusion_switch(ws.l_cell_left, ws.l_cell_right, grid.dy,
                              grid.length, out=ws.switch,
                              work=ws.switch_work)
    numerical_flux(switch, ws)


def _tendency(u: np.ndarray, flux: np.ndarray, coriolis: CoriolisSpec,
              grid: Grid, ws: Workspace) -> np.ndarray:
    """Flux divergence plus the Coriolis source on q, per cell, (4, n),
    in ``ws.tend``, for the state ``u`` whose interface states ``ws``
    holds."""
    # one division by -dy gives the bits of negating and dividing by dy
    tend = np.subtract(flux[:, 1:], flux[:, :-1], out=ws.tend)
    tend /= -grid.dy
    tend[1] += source_term(u, ws.p_side, coriolis, grid,
                           out=ws.source_out, work=ws.source_work)
    return tend


def rhs(state: ConservedState, topo: Topography, coriolis: CoriolisSpec,
        grid: Grid, numerics: Numerics, ws: Workspace) -> np.ndarray:
    """Semi-discrete tendencies d/dt (h, q, p, hb) per cell, (4, n), in
    the workspace ``ws``.

    Flux divergence plus the Coriolis source on q; no positivity limiting
    (that is time-step dependent and belongs to the stepper).
    """
    u = state.array
    assemble_fluxes(u, topo, coriolis, grid, numerics, ws)
    return _tendency(u, ws.flux, coriolis, grid, ws)


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
    # effective boundary fluxes of the whole step (SSP-weighted), for the
    # exact conservation ledger: (left, right) for h and hb
    bflux_h: Tuple[float, float] = (0.0, 0.0)
    bflux_hb: Tuple[float, float] = (0.0, 0.0)


def _rk3_step(u0: np.ndarray, scenario: Scenario, t: float, t_event: float,
              ws: Workspace) -> Tuple[ConservedState, StepReport]:
    """One SSP-RK3 step from the (4, n) state ``u0`` at time t, its stages
    in ``ws``: each stage reads its fluxes and speeds from ``ws.flux`` and
    ``ws.speeds``. cfl_dt sizes the step from the stage-1 speeds; a step
    that reaches t_event ends on it exactly. Every stage drains its fluxes
    at dt, so h and hb stay nonnegative; each later stage state and the new
    state are checked for that once (ValueError), which gives the report
    its minima. Non-finite speeds or output raise IntegrationError."""
    grid, coriolis = scenario.grid, scenario.coriolis
    assemble_fluxes(u0, scenario.topography, coriolis, grid,
                    scenario.numerics, ws)
    a_plus, a_minus = ws.speeds
    # the stage-1 speeds, read now, as stage 2 writes over them
    a_max = float(max(a_plus.max(initial=0.0), -a_minus.min(initial=0.0)))
    t_remaining = t_event - t
    dt = cfl_dt(a_max, grid.dy, scenario.numerics.cfl, t_remaining)
    if not 0.0 < dt < np.inf:  # a_max is NaN or infinite
        raise IntegrationError(t, "non-finite wave speed")
    landed = dt == t_remaining
    t_after = t_event if landed else t + dt
    bounds = []  # the h and hb fluxes at both boundaries, per stage
    limited = []  # interfaces with a flux the drain scaled down, per stage
    minima = []  # (min h, min hb) of u1, u2 and the new state

    def stage(u):
        if bounds:  # a later stage: check and reconstruct its state
            minima.append(check_nonnegative(u))
            assemble_fluxes(u, scenario.topography, coriolis, grid,
                            scenario.numerics, ws)
        flux, n = draining_limit(u, ws.flux, dt, grid.dy, ws)
        bounds.append((flux[0, 0], flux[0, -1], flux[3, 0], flux[3, -1]))
        limited.append(n)
        return _tendency(u, flux, coriolis, grid, ws)

    u_new = ssp_rk3_combine(u0, dt, stage, ws.u1, ws.u2)
    if not np.isfinite(u_new, out=ws.finite).all():
        raise IntegrationError(t_after)
    state = ConservedState(u_new)  # checks it and takes its minima
    minima.append(state.minima)

    min_h, min_hb = (float(min(m)) for m in zip(*minima))
    # the weights 1/6, 1/6, 2/3 with which each stage's fluxes enter u_new
    weighted = [(x0 + x1 + 4.0 * x2) / 6.0 for x0, x1, x2 in zip(*bounds)]
    return state, StepReport(
        t=t_after, dt=dt, a_max=a_max,
        limit="event" if landed else "wave speed",
        n_limited=sum(limited), min_h=min_h, min_hb=min_hb,
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
    state = scenario.initial_state()
    result = SimulationResult(scenario, state, 0.0)
    ledger = ConservationLedger(state, scenario.grid)
    if collect_records:
        result.records.append(make_record(0.0, state, scenario, ledger, ws))

    t, t_final = 0.0, scenario.t_final
    for t_event in sorted(set(scenario.snapshots) | {t_final}):
        while t < t_event:
            try:
                state, report = _rk3_step(state.array, scenario, t, t_event,
                                          ws)
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
