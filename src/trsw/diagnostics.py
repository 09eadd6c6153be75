"""Verification quantities: thermo-geostrophic balance residuals and their
time averages, conservation ledgers, energy, total variation, and
linear-theory reference values.

Spatial derivatives use centered differences in the interior and one-sided
differences at the boundaries, matching the second-order scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .model import (ConservedState, CoriolisSpec, Grid, Scenario,
                    Topography, desingularized_ratio, primitives_from_state)


def flat_bottom(topo: Topography) -> bool:
    """Z = 0 everywhere, where the balance residual and energy apply."""
    return not (topo.z_iface != 0.0).any()


def _require_flat(topo: Topography, what: str):
    if not flat_bottom(topo):
        raise ValueError(f"{what} is defined for a flat bottom (Z = 0) only")


def balance_residual(state: ConservedState, coriolis: CoriolisSpec,
                     grid: Grid, topo: Topography
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Both sides of the flat-bottom thermo-geostrophic balance
    b h_y + (h/2) b_y = -f u, evaluated per cell.

    The left side is differenced in its conservative form (b h^2/2)_y / h,
    the gradient of the same potential whose flux the scheme balances;
    this is identical in the continuum and better conditioned on coarse
    grids than differencing b and h separately. Returned as (lhs, rhs) so
    transient imbalance can be plotted; nothing forces the two to agree
    away from equilibrium.
    """
    _require_flat(topo, "the balance residual")
    u, _, _, _ = primitives_from_state(state, topo)
    potential = 0.5 * state.hb * state.h
    lhs = desingularized_ratio(state.h, np.gradient(potential, grid.dy))
    rhs = -coriolis.values(grid.centers) * u
    return lhs, rhs


class BalanceTimeAverager:
    """Trapezoidal time average of both sides of the balance relation over
    a window starting at t_start (typically two inertial periods in)."""

    def __init__(self, t_start: float):
        self.t_start = float(t_start)
        self._prev = None
        self._acc_lhs = None
        self._acc_rhs = None
        self._t_first = None
        self._t_last = None

    def add(self, t: float, lhs: np.ndarray, rhs: np.ndarray):
        if t < self.t_start:
            return
        if self._prev is not None:
            t0, lhs0, rhs0 = self._prev
            w = 0.5 * (t - t0)
            self._acc_lhs = self._acc_lhs + w * (lhs0 + lhs)
            self._acc_rhs = self._acc_rhs + w * (rhs0 + rhs)
        else:
            self._acc_lhs = np.zeros_like(np.asarray(lhs, float))
            self._acc_rhs = np.zeros_like(np.asarray(rhs, float))
            self._t_first = t
        self._prev = (t, np.asarray(lhs, float), np.asarray(rhs, float))
        self._t_last = t

    def finalize(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._t_first is None or self._t_last <= self._t_first:
            raise ValueError("empty averaging window")
        span = self._t_last - self._t_first
        return self._acc_lhs / span, self._acc_rhs / span


class ConservationLedger:
    """Exact bookkeeping of total h and hb against the boundary-flux
    integral of the conservative update."""

    def __init__(self, initial: ConservedState, grid: Grid):
        self.mass0 = float(initial.h.sum() * grid.dy)
        self.hb0 = float(initial.hb.sum() * grid.dy)
        self._outflow_h = 0.0
        self._outflow_hb = 0.0

    def update(self, report):
        """Accumulate one step's effective boundary fluxes."""
        self._outflow_h += report.dt * (report.bflux_h[1] - report.bflux_h[0])
        self._outflow_hb += report.dt * (report.bflux_hb[1] - report.bflux_hb[0])

    def drifts(self, mass: float, hb: float) -> Tuple[float, float]:
        """Change of the totals ``mass`` = sum(h) dy and ``hb`` = sum(hb) dy
        minus the boundary-flux integral; zero up to round-off for the
        conservative scheme."""
        return (mass - (self.mass0 - self._outflow_h),
                hb - (self.hb0 - self._outflow_hb))


def energy(state: ConservedState, grid: Grid, topo: Topography,
           ws=None) -> float:
    """Total energy sum(h (u^2+v^2)/2 + b h^2 / 2) dy over a flat bottom;
    the per-cell terms go into rows of the workspace ``ws`` if given."""
    _require_flat(topo, "the energy integral")
    u_buf, v_buf, b_buf, work = (ws.energy_rows if ws is not None
                                 else (None,) * 4)
    h = state.h
    u = desingularized_ratio(h, state.q, out=u_buf, work=work)
    v = desingularized_ratio(h, state.p, out=v_buf, work=work)
    b = desingularized_ratio(h, state.hb, out=b_buf, work=work)
    speed2 = np.multiply(u, u, out=u)
    speed2 += np.multiply(v, v, out=v)
    density = np.multiply(h, 0.5, out=v)
    density *= speed2
    potential = np.multiply(b, 0.5, out=b)
    potential *= h
    potential *= h
    density += potential
    return float(density.sum() * grid.dy)


def rossby_burger(u0: float, length: float, h0: float, b_mean: float,
                  beta: float) -> Tuple[float, float]:
    """Rossby and Burger numbers of an equatorial jet:
    Ro = U0 / (beta L^2), Bu = sqrt(b_mean H0) / (beta L^2)."""
    if length <= 0 or beta <= 0:
        raise ValueError("jet width and beta must be positive")
    denom = beta * length * length
    return u0 / denom, np.sqrt(b_mean * h0) / denom


def equatorial_eigenfrequency(n: int) -> float:
    """Nondimensional frequency sqrt(2n + 1) of the n-th equatorially
    trapped mode in the infinite-zonal-wavelength limit."""
    if n < 0:
        raise ValueError("mode number must be nonnegative")
    return float(np.sqrt(2 * n + 1))


def total_variation(field, work=None) -> float:
    """Sum of absolute cell-to-cell differences; ``work`` receives them
    (fresh by default)."""
    f = np.asarray(field, float)
    d = np.subtract(f[..., 1:], f[..., :-1], out=work)
    return float(np.abs(d, out=d).sum())


def gradient_max(field, dy: float, work=None) -> float:
    """Largest discrete gradient magnitude max |delta field| / dy;
    ``work`` receives the differences (fresh by default)."""
    f = np.asarray(field, float)
    d = np.subtract(f[..., 1:], f[..., :-1], out=work)
    return float(np.abs(d, out=d).max(initial=0.0) / dy)


@dataclass
class DiagnosticsRecord:
    """Per-step ledger entry; energy is NaN when the bottom is not flat."""

    t: float
    mass: float
    hb_total: float
    mass_drift: float
    hb_drift: float
    energy: float
    max_abs_v: float
    max_grad_v: float
    tv_w: float

    FIELDS = ("t", "mass", "hb_total", "mass_drift", "hb_drift", "energy",
              "max_abs_v", "max_grad_v", "tv_w")

    def row(self) -> Tuple[float, ...]:
        return tuple(getattr(self, name) for name in self.FIELDS)


def make_record(t: float, state: ConservedState, scenario: Scenario,
                ledger: ConservationLedger, ws=None) -> DiagnosticsRecord:
    """The diagnostics record of ``state`` at time t; the per-cell
    quantities go into rows of the run's workspace ``ws`` if given."""
    grid, topo = scenario.grid, scenario.topography
    h = state.h
    mass = float(h.sum() * grid.dy)
    hb_total = float(state.hb.sum() * grid.dy)
    mass_drift, hb_drift = ledger.drifts(mass, hb_total)
    total_energy = (energy(state, grid, topo, ws) if flat_bottom(topo)
                    else float("nan"))
    v_buf, w_buf, work = (ws.record_rows if ws is not None
                          else (None,) * 3)
    diff = ws.record_diff if ws is not None else None
    v = desingularized_ratio(h, state.p, out=v_buf, work=work)
    w = np.add(h, topo.z_center, out=w_buf)
    return DiagnosticsRecord(
        t=t,
        mass=mass,
        hb_total=hb_total,
        mass_drift=mass_drift,
        hb_drift=hb_drift,
        energy=total_energy,
        max_abs_v=float(np.abs(v, out=work).max(initial=0.0)),
        max_grad_v=gradient_max(v, grid.dy, diff),
        tv_w=total_variation(w, diff))
