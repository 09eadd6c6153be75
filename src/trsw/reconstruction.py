"""Equilibrium-variable reconstruction.

The meridional momentum equation is closed through a global variable
L = p^2/h + (b/2) h^2 + R, where R integrates the Coriolis and topography
source terms in y. Reconstructing V = (q, p, L, b) with a generalized
minmod limiter and recovering one-sided interface depths from L keeps
discrete equilibria (p = 0, L = const) exactly stationary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (ConservedState, CoriolisSpec, Grid, Numerics, Topography,
                    desingularized_ratio)

GHOST = 2  # edge-copied ghost cells per side; enough for the slope stencil

_TINY = 1.0e-300


def minmod(*args, out=None):
    """Componentwise minmod: min of the arguments if all positive, max if
    all negative, zero otherwise. Accepts scalars or equally shaped arrays;
    ``out`` receives the result and may be one of the arguments.

    Evaluated branch-free as max(min(args), 0) + min(max(args), 0), so a
    NaN argument gives NaN.
    """
    # callers passing ``out`` hand in float arrays already
    arrs = args if out is not None else [np.asarray(a, float) for a in args]
    lo = hi = arrs[0]
    for a in arrs[1:]:
        lo = np.minimum(lo, a)
        hi = np.maximum(hi, a)
    res = np.maximum(lo, 0.0, out=out)
    del lo  # one temporary fewer alive at the flux's memory peak
    res += np.minimum(hi, 0.0)
    if out is None and all(np.ndim(a) == 0 for a in args):
        return float(res)
    return res


def minmod_slopes(values: np.ndarray, sigma: float, dy: float) -> np.ndarray:
    """Generalized minmod slopes for the interior cells of ``values``.

    Returns one slope per cell except the first and last (those lack a
    neighbour); sigma in [1, 2] trades diffusion against oscillation.
    """
    v = np.asarray(values, float)
    # one-sided differences: the left slope of cell i is the right of i-1
    sided = v[1:] - v[:-1]
    sided /= dy
    sided *= sigma
    central = v[2:] - v[:-2]
    central /= 2.0 * dy
    return minmod(sided[:-1], central, sided[1:], out=central)


def interface_values(padded: np.ndarray, sigma: float, dy: float):
    """One-sided interface values of a cell field carrying GHOST=2 ghosts.

    For a physical grid of n cells (padded length n+4) returns the left
    ("minus") and right ("plus") limits at the n+1 physical interfaces.
    """
    half = minmod_slopes(padded, sigma, dy)
    half *= 0.5 * dy
    minus = padded[1:-2] + half[:-1]
    plus = np.subtract(padded[2:-1], half[1:], out=half[1:])
    return minus, plus


def pad_cells(values: np.ndarray) -> np.ndarray:
    """Edge-replicate GHOST cells at both ends of the last axis (zero-order
    extrapolation) into a fresh array; any leading shape is kept."""
    v = np.asarray(values, float)
    out = np.empty(v.shape[:-1] + (v.shape[-1] + 2 * GHOST,))
    out[..., GHOST:-GHOST] = v
    out[..., :GHOST] = v[..., :1]
    out[..., -GHOST:] = v[..., -1:]
    return out


def source_potential(state: ConservedState, topo: Topography,
                     coriolis: CoriolisSpec, grid: Grid):
    """Running integral R of f*q + h*b*Z_y, at cell centers and interfaces.

    ``state`` is a ConservedState or its (4, n) array.

    The interface recursion uses the cell value of f*q and hb times the
    interface jump of Z; the center recursion uses trapezoidal averages.
    The datum is R = 0 at the left boundary interface, and the first center
    value is the average of the two enclosing interface values.
    """
    dy = grid.dy
    u = getattr(state, "array", state)
    # constant f is the scalar f0, as in the source term; a variable f is
    # evaluated once per grid
    f = (coriolis.f0 if coriolis.is_constant
         else grid.coriolis_values(coriolis)[0])
    fq = f * u[1]
    hb = u[3]

    r_iface = np.zeros(grid.n + 1)
    r_iface[1:] = (fq * dy + hb * topo.dz_iface).cumsum()

    r_center = np.empty(grid.n)
    r_center[0] = 0.5 * (r_iface[0] + r_iface[1])
    if grid.n > 1:
        inc = (0.5 * (fq[:-1] + fq[1:]) * dy
               + 0.5 * (hb[:-1] + hb[1:]) * topo.dz_center)
        r_center[1:] = r_center[0] + inc.cumsum()
    return r_center, r_iface


def depth_from_equilibrium(p_side, b_mid, l_side, r_iface, h_fallback):
    """Recover the one-sided interface depth from p, L and R.

    The definition of L gives p^2/h + (b/2) h^2 = L - R =: D, a cubic in h.
    With D > 0 and p^4 <= 8 D^3 / (27 b) it has two positive roots
    2*sqrt(Y)*cos((T + 2*pi*l)/3), Y = 2D/(3b), T = arccos(-p^2/(b Y^{3/2}));
    the one closer to the surface-based fallback is physical (ties break to
    the larger, subsonic root). p = 0 collapses to sqrt(2D/b) for D > 0.
    In every other case (no positive root, D <= 0, or vanishing b) the
    fallback depth is returned, so the function is total.
    """
    p = np.asarray(p_side, float)
    b = np.asarray(b_mid, float)
    l = np.asarray(l_side, float)
    r = np.asarray(r_iface, float)
    fb = np.asarray(h_fallback, float)
    if not p.shape == b.shape == l.shape == r.shape == fb.shape:
        p, b, l, r, fb = np.broadcast_arrays(p, b, l, r, fb)

    d = l - r
    h = fb.copy()

    ok = b > _TINY
    b_safe = np.where(ok, b, 1.0)
    p2 = p * p
    # d > 0 is tested on its own because p^4 and d^3 can both underflow to
    # zero; the powers are products, several times cheaper than pow
    rootable = ok & (d > 0.0) & (p2 * p2 <= 8.0 * (d * d * d) / (27.0 * b_safe))

    m_sqrt = rootable & (p == 0.0)
    if m_sqrt.any():
        h[m_sqrt] = np.sqrt(2.0 * d[m_sqrt] / b[m_sqrt])

    m_trig = rootable & (p != 0.0)
    if m_trig.any():
        dm, bm, pm, fbm = d[m_trig], b[m_trig], p[m_trig], fb[m_trig]
        y = 2.0 * dm / (3.0 * bm)
        sq = np.sqrt(y)
        arg = np.minimum(np.maximum(-pm * pm / (bm * y * sq), -1.0), 1.0)
        theta = np.arccos(arg)
        # round-off in theta can push a vanishing root a hair below zero
        r_sub = np.maximum(2.0 * sq * np.cos(theta / 3.0), 0.0)
        r_sup = np.maximum(2.0 * sq * np.cos((theta + 4.0 * np.pi) / 3.0), 0.0)
        h[m_trig] = np.where(np.abs(r_sub - fbm) <= np.abs(r_sup - fbm),
                             r_sub, r_sup)
    if h.ndim == 0:
        return float(h)
    return h


@dataclass(frozen=True, eq=False)
class InterfaceStates:
    """One-sided reconstructed values at the n+1 physical interfaces.

    ``minus`` quantities are limits from the left cell, ``plus`` from the
    right; p has been recomputed as h*v after desingularization, so
    p = h*v holds exactly. ``l_cell_left/right`` carry the cell-centered L
    on either side for the diffusion switch.
    """

    h_minus: np.ndarray
    h_plus: np.ndarray
    q_minus: np.ndarray
    q_plus: np.ndarray
    p_minus: np.ndarray
    p_plus: np.ndarray
    b_minus: np.ndarray
    b_plus: np.ndarray
    l_minus: np.ndarray
    l_plus: np.ndarray
    v_minus: np.ndarray
    v_plus: np.ndarray
    l_cell_left: np.ndarray
    l_cell_right: np.ndarray


def build_interface_states(state: ConservedState, topo: Topography,
                           coriolis: CoriolisSpec, grid: Grid,
                           numerics: Numerics) -> InterfaceStates:
    """Full reconstruction pipeline from cell averages to interface states.

    ``state`` is a ConservedState or its (4, n) array; it is not checked
    here. The cell values of b, L and the surface w = h + Z are formed on
    the n cells and then edge-padded like q and p, which gives the same
    ghost values as forming them on the padded state.
    """
    sigma, dy = numerics.sigma, grid.dy

    u = getattr(state, "array", state)
    h, p, hb = u[0], u[2], u[3]
    q_pad, p_pad = pad_cells(u[1:3])
    b_pad = pad_cells(desingularized_ratio(h, hb))

    # L = p^2/h + (hb/2) h + R, the kinetic term desingularized so dry
    # cells contribute zero
    r_center, r_iface = source_potential(u, topo, coriolis, grid)
    l_cell = p * desingularized_ratio(h, p)
    l_cell += 0.5 * hb * h
    l_cell += r_center
    l_pad = pad_cells(l_cell)

    q_minus, q_plus = interface_values(q_pad, sigma, dy)
    p_minus, p_plus = interface_values(p_pad, sigma, dy)
    l_minus, l_plus = interface_values(l_pad, sigma, dy)
    b_minus, b_plus = interface_values(b_pad, sigma, dy)
    b_mid = 0.5 * (b_minus + b_plus)

    # surface-based fallback depths: w reconstructed like any other field,
    # less the interface bottom, clipped at zero
    w_minus, w_plus = interface_values(pad_cells(h + topo.z_center), sigma, dy)
    fb_minus = np.maximum(w_minus - topo.z_iface, 0.0)
    fb_plus = np.maximum(w_plus - topo.z_iface, 0.0)
    h_minus = depth_from_equilibrium(p_minus, b_mid, l_minus, r_iface, fb_minus)
    h_plus = depth_from_equilibrium(p_plus, b_mid, l_plus, r_iface, fb_plus)

    v_minus = desingularized_ratio(h_minus, p_minus)
    v_plus = desingularized_ratio(h_plus, p_plus)
    p_minus = h_minus * v_minus
    p_plus = h_plus * v_plus

    return InterfaceStates(
        h_minus=h_minus, h_plus=h_plus,
        q_minus=q_minus, q_plus=q_plus,
        p_minus=p_minus, p_plus=p_plus,
        b_minus=b_minus, b_plus=b_plus,
        l_minus=l_minus, l_plus=l_plus,
        v_minus=v_minus, v_plus=v_plus,
        l_cell_left=l_pad[1:-2], l_cell_right=l_pad[2:-1])
