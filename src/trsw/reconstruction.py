"""Equilibrium-variable reconstruction.

The meridional momentum equation is closed through a global variable
L = p^2/h + (b/2) h^2 + R, where R integrates the Coriolis and topography
source terms in y. Reconstructing V = (q, p, L, b) with a generalized
minmod limiter and recovering one-sided interface depths from L keeps
discrete equilibria (p = 0, L = const) exactly stationary.

The kernels that read the run's fixed data, R's ``source_potential`` and
``build_interface_states``, take its Scenario: the grid, the bottom, f(y)
and sigma.
"""

from __future__ import annotations

import numpy as np

from .model import _TINY, Scenario, desingularized_ratio
from .workspace import GHOST, Workspace, fresh


def minmod(*args, out, work):
    """Componentwise minmod of two or more arguments: min of the arguments
    if all positive, max if all negative, zero otherwise. ``out`` receives
    the result and may be one of the arguments, and ``work`` is a pair of
    scratch arrays shaped like it; of two arguments, the second may be
    the second scratch array, which it then leaves overwritten.

    Evaluated branch-free as max(min(args), 0) + min(max(args), 0), so a
    NaN argument gives NaN.
    """
    lo_buf, hi_buf = work
    lo = np.minimum(args[0], args[1], out=lo_buf)
    hi = np.maximum(args[0], args[1], out=hi_buf)
    for a in args[2:]:
        lo = np.minimum(lo, a, out=lo_buf)
        hi = np.maximum(hi, a, out=hi_buf)
    res = np.maximum(lo, 0.0, out=out)
    res += np.minimum(hi, 0.0, out=hi_buf)
    return res


def interface_values(padded: np.ndarray, sigma: float, dy: float, out, work):
    """One-sided interface values of a cell field carrying GHOST=2 ghosts.

    For a physical grid of n cells (padded length n+4) returns the left
    ("minus") and right ("plus") limits at the n+1 physical interfaces,
    from generalized minmod slopes of the n+2 cells with both neighbours;
    sigma in [1, 2] trades diffusion against oscillation. ``out`` is a
    pair (minus, half) of n+1 and n+2 values; the plus side is returned as
    the tail of half. ``work`` holds the one-sided differences (n+3) and
    minmod's pair of scratch arrays (n+2).

    ``padded`` may also be k padded fields laid end to end, a flattened
    (k, n+4) block; every length above then grows by (k-1)(n+4). Field
    j's values start at j(n+4) of minus and of plus, and the three values
    between two fields mix them and mean nothing.
    """
    minus_buf, half_buf = out
    sided_buf, *minmod_work = work
    # one-sided differences: the left slope of cell i is the right of i-1
    sided = np.subtract(padded[1:], padded[:-1], out=sided_buf)
    sided /= dy
    sided *= sigma
    central = np.subtract(padded[2:], padded[:-2], out=half_buf)
    central /= 2.0 * dy
    half = minmod(sided[:-1], central, sided[1:], out=central,
                  work=minmod_work)
    half *= 0.5 * dy
    minus = np.add(padded[1:-2], half[:-1], out=minus_buf)
    plus = np.subtract(padded[2:-1], half[1:], out=half[1:])
    return minus, plus


def _fill_ghosts(padded: np.ndarray, first: int = GHOST,
                 end: int = -GHOST) -> np.ndarray:
    """Zero-order extrapolation along the last axis: copy the outer cells
    of [first, end), by default the physical ones, into every cell beyond."""
    # from copies, as numpy assigns from an overlapping view of the same
    # array at half the speed over thousands of cells
    padded[..., :first] = padded[..., first:first + 1].copy()
    padded[..., end:] = padded[..., end - 1:end].copy()
    return padded


def source_potential(u: np.ndarray, scenario: Scenario, ws: Workspace):
    """Running integral R of f*q + h*b*Z_y, at cell centers and interfaces,
    for the (4, n) state ``u``; the results are the workspace's
    ``r_center`` and ``r_iface``.

    The interface recursion uses the cell value of f*q and hb times the
    interface jump of Z; the center recursion uses trapezoidal averages.
    The datum is R = 0 at the left boundary interface, and the first center
    value is the average of the two enclosing interface values.
    """
    dy, topo = scenario.grid.dy, scenario.topography
    coriolis = scenario.coriolis
    # constant f is the scalar f0, as in the source term; a variable f is
    # evaluated once per run
    f = coriolis.f0 if coriolis.is_constant else scenario.coriolis_values[0]
    hb = u[3]
    fq, inc, inc_z = ws.sp_work
    np.multiply(u[1], f, out=fq)

    r_iface = ws.r_iface
    r_iface[0] = 0.0
    np.multiply(fq, dy, out=inc)
    inc += np.multiply(hb, topo.dz_iface, out=inc_z)
    inc.cumsum(out=ws.r_iface_tail)

    r_center = ws.r_center
    r_center[0] = 0.5 * (r_iface[0] + r_iface[1])
    inc = np.add(fq[:-1], fq[1:], out=inc[:-1])
    inc *= 0.5
    inc *= dy
    inc_z = np.add(hb[:-1], hb[1:], out=inc_z[:-1])
    inc_z *= 0.5
    inc_z *= topo.dz_center
    inc += inc_z
    tail = inc.cumsum(out=r_center[1:])
    tail += r_center[0]
    return r_center, r_iface


def depth_from_equilibrium(p_side, b_mid, l_side, r_iface, h_fallback,
                           work=None):
    """Recover the one-sided interface depth from p, L and R.

    The definition of L gives p^2/h + (b/2) h^2 = L - R =: D, a cubic in h.
    With D > 0 and p^4 <= 8 D^3 / (27 b) it has two positive roots
    2*sqrt(Y)*cos((T + 2*pi*l)/3), Y = 2D/(3b), T = arccos(-p^2/(b Y^{3/2}));
    the one closer to the surface-based fallback is physical (ties break to
    the larger, subsonic root). p = 0 collapses to sqrt(2D/b) for D > 0.
    In every other case (no positive root, D <= 0, or vanishing b) the
    fallback depth is returned, so the function is total.

    With ``work``, p_side, l_side and h_fallback are (2, m) minus/plus
    pairs and b_mid and r_iface (m,) rows broadcast over them; the depths
    of both sides are written over h_fallback, which is returned.
    ``work`` is three float and, last, two flag blocks (2, m), with a
    float row (27 b) and a flag of b's shape between them. Without
    ``work`` the inputs broadcast and the result is fresh, a float for
    scalars.
    """
    if work is None:
        args = np.broadcast_arrays(*(
            np.asarray(a, float)
            for a in (p_side, b_mid, l_side, r_iface, h_fallback)))
        shape = args[0].shape
        p, b, l, r, fb = (a.ravel() for a in args)
        h = fb[None].copy()  # one side
        _solve_depth(p[None], b, l[None], r, h, fresh(h.shape, 3)
                     + fresh(b.shape, 1, 1) + fresh(h.shape, 0, 2))
        return float(h[0, 0]) if not shape else h.reshape(shape)
    return _solve_depth(p_side, b_mid, l_side, r_iface, h_fallback, work)


def _solve_depth(p, b, l, r, h, work):
    """depth_from_equilibrium on (s, m) sides, over the fallback depths
    that ``h`` holds; see there."""
    d, x, t, b27, ok, rootable, mask = work
    np.subtract(l, r, out=d)

    # 8 d^3 / (27 b) over b with 1 in its place where b <= TINY, so that
    # every lane divides by a positive number without overflow; ok masks
    # those lanes out of the test
    np.greater(b, _TINY, out=ok)
    np.maximum(b, np.logical_not(ok, out=mask[0]), out=b27)
    b27 *= 27.0
    np.multiply(d, d, out=x)
    x *= d
    x *= 8.0
    x /= b27
    p4 = np.multiply(p, p, out=t)
    p4 *= p4
    # d > 0 is tested on its own because p^4 and d^3 can both underflow to
    # zero; the powers are products, several times cheaper than pow
    np.less_equal(p4, x, out=rootable)
    rootable &= np.greater(d, 0.0, out=mask)
    rootable &= ok

    # the p = 0 roots are written in place, the cubic ones gather theirs.
    # Masked loops cost least here: the same roots formed on every side
    # and copied in take two more passes, which cost as much as the masks
    # save where most sides have p = 0 and more where few do
    zero_p = np.equal(p, 0.0, out=mask)
    zero_p &= rootable
    np.multiply(d, 2.0, out=h, where=zero_p)
    np.divide(h, b, out=h, where=zero_p)
    np.sqrt(h, out=h, where=zero_p)

    # the other rootable sides have p != 0 (a NaN p is not rootable)
    m = np.not_equal(rootable, zero_p, out=rootable)
    np.copyto(t, b)  # b on every side row, to gather like the others
    # where a cubic root exists, h still holds the fallback
    dm, bm, pm, fbm = d[m], t[m], p[m], h[m]
    y = dm * 2.0 / (bm * 3.0)
    sq = np.sqrt(y)
    # the ratio is never positive, so only -1 can bound it
    theta = np.arccos(np.maximum(-pm * pm / (bm * y * sq), -1.0))
    two_sq = sq * 2.0
    # round-off in theta can push a vanishing root a hair below zero
    r_sub = np.maximum(np.cos(theta / 3.0) * two_sq, 0.0)
    r_sup = np.maximum(np.cos((theta + 4.0 * np.pi) / 3.0) * two_sq, 0.0)
    h[m] = np.where(np.abs(r_sub - fbm) <= np.abs(r_sup - fbm), r_sub, r_sup)
    return h


def build_interface_states(u: np.ndarray, scenario: Scenario,
                           ws: Workspace) -> None:
    """Full reconstruction pipeline from the cell averages of the (4, n)
    state ``u``, not checked here, to the interface states: the
    workspace's (2, n+1) pairs ``l_side``, ``q_side``, ``p_side``,
    ``b_side``, ``h_side`` and ``v_side`` (row 0 the limit from the left
    cell, row 1 from the right) and ``l_cell_left``/``l_cell_right``, the
    cell L on either side for the diffusion switch. p is recomputed as h*v
    after desingularization, so p = h*v holds exactly.

    The cell values of L, b, the surface w = h + Z, q and p are written
    into the n cells of the workspace's (5, n+4) field block and
    edge-padded there, which gives the same ghost values as forming b, L
    and w on the padded state. interface_values takes the fields in the
    workspace's groups, and one depth solve takes both sides of w's pair
    and writes the depths over it.
    """
    sigma, dy = scenario.numerics.sigma, scenario.grid.dy
    topo = scenario.topography
    h, p, hb = u[0], u[2], u[3]

    # L = p^2/h + (hb/2) h + R, the kinetic term desingularized so dry
    # cells contribute zero, and b = hb/h: the ratios p/h and hb/h in one
    # call, into the rows of L and b
    r_center, r_iface = source_potential(u, scenario, ws)
    desingularized_ratio(h, u[2:4], out=ws.ratio_cells,
                         work=ws.ratio_cell_work)
    l_cell = ws.l_cell
    l_cell *= p
    half_hb = np.multiply(hb, 0.5, out=ws.cell_work)
    half_hb *= h
    l_cell += half_hb
    l_cell += r_center
    np.copyto(ws.qp_cells, u[1:3])
    np.add(h, topo.z_center, out=ws.w_cell)
    _fill_ghosts(ws.fields)
    for padded, out, work in ws.iv_groups:
        interface_values(padded, sigma, dy, out, work)
    l_side, p_side, b_side, h_side = ws.l_side, ws.p_side, ws.b_side, ws.h_side
    b_mid = np.add(b_side[0], b_side[1], out=ws.b_mid)
    b_mid *= 0.5

    # surface-based fallback depths: w reconstructed like any other field,
    # less the interface bottom, clipped at zero
    np.subtract(h_side, topo.z_iface, out=h_side)
    np.maximum(h_side, 0.0, out=h_side)
    # the depths replace the fallback depths that the solve starts from
    depth_from_equilibrium(p_side, b_mid, l_side, r_iface, h_side,
                           work=ws.depth_work)

    # p = h*v over the reconstructed p, which the depth solve has read
    v_side = desingularized_ratio(h_side, p_side, out=ws.v_side,
                                  work=ws.ratio_work)
    np.multiply(h_side, v_side, out=p_side)
