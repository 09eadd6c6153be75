"""Central-upwind numerical fluxes with anti-diffusion and a diffusion
switch.

The flux of U = (h, q, p, hb) under the global formulation is
G = (p, q*v, L, p*b). Numerical diffusion in the q and hb components is
premultiplied by a smooth switch H that vanishes where L is locally
constant, so equilibria see no spurious diffusion from the non-constant
q and b profiles they carry.

H is evaluated as 1 / (1 + (C psi)^-m), with the power taken only where
C psi is above 2^-128. At and below it (C psi)^-m overflows, so H is
exactly 0 there, and pow takes its slow paths: about 10 ns per value at
0 and 100 ns where it overflows, against 2.5 ns for a normal argument
(numpy 2.4 on a Xeon guest). Near equilibria, where the switch is meant
to act, C psi is 0 at most interfaces (88% of ex3b's at N = 25600, 98%
of ex6's), so the power is masked to the live values, and their flags
divided by 1 + (C psi)^-m give H: the same bits in less than half the
time at N = 25600.

One formula serves all four components, and each of its arithmetic
steps is one numpy call over a group of components: U of both sides is
a view of the workspace's side rows h, q, p and hb, G is formed once per
call in one block, and the groups are the workspace's
``flux_groups``, four components at once on grids of up to 4095 cells
and one at a time from 8192 on (see ``trsw.workspace``). The products
h*b, q*v and p*b and the speeds each take both sides in one call.
"""

from __future__ import annotations

import numpy as np

from .model import _TINY
from .reconstruction import minmod
from .workspace import Workspace

_DEGENERATE = 1.0e-12
# constants C and m of the diffusion switch H(psi)
_SWITCH_C = 400.0
_SWITCH_M = 8
# C psi at and below which (C psi)^-m overflows and H is 0: 2^-128
_SWITCH_FLOOR = 2.0 ** (-1024 // _SWITCH_M)


def local_speeds(v_side, hb_side, out, work):
    """One-sided propagation speeds from the extreme eigenvalues
    v +/- sqrt(h*b), clamped so that a_plus >= 0 >= a_minus, given v and
    the products h*b as (2, m) minus/plus pairs.

    ``out`` is a pair of (m,) arrays for (a_plus, a_minus) and ``work``
    two scratch pairs shaped like the sides. NaN neither raises nor hides
    a negative product."""
    c, t = work
    if np.fmin.reduce(hb_side, axis=None) < 0.0:
        raise ValueError("negative h*b in speed estimate")
    np.sqrt(hb_side, out=c)
    np.add(v_side, c, out=t)
    a_plus = np.maximum(t[0], t[1], out=out[0])
    np.maximum(a_plus, 0.0, out=a_plus)
    np.subtract(v_side, c, out=t)
    a_minus = np.minimum(t[0], t[1], out=out[1])
    np.minimum(a_minus, 0.0, out=a_minus)
    return a_plus, a_minus


def diffusion_switch(l_left, l_right, dy: float, domain_length: float,
                     out, work):
    """Smooth cut-off H(psi) = (C psi)^m / (1 + (C psi)^m) of the scaled
    local variation of L between neighbouring cells.

    psi compares |dL|/dy against L itself over the domain length; the
    denominator falls back to |L| (floored away from zero) when both cell
    values are nonpositive, which keeps the switch defined off the
    physically expected L > 0 regime. ``out`` receives H and ``work`` is
    two float and one boolean scratch arrays of its shape.
    """
    larger, denom, positive = work
    np.maximum(l_left, l_right, out=larger)
    np.abs(l_left, out=denom)
    np.maximum(denom, np.abs(l_right, out=out), out=denom)
    np.maximum(denom, _TINY, out=denom)
    np.copyto(denom, larger, where=np.greater(larger, 0.0, out=positive))
    psi = np.subtract(l_right, l_left, out=larger)
    np.abs(psi, out=psi)
    psi /= dy
    psi *= domain_length
    psi /= denom
    # H = 1 / (1 + (C psi)^-m) with the power only where C psi > 2^-128
    # (see the module docstring): the other values keep C psi, and their
    # flags over 1 + C psi give H = 0. fmax sends NaN to 0 first
    x = np.fmax(psi, 0.0, out=psi)
    with np.errstate(over="ignore"):
        # C psi overflows to inf above about 4.5e305, where H = 1
        x *= _SWITCH_C
    live = np.greater(x, _SWITCH_FLOOR, out=positive)
    np.power(x, -float(_SWITCH_M), out=x, where=live)
    x += 1.0
    return np.divide(live, x, out=out)


def numerical_flux(switch, ws: Workspace):
    """Central-upwind fluxes at every interface, (4, n_interfaces), from
    the interface states in the workspace's side pairs:
    (a+ G- - a- G+)/(a+ - a-) + a+ a-/(a+ - a-) * (U+ - U- - dU), with the
    built-in anti-diffusion dU = minmod(U+ - U*, U* - U-) of the
    intermediate state U* = (a+ U+ - a- U- - (G+ - G-)) / (a+ - a-).

    U = (h, q, p, hb) and G = (p, q*v, L, p*b). Components h and L keep
    full diffusion; the q and hb diffusion terms are multiplied by the
    switch. Degenerate speeds (a+ - a- below round-off) fall back to the
    arithmetic mean of the one-sided fluxes. Each step runs over one of
    the workspace's groups of components at a time.

    Returns (fluxes, a_plus, a_minus), rows of the workspace ``ws``.
    """
    hb_side = np.multiply(ws.h_side, ws.b_side, out=ws.hb_side)
    a_plus, a_minus = local_speeds(ws.v_side, hb_side, ws.speeds,
                                   ws.speed_work)
    safe = np.subtract(a_plus, a_minus, out=ws.safe)
    degenerate = np.less(safe, _DEGENERATE, out=ws.degenerate)
    safe[degenerate] = 1.0
    coef = np.multiply(a_plus, a_minus, out=ws.coef)
    coef /= safe
    # G of both sides: the products q*v and p*b, and p and L beside them
    np.multiply(ws.q_side, ws.v_side, out=ws.g_products[0])
    np.multiply(ws.p_side, ws.b_side, out=ws.g_products[1])
    for stacked, side in ws.g_copies:
        np.copyto(stacked, side)

    fallback = degenerate.nonzero()[0]
    for out, u_m, u_p, g_m, g_p, delta, low, switched in ws.flux_groups:
        # U* in the group's flux rows
        u_star = np.multiply(a_plus, u_p, out=out)
        u_star -= np.multiply(a_minus, u_m, out=delta)
        u_star -= np.subtract(g_p, g_m, out=delta)
        u_star /= safe
        np.subtract(u_p, u_star, out=delta)
        np.subtract(u_star, u_m, out=u_star)
        # U* - U- is not read again, so it is minmod's high scratch
        minmod(delta, u_star, out=delta, work=(low, u_star))
        diffusion = np.subtract(u_p, u_m, out=out)
        diffusion -= delta
        diffusion *= coef
        switched *= switch
        central = np.multiply(a_plus, g_m, out=low)
        central -= np.multiply(a_minus, g_p, out=delta)
        central /= safe
        out += central
        if fallback.size:
            out[:, fallback] = 0.5 * (g_m[:, fallback] + g_p[:, fallback])
    return ws.flux, a_plus, a_minus
