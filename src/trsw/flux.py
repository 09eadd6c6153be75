"""Central-upwind numerical fluxes with anti-diffusion and a diffusion
switch.

The flux of U = (h, q, p, hb) under the global formulation is
G = (p, q*v, L, p*b). Numerical diffusion in the q and hb components is
premultiplied by a smooth switch H that vanishes where L is locally
constant, so equilibria see no spurious diffusion from the non-constant
q and b profiles they carry.
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


def local_speeds(v_minus, v_plus, hb_minus, hb_plus, out, work):
    """One-sided propagation speeds from the extreme eigenvalues
    v +/- sqrt(h*b), clamped so that a_plus >= 0 >= a_minus, given the
    products h*b of both sides.

    ``out`` is a pair of arrays for (a_plus, a_minus) and ``work`` four
    float and one boolean scratch arrays of their shape."""
    c_m, c_p, t_m, t_p, negative = work
    if (np.less(hb_minus, 0.0, out=negative).any()
            or np.less(hb_plus, 0.0, out=negative).any()):
        raise ValueError("negative h*b in speed estimate")
    np.sqrt(hb_minus, out=c_m)
    np.sqrt(hb_plus, out=c_p)
    a_plus = np.maximum(np.add(v_minus, c_m, out=t_m),
                        np.add(v_plus, c_p, out=t_p), out=out[0])
    np.maximum(a_plus, 0.0, out=a_plus)
    a_minus = np.minimum(np.subtract(v_minus, c_m, out=t_m),
                         np.subtract(v_plus, c_p, out=t_p), out=out[1])
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
    # evaluate (C psi)^m / (1 + (C psi)^m) through the reciprocal so huge
    # arguments saturate at 1 instead of overflowing; psi is >= 0 or NaN,
    # and fmax sends NaN to 0, whose reciprocal term is inf (H = 0)
    with np.errstate(divide="ignore", over="ignore"):
        inv = np.fmax(psi, 0.0, out=psi)
        inv *= _SWITCH_C
        np.power(inv, -float(_SWITCH_M), out=inv)
    inv += 1.0
    return np.divide(1.0, inv, out=out)


def _central_upwind_row(out, work, u_minus, u_plus, g_minus, g_plus, a_plus,
                        a_minus, safe, coef, fallback, switch=None):
    """One component of the central-upwind flux, written into ``out``:
    (a+ G- - a- G+)/(a+ - a-) + a+ a-/(a+ - a-) * (U+ - U- - dU), with the
    built-in anti-diffusion dU = minmod(U+ - U*, U* - U-) of the
    intermediate state U* = (a+ U+ - a- U- - (G+ - G-)) / (a+ - a-).

    ``safe`` is a+ - a- with degenerate entries set to one, ``coef`` is
    a+ a- / safe, ``switch`` scales the diffusion term, and the interfaces
    listed in ``fallback`` get the mean (G- + G+)/2 instead. ``work`` is
    four scratch arrays shaped like ``out``.
    """
    star, delta, *minmod_work = work
    u_star = np.multiply(a_plus, u_plus, out=star)
    u_star -= np.multiply(a_minus, u_minus, out=delta)
    u_star -= np.subtract(g_plus, g_minus, out=delta)
    u_star /= safe
    np.subtract(u_plus, u_star, out=delta)
    np.subtract(u_star, u_minus, out=u_star)
    minmod(delta, u_star, out=delta, work=minmod_work)
    diffusion = np.subtract(u_plus, u_minus, out=u_star)
    diffusion -= delta
    diffusion *= coef
    if switch is not None:
        diffusion *= switch
    np.multiply(a_plus, g_minus, out=out)
    out -= np.multiply(a_minus, g_plus, out=delta)
    out /= safe
    out += diffusion
    if fallback.size:
        out[fallback] = 0.5 * (g_minus[fallback] + g_plus[fallback])


def numerical_flux(switch, ws: Workspace):
    """Central-upwind fluxes at every interface, (4, n_interfaces), from
    the interface states in the workspace's side pairs.

    The flux of U = (h, q, p, hb) is G = (p, q*v, L, p*b), built one
    component at a time. Components h and L keep full diffusion; the q and
    hb diffusion terms are multiplied by the switch. Degenerate speeds
    (a+ - a- below round-off) fall back to the arithmetic mean of the
    one-sided fluxes.

    Returns (fluxes, a_plus, a_minus), rows of the workspace ``ws``.
    """
    (h_m, h_p), (q_m, q_p), (p_m, p_p) = ws.h_side, ws.q_side, ws.p_side
    (b_m, b_p), (l_m, l_p), (v_m, v_p) = ws.b_side, ws.l_side, ws.v_side
    hb_m = np.multiply(h_m, b_m, out=ws.hb_minus)
    hb_p = np.multiply(h_p, b_p, out=ws.hb_plus)
    a_plus, a_minus = local_speeds(v_m, v_p, hb_m, hb_p, ws.speeds,
                                   ws.speed_work)
    safe = np.subtract(a_plus, a_minus, out=ws.safe)
    degenerate = np.less(safe, _DEGENERATE, out=ws.degenerate)
    safe[degenerate] = 1.0
    coef = np.multiply(a_plus, a_minus, out=ws.coef)
    coef /= safe
    common = (a_plus, a_minus, safe, coef, degenerate.nonzero()[0])
    work = ws.row_work

    flux = ws.flux
    _central_upwind_row(flux[0], work, h_m, h_p, p_m, p_p, *common)
    _central_upwind_row(flux[1], work, q_m, q_p,
                        np.multiply(q_m, v_m, out=ws.g_minus),
                        np.multiply(q_p, v_p, out=ws.g_plus),
                        *common, switch)
    _central_upwind_row(flux[2], work, p_m, p_p, l_m, l_p, *common)
    _central_upwind_row(flux[3], work, hb_m, hb_p,
                        np.multiply(p_m, b_m, out=ws.g_minus),
                        np.multiply(p_p, b_p, out=ws.g_plus),
                        *common, switch)
    return flux, a_plus, a_minus
