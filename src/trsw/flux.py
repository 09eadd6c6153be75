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

from .reconstruction import InterfaceStates, minmod

_DEGENERATE = 1.0e-12
_TINY = 1.0e-300
# constants C and m of the diffusion switch H(psi)
_SWITCH_C = 400.0
_SWITCH_M = 8


def local_speeds(v_minus, v_plus, h_minus, h_plus, b_minus, b_plus):
    """One-sided propagation speeds from the extreme eigenvalues
    v +/- sqrt(h*b), clamped so that a_plus >= 0 >= a_minus."""
    hb_m = np.asarray(h_minus, float) * np.asarray(b_minus, float)
    hb_p = np.asarray(h_plus, float) * np.asarray(b_plus, float)
    if (hb_m < 0.0).any() or (hb_p < 0.0).any():
        raise ValueError("negative h*b in speed estimate")
    c_m = np.sqrt(hb_m)
    c_p = np.sqrt(hb_p)
    a_plus = np.maximum(np.maximum(v_minus + c_m, v_plus + c_p), 0.0)
    a_minus = np.minimum(np.minimum(v_minus - c_m, v_plus - c_p), 0.0)
    return a_plus, a_minus


def diffusion_switch(l_left, l_right, dy: float, domain_length: float):
    """Smooth cut-off H(psi) = (C psi)^m / (1 + (C psi)^m) of the scaled
    local variation of L between neighbouring cells.

    psi compares |dL|/dy against L itself over the domain length; the
    denominator falls back to |L| (floored away from zero) when both cell
    values are nonpositive, which keeps the switch defined off the
    physically expected L > 0 regime.
    """
    l_left = np.asarray(l_left, float)
    l_right = np.asarray(l_right, float)
    denom = np.maximum(l_left, l_right)
    denom = np.where(denom > 0.0, denom,
                     np.maximum(np.maximum(np.abs(l_left), np.abs(l_right)),
                                _TINY))
    psi = np.abs(l_right - l_left) / dy * domain_length / denom
    # evaluate (C psi)^m / (1 + (C psi)^m) through the reciprocal so huge
    # arguments saturate at 1 instead of overflowing
    with np.errstate(divide="ignore", over="ignore"):
        inv = np.where(psi > 0.0, (_SWITCH_C * psi) ** (-float(_SWITCH_M)),
                       np.inf)
    return 1.0 / (1.0 + inv)


def _central_upwind_row(out, u_minus, u_plus, g_minus, g_plus, a_plus,
                        a_minus, safe, coef, fallback, switch=None):
    """One component of the central-upwind flux, written into ``out``:
    (a+ G- - a- G+)/(a+ - a-) + a+ a-/(a+ - a-) * (U+ - U- - dU), with the
    built-in anti-diffusion dU = minmod(U+ - U*, U* - U-) of the
    intermediate state U* = (a+ U+ - a- U- - (G+ - G-)) / (a+ - a-).

    ``safe`` is a+ - a- with degenerate entries set to one, ``coef`` is
    a+ a- / safe, ``switch`` scales the diffusion term, and the interfaces
    listed in ``fallback`` get the mean (G- + G+)/2 instead.
    """
    u_star = a_plus * u_plus
    u_star -= a_minus * u_minus
    u_star -= g_plus - g_minus
    u_star /= safe
    delta = u_plus - u_star
    np.subtract(u_star, u_minus, out=u_star)
    minmod(delta, u_star, out=delta)
    diffusion = np.subtract(u_plus, u_minus, out=u_star)
    diffusion -= delta
    diffusion *= coef
    if switch is not None:
        diffusion *= switch
    np.multiply(a_plus, g_minus, out=out)
    out -= a_minus * g_plus
    out /= safe
    out += diffusion
    if fallback.size:
        out[fallback] = 0.5 * (g_minus[fallback] + g_plus[fallback])


def numerical_flux(iface: InterfaceStates, switch):
    """Central-upwind fluxes at every interface, (4, n_interfaces).

    The flux of U = (h, q, p, hb) is G = (p, q*v, L, p*b), built one
    component at a time. Components h and L keep full diffusion; the q and
    hb diffusion terms are multiplied by the switch. Degenerate speeds
    (a+ - a- below round-off) fall back to the arithmetic mean of the
    one-sided fluxes.

    Returns (fluxes, a_plus, a_minus).
    """
    h_m, h_p, b_m, b_p = iface.h_minus, iface.h_plus, iface.b_minus, iface.b_plus
    q_m, q_p, p_m, p_p = iface.q_minus, iface.q_plus, iface.p_minus, iface.p_plus
    a_plus, a_minus = local_speeds(iface.v_minus, iface.v_plus,
                                   h_m, h_p, b_m, b_p)
    safe = a_plus - a_minus
    degenerate = safe < _DEGENERATE
    safe[degenerate] = 1.0
    common = (a_plus, a_minus, safe, a_plus * a_minus / safe,
              degenerate.nonzero()[0])

    flux = np.empty((4, safe.size))
    _central_upwind_row(flux[0], h_m, h_p, p_m, p_p, *common)
    _central_upwind_row(flux[1], q_m, q_p, q_m * iface.v_minus,
                        q_p * iface.v_plus, *common, switch)
    _central_upwind_row(flux[2], p_m, p_p, iface.l_minus, iface.l_plus,
                        *common)
    _central_upwind_row(flux[3], h_m * b_m, h_p * b_p, p_m * b_m, p_p * b_p,
                        *common, switch)
    return flux, a_plus, a_minus
