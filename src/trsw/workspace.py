"""The buffers that one run's RK stages write into.

``run_simulation`` builds one Workspace per run and passes it down: every
per-cell kernel of a stage writes its results and temporaries into the
workspace's rows (``out=``) instead of allocating arrays. A step then
allocates no array of n floats except the copy of its accepted state and
the depth solve's transient gathers: each root branch of
``reconstruction._solve_depth`` indexes its own interfaces out with a
boolean mask, a handful of temporaries of at most n + 1 values that are
freed before the solve returns. After the first steps the heap neither
grows nor shrinks. At N = 25600 a row is 200 KB, and temporaries
allocated and freed by the hundred per stage let malloc hand the heap top
back to the kernel, which the next stage then faults in again.

An array handed out under a workspace is valid until the next stage
writes over it. A public kernel called without a workspace builds a
fresh one, so its results are fresh arrays.

Every row is a view of one float block with n + 4 columns (the padded
cell count) or of one boolean block. Dedicated rows hold what lives
through a stage or a step: the two stage states and the tendency of the
SSP-RK3 step, the interface states, the fluxes and the speeds. Eleven
scratch rows s0..s10 are shared by temporaries whose lifetimes do not
overlap; ``__init__`` lists which phase of a stage uses which.
"""

from __future__ import annotations

import numpy as np

GHOST = 2  # edge-copied ghost cells per side; enough for the slope stencil

_DEDICATED = 31  # u1, u2, tend (4 each), flux (4), speeds (2), 12 sides, L pad
_SCRATCH = 11
_BOOLS = 4


def fresh(shape, floats: int, flags: int = 0) -> tuple:
    """``floats`` float and ``flags`` boolean arrays of ``shape``, the
    scratch of a kernel called without a workspace."""
    return (tuple(np.empty(shape) for _ in range(floats))
            + tuple(np.empty(shape, bool) for _ in range(flags)))


class Workspace:
    """Preallocated stage buffers of a grid with ``n`` cells; see the
    module docstring. Attributes are plain views, created once."""

    def __init__(self, n: int):
        m, pad = n + 1, n + 2 * GHOST
        block = np.empty((_DEDICATED + _SCRATCH, pad))
        b = np.empty((_BOOLS, pad), dtype=bool)
        s = block[_DEDICATED:]

        # the step: SSP-RK3 stage states and the one tendency buffer
        self.u1 = block[0:4, :n]
        self.u2 = block[4:8, :n]
        self.tend = block[8:12, :n]
        self.finite = b[0:4, :n]
        # the stage's fluxes and speeds
        self.flux = block[12:16, :m]
        self.speeds = (block[16, :m], block[17, :m])
        # one-sided interface values; a "half" row holds the n+2 scaled
        # slopes, and its tail [1:] becomes the plus side
        self.q_out = (block[18, :m], block[19, :n + 2])
        self.p_out = (block[20, :m], block[21, :n + 2])
        self.l_out = (block[22, :m], block[23, :n + 2])
        self.b_out = (block[24, :m], block[25, :n + 2])
        self.h_minus, self.h_plus = block[26, :m], block[27, :m]
        self.v_minus, self.v_plus = block[28, :m], block[29, :m]
        self.l_pad = block[30]
        self.l_cell = self.l_pad[GHOST:-GHOST]
        self.l_cell_left = self.l_pad[1:-2]
        self.l_cell_right = self.l_pad[2:-1]

        # reconstruction: R (s0, s1; R at interfaces lives through the
        # depth solves), its increments (s2-s4), the cell L (s2), the
        # padded q, p (s2-s3), b (s2, ratio work s3) and surface w (s2,
        # sides s3 and s6), slopes (s4, s5, s7), b_mid (s0), the depth
        # solve's rootable test (s2, s4, s5, flags 0-2; its root branches
        # gather into fresh temporaries) and v (s2)
        self.r_center, self.r_iface = s[0, :n], s[1, :m]
        self.r_iface_tail = self.r_iface[1:]
        self.sp_work = (s[2, :n], s[3, :n], s[4, :n])
        self.cell_work = s[2, :n]
        self.qp_pad = s[2:4]
        self.qp_cells = self.qp_pad[:, GHOST:-GHOST]
        self.iv_work = (s[4, :n + 3], s[5, :n + 2], s[7, :n + 2])
        self.b_pad = s[2]
        self.b_cell = self.b_pad[GHOST:-GHOST]
        self.b_work = s[3, :n]
        self.b_mid = s[0, :m]
        self.w_pad = s[2]
        self.w_cell = self.w_pad[GHOST:-GHOST]
        self.w_out = (s[3, :m], s[6, :n + 2])
        self.depth_work = (s[2, :m], s[4, :m], s[5, :m],
                           b[0, :m], b[1, :m], b[2, :m])
        self.ratio_work = s[2, :m]

        # fluxes: the switch (s0, work s1-s2), the speeds (work s1-s4),
        # a+ - a- (s5), a+ a-/(a+ - a-) (s6), the products of the q and hb
        # rows (s7-s10) and one row's work (s1-s4)
        self.switch = s[0, :m]
        self.switch_work = (s[1, :m], s[2, :m], b[0, :m])
        self.speed_work = (s[1, :m], s[2, :m], s[3, :m], s[4, :m], b[0, :m])
        self.safe, self.coef = s[5, :m], s[6, :m]
        self.degenerate = b[1, :m]
        self.g_minus, self.g_plus = s[7, :m], s[8, :m]
        self.hb_minus, self.hb_plus = s[9, :m], s[10, :m]
        self.row_work = (s[1, :m], s[2, :m], s[3, :m], s[4, :m])

        # draining limiter, rows h and hb side by side: the fluxes with a
        # zero on each side (s0-s1), outflows (s2-s3) and the negated
        # inflows (s4-s5); then the edge-padded densities and drain times
        # over the first (s0-s1), the donor drain times over the third
        # (s4-s5), and the limited fluxes over s0-s3
        ext = s[0:2, :n + 3]
        self.drain_ext = ext
        self.drain_ext_mid = ext[:, 1:-1]
        self.drain_ext_hi, self.drain_ext_lo = ext[:, 1:], ext[:, :-1]
        self.drain_out = s[2:4, :n + 2]
        self.drain_neg = s[4:6, :n + 2]
        rho = s[0:2, :n + 2]
        self.rho_ext = rho
        self.rho_mid = rho[:, 1:-1]
        self.rho_first, self.rho_last = rho[:, 0], rho[:, -1]
        self.rho_hi, self.rho_lo = rho[:, 1:], rho[:, :-1]
        self.donor = s[4:6, :m]
        self.drain_mask = b[0:2, :m]
        self.limited = b[2, :m]
        self.limited_flux = s[0:4, :m]
        self.limited_flux_rows = self.limited_flux[::3]

        # the source term (s4-s5, clear of the limited fluxes)
        self.source_out, self.source_work = s[4, :n], s[5, :n]

        # the per-step diagnostics record, between steps
        self.energy_rows = (s[0, :n], s[1, :n], s[2, :n], s[3, :n])
        self.record_rows = (s[0, :n], s[1, :n], s[2, :n])
        self.record_diff = s[3, :max(n - 1, 0)]
