"""The buffers that one run's RK stages write into.

``run_simulation`` builds one Workspace per run and passes it down: every
per-cell kernel of a stage writes its results and temporaries into the
workspace's rows (``out=``) instead of allocating arrays. A step then
allocates no array of n floats except the copy of its accepted state and
the depth solve's transient gathers: its cubic root branch indexes its own
interfaces of up to two sides out with a boolean mask, a handful of
temporaries of at most 2(n + 1) values that are freed before the solve
returns. After the first steps the heap neither grows nor shrinks. At
N = 25600 a row is 200 KB, and temporaries allocated and freed by the
hundred per stage let malloc hand the heap top back to the kernel, which
the next stage then faults in again.

An array handed out under a workspace, or left in it (``assemble_fluxes``
leaves the fluxes in ``flux`` and the speeds in ``speeds``), is valid
until the next stage writes over it.

Every row is a view of one float block with n + 4 columns (the padded
cell count) or of one boolean block of five rows. The rule: every value
that crosses a call of ``assemble_fluxes``, ``draining_limit``,
``_tendency`` or ``make_record`` lives in one of the 31 dedicated rows:
the two stage states and the tendency of the SSP-RK3 step, the interface
states (the side pairs below, v's pair and the row of L), the fluxes and
the speeds. At least eleven scratch rows s0.. hold the temporaries inside
one such call, which may write over all of them; ``__init__`` lists which
phase uses which.

The reconstruction runs over stacked blocks. The padded fields L, q, p, b
and w are five whole rows, one (5, n+4) block, and their one-sided values
a (2, 5, n+4) block, so each field's minus and plus values form a (2, n+1)
pair without a copy: ``l_side``, ``q_side``, ``p_side``, ``b_side`` and
``h_side``, w's pair. ``interface_values`` takes k of the fields at once,
k = min(5, max(1, _STACK_CELLS // (n+4))), as one contiguous array of k
rows end to end (numpy's iterator costs more per call on a strided
(k, n+4) view): one call per stage on small grids, one per field where a
row alone fills the cache. The depth solve takes g = min(k, 2) of the two
sides at a time and writes the depths over ``h_side``, the fallback
depths it starts from. A workspace has max(11, 5 + 2k) scratch rows.
"""

from __future__ import annotations

import numpy as np

GHOST = 2  # edge-copied ghost cells per side; enough for the slope stencil
# padded cells per stacked interface_values call: above the crossover one
# field per call is faster (see tools/floor_fit.py)
_STACK_CELLS = 16384

_DEDICATED = 31  # u1, u2, tend (4 each), flux (4), speeds (2), the side
#                  pairs of L, q, p, b, h and v (12), the L row of the fields
_SCRATCH = 11  # temporaries inside one call, which may write over them all
_BOOLS = 5


def fresh(shape, floats: int, flags: int = 0) -> tuple:
    """``floats`` float and ``flags`` boolean arrays of ``shape``, the
    scratch of a depth solve called without buffers."""
    return (tuple(np.empty(shape) for _ in range(floats))
            + tuple(np.empty(shape, bool) for _ in range(flags)))


class Workspace:
    """Preallocated stage buffers of a grid with ``n`` cells; see the
    module docstring. Attributes are plain views, created once."""

    def __init__(self, n: int):
        m, pad = n + 1, n + 2 * GHOST
        k = min(5, max(1, _STACK_CELLS // pad))
        block = np.empty((_DEDICATED + max(_SCRATCH, 5 + 2 * k), pad))
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
        # the interface states: (2, n+1) minus/plus pairs of L, q, p, b
        # and h, the last first holding w, at columns 1..n+1 of full rows
        # (a minus row's first n+2 columns are minmod's low scratch, and a
        # plus row's hold the n+2 scaled slopes, before the values), and v
        sides = block[18:28].reshape(2, 5, pad)
        self.l_side, self.q_side, self.p_side, self.b_side, self.h_side = (
            sides[:, i, 1:n + 2] for i in range(5))
        self.v_side = block[28:30, :m]
        # the padded fields L (dedicated), q, p, b, w (s0-s3)
        self.fields = block[30:35]
        cells = self.fields[:, GHOST:-GHOST]
        self.l_cell, self.qp_cells, self.b_cell, self.w_cell = (
            cells[0], cells[1:3], cells[3], cells[4])
        self.l_cell_left = self.fields[0, 1:-2]
        self.l_cell_right = self.fields[0, 2:-1]

        # reconstruction: R at interfaces (s4, lives through the depth
        # solve) and centres (s5), its increments (s6-s8), the cell L and
        # b's ratio work (s6), the groups of k fields end to end with their
        # one-sided differences and minmod's high scratch (s5 on, 2k rows),
        # b_mid (s0), then the depth solve over g sides at a time: 27 b
        # (s1), D (s2 on, g rows), its powers (s5 on, 2g rows) and flags
        # 0-2g (its cubic branch gathers into fresh temporaries), and v
        # (s2-s3)
        self.r_iface, self.r_center = s[4, :m], s[5, :n]
        self.r_iface_tail = self.r_iface[1:]
        self.sp_work = (s[6, :n], s[7, :n], s[8, :n])
        self.cell_work = s[6, :n]
        self.iv_groups = []
        for i in range(0, 5, k):
            j = min(k, 5 - i)
            minus, half = sides[0, i:i + j].ravel(), sides[1, i:i + j].ravel()
            self.iv_groups.append((
                self.fields[i:i + j].ravel(), (minus[1:-2], half[:-2]),
                (s[5:5 + j].ravel()[:-1], minus[:-2],
                 s[5 + k:5 + k + j].ravel()[:-2])))
        self.b_mid = s[0, :m]
        g = min(k, 2)
        self.depth_work = (s[2:2 + g, :m], s[5:5 + g, :m],
                           s[5 + g:5 + 2 * g, :m], s[1, :m], b[0, :m],
                           b[1:1 + g, :m], b[1 + g:1 + 2 * g, :m])
        self.ratio_work = s[2:4, :m]

        # fluxes: the switch (s0, work s1-s2), h*b of both sides (s9-s10,
        # formed once for the speeds and the hb row), the speeds (work
        # s1-s4), a+ - a- (s5), a+ a-/(a+ - a-) (s6), the products of the
        # q and hb rows (s7-s8) and one row's work (s1-s4)
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
        # over the first (s0-s1) and the donor drain times over the third
        # (s4-s5), with the nonzero-flux mask in flags 3-4 (free until the
        # step's finite check); the fluxes are scaled in their own rows
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
        self.drain_moving = b[3:5, :m]

        # the source term (s4-s5)
        self.source_out, self.source_work = s[4, :n], s[5, :n]

        # the per-step diagnostics record, between steps
        self.energy_rows = (s[0, :n], s[1, :n], s[2, :n], s[3, :n])
        self.record_rows = (s[0, :n], s[1, :n], s[2, :n])
        self.record_diff = s[3, :max(n - 1, 0)]
