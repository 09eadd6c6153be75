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

Every array is a view of one float block with n + 4 columns (the padded
cell count), or of one boolean block of five rows. Most are rows of it;
the fluxes and the flux's scratch are rows of n + 1 values laid end to
end in whole rows of it (``_packed``). The rule: every value
that crosses a call of ``assemble_fluxes``, ``draining_limit``,
``_tendency`` or ``make_record`` lives in one of the 33 dedicated rows:
the two stage states and the tendency of the SSP-RK3 step, the interface
states (the side pairs below, v's pair and the row of L), the fluxes and
the speeds. At least nine scratch rows s0.. hold the temporaries
inside one such call, which may write over all of them; ``__init__``
lists which phase uses which.

The interface states are one (2, 6, n+4) block of side rows, ordered L,
b, h, q, p, hb, so that each field's minus and plus values form a
(2, n+1) pair without a copy: ``l_side``, ``b_side``, ``h_side`` (w's
pair until the depth solve), ``q_side``, ``p_side`` and ``hb_side``, and
rows 2-5 are U = (h, q, p, hb) of both sides, a (2, 4, n+1) view.

The reconstruction runs over stacked blocks. The padded fields L, b, w,
q and p are five whole rows, one (5, n+4) block, whose one-sided values
are the first five side rows. ``interface_values`` takes k of the fields
at once, k = min(5, max(1, _STACK_CELLS // (n+4))), as one contiguous
array of k rows end to end (numpy's iterator costs more per call on a
strided (k, n+4) view): one call per stage on small grids, one per field
where a row alone fills the cache. The depth solve takes g = min(k, 2)
of the two sides at a time and writes the depths over ``h_side``, the
fallback depths it starts from.

The central-upwind flux runs the same way over the four components of U
and G = (p, q*v, L, p*b): each arithmetic step is one call over a group
of kf = min(4, max(1, _STACK_CELLS // (n+1))) components, ``flux_groups``,
four at once up to N = 4095 and one at a time from N = 8192, as at
N = 25600. U of a group is a strided view of the side rows; its
fluxes, its rows of G and its scratch are packed, so most of its calls
take contiguous arrays only: at N = 200 a ``numerical_flux`` call takes
0.68 times as long as with strided rows. Stacked groups need p and L
copied beside the products of G; a component alone reads them from its
side rows. A workspace has max(5 + 2k, 3 + g + 2kf) scratch rows, g = 8
rows of G for stacked groups and 4 for one component at a time.
"""

from __future__ import annotations

import numpy as np

GHOST = 2  # edge-copied ghost cells per side; enough for the slope stencil
# padded cells per stacked interface_values call, and interfaces per
# numerical_flux group: above the crossover one field or component per
# call is faster (see tools/floor_fit.py)
_STACK_CELLS = 16384

_DEDICATED = 33  # u1, u2, tend (4 each), flux (4), speeds (2), the side
#                  pairs of L, b, h, q, p, hb and v (14), the L row of the
#                  fields
_BOOLS = 5


def _packed(rows: np.ndarray, width: int) -> np.ndarray:
    """The whole rows ``rows`` of a block as rows of ``width`` values laid
    end to end, (len(rows), width): the rows of a group are then one
    contiguous array, which numpy's iterator takes in one pass."""
    return rows.reshape(-1)[:len(rows) * width].reshape(-1, width)


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
        kf = min(4, max(1, _STACK_CELLS // m))
        g_rows = 8 if kf > 1 else 4  # G of both sides, see the fluxes below
        block = np.empty((_DEDICATED + max(5 + 2 * k, 3 + g_rows + 2 * kf),
                          pad))
        b = np.empty((_BOOLS, pad), dtype=bool)
        s = block[_DEDICATED:]

        # the step: SSP-RK3 stage states and the one tendency buffer
        self.u1 = block[0:4, :n]
        self.u2 = block[4:8, :n]
        self.tend = block[8:12, :n]
        self.finite = b[0:4, :n]
        # the stage's fluxes, rows of n+1 end to end, and speeds
        self.flux = _packed(block[12:16], m)
        self.speeds = (block[16, :m], block[17, :m])
        # the interface states: (2, n+1) minus/plus pairs of L, b, h (first
        # holding w), q, p and hb, at columns 1..n+1 of full rows (a minus
        # row's first n+2 columns are minmod's low scratch, and a plus
        # row's hold the n+2 scaled slopes, before the values), and v
        sides = block[18:30].reshape(2, 6, pad)
        (self.l_side, self.b_side, self.h_side, self.q_side, self.p_side,
         self.hb_side) = (sides[:, i, 1:n + 2] for i in range(6))
        u_sides = sides[:, 2:6, 1:n + 2]  # U = (h, q, p, hb)
        self.v_side = block[30:32, :m]
        # the padded fields L (dedicated), b, w, q, p (s0-s3)
        self.fields = block[32:37]
        cells = self.fields[:, GHOST:-GHOST]
        self.l_cell, self.w_cell = cells[0], cells[2]
        self.ratio_cells, self.qp_cells = cells[0:2], cells[3:5]
        self.l_cell_left = self.fields[0, 1:-2]
        self.l_cell_right = self.fields[0, 2:-1]

        # reconstruction: R at interfaces (s4, lives through the depth
        # solve) and centres (s5), its increments (s6-s8), the cell ratios
        # p/h and hb/h, into the rows of L and b, with their work (s6-s7)
        # and hb/2 h (s6), the groups of k fields end to end with their
        # one-sided differences and minmod's high scratch (s5 on, 2k rows),
        # b_mid (s0), then the depth solve over g sides at a time: 27 b
        # (s1), D (s2 on, g rows), its powers (s5 on, 2g rows) and flags
        # 0-2g (its cubic branch gathers into fresh temporaries), and v
        # (s2-s3)
        self.r_iface, self.r_center = s[4, :m], s[5, :n]
        self.r_iface_tail = self.r_iface[1:]
        self.sp_work = (s[6, :n], s[7, :n], s[8, :n])
        self.cell_work = s[6, :n]
        self.ratio_cell_work = s[6:8, :n]
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

        # fluxes: the switch (s0, work s1-s2), the speeds (work s3-s6),
        # a+ - a- (s1), a+ a-/(a+ - a-) (s2), G of both sides (s3 on) and,
        # per group of kf components, the differences and minmod's low
        # scratch (2kf rows after G); a group forms U*, then the diffusion,
        # in its own flux rows, and the q and hb rows among them (odd rows
        # of the flux) take the switch. Stacked groups read G from a (2, 4)
        # block that holds copies of p and L beside the products q*v and
        # p*b (8 rows); a component alone reads p or L from its side rows
        # and a product from a (2, 2) block (4 rows), with nothing copied
        self.switch = s[0, :m]
        self.switch_work = (s[1, :m], s[2, :m], b[0, :m])
        self.speed_work = (s[3:5, :m], s[5:7, :m])
        self.safe, self.coef = s[1, :m], s[2, :m]
        self.degenerate = b[0, :m]
        if kf > 1:
            g = _packed(s[3:11], m).reshape(2, 4, m)
            self.g_copies = ((g[:, 0], self.p_side), (g[:, 2], self.l_side))
            self.g_products = (g[:, 1], g[:, 3])
            g_groups = [g[:, i:i + kf] for i in range(0, 4, kf)]
        else:
            products = _packed(s[3:7], m).reshape(2, 2, m)
            self.g_copies = ()
            self.g_products = (products[:, 0], products[:, 1])
            g_groups = [pair[:, None] for pair in (
                self.p_side, products[:, 0], self.l_side, products[:, 1])]
        t = 3 + g_rows
        delta, low = _packed(s[t:t + kf], m), _packed(s[t + kf:t + 2 * kf], m)
        self.flux_groups = []
        for i, g_group in zip(range(0, 4, kf), g_groups):
            j = min(kf, 4 - i)
            rows = slice(i, i + j)
            out = self.flux[rows]
            self.flux_groups.append((
                out, u_sides[0, rows], u_sides[1, rows],
                g_group[0], g_group[1], delta[:j], low[:j],
                out[(i + 1) % 2::2]))

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
