"""The buffers that one run's RK stages write into.

``run_simulation`` builds one Workspace per run and passes it down: every
per-cell kernel of a stage writes its results and temporaries into the
workspace's rows (``out=``) instead of allocating arrays. A step then
allocates no array of n floats except the copy of its accepted state and
the depth solve's transient gathers: its cubic root branch indexes its own
interfaces of up to two sides out with a boolean mask, into temporaries
of at most 2(n + 1) values each that are freed before the solve returns.
At most 13 of them are alive at once: the four gathered operands, y, its
root, theta, twice the root, both candidate depths and three temporaries
of the choice between them. Where every interface takes the branch, that
is 6.5 states of 4n floats (6.52 traced at N = 4096). After the first steps the heap neither grows nor shrinks. At
N = 25600 a row is 200 KB, and temporaries allocated and freed by the
hundred per stage let malloc hand the heap top back to the kernel, which
the next stage then faults in again.

An array handed out under a workspace, or left in it (``assemble_fluxes``
leaves the fluxes in ``flux`` and the speeds in ``speeds``), is valid
until the next stage writes over it.

Every array is a view of one float block with n + 4 columns (the padded
cell count), ``block``, or of one boolean block of five rows,
``flag_block``. Both start on a 64-byte cache line, whatever the heap
hands out.

A step on a window of its grid (see ``trsw.stepper``) runs in a
workspace of the window's m cells, ``Workspace(m, within=run_ws)``,
whose blocks start at the run's, on a cache line. It reads none of the
run's rows, and spreads its new state from its u1, the first 4m floats,
into the run's u2 rows, from float 4(n + 4) on. So a window costs no
memory and a step whose window grows allocates no block. Every window
fits (``run_ws.fits(m)``) but one within about 4% of n cells that takes
more flux group rows (kf, below) than the run's grid.

The packing rule: a
buffer of several rows that a stage kernel hands whole to numpy is rows
of n or n + 1 values laid end to end in whole rows of the block
(``_packed``), so that numpy runs it as one 1-D loop; on a strided view,
rows of n inside rows of n + 4, a call costs about 1 us more at N = 200.
The stage states u1 and u2, the tendency, the finite mask, the fluxes,
v's pair and the work rows of the ratios, the speeds, the depth solve
and the flux groups are laid out so. The one exception is the side
pairs of the interface states below: ``interface_values`` writes them as
k fields end to end in rows of n + 4, which pins their rows to that
width, and packing them by a copy would add a full pass per stage.

The draining limiter lays the h and hb rows end to end as one flat
array each: the fluxes with a zero before, between and after the rows,
the outflows, densities and drain times of the n + 2 edge-padded cells
of each row, and the donor drain times, with one slot per interface.
The slot n + 1 of the fluxes and donors, between the rows, is a
junction that belongs to neither row: its flux is the zero, and the
drain sets its donor time to +inf before it tests whether any donor
drains within dt, so the junction never decides anything.

The workspace contract: every value that crosses a call of
``assemble_fluxes``, ``draining_limit``, ``_tendency`` or
``make_record`` lives in one of the 33 dedicated rows:
the two stage states and the tendency of the SSP-RK3 step, the interface
states (the side pairs below, v's pair and the row of L), the fluxes and
the speeds. The scratch rows s0.. below hold the temporaries
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
where a row alone fills the cache. The depth solve takes both sides in
one call and writes the depths over ``h_side``, the fallback depths it
starts from.

The central-upwind flux runs the same way over the four components of U
and G = (p, q*v, L, p*b): each arithmetic step is one call over a group
of kf = min(4, max(1, _STACK_CELLS // (n+1))) components, ``flux_groups``,
four at once up to N = 4095 and one at a time from N = 8192, as at
N = 25600. U of a group is a strided view of the side rows; its
fluxes, its rows of G and its scratch are packed, so most of its calls
take contiguous arrays only: at N = 200 a ``numerical_flux`` call takes
0.68 times as long as with strided rows. G of both sides is one (2, 4)
block of 8 rows that holds copies of p and L beside the products, and a
group's G is a slice of its rows.

The grid size selects k and kf and nothing else. A workspace has
11 + 2kf scratch rows, the fluxes' (the switch, the two speed terms, G
and 2kf rows of group scratch). The reconstruction's 5 + 2k rows and
the depth solve's nine fit in them: n+1 interfaces are fewer than n+4
padded cells, so kf >= min(k, 4), and 5 + 2k <= 11 + 2 min(k, 4) for
every k up to 5.

The depth solve's root test runs plain loops over every side: a masked
(``where=``) loop costs numpy more per value than a plain one (a divide
1.5 times as much at N = 25600) and 1.2 us more per call at N = 200. It
divides by b with 1 in its place where b <= TINY, so that no lane
overflows. The p = 0 roots keep their masked loops, which write only the
sides that take them.
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
_ALIGN = 64  # bytes, a cache line: where each block starts


def _aligned(shape, dtype=float) -> np.ndarray:
    """An empty array of ``shape`` that starts on a cache line, cut from a
    slightly longer allocation: ``np.empty`` starts wherever the heap has
    room, and at N = 4000 that offset moves a step's time by about 10%."""
    dtype = np.dtype(dtype)
    size = int(np.prod(shape)) * dtype.itemsize
    raw = np.empty(size + _ALIGN, np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start:start + size].view(dtype).reshape(shape)


def _flat(rows: np.ndarray, size: int) -> np.ndarray:
    """The first ``size`` values of the whole rows ``rows`` of a block, one
    contiguous array."""
    return rows.reshape(-1)[:size]


def _packed(rows: np.ndarray, width: int) -> np.ndarray:
    """The whole rows ``rows`` of a block as rows of ``width`` values laid
    end to end, (len(rows), width): the rows of a group are then one
    contiguous array, which numpy's iterator takes in one pass."""
    return _flat(rows, len(rows) * width).reshape(len(rows), width)


def _shape(n: int) -> tuple:
    """The float block's shape for n cells, and k and kf."""
    pad = n + 2 * GHOST
    k = min(5, max(1, _STACK_CELLS // pad))
    kf = min(4, max(1, _STACK_CELLS // (n + 1)))
    return (_DEDICATED + 11 + 2 * kf, pad), k, kf


def fresh(shape, floats: int, flags: int = 0) -> tuple:
    """``floats`` float and ``flags`` boolean arrays of ``shape``, the
    scratch of a depth solve called without buffers."""
    return (tuple(np.empty(shape) for _ in range(floats))
            + tuple(np.empty(shape, bool) for _ in range(flags)))


class Workspace:
    """Preallocated stage buffers of a grid with ``n`` cells; see the
    module docstring. Attributes are plain views, created once.

    With ``within``, a workspace that ``fits`` in it, the blocks are cut
    from the start of its blocks: the workspace of a window of a run's
    grid, in the run's."""

    def __init__(self, n: int, within: "Workspace" = None):
        m = n + 1
        shape, k, kf = _shape(n)
        pad = shape[1]
        # the fluxes' scratch rows, which hold the reconstruction's too
        if within is None:
            self.block = block = _aligned(shape)
            self.flag_block = b = _aligned((_BOOLS, pad), bool)
        else:
            self.block = block = _flat(within.block, shape[0] * pad
                                       ).reshape(shape)
            self.flag_block = b = _flat(within.flag_block, _BOOLS * pad
                                        ).reshape(_BOOLS, pad)
        s = block[_DEDICATED:]

        # the step: SSP-RK3 stage states and the one tendency buffer
        self.u1 = _packed(block[0:4], n)
        self.u2 = _packed(block[4:8], n)
        self.tend = _packed(block[8:12], n)
        self.finite = _packed(b[0:4], n)
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
        self.v_side = _packed(block[30:32], m)
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
        # b_mid (s0), then the depth solve over both sides: 27 b, with 27
        # in place of b <= TINY (s1), D (s2-s3), 8 D^3 / (27 b) (s5-s6),
        # p^4 and then b on both sides (s7-s8), and flags 0-4, the first
        # the flag of b <= TINY until the root test (its cubic branch
        # gathers into fresh temporaries), and v (s2-s3)
        self.r_iface, self.r_center = s[4, :m], s[5, :n]
        self.r_iface_tail = self.r_iface[1:]
        self.sp_work = (s[6, :n], s[7, :n], s[8, :n])
        self.cell_work = s[6, :n]
        self.ratio_cell_work = _packed(s[6:8], n)
        self.iv_groups = []
        for i in range(0, 5, k):
            j = min(k, 5 - i)
            minus, half = sides[0, i:i + j].ravel(), sides[1, i:i + j].ravel()
            self.iv_groups.append((
                self.fields[i:i + j].ravel(), (minus[1:-2], half[:-2]),
                (s[5:5 + j].ravel()[:-1], minus[:-2],
                 s[5 + k:5 + k + j].ravel()[:-2])))
        self.b_mid = s[0, :m]
        self.depth_work = (_packed(s[2:4], m), _packed(s[5:7], m),
                           _packed(s[7:9], m), s[1, :m], b[0, :m],
                           _packed(b[1:3], m), _packed(b[3:5], m))
        self.ratio_work = _packed(s[2:4], m)

        # fluxes: the switch (s0, work s1-s2), the speeds (work s3-s6),
        # a+ - a- (s1), a+ a-/(a+ - a-) (s2), G of both sides as a (2, 4)
        # block (s3-s10) that holds copies of p and L beside the products
        # q*v and p*b, and, per group of kf components, the differences
        # and minmod's low scratch (s11 on, 2kf rows); a group forms U*,
        # then the diffusion, in its own flux rows, and the q and hb rows
        # among them (odd rows of the flux) take the switch
        self.switch = s[0, :m]
        self.switch_work = (s[1, :m], s[2, :m], b[0, :m])
        self.speed_work = (_packed(s[3:5], m), _packed(s[5:7], m))
        self.safe, self.coef = s[1, :m], s[2, :m]
        self.degenerate = b[0, :m]
        g = _packed(s[3:11], m).reshape(2, 4, m)
        self.g_copies = ((g[:, 0], self.p_side), (g[:, 2], self.l_side))
        self.g_products = (g[:, 1], g[:, 3])
        delta = _packed(s[11:11 + kf], m)
        low = _packed(s[11 + kf:11 + 2 * kf], m)
        self.flux_groups = []
        for i in range(0, 4, kf):
            j = min(kf, 4 - i)
            rows = slice(i, i + j)
            out = self.flux[rows]
            self.flux_groups.append((
                out, u_sides[0, rows], u_sides[1, rows], g[0, rows],
                g[1, rows], delta[:j], low[:j], out[(i + 1) % 2::2]))

        # draining limiter, rows h and hb end to end in flat arrays: the
        # fluxes with a zero before, between and after the rows (s0-s1,
        # live through the drain), outflows (s2-s3), min(f, 0) of the left
        # faces (s4-s5), then the edge-padded densities and drain times
        # over those (s4-s5) and the donor drain times over the outflows
        # (s2-s3), with the cells' idle test in flags 0-1 and the
        # flux-sign, nonzero-flux and below-one masks in flags 0-1, 3-4
        # (free until the step's finite check) and 0-1.
        # The fluxes, donors and masks hold 2n+3 values: slot n+1, between
        # the rows, is the junction, which belongs to neither row
        ext = _flat(s[0:2], 2 * m + 3)
        self.drain_ext_zeros = ext[::m + 1]
        self.drain_ext_rows = ext[1:].reshape(2, m + 1)[:, :m]
        self.drain_flux = ext[1:-1]
        self.drain_ext_hi, self.drain_ext_lo = ext[1:], ext[:-1]
        self.drain_out = _flat(s[2:4], 2 * n + 4)
        self.drain_in = self.rho_ext = rho = _flat(s[4:6], 2 * n + 4)
        rho_rows = rho.reshape(2, n + 2)
        self.rho_mid = rho_rows[:, 1:-1]
        self.rho_first, self.rho_last = rho_rows[:, 0], rho_rows[:, -1]
        self.rho_hi, self.rho_lo = rho[1:], rho[:-1]
        self.donor = _flat(s[2:4], 2 * m + 1)
        self.donor_rows = _flat(s[2:4], 2 * m + 2).reshape(2, m + 1)[:, :m]
        self.junction = m
        self.drain_idle = _flat(b[0:2], 2 * n + 4)
        self.drain_mask = _flat(b[0:2], 2 * m + 1)
        self.drain_below = (self.drain_mask[:m], self.drain_mask[m + 1:])
        self.limited = b[2, :m]
        self.drain_moving = _flat(b[3:5], 2 * m + 1)

        # the source term (s4-s5)
        self.source_out, self.source_work = s[4, :n], s[5, :n]

        # the per-step diagnostics record, between steps
        self.energy_rows = (s[0, :n], s[1, :n], s[2, :n], s[3, :n])
        self.record_rows = (s[0, :n], s[1, :n], s[2, :n])
        self.record_diff = s[3, :max(n - 1, 0)]

    def fits(self, n: int) -> bool:
        """Whether a workspace of n cells fits in this one (``within``)."""
        (rows, pad), _, _ = _shape(n)
        return (n <= self.block.shape[1] - 2 * GHOST
                and rows * pad <= self.block.size)
