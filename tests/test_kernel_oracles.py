"""The stage kernels against the formulas they replaced, bit for bit.

The diffusion switch takes its power only where C psi is above 2^-128,
the depth solve's root test runs plain loops where it had masked ones,
the ratio of a numerator of several rows forms the terms of h alone
once, and the flux divergence divides by -dy where it negated and divided
by dy. Each earlier formula is kept here as an oracle, on inputs that
reach its special values: zeros, NaN, infinities, subnormals and the
thresholds of each branch.
"""

import numpy as np
import pytest

from trsw.flux import _SWITCH_C, _SWITCH_M, diffusion_switch
from trsw.model import _TINY, EPS, build_grid, desingularized_ratio
from trsw.reconstruction import depth_from_equilibrium
from trsw.stepper import _tendency
from trsw.workspace import Workspace, fresh

from support import scenario_of

_FLOOR = 2.0 ** -128


def _scaled_c_psi(l_left, l_right, dy, length):
    """C psi as the switch forms it, NaN where psi is."""
    larger = np.maximum(l_left, l_right)
    denom = np.maximum(np.maximum(np.abs(l_left), np.abs(l_right)), _TINY)
    denom = np.where(larger > 0.0, larger, denom)
    return np.abs(l_right - l_left) / dy * length / denom * _SWITCH_C


def _switch_oracle(l_left, l_right, dy, length):
    """H with the power taken at every value: below 2^-128, and at 0 (NaN
    sent there by fmax), it overflows to inf and H = 1/inf = 0."""
    c_psi = np.fmax(_scaled_c_psi(l_left, l_right, dy, length), 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        inv = np.power(c_psi, -float(_SWITCH_M))
    return 1.0 / (inv + 1.0)


def _switch(l_left, l_right, dy, length):
    shape = np.shape(l_left)
    return diffusion_switch(l_left, l_right, dy, length, np.empty(shape),
                            fresh(shape, 2, 1))


# pairs of cell values of L: equal values, NaN, infinities of both signs,
# gaps of subnormal size, both values nonpositive (the |L| denominator),
# finite psi whose C psi overflows (about 1e306 at dy = length = 1),
# and (0, -1), whose C psi is 400 * length / dy exactly
_PAIRS = np.array([
    (72.0, 72.0), (0.0, 0.0), (-0.0, 0.0), (-3.0, -3.0),
    (np.nan, 1.0), (1.0, np.nan), (np.nan, np.nan),
    (np.inf, 1.0), (1.0, np.inf), (-np.inf, 1.0), (1.0, -np.inf),
    (np.inf, np.inf), (-np.inf, np.inf),
    (5e-324, 1e-323), (0.0, 5e-324), (2e-308, 2.0000000000000004e-308),
    (1e-300, 3e-300), (-1e-310, -2e-310), (-1.0, -2.0), (1.0, 1.5),
    (1.0, 1.0 + 2.0 ** -52), (-1e303, 1e-3), (1e-3, -1e303),
    (0.0, -1.0)]).T


class TestSwitchOracle:
    def _check(self, l_left, l_right, dy, length):
        got = _switch(l_left, l_right, dy, length)
        with np.errstate(invalid="ignore", over="ignore"):
            want = _switch_oracle(l_left, l_right, dy, length)
        assert got.tobytes() == want.tobytes()
        return got

    @pytest.mark.parametrize("dy, length", [(0.04, 4.0), (1.0, 1.0),
                                            (1e-3, 500.0), (2.0, 1e-200)])
    def test_special_values(self, dy, length):
        with np.errstate(invalid="ignore", over="ignore"):
            self._check(*_PAIRS, dy, length)

    def test_just_below_at_and_above_the_floor(self):
        # (0, -1) over dy = 1 has C psi = fl(400 * length): a chain of
        # adjacent lengths steps C psi through 2^-128 a value at a time
        length = _FLOOR / _SWITCH_C
        lengths = [length]
        for _ in range(40):
            lengths.insert(0, np.nextafter(lengths[0], 0.0))
            lengths.append(np.nextafter(lengths[-1], 1.0))
        seen = set()
        for length in lengths:
            c_psi = _scaled_c_psi(0.0, -1.0, 1.0, length)
            seen.add(np.sign(c_psi - _FLOOR))
            with np.errstate(invalid="ignore", over="ignore"):
                h = self._check(*_PAIRS, 1.0, length)
            # H = 0 at and below 2^-128; above it 2^1024 is never reached
            assert (h[-1] == 0.0) == (c_psi <= _FLOOR)
        assert seen == {-1.0, 0.0, 1.0}

    def test_around_128(self):
        # C psi about 128 gives (C psi)^-m about 2^-56, H just below 1
        rng = np.random.default_rng(3)
        for length in 128.0 / _SWITCH_C * rng.uniform(0.5, 2.0, 20):
            with np.errstate(invalid="ignore", over="ignore"):
                self._check(*_PAIRS, 1.0, length)

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_gaps_over_all_scales(self, seed):
        # relative gaps from 2^-60 to 2^10 of values of either sign
        rng = np.random.default_rng(seed)
        n = 4000
        left = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
        right = left * (1.0 + rng.choice([-1.0, 1.0], n)
                        * 2.0 ** rng.uniform(-60.0, 10.0, n))
        self._check(left, right, 0.01, 10.0)

    def test_switch_raises_no_warning(self):
        # the power never overflows above 2^-128, and C psi overflowing to
        # inf (psi about 1e306 here) is silent, with H = 1
        with np.errstate(over="raise", divide="raise"):
            _switch(np.zeros(3), np.array([-1.0, 0.0, -1e-30]), 1.0,
                    np.nextafter(_FLOOR / _SWITCH_C, 1.0))
            h = _switch(np.array([-1e303, 1e-3]), np.array([1e-3, -1e303]),
                        1.0, 1.0)
        assert h.tolist() == [1.0, 1.0]


def _depth_oracle(p, b, l, r, h):
    """The depth solve with the masked loops it had, over the fallback
    depths that ``h`` holds, for (s, m) sides."""
    h = h.copy()
    d = l - r
    ok = b > _TINY
    b27 = np.zeros_like(b)
    np.multiply(b, 27.0, out=b27, where=ok)
    x = d * d
    x *= d
    x *= 8.0
    np.divide(x, b27, out=x, where=np.broadcast_to(ok, x.shape))
    p4 = p * p
    p4 *= p4
    rootable = (p4 <= x) & (d > 0.0) & ok
    m = (p == 0.0) & rootable
    np.multiply(d, 2.0, out=h, where=m)
    np.divide(h, b, out=h, where=m)
    np.sqrt(h, out=h, where=m)
    m = (p != 0.0) & rootable
    t = np.broadcast_to(b, p.shape)
    dm, bm, pm, fbm = d[m], t[m], p[m], h[m]
    y = dm * 2.0 / (bm * 3.0)
    sq = np.sqrt(y)
    theta = np.arccos(np.maximum(-pm * pm / (bm * y * sq), -1.0))
    two_sq = sq * 2.0
    r_sub = np.maximum(np.cos(theta / 3.0) * two_sq, 0.0)
    r_sup = np.maximum(np.cos((theta + 4.0 * np.pi) / 3.0) * two_sq, 0.0)
    h[m] = np.where(np.abs(r_sub - fbm) <= np.abs(r_sup - fbm), r_sub, r_sup)
    return h


def _edge_valued(rng, shape, lo, hi):
    """Uniform values in [lo, hi) with a quarter replaced by zeros of both
    signs, subnormals, infinities and NaN."""
    edges = np.array([0.0, -0.0, 1e-310, -1e-310, np.inf, -np.inf, np.nan])
    vals = rng.uniform(lo, hi, shape)
    pick = rng.uniform(size=shape) < 0.25
    vals[pick] = rng.choice(edges, size=int(pick.sum()))
    return vals


class TestDepthOracle:
    M = 2000

    def _solve(self, p, b, l, r, fb):
        ws = Workspace(p.shape[1] - 1)
        np.copyto(ws.h_side, fb)
        got = depth_from_equilibrium(p, b, l, r, ws.h_side,
                                     work=ws.depth_work)
        fresh_ = depth_from_equilibrium(p, b, l, r, fb)
        assert got.tobytes() == fresh_.tobytes()
        return got

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_sides(self, seed):
        # p = 0 on a third of the sides, d <= 0 on about a quarter and
        # b <= TINY (0, subnormal, negative) on a fifth of the interfaces
        rng = np.random.default_rng(seed)
        m = self.M
        p = _edge_valued(rng, (2, m), -3.0, 3.0)
        p[rng.uniform(size=(2, m)) < 0.3] = 0.0
        b = _edge_valued(rng, m, 0.0, 3.0)
        vanishing = rng.uniform(size=m) < 0.2
        b[vanishing] = rng.choice([0.0, 1e-320, _TINY, -1.0, -2.0],
                                  int(vanishing.sum()))
        l = _edge_valued(rng, (2, m), -1.0, 10.0)
        r = _edge_valued(rng, m, -1.0, 4.0)
        fb = _edge_valued(rng, (2, m), 0.0, 3.0)
        with np.errstate(all="ignore"):
            want = _depth_oracle(p, b, l, r, fb)
            got = self._solve(p, b, l, r, fb)
        assert got.tobytes() == want.tobytes()
        # the seed reaches every branch
        with np.errstate(invalid="ignore"):
            d = l - r
        assert np.any((p == 0.0) & (d > 0.0) & (b > _TINY))
        assert np.any((p != 0.0) & (d > 0.0) & (b > _TINY))
        assert np.any(d <= 0.0) and np.any(b <= _TINY)

    def test_large_d_over_vanishing_b_is_silent(self):
        # 8 d^3 / 27 over b = 1 in place of b <= TINY: no overflow where
        # the masked loops never divided
        p = np.array([[0.0, 0.3, 0.0], [0.0, 0.0, 2.0]])
        b = np.array([0.0, 1e-320, -5.0])
        l = np.full((2, 3), 2000.0)
        fb = np.full((2, 3), 0.9)
        with np.errstate(all="raise"):
            got = self._solve(p, b, l, np.zeros(3), fb)
        assert got.tobytes() == fb.tobytes()

    def test_underflowing_cubic_branch_keeps_its_result(self):
        # the near-dry front: p^4 and 8 d^3/(27 b) both underflow to 0, so
        # the side passes the root test, b Y sqrt(Y) underflows too and the
        # arccos argument clips from -inf to -1; the double root sqrt(Y)
        # comes out, far below the fallback (the near-dry item)
        p = np.array([[1e-94, 0.0], [0.0, 1e-94]])
        b = np.array([1e-57, 1e-57])
        l = np.array([[1e-266, 0.0], [0.0, 1e-266]])
        fb = np.full((2, 2), 1e-95)
        with np.errstate(divide="ignore"):
            want = _depth_oracle(p, b, l, np.zeros(2), fb)
            got = self._solve(p, b, l, np.zeros(2), fb)
        assert got.tobytes() == want.tobytes()
        y = 1e-266 * 2.0 / (1e-57 * 3.0)
        assert got[0, 0] == got[1, 1] == pytest.approx(np.sqrt(y), rel=1e-15)
        assert got[0, 0] < 1e-100


class TestRatioOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_rows_over_one_h(self, seed):
        # h of shape (n,) under a (2, n) numerator, as the cell ratios p/h
        # and hb/h: one call per row gives the same bits
        rng = np.random.default_rng(seed)
        n = 500
        h = _edge_valued(rng, n, 0.0, 2.0)
        small = rng.uniform(size=n) < 0.2
        h[small] = rng.choice([EPS, 0.5 * EPS, 1e-12, 1e-200, -1e-9],
                              int(small.sum()))
        numerator = _edge_valued(rng, (2, n), -3.0, 3.0)
        # the workspace's rows of L and b, strided, as the pipeline calls it
        ws = Workspace(n)
        with np.errstate(all="ignore"):
            got = desingularized_ratio(h, numerator, out=ws.ratio_cells,
                                       work=ws.ratio_cell_work)
            want = [desingularized_ratio(h, row) for row in numerator]
            fresh_ = desingularized_ratio(h, numerator)
        assert got is ws.ratio_cells
        for i in range(2):
            assert got[i].tobytes() == want[i].tobytes()
        assert fresh_.tobytes() == np.ascontiguousarray(got).tobytes()


class TestTendencyOracle:
    @pytest.mark.parametrize("dy_span", [1.0, 3e-3, 7e5])
    def test_divergence_over_minus_dy(self, dy_span):
        # -(f[j+1] - f[j]) / dy against (f[j+1] - f[j]) / -dy: equal
        # differences (signed zeros), infinities, subnormal and overflowing
        # quotients; f = 0, so the q row's source is a zero
        rng = np.random.default_rng(4)
        n = 400
        grid = build_grid(0.0, dy_span * n, n)
        flux = _edge_valued(rng, (4, n + 1), -5.0, 5.0)
        special = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e308,
                   -1e308, 2.0 ** -1070, 1.0]
        picks = rng.uniform(size=flux.shape) < 0.3
        flux[picks] = rng.choice(special, int(picks.sum()))
        u = np.zeros((4, n))
        with np.errstate(all="ignore"):
            want = np.negative(flux[:, 1:] - flux[:, :-1]) / grid.dy
            want[1] += u[2] * 0.0
            got = _tendency(u, flux, scenario_of(grid), Workspace(n))
        finite = ~np.isnan(want)
        assert np.array_equal(np.isnan(got), ~finite)
        assert got[finite].tobytes() == want[finite].tobytes()
