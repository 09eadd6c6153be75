"""Tests for the equilibrium-variable reconstruction pipeline."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trsw import reconstruction, workspace
from trsw.model import (ConservedState, CoriolisSpec, Topography,
                        build_grid, desingularized_ratio, flat_topography,
                        Numerics, sample_topography)
from trsw.reconstruction import (_fill_ghosts, build_interface_states,
                                 depth_from_equilibrium, interface_values,
                                 minmod, source_potential)
from trsw.scenarios import _ex1_bottom, _ex2_bottom, make_scenario
from trsw.stepper import rhs
from trsw.workspace import Workspace, fresh


@contextlib.contextmanager
def shifted_datum(shift):
    """Shift the integration constant of R by ``shift`` in every
    source_potential that build_interface_states calls."""
    original = reconstruction.source_potential

    def shifted(*args, **kwargs):
        r_center, r_iface = original(*args, **kwargs)
        return r_center + shift, r_iface + shift

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reconstruction, "source_potential", shifted)
        yield


def uniform_interfaces(h, p, hb, datum=0.0):
    """The workspace holding the interface states of four equal cells with
    q = 0 on a flat f = 0 plane, where R is zero up to ``datum``."""
    g = build_grid(0.0, 1.0, 4)
    st = ConservedState.from_fields(np.full(4, h), np.zeros(4),
                                    np.full(4, p), np.full(4, hb))
    ws = Workspace(4)
    with shifted_datum(datum):
        build_interface_states(st.array, flat_topography(g),
                               CoriolisSpec(0.0), g, Numerics(), ws)
    return ws


def _minmod(*args):
    """minmod into fresh buffers of the arguments' shape."""
    shape = np.broadcast_shapes(*map(np.shape, args))
    return minmod(*args, out=np.empty(shape), work=fresh(shape, 2))


def _interface_values(padded, sigma, dy):
    """interface_values of one padded field into fresh buffers."""
    m = np.size(padded) - 3  # the interfaces
    return interface_values(padded, sigma, dy, fresh(m, 1) + fresh(m + 1, 1),
                            fresh(m + 2, 1) + fresh(m + 1, 2))


def bisect_phi(p, b, d, lo, hi, iters=200):
    """Independent bisection oracle for p^2/h + (b/2) h^2 - D = 0."""
    phi = lambda h: p * p / h + 0.5 * b * h * h - d
    flo, fhi = phi(lo), phi(hi)
    assert flo * fhi < 0, "oracle bracket does not straddle a root"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if phi(mid) * flo <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# signed zeros, ties and mixed signs are drawn often, beside general floats
_MINMOD_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5]),
    st.floats(allow_nan=False))


class TestMinmod:
    def test_all_positive(self):
        assert _minmod(1.0, 2.0, 3.0) == 1.0

    def test_all_negative(self):
        assert _minmod(-1.0, -2.0, -3.0) == -1.0

    def test_mixed_signs(self):
        assert _minmod(1.0, -1.0, 2.0) == 0.0

    def test_vectorized(self):
        out = _minmod(np.array([1.0, -1.0, 2.0]), np.array([2.0, -3.0, -1.0]))
        assert np.array_equal(out, [1.0, -1.0, 0.0])

    @staticmethod
    def _definition(*xs):
        if all(x > 0 for x in xs):
            return min(xs)
        if all(x < 0 for x in xs):
            return max(xs)
        return 0.0

    @staticmethod
    def _same_bits(a, b):
        return np.asarray(a, float).tobytes() == np.asarray(b, float).tobytes()

    @given(st.integers(2, 3), st.data())
    def test_scalars_match_definition(self, k, data):
        xs = data.draw(st.lists(_MINMOD_VALUES, min_size=k, max_size=k))
        out = _minmod(*xs)
        assert self._same_bits(out, self._definition(*xs))

    @given(st.integers(2, 3), st.integers(1, 12), st.data())
    def test_arrays_match_definition(self, k, n, data):
        cols = [data.draw(st.lists(_MINMOD_VALUES, min_size=k, max_size=k))
                for _ in range(n)]
        args = [np.array(col) for col in zip(*cols)]
        expected = [self._definition(*col) for col in cols]
        assert self._same_bits(_minmod(*args), expected)
        # writing into one of the arguments gives the same result
        target = args[-1].copy()
        minmod(*args[:-1], target, out=target, work=fresh(n, 2))
        assert self._same_bits(target, expected)


class TestCellBuoyancy:
    """The cell buoyancy b = hb/h, read from the reconstruction of a
    uniform state (equal cells have zero slopes)."""

    @staticmethod
    def _b(h, hb):
        ws = uniform_interfaces(h, 0.0, hb)
        assert np.array_equal(ws.b_side[0], ws.b_side[1])
        return ws.b_side[0]

    def test_exact_ratio(self):
        assert np.all(self._b(2.0, 8.0) == 4.0)

    def test_dry(self):
        assert np.all(self._b(0.0, 0.0) == 0.0)

    def test_left_state(self):
        assert np.all(self._b(6.0, 24.0) == 4.0)


class TestSourcePotential:
    def test_vanishing_integrand(self):
        g = build_grid(0.0, 1.0, 10)
        st = ConservedState.from_fields(np.ones(10), np.ones(10),
                                        np.zeros(10), np.ones(10))
        rc, ri = source_potential(st.array, flat_topography(g),
                                  CoriolisSpec(0.0), g, Workspace(10))
        assert np.all(rc == 0.0) and np.all(ri == 0.0)

    def test_constant_integrand_exact(self):
        g = build_grid(0.0, 1.0, 10)
        st = ConservedState.from_fields(np.ones(10), np.ones(10),
                                        np.zeros(10), np.ones(10))
        rc, ri = source_potential(st.array, flat_topography(g),
                                  CoriolisSpec(1.0), g, Workspace(10))
        assert ri == pytest.approx(np.linspace(0.0, 1.0, 11), rel=1e-14)
        assert rc == pytest.approx(np.arange(10) * 0.1 + 0.05, rel=1e-13)

    def test_steady_state_matches_fine_quadrature(self):
        # two-state equilibrium over the double-hump bottom: the interface
        # recursion integrates h*b*Z_y exactly, so only the oracle's own
        # error remains
        s = make_scenario("ex1-steady", cells=100)
        st = s.initial_state()
        _, ri = source_potential(st.array, s.topography, s.coriolis, s.grid,
                                 Workspace(100))

        yy = np.linspace(-2.0, 2.0, 1_000_001)
        w = np.where(yy < 0, 6.0, 4.0)
        b = np.where(yy < 0, 4.0, 9.0)
        dz = np.where((yy >= -1.0) & (yy <= -0.8),
                      -8.5 * np.pi * np.sin(10 * np.pi * (yy + 0.9)),
                      np.where((yy >= 0.3) & (yy <= 0.5),
                               -12.5 * np.pi * np.sin(10 * np.pi * (yy - 0.4)),
                               0.0))
        integrand = (w - _ex1_bottom(yy)) * b * dz
        cum = np.concatenate([[0.0], np.cumsum(
            0.5 * (integrand[1:] + integrand[:-1]) * np.diff(yy))])
        r_oracle = np.interp(s.grid.interfaces, yy, cum)
        assert np.abs(ri - r_oracle).max() <= 1e-6

    def test_second_order_on_smooth_data(self):
        def err(n):
            g = build_grid(-5.0, 5.0, n)
            y = g.centers
            h = 1.0 + 0.3 * np.exp(-y * y)
            u = np.sin(y) * np.exp(-0.1 * y * y)
            st = ConservedState.from_fields(h, h * u, 0 * y, h)
            _, ri = source_potential(st.array, flat_topography(g),
                                     CoriolisSpec(0.5, 0.2), g, Workspace(n))
            yy = np.linspace(-5.0, 5.0, 2_000_001)
            hh = 1.0 + 0.3 * np.exp(-yy * yy)
            gg = (0.5 + 0.2 * yy) * hh * np.sin(yy) * np.exp(-0.1 * yy * yy)
            cum = np.concatenate([[0.0], np.cumsum(
                0.5 * (gg[1:] + gg[:-1]) * np.diff(yy))])
            return np.abs(ri - np.interp(g.interfaces, yy, cum)).max()

        e1, e2 = err(100), err(200)
        assert 3.0 <= e1 / e2 <= 5.0  # second order


class TestGlobalPrimitive:
    def test_bundle_matches_components(self, monkeypatch):
        # R from source_potential (datum zero at the left boundary
        # interface) is the R behind the interface states and cell L
        s = make_scenario("ex1-steady", cells=64)
        st = s.initial_state()
        seen = []
        solve = reconstruction.depth_from_equilibrium

        def spy(p_side, b_mid, l_side, r_iface, h_fallback, **kwargs):
            # one call solves both sides: the R row each side reads
            seen.extend(np.broadcast_to(r_iface, np.shape(p_side)))
            return solve(p_side, b_mid, l_side, r_iface, h_fallback,
                         **kwargs)

        monkeypatch.setattr(reconstruction, "depth_from_equilibrium", spy)
        ws = Workspace(64)
        build_interface_states(st.array, s.topography, s.coriolis, s.grid,
                               s.numerics, ws)
        rc, ri = source_potential(st.array, s.topography, s.coriolis, s.grid,
                                  Workspace(64))
        assert len(seen) == 2
        for r_iface in seen:
            assert np.array_equal(r_iface, ri)
        assert ri[0] == 0.0
        assert rc[0] == 0.5 * (ri[0] + ri[1])
        l_cell = (st.p * desingularized_ratio(st.h, st.p)
                  + 0.5 * st.hb * st.h + rc)
        assert np.array_equal(ws.l_cell_right[:-1], l_cell)
        assert np.array_equal(ws.l_cell_left[1:], l_cell)
        assert np.all(np.isfinite(ws.l_cell_left))


class TestEquilibriumCenters:
    """Cell L = p^2/h + (hb/2) h + R of a uniform state, on both sides of
    every interface."""

    @staticmethod
    def _l(h, p, hb, datum=0.0):
        ws = uniform_interfaces(h, p, hb, datum)
        assert np.array_equal(ws.l_cell_left, ws.l_cell_right)
        return ws.l_cell_left

    def test_left_state(self):
        assert np.all(self._l(6.0, 0.0, 24.0) == 72.0)

    def test_right_state_same_value(self):
        assert np.all(self._l(4.0, 0.0, 36.0) == 72.0)

    def test_kinetic_term(self):
        assert np.all(self._l(1.0, 2.0, 1.0, datum=3.0) == 7.5)


class TestInterfaceValues:
    def test_constant_field(self):
        pad = np.full(14, 3.5)
        minus, plus = _interface_values(pad, 1.3, 0.1)
        assert np.all(minus == 3.5) and np.all(plus == 3.5)

    def test_linear_exactness(self):
        y = np.arange(14) * 0.1
        minus, plus = _interface_values(2.0 * y, 1.3, 0.1)
        assert minus == pytest.approx(plus, rel=1e-14)
        assert np.diff(minus) == pytest.approx(0.2, rel=1e-12)

    def test_isolated_jump(self):
        pad = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        minus, plus = _interface_values(pad, 1.3, 0.1)
        j = 2  # interface between the last 0-cell and first 1-cell
        assert minus[j] == 0.0 and plus[j] == 1.0

    @staticmethod
    def _tv_of_reconstruction(vals, sigma, dy):
        pad = np.pad(vals, 2, mode="edge")
        minus, plus = _interface_values(pad, sigma, dy)
        # in-cell variation (a cell's right minus its left limit) plus the
        # jumps at the interior interfaces
        return (np.abs(minus[1:] - plus[:-1]).sum()
                + np.abs(plus[1:-1] - minus[1:-1]).sum())

    def test_total_variation_bounded(self):
        # exactly TV-diminishing at sigma = 1; for sigma in (1, 2] the
        # limiter can introduce interface jumps bounded by sigma * TV
        rng = np.random.default_rng(3)
        for _ in range(50):
            vals = rng.uniform(-2, 2, 30)
            dy = 0.25
            tv_cells = np.abs(np.diff(vals)).sum()
            assert self._tv_of_reconstruction(vals, 1.0, dy) <= \
                tv_cells + 1e-12
            assert self._tv_of_reconstruction(vals, 1.3, dy) <= \
                1.3 * tv_cells + 1e-12

    def test_interface_values_within_neighbour_bounds(self):
        rng = np.random.default_rng(4)
        vals = rng.uniform(-2, 2, 40)
        pad = np.pad(vals, 2, mode="edge")
        minus, plus = _interface_values(pad, 2.0, 0.1)
        lo = np.minimum(pad[1:-2], pad[2:-1])
        hi = np.maximum(pad[1:-2], pad[2:-1])
        assert np.all(minus >= lo - 1e-12) and np.all(minus <= hi + 1e-12)
        assert np.all(plus >= lo - 1e-12) and np.all(plus <= hi + 1e-12)


class TestPadCells:
    @settings(deadline=None)
    @given(st.integers(0, 5), st.integers(1, 40),
           st.integers(0, 2 ** 32 - 1))
    def test_equals_edge_mode_pad(self, rows, n, seed):
        # rows == 0 draws a 1-D field; the edge copies must be exact, signed
        # zeros and infinities included
        rng = np.random.default_rng(seed)
        shape = (n,) if rows == 0 else (rows, n)
        vals = rng.choice([0.0, -0.0, np.inf, -np.inf, 1e-320, -2.5],
                          size=shape)
        vals = np.where(rng.uniform(size=shape) < 0.5,
                        rng.normal(size=shape), vals)
        width = 2 if rows == 0 else ((0, 0), (2, 2))
        want = np.pad(vals, width, mode="edge")
        # the ghosts start as NaN, so every one of them must be written
        padded = np.full(want.shape, np.nan)
        padded[..., 2:-2] = vals
        got = _fill_ghosts(padded)
        assert got is padded and got.tobytes() == want.tobytes()


def _fallback_depths(monkeypatch, h, topo, grid):
    """The surface-based fallback depths (minus, plus) that
    build_interface_states hands to the depth solve, for a state at rest
    with depth h and b = 1, at sigma = 1.3."""
    seen = []
    solve = reconstruction.depth_from_equilibrium

    def spy(p_side, b_mid, l_side, r_iface, h_fallback, **kwargs):
        # one call, the minus and plus rows, copied: the solve writes
        # the depths over them
        seen.extend(np.copy(h_fallback))
        return solve(p_side, b_mid, l_side, r_iface, h_fallback, **kwargs)

    monkeypatch.setattr(reconstruction, "depth_from_equilibrium", spy)
    zero = np.zeros_like(h)
    build_interface_states(ConservedState.from_fields(h, zero, zero, h).array,
                           topo, CoriolisSpec(0.0), grid, Numerics(sigma=1.3),
                           Workspace(grid.n))
    assert len(seen) == 2
    return seen


class TestFallbackDepth:
    def test_flat_lake_over_hump(self, monkeypatch):
        g = build_grid(-1.0, 1.0, 200)
        topo = sample_topography(_ex2_bottom, g)
        h = 5.0 - topo.z_center
        fm, fp = _fallback_depths(monkeypatch, h, topo, g)
        assert np.all(fm >= 1.0 - 1e-12) and np.all(fp >= 1.0 - 1e-12)
        assert fm == pytest.approx(5.0 - topo.z_iface, rel=1e-12)

    def test_dry_at_hump_peak(self, monkeypatch):
        g = build_grid(-1.0, 1.0, 200)
        topo = sample_topography(_ex2_bottom, g)
        h = np.maximum(1.0 - topo.z_center, 0.0)
        fm, fp = _fallback_depths(monkeypatch, h, topo, g)
        j = np.argmin(np.abs(g.interfaces - 0.3))  # peak, Z = 1
        assert topo.z_iface[j] == pytest.approx(1.0, rel=1e-13)
        assert fm[j] == pytest.approx(0.0, abs=1e-13)
        assert np.all(fm >= 0.0) and np.all(fp >= 0.0)

    def test_flat_bottom_reduces_to_plain_reconstruction(self, monkeypatch):
        rng = np.random.default_rng(5)
        h = rng.uniform(0.5, 2.0, 30)
        g = build_grid(0.0, 3.0, 30)
        topo = flat_topography(g)
        fm, fp = _fallback_depths(monkeypatch, h, topo, g)
        m2, p2 = _interface_values(np.pad(h, 2, mode="edge"), 1.3,
                                   g.dy)
        assert np.array_equal(fm, m2) and np.array_equal(fp, p2)


class TestDepthFromEquilibrium:
    def test_zero_momentum_closed_form(self):
        assert depth_from_equilibrium(0.0, 1.0, 2.0, 0.0, 5.0) == \
            pytest.approx(2.0, rel=1e-15)

    def test_no_positive_root_returns_fallback(self):
        # p^4 = 1e4 exceeds 8 D^3/(27 b) = 8/27
        assert depth_from_equilibrium(10.0, 1.0, 1.0, 0.0, 0.7) == 0.7

    def test_zero_momentum_nonpositive_d_returns_fallback(self):
        assert depth_from_equilibrium(0.0, 1.0, -1.0, 0.0, 0.3) == 0.3
        assert depth_from_equilibrium(0.0, 1.0, 0.0, 0.0, 0.3) == 0.3

    def test_root_against_bisection(self):
        p, b, d, fb = 0.5, 1.0, 2.0, 1.9
        h_crit = (p * p / b) ** (1.0 / 3.0)
        oracle = bisect_phi(p, b, d, h_crit, np.sqrt(2 * d / b))
        got = depth_from_equilibrium(p, b, d, 0.0, fb)
        assert got == pytest.approx(oracle, abs=1e-10)

    def test_supersonic_root_selected_near_zero_fallback(self):
        p, b, d = 0.5, 1.0, 2.0
        h_crit = (p * p / b) ** (1.0 / 3.0)
        oracle = bisect_phi(p, b, d, 1e-12, h_crit)
        got = depth_from_equilibrium(p, b, d, 0.0, 0.0)
        assert got == pytest.approx(oracle, abs=1e-10)

    def test_tie_breaks_to_larger_root(self):
        p, b, d = 0.5, 1.0, 2.0
        h_crit = (p * p / b) ** (1.0 / 3.0)
        r_sup = bisect_phi(p, b, d, 1e-12, h_crit)
        r_sub = bisect_phi(p, b, d, h_crit, np.sqrt(2 * d / b))
        got = depth_from_equilibrium(p, b, d, 0.0, 0.5 * (r_sub + r_sup))
        assert got == pytest.approx(r_sub, abs=1e-9)

    def test_double_root_edge(self):
        # p^4 exactly at 8 D^3 / (27 b): arccos argument hits -1
        b, d = 1.0, 1.5
        p = (8.0 * d ** 3 / (27.0 * b)) ** 0.25
        got = depth_from_equilibrium(p, b, d, 0.0, 1.0)
        phi = p * p / got + 0.5 * b * got * got - d
        assert abs(phi) <= 1e-9 * max(1.0, d)

    def test_residual_invariant_on_root_branch(self):
        rng = np.random.default_rng(17)
        n = 500
        d = 10.0 ** rng.uniform(-2, 2, n)
        b = 10.0 ** rng.uniform(-2, 2, n)
        p = (rng.uniform(0.0, 1.0, n) * 8.0 * d ** 3 / (27.0 * b)) ** 0.25
        fb = rng.uniform(0.0, 2.0, n) * np.sqrt(2 * d / b)
        h = depth_from_equilibrium(p, b, d, np.zeros(n), fb)
        phi = p * p / h + 0.5 * b * h * h - d
        assert np.all(np.abs(phi) <= 1e-9 * np.maximum(1.0, np.abs(d)))

    def test_vanishing_buoyancy_returns_fallback(self):
        assert depth_from_equilibrium(0.3, 0.0, 2.0, 0.0, 0.9) == 0.9

    @settings(deadline=None)
    @given(st.floats(0.0, 1e3), st.floats(-1e3, 1e3), st.floats(0.0, 1e3),
           st.floats(0.0, 1e3))
    def test_zero_momentum_branch(self, b, l, r, fb):
        h = depth_from_equilibrium(np.zeros(1), b, l, r, fb)
        d = l - r
        expected = np.sqrt(2.0 * d / b) if b > 1e-300 and d > 0.0 else fb
        assert h.tobytes() == np.array([expected]).tobytes()

    @settings(deadline=None)
    @given(st.floats(-1e3, 1e3), st.floats(0.0, 1e3), st.floats(-1e3, 1e3),
           st.floats(0.0, 1e3), st.floats(0.0, 1e3))
    def test_nonpositive_d_or_vanishing_b_returns_fallback(self, p, b, l,
                                                           delta, fb):
        # r = l + delta makes D = l - r <= 0; b = 0 leaves D as drawn. Tiny
        # p and D, whose p^4 and D^3 underflow to zero, used to reach the
        # cubic branch and return NaN or 0.
        for b_side, r in ((b, l + delta), (0.0, l - delta)):
            h = depth_from_equilibrium(np.array([p]), b_side, l, r, fb)
            assert h.tobytes() == np.array([fb]).tobytes()

    def test_underflowing_powers_return_fallback(self):
        assert depth_from_equilibrium(1e-90, 1.0, -1e-120, 0.0, 0.7) == 0.7
        assert depth_from_equilibrium(1e-90, 1.0, 0.0, 0.0, 0.7) == 0.7


class TestBuildInterfaceStates:
    def test_steady_state_interface_values(self):
        s = make_scenario("ex1-steady", cells=100)
        st = s.initial_state()
        ws = Workspace(100)
        build_interface_states(st.array, s.topography, s.coriolis, s.grid,
                               s.numerics, ws)
        assert np.abs(ws.l_side[0] - 72.0).max() <= 1e-12 * 72.0
        assert np.abs(ws.l_side[1] - 72.0).max() <= 1e-12 * 72.0
        assert np.all(ws.p_side[0] == 0.0) and np.all(ws.p_side[1] == 0.0)
        assert np.abs(ws.h_side[1] - ws.h_side[0]).max() <= 1e-12 * 6.0

    def test_uniform_rest_state(self):
        g = build_grid(0.0, 1.0, 16)
        st = ConservedState.from_fields(np.ones(16), np.zeros(16),
                                        np.zeros(16), np.ones(16))
        ws = Workspace(16)
        build_interface_states(st.array, flat_topography(g),
                               CoriolisSpec(0.0), g, Numerics(), ws)
        assert np.allclose(ws.h_side[0], 1.0, atol=1e-14)
        assert np.allclose(ws.h_side[1], 1.0, atol=1e-14)
        assert np.allclose(ws.l_side[0], 0.5, atol=1e-14)
        assert np.all(ws.v_side[0] == 0.0) and np.all(ws.v_side[1] == 0.0)

    def test_momentum_velocity_identity(self):
        rng = np.random.default_rng(23)
        n = 64
        g = build_grid(-2.0, 2.0, n)
        y = g.centers
        h = 1.0 + 0.5 * np.exp(-y * y) + 0.05 * rng.uniform(size=n)
        v = 0.3 * np.sin(2 * y)
        b = 1.0 + 0.2 * np.cos(y)
        st = ConservedState.from_fields(h, 0 * y, h * v, h * b)
        ws = Workspace(n)
        build_interface_states(st.array, flat_topography(g),
                               CoriolisSpec(1.0), g, Numerics(), ws)
        assert np.array_equal(ws.p_side[0], ws.h_side[0] * ws.v_side[0])
        assert np.array_equal(ws.p_side[1], ws.h_side[1] * ws.v_side[1])

    def test_well_balance_kernel_shared_b_mid(self):
        # equal L and zero p on both sides must give identical depths even
        # though the one-sided buoyancies differ
        h = depth_from_equilibrium(np.zeros(2), np.full(2, 6.5),
                                   np.full(2, 72.0), np.zeros(2),
                                   np.array([6.0, 4.0]))
        assert h[0] == h[1]


def _pad_then_compute(state, topo, cor, grid, num, r_datum):
    """The reconstruction as it was once written: pad the whole state with
    np.pad, then form b, L and w = h + Z on the padded cells."""
    sigma, dy = num.sigma, grid.dy
    pad = np.pad(state.array, ((0, 0), (2, 2)), mode="edge")
    h_pad, q_pad, p_pad, hb_pad = pad
    b_pad = desingularized_ratio(h_pad, hb_pad)
    r_center, r_iface = source_potential(state.array, topo, cor, grid,
                                         Workspace(grid.n))
    r_center = r_center + r_datum
    r_iface = r_iface + r_datum
    kinetic = p_pad * desingularized_ratio(h_pad, p_pad)
    l_pad = (kinetic + 0.5 * hb_pad * h_pad
             + np.pad(r_center, 2, mode="edge"))
    q_minus, q_plus = _interface_values(q_pad, sigma, dy)
    p_minus, p_plus = _interface_values(p_pad, sigma, dy)
    l_minus, l_plus = _interface_values(l_pad, sigma, dy)
    b_minus, b_plus = _interface_values(b_pad, sigma, dy)
    b_mid = 0.5 * (b_minus + b_plus)
    w_minus, w_plus = _interface_values(
        h_pad + np.pad(topo.z_center, 2, mode="edge"), sigma, dy)
    h_minus = depth_from_equilibrium(p_minus, b_mid, l_minus, r_iface,
                                     np.maximum(w_minus - topo.z_iface, 0.0))
    h_plus = depth_from_equilibrium(p_plus, b_mid, l_plus, r_iface,
                                    np.maximum(w_plus - topo.z_iface, 0.0))
    v_minus = desingularized_ratio(h_minus, p_minus)
    v_plus = desingularized_ratio(h_plus, p_plus)
    # the (minus, plus) pairs under the workspace's names
    return dict(h_side=np.stack([h_minus, h_plus]),
                q_side=np.stack([q_minus, q_plus]),
                p_side=np.stack([h_minus * v_minus, h_plus * v_plus]),
                b_side=np.stack([b_minus, b_plus]),
                l_side=np.stack([l_minus, l_plus]),
                v_side=np.stack([v_minus, v_plus]), l_cell_left=l_pad[1:-2],
                l_cell_right=l_pad[2:-1])


class TestOnePadPipeline:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(4, 40), st.integers(0, 2 ** 32 - 1),
           st.floats(-2.0, 2.0), st.floats(0.05, 1.0),
           st.floats(1.0, 100.0) | st.floats(-100.0, -1.0),
           st.floats(1.0, 2.0))
    def test_matches_pad_then_compute_bit_for_bit(self, n, seed, f0, beta,
                                                   r_datum, sigma):
        _check_against_pad_then_compute(n, seed, f0, beta, r_datum, sigma)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 5]), st.integers(4, 40),
           st.integers(0, 2 ** 32 - 1), st.floats(-2.0, 2.0),
           st.floats(0.05, 1.0),
           st.floats(1.0, 100.0) | st.floats(-100.0, -1.0),
           st.floats(1.0, 2.0))
    def test_field_groups_keep_the_bits(self, k, n, seed, f0, beta, r_datum,
                                        sigma):
        # k fields per interface_values call, as on a grid of
        # _STACK_CELLS / k padded cells: one call for k = 5, three for
        # k = 2, one per field for k = 1, as at N = 25600
        calls = []
        original = reconstruction.interface_values

        def counted(padded, *args):
            calls.append(np.shape(padded))
            return original(padded, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(workspace, "_STACK_CELLS", k * (n + 4))
            mp.setattr(reconstruction, "interface_values", counted)
            _check_against_pad_then_compute(n, seed, f0, beta, r_datum, sigma)
        assert calls == [(min(k, 5 - i) * (n + 4),) for i in range(0, 5, k)]


def _check_against_pad_then_compute(n, seed, f0, beta, r_datum, sigma):
    """build_interface_states gives _pad_then_compute's bits on dry cells,
    a random bottom, a beta-plane and a shifted datum."""
    rng = np.random.default_rng(seed)
    g = build_grid(-1.0, 1.0 + rng.uniform(), n)
    h = rng.uniform(0.0, 2.0, n) * (rng.uniform(size=n) < 0.7)
    h[rng.uniform(size=n) < 0.1] = 1e-10
    st_ = ConservedState.from_fields(
        h, h * rng.normal(size=n), h * rng.normal(size=n),
        h * rng.uniform(0.0, 3.0, n))
    topo = Topography(rng.uniform(-0.5, 0.5, n + 1))
    cor = CoriolisSpec(f0, beta)
    num = Numerics(sigma=sigma)
    with np.errstate(all="ignore"), shifted_datum(r_datum):
        got = Workspace(n)
        build_interface_states(st_.array, topo, cor, g, num, got)
        want = _pad_then_compute(st_, topo, cor, g, num, r_datum)
    for name, value in want.items():
        assert getattr(got, name).tobytes() == value.tobytes(), name


def _edge_valued(rng, shape, lo, hi):
    """Uniform values in [lo, hi) with a quarter replaced by zeros of both
    signs, 1e-310, infinities and NaN."""
    edges = np.array([0.0, -0.0, 1e-310, -1e-310, np.inf, -np.inf, np.nan])
    vals = rng.uniform(lo, hi, shape)
    pick = rng.uniform(size=shape) < 0.25
    vals[pick] = rng.choice(edges, size=int(pick.sum()))
    return vals


class TestStackedSides:
    """One depth solve over (2, m) sides with (m,) b_mid and r_iface gives
    the bits of one (m,) solve per side, and the benchmark's fallback
    count is the same for both forms."""

    M = 3000

    def _inputs(self, seed):
        rng = np.random.default_rng(seed)
        m = self.M
        p = _edge_valued(rng, (2, m), -3.0, 3.0)
        p[rng.uniform(size=(2, m)) < 0.3] = 0.0  # the sqrt branch
        return (p, _edge_valued(rng, m, -0.5, 3.0),
                _edge_valued(rng, (2, m), -1.0, 10.0),
                _edge_valued(rng, m, -1.0, 4.0),
                _edge_valued(rng, (2, m), 0.0, 3.0))

    @pytest.mark.parametrize("stack_cells", [0, 2 ** 20])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sides_match_separate_calls(self, monkeypatch, stack_cells,
                                        seed):
        # stack_cells 0 is the layout of N = 25600, one field and one flux
        # component per call, and 2**20 that of small grids: the depth
        # solve takes both sides in one call in either
        p, b, l, r, fb = self._inputs(seed)
        monkeypatch.setattr(workspace, "_STACK_CELLS", stack_cells)
        ws = workspace.Workspace(self.M - 1)
        assert len(ws.depth_work[0]) == 2
        with np.errstate(all="ignore"):
            want = [depth_from_equilibrium(p[i], b, l[i], r, fb[i])
                    for i in range(2)]
            fresh = depth_from_equilibrium(p, b, l, r, fb)
            # in place, as the pipeline solves: over the fallback pair
            out = ws.h_side
            np.copyto(out, fb)
            got = depth_from_equilibrium(p, b, l, r, out, work=ws.depth_work)
        assert got is out
        for i in range(2):
            assert got[i].tobytes() == want[i].tobytes()
            assert fresh[i].tobytes() == want[i].tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fallback_count_matches_separate_calls(self, spans, seed):
        from collections import Counter

        p, b, l, r, fb = self._inputs(seed)
        names = ("p_side", "b_mid", "l_side", "r_iface", "h_fallback")
        stacked, separate = Counter(), Counter()
        spans._count_fallback(stacked, dict(zip(names, (p, b, l, r, fb))),
                              None)
        for i in range(2):
            spans._count_fallback(
                separate, dict(zip(names, (p[i], b, l[i], r, fb[i]))), None)
        assert stacked == separate
        assert stacked["depth.total"] == 2 * self.M
        assert 0 < stacked["depth.fallback"] < 2 * self.M


class TestDatumInvariance:
    def test_equilibrium_values_shift_with_datum(self):
        s = make_scenario("ex1-steady", cells=64)
        st = s.initial_state()
        args = (st.array, s.topography, s.coriolis, s.grid, s.numerics)
        l0, l1 = Workspace(64), Workspace(64)
        build_interface_states(*args, l0)
        with shifted_datum(5.0):
            build_interface_states(*args, l1)
        for side in ("l_cell_left", "l_cell_right"):
            assert getattr(l1, side) == pytest.approx(
                getattr(l0, side) + 5.0, rel=1e-14)

    def test_rhs_invariant_at_steady_state(self):
        s = make_scenario("ex1-steady", cells=64)
        st = s.initial_state()
        t0 = rhs(st, s.topography, s.coriolis, s.grid, s.numerics,
                 Workspace(64))
        with shifted_datum(100.0):
            t1 = rhs(st, s.topography, s.coriolis, s.grid, s.numerics,
                     Workspace(64))
        assert np.abs(t1 - t0).max() <= 1e-10

    def test_h_and_p_tendencies_invariant_generic(self):
        # the depth and meridional-momentum fluxes carry no switch, so
        # their tendencies cannot depend on the integration datum of the
        # source potential
        rng = np.random.default_rng(31)
        n = 48
        g = build_grid(-3.0, 3.0, n)
        y = g.centers
        h = 1.0 + 0.4 * np.exp(-y * y) + 0.1 * rng.uniform(size=n)
        u = 0.5 * np.sin(y)
        v = 0.2 * np.cos(2 * y)
        b = 1.0 + 0.3 * np.tanh(y)
        st = ConservedState.from_fields(h, h * u, h * v, h * b)
        topo = sample_topography(lambda z: 0.1 * np.sin(z), g)
        cor = CoriolisSpec(0.7, 0.1)
        t0 = rhs(st, topo, cor, g, Numerics(), Workspace(n))
        with shifted_datum(1000.0):
            t1 = rhs(st, topo, cor, g, Numerics(), Workspace(n))
        scale = np.abs(t0).max()
        assert np.abs(t1[0] - t0[0]).max() <= 1e-9 * scale
        assert np.abs(t1[2] - t0[2]).max() <= 1e-9 * scale
