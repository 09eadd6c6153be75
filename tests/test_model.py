"""Tests for the grid/state/topography data model."""

import math
from fractions import Fraction

import numpy as np
import pytest

from trsw.diagnostics import flat_bottom
from trsw.model import (ConservedState, CoriolisSpec, Grid, Numerics,
                        Scenario, Topography, build_grid,
                        desingularized_ratio, flat_topography,
                        primitives_from_state, sample_topography)


class TestGrid:
    def test_basic_spacing(self):
        g = build_grid(-2.0, 2.0, 100)
        assert g.dy == pytest.approx(0.04, abs=0.0)
        assert g.centers[0] == pytest.approx(-1.98, rel=1e-15)

    def test_benchmark_resolution(self):
        g = build_grid(-250.0, 250.0, 6000)
        assert g.dy == pytest.approx(1.0 / 12.0, rel=1e-15)

    def test_too_few_cells_rejected(self):
        with pytest.raises(ValueError):
            build_grid(0.0, 1.0, 1)

    def test_inverted_domain_rejected(self):
        with pytest.raises(ValueError):
            build_grid(1.0, 0.0, 10)

    @pytest.mark.parametrize("y_min,y_max", [
        (-np.inf, 0.0), (0.0, np.inf), (-np.inf, np.inf)])
    def test_non_finite_domain_rejected(self, y_min, y_max):
        # refused at construction, not left to end the run as a solver
        # failure at t=0
        with pytest.raises(ValueError, match="finite"):
            build_grid(y_min, y_max, 8)

    @pytest.mark.parametrize("y_min,y_max", [
        (-1e308, 1e308),  # the width overflows to inf
        (0.0, 5e-324)])   # the width underflows to 0
    def test_cell_width_not_positive_and_finite_rejected(self, y_min, y_max):
        with pytest.raises(ValueError, match=r"\[.*\] over 8 cells"):
            build_grid(y_min, y_max, 8)

    def test_endpoints_exact(self):
        g = build_grid(-3.7, 11.1, 53)
        assert g.interfaces[0] == -3.7
        assert g.interfaces[-1] == 11.1

    def test_uniform_spacing_within_ulps(self):
        g = build_grid(-1.0, 1.0, 777)
        gaps = np.diff(g.interfaces)
        # uniform up to round-off of the coordinates themselves
        coord_ulp = np.spacing(max(abs(g.y_min), abs(g.y_max)))
        assert np.all(np.abs(gaps - g.dy) <= 2 * coord_ulp)

    def test_centers_are_interface_midpoints(self):
        g = build_grid(0.0, 10.0, 64)
        mid = 0.5 * (g.interfaces[:-1] + g.interfaces[1:])
        assert np.all(np.abs(g.centers - mid) <= 2 * np.spacing(np.abs(mid) + 1))


class TestTopography:
    def test_flat(self):
        g = build_grid(0.0, 1.0, 8)
        topo = flat_topography(g)
        assert np.all(topo.z_iface == 0.0) and np.all(topo.z_center == 0.0)
        assert flat_bottom(topo)
        # a constant bottom is not flat: the energy integral needs Z = 0
        assert not flat_bottom(Topography(np.full(9, 0.5)))

    def test_linear_function_reproduced(self):
        g = Grid(0.0, 1.0, 4)
        topo = sample_topography(lambda y: y, g)
        assert topo.z_iface == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        assert topo.z_center == pytest.approx([0.125, 0.375, 0.625, 0.875])

    def test_center_is_average_bit_exact(self):
        rng = np.random.default_rng(7)
        z = rng.uniform(-1, 1, 33)
        topo = Topography(z)
        expected = 0.5 * (z[:-1] + z[1:])
        assert np.array_equal(topo.z_center, expected)

    def test_hump_peak_at_interface(self):
        # the second bottom hump peaks at 2.5 where an interface hits 0.4
        g = build_grid(-2.0, 2.0, 100)
        from trsw.scenarios import _ex1_bottom
        topo = sample_topography(_ex1_bottom, g)
        j = np.argmin(np.abs(g.interfaces - 0.4))
        assert g.interfaces[j] == pytest.approx(0.4, abs=1e-14)
        assert topo.z_iface[j] == pytest.approx(2.5, rel=1e-14)

    def test_differences_are_np_diff_bit_exact(self):
        z = np.random.default_rng(3).uniform(-1, 1, 17)
        topo = Topography(z)
        assert topo.dz_iface.tobytes() == np.diff(topo.z_iface).tobytes()
        assert topo.dz_center.tobytes() == np.diff(topo.z_center).tobytes()
        assert topo.dz_iface is topo.dz_iface
        assert not topo.dz_iface.flags.writeable

    def test_flat_differences_hold_no_array(self):
        for z in (np.zeros(9), np.full(9, 0.5)):
            topo = Topography(z)
            for got, full in ((topo.dz_iface, np.diff(topo.z_iface)),
                              (topo.dz_center, np.diff(topo.z_center))):
                assert got.tobytes() == full.tobytes()
                assert got.strides == (0,) and not got.flags.writeable
        # a -0.0 difference keeps its sign, so it is held in full
        topo = Topography(np.array([0.0, -0.0, 0.0, 0.0, 0.0]))
        assert np.signbit(topo.dz_iface[0]) and topo.dz_iface.strides == (8,)


class TestCoriolis:
    def test_constant_equals_zero_beta(self):
        y = np.linspace(-5, 5, 11)
        assert np.array_equal(CoriolisSpec(1.3).values(y),
                              CoriolisSpec(1.3, 0.0).values(y))
        assert CoriolisSpec(1.3).is_constant

    def test_beta_plane(self):
        f = CoriolisSpec(0.0, 0.1)
        assert not f.is_constant
        assert f.values(10.0) == pytest.approx(1.0)

    def test_grid_values_computed_once_per_spec(self):
        g = build_grid(-3.0, 5.0, 16)
        f = CoriolisSpec(0.2, 0.1)
        f_center, f_iface = g.coriolis_values(f)
        assert f_center.tobytes() == f.values(g.centers).tobytes()
        assert f_iface.tobytes() == f.values(g.interfaces).tobytes()
        assert not f_center.flags.writeable
        again = g.coriolis_values(CoriolisSpec(0.2, 0.1))
        assert again[0] is f_center and again[1] is f_iface
        other, _ = g.coriolis_values(CoriolisSpec(0.2))
        assert np.array_equal(other, np.full(16, 0.2))


class TestConservedState:
    def test_immutable(self):
        st = ConservedState.from_fields([1.0] * 4, [0.0] * 4, [0.0] * 4,
                                        [1.0] * 4)
        with pytest.raises(ValueError):
            st.h[0] = 2.0

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            ConservedState.from_fields([1.0, -0.1, 1.0, 1.0], [0.0] * 4,
                                       [0.0] * 4, [1.0] * 4)

    def test_from_fields_builds_one_array(self):
        # the state's own read-only array is the only full-size one built,
        # and no caller holds a writable alias of it
        import tracemalloc

        h = np.ones(100_000)
        tracemalloc.start()
        try:
            st = ConservedState.from_fields(h, h, h, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * st.array.nbytes
        assert st.array.base is None and not st.array.flags.writeable
        assert st.minima == (1.0, 1.0)

    def test_field_views(self):
        st = ConservedState.from_fields([1, 2], [3, 4], [5, 6], [7, 8])
        assert st.h.shape == (2,)
        assert list(st.q) == [3.0, 4.0]
        assert list(st.hb) == [7.0, 8.0]


class TestDesingularization:
    def test_plain_ratio(self):
        assert desingularized_ratio(1.0, 0.5) == pytest.approx(0.5, abs=0.0)

    def test_dry_cell(self):
        assert desingularized_ratio(0.0, 0.0) == 0.0

    def test_tiny_depth_against_exact_rational(self):
        h, p, eps = 1e-12, 1e-12, 1e-8
        hf, pf, ef = Fraction(h), Fraction(p), Fraction(eps)
        exact = 2 * hf * pf / (hf * hf + max(hf * hf, ef * ef))
        got = desingularized_ratio(h, p)
        assert got == pytest.approx(float(exact), rel=1e-15)
        assert got == pytest.approx(2e-8, rel=1e-7)

    def test_exact_ratio_above_threshold(self):
        rng = np.random.default_rng(11)
        h = rng.uniform(1e-8, 10.0, 500)
        p = rng.uniform(-5.0, 5.0, 500)
        v = desingularized_ratio(h, p)
        assert np.max(np.abs(v - p / h) / np.maximum(np.abs(p / h), 1e-300)) <= 1e-14


class TestPrimitives:
    def test_rest_state(self):
        g = build_grid(0.0, 1.0, 4)
        topo = sample_topography(lambda y: 0.5 * np.ones_like(y), g)
        st = ConservedState.from_fields([2.0] * 4, [0.0] * 4, [1.0] * 4,
                                        [6.0] * 4)
        u, v, b, w = primitives_from_state(st, topo)
        assert np.allclose(u, 0.0)
        assert np.allclose(v, 0.5)
        assert np.allclose(b, 3.0)
        assert np.allclose(w, 2.5)


class TestCoriolisSpec:
    @pytest.mark.parametrize("f0,beta", [
        (np.inf, 0.0), (-np.inf, 0.0), (np.nan, 0.0), (0.0, np.nan),
        (0.0, np.inf)])
    def test_non_finite_parameters_rejected(self, f0, beta):
        # refused at construction, not left to end the run as a
        # non-finite solution
        with pytest.raises(ValueError, match="finite"):
            CoriolisSpec(f0, beta)


class TestNumericsAndScenario:
    def test_sigma_range_enforced(self):
        with pytest.raises(ValueError):
            Numerics(sigma=2.5)
        with pytest.raises(ValueError):
            Numerics(sigma=0.5)

    def test_negative_final_time_rejected(self):
        g = build_grid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            Scenario(name="x", grid=g, coriolis=CoriolisSpec(0.0),
                     topography=flat_topography(g),
                     height=lambda y: np.ones_like(y),
                     b0=lambda y: np.ones_like(y), t_final=-1.0)

    @pytest.mark.parametrize("cfl", [0.0, -0.5, np.inf, np.nan])
    def test_cfl_positive_and_finite(self, cfl):
        with pytest.raises(ValueError, match="cfl"):
            Numerics(cfl=cfl)

    @pytest.mark.parametrize("t_final,snapshots", [
        (np.inf, ()), (np.nan, ()), (1.0, (0.5, np.nan)),
        (1.0, (np.inf,))])
    def test_non_finite_times_rejected(self, t_final, snapshots):
        g = build_grid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            Scenario(name="x", grid=g, coriolis=CoriolisSpec(0.0),
                     topography=flat_topography(g),
                     height=lambda y: np.ones_like(y),
                     b0=lambda y: np.ones_like(y), t_final=t_final,
                     snapshots=snapshots)

    def test_snapshots_sorted_and_bounded(self):
        g = build_grid(0.0, 1.0, 4)
        s = Scenario(name="x", grid=g, coriolis=CoriolisSpec(0.0),
                     topography=flat_topography(g),
                     height=lambda y: np.ones_like(y),
                     b0=lambda y: np.ones_like(y), t_final=1.0,
                     snapshots=(0.5, 0.25))
        assert s.snapshots == (0.25, 0.5)
        with pytest.raises(ValueError):
            Scenario(name="x", grid=g, coriolis=CoriolisSpec(0.0),
                     topography=flat_topography(g),
                     height=lambda y: np.ones_like(y),
                     b0=lambda y: np.ones_like(y), t_final=1.0,
                     snapshots=(2.0,))

    def test_surface_height_uses_cell_center_bottom(self):
        g = build_grid(0.0, 1.0, 4)
        topo = sample_topography(lambda y: y, g)
        s = Scenario(name="x", grid=g, coriolis=CoriolisSpec(0.0),
                     topography=topo,
                     height=lambda y: np.full_like(y, 2.0),
                     height_is_surface=True,
                     b0=lambda y: np.ones_like(y), t_final=0.0)
        st = s.initial_state()
        assert np.array_equal(st.h, 2.0 - topo.z_center)
