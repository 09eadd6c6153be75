"""Tests for balance residuals, ledgers, energy, vorticity, and the
linear-theory reference values."""

import math
from decimal import Decimal

import numpy as np
import pytest

from trsw.diagnostics import (BalanceTimeAverager, ConservationLedger,
                              balance_residual, energy,
                              equatorial_eigenfrequency, gradient_max,
                              rossby_burger, total_variation)
from trsw.model import (ConservedState, CoriolisSpec, Scenario,
                        build_grid, desingularized_ratio, flat_topography,
                        sample_topography)
from trsw.scenarios import make_scenario
from trsw.stepper import run_simulation


def inertia_gravity_frequency(f, b, h, k):
    """The dispersion relation omega = sqrt(f^2 + b h k^2) of
    inertia-gravity waves over a uniform background, in closed form."""
    return math.sqrt(f * f + b * h * k * k)


def potential_vorticity(state, coriolis, grid):
    """Q = (f - u_y) / h per cell, desingularized in h, with u_y by
    centered differences (one-sided at the boundaries)."""
    u = desingularized_ratio(state.h, state.q)
    u_y = np.gradient(u, grid.dy)
    return desingularized_ratio(state.h, coriolis.values(grid.centers) - u_y)


def equatorial_inertial_period(beta, b0, h0):
    """The equatorial inertial period 2 pi / sqrt(beta sqrt(b0 H0)), in
    closed form."""
    return 2.0 * math.pi / math.sqrt(beta * math.sqrt(b0 * h0))


class TestBalanceResidual:
    def test_rest_state_zero(self):
        g = build_grid(-1.0, 1.0, 16)
        st = ConservedState.from_fields(np.full(16, 2.0), np.zeros(16),
                                        np.zeros(16), np.full(16, 6.0))
        lhs, rhs_ = balance_residual(st, CoriolisSpec(1.0), g,
                                     flat_topography(g))
        assert np.all(lhs == 0.0) and np.all(rhs_ == 0.0)

    def test_balanced_jet_pointwise(self):
        s = make_scenario("ex4", cells=1000)
        lhs, rhs_ = balance_residual(s.initial_state(), s.coriolis, s.grid,
                                     s.topography)
        # second-order agreement on the analytically balanced jet
        assert np.abs(lhs - rhs_).max() <= 0.05

    def test_refused_on_nonflat_bottom(self):
        g = build_grid(-1.0, 1.0, 16)
        topo = sample_topography(lambda y: 0.1 * np.cos(y), g)
        st = ConservedState.from_fields(np.ones(16), np.zeros(16),
                                        np.zeros(16), np.ones(16))
        with pytest.raises(ValueError, match="flat"):
            balance_residual(st, CoriolisSpec(1.0), g, topo)


class TestBalanceTimeAverager:
    def test_steady_field_average_equals_instantaneous(self):
        av = BalanceTimeAverager(t_start=1.0)
        lhs = np.array([1.0, 2.0])
        rhs_ = np.array([1.0, 2.1])
        for t in (0.5, 1.0, 1.5, 2.0, 3.0):
            av.add(t, lhs, rhs_)
        a_l, a_r = av.finalize()
        assert a_l == pytest.approx(lhs, rel=1e-14)
        assert a_r == pytest.approx(rhs_, rel=1e-14)

    def test_empty_window_refused(self):
        av = BalanceTimeAverager(t_start=1.0)
        av.add(0.5, np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            av.finalize()
        av.add(1.5, np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            av.finalize()  # single sample spans zero time


class TestConservationLedger:
    def test_quiescent_closed_run(self):
        g = build_grid(0.0, 1.0, 8)
        s = Scenario(name="rest", grid=g, coriolis=CoriolisSpec(0.0),
                     topography=flat_topography(g),
                     height=lambda y: np.ones_like(y),
                     b0=lambda y: np.ones_like(y), t_final=0.5)
        res = run_simulation(s)
        assert abs(res.records[-1].mass_drift) <= 1e-14
        assert abs(res.records[-1].hb_drift) <= 1e-14

    def test_dam_break_drift_at_roundoff(self):
        res = run_simulation(make_scenario("ex2", cells=100, t_final=0.1))
        rec = res.records[-1]
        assert abs(rec.mass_drift) <= 1e-12 * rec.mass
        assert abs(rec.hb_drift) <= 1e-12 * rec.hb_total


class TestEnergy:
    def test_unit_column(self):
        g = build_grid(0.0, 1.0, 10)
        st = ConservedState.from_fields(np.ones(10), np.zeros(10),
                                        np.zeros(10), np.ones(10))
        assert energy(st, g, flat_topography(g)) == pytest.approx(0.5)

    def test_doubling_depth_quadruples_potential(self):
        g = build_grid(0.0, 1.0, 10)
        st1 = ConservedState.from_fields(np.ones(10), np.zeros(10),
                                         np.zeros(10), np.ones(10))
        st2 = ConservedState.from_fields(np.full(10, 2.0), np.zeros(10),
                                         np.zeros(10), np.full(10, 2.0))
        e1 = energy(st1, g, flat_topography(g))
        e2 = energy(st2, g, flat_topography(g))
        assert e2 == pytest.approx(4.0 * e1)

    def test_refused_on_nonflat_bottom(self):
        g = build_grid(0.0, 1.0, 10)
        topo = sample_topography(lambda y: y, g)
        st = ConservedState.from_fields(np.ones(10), np.zeros(10),
                                        np.zeros(10), np.ones(10))
        with pytest.raises(ValueError, match="flat"):
            energy(st, g, topo)


class TestPotentialVorticity:
    def test_rest_with_rotation(self):
        g = build_grid(-1.0, 1.0, 16)
        st = ConservedState.from_fields(np.ones(16), np.zeros(16),
                                        np.zeros(16), np.ones(16))
        assert potential_vorticity(st, CoriolisSpec(1.0), g) == \
            pytest.approx(np.ones(16))

    def test_linear_shear(self):
        g = build_grid(-1.0, 1.0, 16)
        u = 0.5 * g.centers
        st = ConservedState.from_fields(np.ones(16), u, np.zeros(16),
                                        np.ones(16))
        assert potential_vorticity(st, CoriolisSpec(0.0), g) == \
            pytest.approx(np.full(16, -0.5), rel=1e-12)

    def test_extrema_bounded_under_advection(self):
        s = make_scenario("ex3a", cells=500, t_final=5.0)
        st0 = s.initial_state()
        q0 = potential_vorticity(st0, s.coriolis, s.grid)
        res = run_simulation(s, collect_records=False)
        qT = potential_vorticity(res.state, s.coriolis, s.grid)
        slack = 0.5 * s.grid.dy
        assert qT.max() <= q0.max() + slack
        assert qT.min() >= q0.min() - slack


class TestDimensionlessNumbers:
    def test_equatorial_jet_marginal_values(self):
        ro, bu = rossby_burger(0.1, 1.0, 0.121, 0.1, 0.1)
        assert ro == pytest.approx(1.0, rel=1e-12)
        assert bu == pytest.approx(1.1, rel=1e-12)

    def test_unstable_jet_values(self):
        # far-field depth 0.11 of the depressed equatorial jet
        ro, bu = rossby_burger(0.1, 1.0, 0.11, 0.1, 0.1)
        assert ro == pytest.approx(1.0, rel=1e-12)
        assert bu == pytest.approx(1.05, abs=5e-3)  # 3 significant figures

    def test_strong_rotation_limit(self):
        ro, bu = rossby_burger(0.1, 1.0, 0.121, 0.1, 1e9)
        assert ro < 1e-9 and bu < 1e-9

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            rossby_burger(0.1, 0.0, 0.1, 0.1, 0.1)


class TestLinearReference:
    def test_inertial_limit(self):
        assert inertia_gravity_frequency(1.0, 1.0, 1.0, 0.0) == 1.0
        assert inertia_gravity_frequency(-2.5, 1.0, 1.0, 0.0) == 2.5

    def test_dispersion(self):
        assert inertia_gravity_frequency(1.0, 4.0, 0.25, 3.0) == \
            pytest.approx(math.sqrt(1.0 + 9.0))

    def test_equatorial_eigenfrequencies(self):
        assert equatorial_eigenfrequency(0) == pytest.approx(1.0)
        assert equatorial_eigenfrequency(1) == pytest.approx(math.sqrt(3.0))
        assert equatorial_eigenfrequency(2) == pytest.approx(math.sqrt(5.0))
        seq = [equatorial_eigenfrequency(n) for n in range(8)]
        assert np.all(np.diff(seq) > 0.0)

    def test_equatorial_inertial_period(self):
        # 2*pi / sqrt(0.1 * sqrt(0.1 * 0.121)) = 2*pi / sqrt(0.011),
        # cross-checked with decimal arithmetic
        expected = float(2 * Decimal(str(math.pi))
                         / Decimal("0.011").sqrt())
        got = equatorial_inertial_period(0.1, 0.1, 0.121)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(59.9077, abs=1e-3)


class TestLinearReferenceAgainstSolver:
    def test_inertial_oscillation_frequency(self):
        # k = 0 limit: a uniform v rotates into u at exactly omega = f,
        # the frequency linear theory predicts
        from trsw.model import desingularized_ratio

        f0, v0 = 1.0, 0.01
        period = 2.0 * math.pi / inertia_gravity_frequency(f0, 1.0, 1.0, 0.0)
        g = build_grid(-10.0, 10.0, 100)
        s = Scenario(name="inertial", grid=g, coriolis=CoriolisSpec(f0),
                     topography=flat_topography(g),
                     height=lambda y: np.ones_like(np.asarray(y, float)),
                     v0=lambda y: np.full_like(np.asarray(y, float), v0),
                     b0=lambda y: np.ones_like(np.asarray(y, float)),
                     t_final=period,
                     snapshots=(period / 4, period / 2, period))
        res = run_simulation(s, collect_records=False)
        k = g.n // 2  # boundary effects cannot reach the center in time
        for t, st in res.snapshots:
            u = desingularized_ratio(st.h, st.q)[k]
            v = desingularized_ratio(st.h, st.p)[k]
            assert u == pytest.approx(v0 * math.sin(f0 * t), abs=1e-5)
            assert v == pytest.approx(v0 * math.cos(f0 * t), abs=1e-5)


class TestVariationMeasures:
    def test_monotone_field(self):
        assert total_variation([0.0, 0.5, 1.5, 2.0]) == pytest.approx(2.0)

    def test_constant_field(self):
        assert total_variation(np.full(9, 3.3)) == 0.0

    def test_gradient_max(self):
        assert gradient_max([0.0, 1.0, 1.2], 0.5, np.empty(2)) == \
            pytest.approx(2.0)
