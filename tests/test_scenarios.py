"""Tests for the benchmark scenario factories."""

import math
import warnings

import numpy as np
import pytest

from trsw.reconstruction import build_interface_states
from trsw.scenarios import SCENARIO_IDS, make_scenario, perturbation_bump
from trsw.stepper import rhs, run_simulation
from trsw.workspace import Workspace


def max_tendency(scenario, component=None):
    tend = rhs(scenario.initial_state(), scenario,
               Workspace(scenario.grid.n))
    if component is None:
        return np.abs(tend).max()
    return np.abs(tend[component]).max()


class TestFactory:
    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario("nosuch")

    @pytest.mark.parametrize("sid", SCENARIO_IDS)
    def test_initial_states_physical(self, sid):
        s = make_scenario(sid, cells=64)
        st = s.initial_state()
        assert np.all(st.h >= 0.0)
        assert np.all(st.hb >= 0.0)
        assert np.all(np.isfinite(st.array))
        # buoyancy positive wherever there is water
        wet = st.h > 1e-12
        assert np.all(st.hb[wet] > 0.0)

    def test_default_resolutions(self):
        assert make_scenario("ex1-steady").grid.dy == pytest.approx(0.04)
        assert make_scenario("ex2").grid.dy == pytest.approx(0.01)
        assert make_scenario("ex3b").grid.n == 6000
        assert make_scenario("ex4").grid.n == 4000
        assert make_scenario("ex5").grid.n == 6000
        assert make_scenario("ex6").grid.n == 8000

    def test_overrides(self):
        s = make_scenario("ex2", cells=400, t_final=0.1, sigma=1.5, cfl=0.4)
        assert s.grid.n == 400
        assert s.t_final == 0.1
        assert s.numerics.sigma == 1.5
        assert s.numerics.cfl == 0.4
        assert all(t <= 0.1 for t in s.snapshots)

    def test_snapshots_override(self):
        s = make_scenario("ex1-perturbed", snapshots=(0.2, 0.1))
        assert s.snapshots == (0.1, 0.2)


class TestPerturbationBump:
    def test_inside(self):
        assert perturbation_bump(-1.45) == 0.1

    def test_outside(self):
        assert perturbation_bump(0.0) == 0.0

    def test_closed_endpoints(self):
        assert perturbation_bump(-1.5) == 0.1
        assert perturbation_bump(-1.4) == 0.1


class TestInitialData:
    def test_ex3_jet_center_value(self):
        s = make_scenario("ex3a", cells=100)
        u0 = s.u0(np.array([0.0]))[0]
        assert u0 == pytest.approx(2.0, rel=1e-14)

    def test_ex4_analytic_balance_identity(self):
        # b h_y + (h/2) b_y = -f u for the thermally balanced jet
        y = np.linspace(-5, 5, 201)
        s = make_scenario("ex4", cells=100)
        lhs = 0.5 * (-6.0 / np.cosh(y) ** 2)  # h = 1, b_y = -6 sech^2
        rhs_ = -1.0 * s.u0(y)
        assert lhs == pytest.approx(rhs_, rel=1e-12)

    def test_ex1_steady_cell_values(self):
        s = make_scenario("ex1-steady", cells=100)
        st = s.initial_state()
        k = np.argmin(np.abs(s.grid.centers - (-1.02)))  # flat region cell
        assert st.h[k] == pytest.approx(6.0, abs=0.0)
        assert st.q[k] == 0.0 and st.p[k] == 0.0
        assert st.hb[k] == pytest.approx(24.0, abs=0.0)

    def test_ex1_perturbed_adds_bump_to_surface(self):
        base = make_scenario("ex1-steady", cells=100).initial_state()
        pert = make_scenario("ex1-perturbed", cells=100).initial_state()
        delta = pert.h - base.h
        y = make_scenario("ex1-steady", cells=100).grid.centers
        inside = (y >= -1.5) & (y <= -1.4)
        assert np.allclose(delta[inside], 0.1)
        assert np.all(delta[~inside] == 0.0)

    def test_ex5_fields(self):
        s = make_scenario("ex5", cells=64)
        st = s.initial_state()
        assert np.allclose(st.h, 0.121)
        assert s.coriolis.beta == 0.1 and s.coriolis.f0 == 0.0
        k = np.argmin(np.abs(s.grid.centers))
        y0 = s.grid.centers[k]
        assert st.q[k] == pytest.approx(0.121 * -0.1 * np.exp(-y0 * y0),
                                        rel=1e-14)


class TestDiscreteEquilibria:
    def test_ex1_steady_exact(self):
        s = make_scenario("ex1-steady", cells=100)
        assert max_tendency(s) <= 1e-13 * 72.0

    def test_lake_at_rest_exact(self):
        s = make_scenario("lake-at-rest", cells=200)
        assert max_tendency(s) <= 1e-13 * 25.0

    def test_thermal_equilibrium_constant_bh2_exact(self):
        # p = 0, flat bottom, b h^2 = const: exact discrete fixed point
        from trsw.model import (CoriolisSpec, Scenario, build_grid,
                                flat_topography)
        g = build_grid(-1.0, 1.0, 64)
        h_fn = lambda y: 1.0 + 0.3 * np.exp(-np.asarray(y, float) ** 2)
        s = Scenario(name="bh2", grid=g, coriolis=CoriolisSpec(0.0),
                     topography=flat_topography(g), height=h_fn,
                     b0=lambda y: 2.0 / h_fn(y) ** 2, t_final=0.1)
        st = s.initial_state()
        ws = Workspace(64)
        build_interface_states(st.array, s, ws)
        for l in (ws.l_cell_left, ws.l_cell_right):
            assert np.abs(l - 1.0).max() <= 1e-14
        assert max_tendency(s) <= 1e-13

    @pytest.mark.parametrize("sid,n_coarse,bound", [
        ("ex4", 500, 3.0), ("ex6", 1000, 5e-4)])
    def test_balanced_jets_second_order(self, sid, n_coarse, bound):
        # sampled analytic equilibria are balanced to O(dy^2) in p
        coarse = make_scenario(sid, cells=n_coarse)
        fine = make_scenario(sid, cells=2 * n_coarse)
        e_coarse = max_tendency(coarse, component=2)
        e_fine = max_tendency(fine, component=2)
        assert e_coarse <= bound * coarse.grid.dy ** 2
        assert e_coarse / e_fine >= 2.5


class TestAdjustmentDynamics:
    def test_midlatitude_jet_radiates_wave_packets(self):
        # f-plane adjustment sheds inertia-gravity waves that leave the
        # jet region
        import math
        from trsw.model import desingularized_ratio
        from trsw.stepper import run_simulation

        t_end = 9.2 * math.pi
        s = make_scenario("ex3c", cells=1500, t_final=t_end,
                          snapshots=(t_end,))
        res = run_simulation(s, collect_records=False)
        assert not res.failed
        v = desingularized_ratio(res.state.h, res.state.p)
        y = s.grid.centers
        outside = np.abs(y) > 20.0
        assert (v[outside] ** 2).sum() / (v ** 2).sum() >= 0.03
        assert np.abs(v).max() >= 0.1

    def test_equatorial_waves_stay_trapped(self):
        # on the equatorial beta-plane the response stays confined to a
        # few deformation radii even after free waves would have left
        # the window (group speed ~0.105, window 5, elapsed ~60)
        import math
        from trsw.model import desingularized_ratio
        from trsw.stepper import run_simulation

        t_end = 19.2 * math.pi
        s = make_scenario("ex5", cells=1500, t_final=t_end,
                          snapshots=(t_end,))
        res = run_simulation(s, collect_records=False)
        assert not res.failed
        v = desingularized_ratio(res.state.h, res.state.p)
        y = s.grid.centers
        core = np.abs(y) <= 5.0
        assert (v[core] ** 2).sum() / (v ** 2).sum() >= 0.95
        assert np.abs(v).max() >= 1e-3  # a genuine trapped oscillation


@pytest.mark.parametrize("sid", [s for s in SCENARIO_IDS if s != "ex5"])
def test_runs_raise_no_numerical_warning(sid):
    # the stage kernels compute on every lane, masked or not, and must not
    # raise where the results are unused; ex5 at this N ends flagged with
    # overflow warnings until dt is bounded by the rotation too
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run_simulation(make_scenario(sid, cells=200))
    assert not result.failed, result.failure_message
