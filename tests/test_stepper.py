"""Tests for boundary handling, the Coriolis source, time stepping,
draining positivity limiter, and the simulation driver."""

import dataclasses
import gc
import hashlib
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trsw
import trsw.cli  # noqa: F401 -- a module the tracer wraps
from trsw import stepper
from trsw.model import (ConservedState, CoriolisSpec, Numerics, Scenario,
                        Topography, build_grid, flat_topography)
from trsw.reconstruction import (_fill_ghosts, build_interface_states,
                                 interface_values)
from trsw.scenarios import make_scenario
from trsw.stepper import (assemble_fluxes, cfl_dt, draining_limit, rhs,
                          run_simulation, source_term, ssp_rk3_combine)
from trsw.workspace import Workspace, fresh


def _rest_scenario(n=8, t_final=0.0, **kw):
    g = build_grid(0.0, 1.0, n)
    return Scenario(name="rest", grid=g, coriolis=CoriolisSpec(0.0),
                    topography=flat_topography(g),
                    height=lambda y: np.ones_like(y),
                    b0=lambda y: np.ones_like(y), t_final=t_final, **kw)


def _edge_padded(u):
    """``u`` with two ghost cells per side of its last axis, which start as
    NaN and are then filled by the reconstruction's _fill_ghosts."""
    padded = np.full(u.shape[:-1] + (u.shape[-1] + 4,), np.nan)
    padded[..., 2:-2] = u
    return _fill_ghosts(padded)


def _dry_bed(t_final=0.2, snapshots=(0.1, 0.2), b0=np.ones_like):
    """A dam break onto a dry bed: unit depth left of 0 on [-1, 1], no
    water right of it, 64 cells."""
    g = build_grid(-1.0, 1.0, 64)
    return Scenario(name="dry-bed", grid=g, coriolis=CoriolisSpec(0.0),
                    topography=flat_topography(g),
                    height=lambda y: np.where(y < 0.0, 1.0, 0.0),
                    b0=b0, t_final=t_final, snapshots=snapshots)


def _report_bits(report):
    """A StepReport's fields, each float as its hex text."""
    fields = []
    for x in dataclasses.astuple(report):
        for y in x if isinstance(x, tuple) else (x,):
            fields.append(y.hex() if isinstance(y, float) else y)
    return tuple(fields)


def _run_steps(scenario):
    """Run ``scenario``; return the result and the report of each step."""
    reports = []
    res = run_simulation(scenario, on_step=lambda state, report:
                         reports.append(report))
    return res, reports


class TestApplyBoundary:
    def test_two_ghosts_copy_edges(self):
        st = ConservedState.from_fields([1.0, 2.0, 3.0, 4.0], [0.0] * 4,
                                        [0.0] * 4, [1.0] * 4)
        padded = _edge_padded(st.array)
        assert padded.shape == (4, 8)
        assert list(padded[0]) == [1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 4.0, 4.0]

    def test_constant_state_padded_constant(self):
        st = ConservedState.from_fields([2.0] * 5, [1.0] * 5, [0.5] * 5,
                                        [4.0] * 5)
        padded = _edge_padded(st.array)
        for row, value in zip(padded, (2.0, 1.0, 0.5, 4.0)):
            assert np.all(row == value)

    def test_constant_state_zero_slopes_at_boundary(self):
        padded = np.full(12, 3.0)
        minus, plus = interface_values(padded, 1.3, 0.1,
                                       fresh(9, 1) + fresh(10, 1),
                                       fresh(11, 1) + fresh(10, 2))
        assert np.all(minus == 3.0) and np.all(plus == 3.0)


class TestSourceTerm:
    @staticmethod
    def _source(state, topo, cor, grid, numerics):
        """source_term on the interface states of ``state``, each in
        buffers of its own."""
        ws = Workspace(grid.n)
        build_interface_states(state.array, topo, cor, grid, numerics, ws)
        return source_term(state.array, ws.p_side, cor, grid,
                           *fresh(grid.n, 2))

    def test_constant_f(self):
        s = _rest_scenario()
        st = ConservedState.from_fields(np.ones(8), np.zeros(8),
                                        np.full(8, 0.5), np.ones(8))
        src = self._source(st, s.topography, CoriolisSpec(1.0), s.grid,
                           s.numerics)
        assert np.allclose(src, 0.5, atol=0.0)

    def test_simpson_exact_on_linear_f(self):
        # constant p makes Simpson collapse to 0.1 * c * y_k
        g = build_grid(0.0, 1.0, 10)
        c = 0.7
        st = ConservedState.from_fields(np.ones(10), np.zeros(10),
                                        np.full(10, c), np.ones(10))
        cor = CoriolisSpec(0.0, 0.1)
        src = self._source(st, flat_topography(g), cor, g, Numerics())
        assert src == pytest.approx(0.1 * c * g.centers, rel=1e-13)

    def test_zero_f(self):
        s = _rest_scenario()
        st = s.initial_state()
        assert np.all(self._source(st, s.topography, s.coriolis, s.grid,
                                   s.numerics) == 0.0)


class TestCflDt:
    def test_basic(self):
        assert cfl_dt(1.0, 0.04, 0.5, 99.0) == pytest.approx(0.02)

    def test_faster_waves(self):
        assert cfl_dt(2.0, 0.01, 0.5, 99.0) == pytest.approx(0.0025)

    def test_quiescent_uses_remaining_time(self):
        assert cfl_dt(0.0, 0.04, 0.5, 7.5) == 7.5

    def test_lands_within_relative_slack(self):
        dt = 0.5 * 0.04 / 1.0
        assert cfl_dt(1.0, 0.04, 0.5, dt * (1.0 + 1e-13)) == \
            dt * (1.0 + 1e-13)
        assert cfl_dt(1.0, 0.04, 0.5, dt * (1.0 + 1e-11)) == dt


def _drain(u, flux, dt, dy):
    """draining_limit under a workspace of its own."""
    return draining_limit(u, flux, dt, dy, Workspace(u.shape[1]))


class TestDrainingLimit:
    def test_no_limiting_when_deep(self):
        padded = np.ones((4, 9))
        flux = np.full((4, 6), 0.01)
        out, n = _drain(padded[:, 2:-2], flux, dt=0.1, dy=0.5)
        assert n == 0
        assert np.array_equal(out, flux)

    def test_dry_cell_outgoing_zeroed(self):
        padded = np.zeros((4, 9))
        padded[0] = [1, 1, 1, 1, 0, 1, 1, 1, 1]  # dry cell in the middle
        padded[3] = padded[0]
        flux = np.zeros((4, 6))
        flux[0, 3] = 0.5   # outgoing from the dry cell to the right
        flux[0, 2] = -0.5  # outgoing to the left
        flux[3] = flux[0]
        out, n = _drain(padded[:, 2:-2], flux, dt=0.1, dy=0.5)
        assert out[0, 3] == 0.0 and out[0, 2] == 0.0
        assert out[3, 3] == 0.0 and out[3, 2] == 0.0
        assert n > 0

    def test_update_stays_nonnegative(self):
        rng = np.random.default_rng(12)
        dy, dt = 0.1, 0.05
        for _ in range(50):
            h = rng.uniform(0.0, 0.2, 10)
            hb = h * rng.uniform(0.0, 2.0, 10)
            padded = np.zeros((4, 14))
            padded[0] = np.pad(h, 2, mode="edge")
            padded[3] = np.pad(hb, 2, mode="edge")
            flux = np.zeros((4, 11))
            flux[0] = rng.uniform(-1.0, 1.0, 11)
            flux[3] = rng.uniform(-1.0, 1.0, 11)
            out, _ = _drain(padded[:, 2:-2], flux, dt, dy)
            h_new = h - dt / dy * (out[0, 1:] - out[0, :-1])
            hb_new = hb - dt / dy * (out[3, 1:] - out[3, :-1])
            assert np.all(h_new >= 0.0)
            assert np.all(hb_new >= 0.0)

    def test_momentum_fluxes_untouched(self):
        padded = np.zeros((4, 9))
        flux = np.ones((4, 6))
        out, _ = _drain(padded[:, 2:-2], flux, dt=0.1, dy=0.5)
        assert np.array_equal(out[1], flux[1])
        assert np.array_equal(out[2], flux[2])

    @staticmethod
    def _scales(padded, flux, dt, dy):
        """min(dt, donor drain time)/dt at every interface, for the h and
        hb rows, from the state padded with two ghosts per side."""
        scales = {}
        for row, quantity in ((0, padded[0]), (3, padded[-1])):
            f = flux[row]
            f_ext = np.concatenate(([0.0], f, [0.0]))
            outgoing = (np.maximum(f_ext[1:], 0.0)
                        + np.maximum(-f_ext[:-1], 0.0))
            t_drain = ((1.0 - 1.0e-10) * dy * quantity[1:-1]
                       / np.maximum(outgoing, 1.0e-300))
            donor_t = np.where(f > 0.0, t_drain[:-1], t_drain[1:])
            scales[row] = np.minimum(dt, donor_t) / dt
        return scales

    @classmethod
    def _scaled(cls, padded, flux, dt, dy):
        """Every interface scaled by min(dt, donor drain time)/dt, written
        out without the idle shortcut."""
        out = flux.copy()
        for row, scale in cls._scales(padded, flux, dt, dy).items():
            out[row] = flux[row] * scale
        return out

    @classmethod
    def _oracle(cls, u, flux, dt, dy):
        """The scaled flux, the count of interfaces whose nonzero h or hb
        flux the scale changes, and whether every scale is 1, which is
        when the drain must take its idle return."""
        padded = np.pad(u, ((0, 0), (2, 2)), mode="edge")
        scales = cls._scales(padded, flux, dt, dy)
        count = np.count_nonzero(((scales[0] < 1.0) & (flux[0] != 0.0))
                                 | ((scales[3] < 1.0) & (flux[3] != 0.0)))
        idle = all(np.all(scale == 1.0) for scale in scales.values())
        return cls._scaled(padded, flux, dt, dy), int(count), idle

    @staticmethod
    def _takes_idle_return(u, flux, dt, dy):
        """Whether the drain returns without writing: the scaling path
        writes its flux, which fails on a read-only copy."""
        frozen = flux.copy()
        frozen.flags.writeable = False
        try:
            out, n = _drain(u, frozen, dt, dy)
        except ValueError:
            return False
        assert out is frozen and n == 0
        return True

    def test_idle_returns_the_flux_itself(self):
        padded = np.ones((4, 9))
        flux = np.full((4, 6), 0.01)
        flux[0, ::2] = -0.02
        out, n = _drain(padded[:, 2:-2], flux, dt=0.1, dy=0.5)
        assert out is flux and n == 0
        assert np.array_equal(self._scaled(padded, flux, 0.1, 0.5), flux)

    def test_dry_cell_without_flux_is_not_counted(self):
        # the dry cell donates to both of its interfaces, whose fluxes are
        # zero: its scale of 0 changes no flux, so neither interface counts
        padded = np.ones((4, 9))
        padded[::3, 4] = 0.0
        flux = np.full((4, 6), 0.01)
        flux[::3, 2:4] = 0.0
        before = flux.copy()
        out, n = _drain(padded[:, 2:-2], flux, dt=0.1, dy=0.5)
        assert out is flux and n == 0
        assert np.array_equal(out, before)

    @pytest.mark.parametrize("dry", [False, True])
    def test_early_return_before_the_donors(self, dry):
        # with no cell, ghosts included, draining within dt the drain
        # returns before it picks the donors, whose times it would write
        # with +inf at the junction. A dry cell fed from both sides drains
        # at once but donates to neither of its interfaces, so the donor
        # test still takes the idle return, leaving the flux unwritten
        u = np.full((4, 6), 0.2)
        flux = np.full((4, 7), 0.01)
        if dry:
            u[::3, 2] = 0.0
            flux[::3, 3] = -0.01
        dt, dy = 0.1, 0.1
        want, count, idle = self._oracle(u, flux, dt, dy)
        assert idle and count == 0
        assert self._takes_idle_return(u, flux, dt, dy)
        ws = Workspace(6)
        out, n = draining_limit(u, flux, dt, dy, ws)
        assert out is flux and n == 0
        assert out.tobytes() == want.tobytes()
        assert np.isinf(ws.donor[ws.junction]) == dry

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_run_matches_padded_formula_drain(self, monkeypatch):
        # a dam break onto a dry bed, whose front the drain limits in many
        # steps: every stage drained by the padded formula instead gives
        # the bits of every state and report. The buoyancy varies, so that
        # the h and hb rows differ
        scenario = _dry_bed(0.4, (), lambda y: 1.5 + 0.5 * np.sin(3.0 * y))

        def run():
            steps = []
            res = run_simulation(scenario, on_step=lambda state, report:
                                 steps.append((state.array.tobytes(),
                                               _report_bits(report))))
            assert not res.failed, res.failure_message
            return steps

        plain = run()
        # field 4 of a report is n_limited
        assert sum(bits[4] > 0 for _, bits in plain) == 10

        def oracle_drain(u, flux, dt, dy, ws):
            scaled, count, _ = self._oracle(u, flux, dt, dy)
            return scaled, count

        monkeypatch.setattr(stepper, "draining_limit", oracle_drain)
        assert run() == plain

    def test_limited_case_scales_in_place(self):
        rng = np.random.default_rng(5)
        padded = np.zeros((4, 14))
        padded[0] = np.pad(rng.uniform(0.0, 0.2, 10), 2, mode="edge")
        padded[3] = np.pad(rng.uniform(0.0, 0.2, 10), 2, mode="edge")
        flux = rng.uniform(-1.0, 1.0, (4, 11))
        before = flux.copy()
        out, n = _drain(padded[:, 2:-2], flux, 0.05, 0.1)
        assert n > 0 and out is flux
        assert (self._scaled(padded, before, 0.05, 0.1).tobytes()
                == out.tobytes())

    def test_nan_drain_time_gives_nan_flux(self):
        padded = np.ones((4, 9))
        padded[0, 4] = np.nan  # the donor of interface 3 for f > 0
        flux = np.full((4, 6), 0.01)
        before = flux.copy()
        out, n = _drain(padded[:, 2:-2], flux, dt=0.1, dy=0.5)
        assert np.isnan(out[0, 3]) and n == 0
        assert np.array_equal(np.isnan(out),
                              np.isnan(self._scaled(padded, before, 0.1, 0.5)))
        assert out is flux

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1),
           st.floats(-6.0, 1.0), st.booleans(), st.booleans())
    def test_stage_state_matches_padded_formula(self, n, seed, log_scale,
                                                inflow_left, inflow_right):
        # dry and 1e-300-deep cells, fluxes of both signs, and inflow at a
        # boundary interface, whose donor is a ghost cell
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.0, 0.2, (4, n))
        for row in (0, 3):
            u[row, rng.uniform(size=n) < 0.3] = 0.0
            u[row, rng.uniform(size=n) < 0.2] = 1e-300
        flux = rng.uniform(-1.0, 1.0, (4, n + 1)) * 10.0 ** log_scale
        for row in (0, 3):
            flux[row, 0] = abs(flux[row, 0]) * (1 if inflow_left else -1)
            flux[row, -1] = abs(flux[row, -1]) * (-1 if inflow_right else 1)
        dt, dy = 0.05, 0.1
        self._check_against_oracle(u, flux, dt, dy)

    def _check_against_oracle(self, u, flux, dt, dy):
        want, count, idle = self._oracle(u, flux, dt, dy)
        assert self._takes_idle_return(u, flux, dt, dy) == idle
        out, n_limited = _drain(u, flux, dt, dy)
        assert out.tobytes() == want.tobytes()
        # an interface counts when the scale changes its h or hb flux
        assert n_limited == count

    @pytest.mark.parametrize("row", [0, 3])
    @pytest.mark.parametrize("cell", [0, 3])
    @pytest.mark.parametrize("value", [0.0, np.nan, 0.002])
    @pytest.mark.parametrize("edge_flux", [-0.5, 0.0, 0.5])
    @pytest.mark.parametrize("dt", [1e-6, 0.05])
    def test_end_cells_beside_the_junction(self, row, cell, value,
                                           edge_flux, dt):
        # h and hb lie end to end in the drain's flat rows, so the last h
        # cell and the first hb cell sit either side of the junction
        # slot, which belongs to neither row; a dry, NaN or shallow cell
        # at each end of both rows, its boundary flux of either sign or
        # zero, under a dt at which the shallow cell drains or does not
        u = np.full((4, 4), 0.2)
        u[row, cell] = value
        flux = np.random.default_rng(row + cell).uniform(-0.1, 0.1, (4, 5))
        flux[row, 0 if cell == 0 else -1] = edge_flux
        self._check_against_oracle(u, flux, dt, 0.1)


class TestSspRk3:
    def test_stability_polynomial_exact(self):
        # one step of u' = lam*u must produce 1 + z + z^2/2 + z^3/6
        lam, dt, u0 = -0.83, 0.37, 1.234
        z = lam * dt
        got = ssp_rk3_combine(u0, dt, lambda u: lam * u, np.empty(()),
                              np.empty(()))
        expected = u0 * (1.0 + z + z * z / 2.0 + z ** 3 / 6.0)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_third_order_on_scalar_ode(self):
        errors = []
        dts = [0.1, 0.05, 0.025, 0.0125, 0.00625]
        for dt in dts:
            u, t = 1.0, 0.0
            while t < 1.0 - 1e-12:
                step = min(dt, 1.0 - t)
                u = ssp_rk3_combine(u, step, lambda x: -x, np.empty(()),
                                    np.empty(()))
                t += step
            errors.append(abs(u - math.exp(-1.0)))
        order = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert 2.8 <= order <= 3.2

    def test_steady_state_is_fixed_point(self):
        s = make_scenario("ex1-steady", cells=100, t_final=0.003)
        res, reports = _run_steps(s)
        assert len(reports) == 1
        st, st2 = s.initial_state(), res.state
        assert np.abs(st2.array - st.array).max() <= 1e-13 * 72.0

    def test_zero_tendency_state_unchanged(self):
        s = _rest_scenario(t_final=0.01)
        res, reports = _run_steps(s)
        assert len(reports) == 1
        st, st2 = s.initial_state(), res.state
        assert np.allclose(st2.array, st.array, rtol=1e-15, atol=1e-16)

    def test_report_invariants(self):
        # a step clipped to the snapshot at dt, then one the speeds set
        dt = 0.001
        s = make_scenario("ex2", cells=100, t_final=0.01, snapshots=(dt,))
        _, reports = _run_steps(s)
        report = reports[0]
        assert report.dt == dt and report.limit == "event"
        assert report.a_max > 0.0
        report = reports[1]
        assert report.limit == "wave speed"
        assert report.dt == pytest.approx(
            s.numerics.cfl * s.grid.dy / report.a_max)
        assert all(r.min_h >= 0.0 and r.min_hb >= 0.0 for r in reports)

    def test_report_of_dry_state_has_infinite_dt_cfl(self):
        # no wave speed bounds the step: it takes the whole remaining time
        s = dataclasses.replace(_rest_scenario(t_final=0.01),
                                height=np.zeros_like)
        res, (report,) = _run_steps(s)
        assert report.a_max == 0.0 and report.limit == "event"
        assert report.dt == 0.01
        dry = ConservedState(np.zeros((4, 8)))
        assert np.array_equal(res.state.array, dry.array)
        assert cfl_dt(0.0, s.grid.dy, 0.5, 0.25) == 0.25


class TestStageCheck:
    """Each RK stage state is checked once for h, hb >= 0, before it is
    reconstructed; only the accepted step becomes a ConservedState."""

    @staticmethod
    def _step_with_outflow(monkeypatch, row):
        # a draining limiter that lets cell 0 export far more of one
        # quantity than it holds, so the first stage state goes negative
        def unlimited(u, flux, dt, dy, ws=None):
            out = np.zeros_like(flux)
            out[row, 1] = 1e3
            return out, 0

        reconstructions = []

        def counted(*args, **kwargs):
            reconstructions.append(1)
            return build_interface_states(*args, **kwargs)

        monkeypatch.setattr(stepper, "draining_limit", unlimited)
        monkeypatch.setattr(stepper, "build_interface_states", counted)
        res, reports = _run_steps(_rest_scenario(t_final=0.01))
        assert res.failed and not reports
        # raised by the check of the first stage state, before stage 2
        assert len(reconstructions) == 1
        return res.failure_message

    def test_negative_depth_in_stage_raises(self, monkeypatch):
        assert self._step_with_outflow(monkeypatch, 0) == \
            "negative depth in conserved state at t=0"

    def test_negative_buoyancy_in_stage_raises(self, monkeypatch):
        assert self._step_with_outflow(monkeypatch, 3) == \
            "negative depth-weighted buoyancy in conserved state at t=0"

    def test_one_conserved_state_per_accepted_step(self, monkeypatch):
        built = []
        check = ConservedState.__post_init__

        def counted(self):
            built.append(1)
            check(self)

        monkeypatch.setattr(ConservedState, "__post_init__", counted)
        res = run_simulation(make_scenario("ex2", cells=64, t_final=0.02))
        assert not res.failed and res.steps > 1
        # the initial state, then one per accepted step
        assert len(built) == res.steps + 1

    def test_each_state_scanned_once(self, monkeypatch):
        # stages 2 and 3 and the accepted state, whose check is its
        # constructor's, plus the initial state
        from trsw import model

        scans = []
        check = model.check_nonnegative

        def counted(u):
            scans.append(1)
            return check(u)

        monkeypatch.setattr(model, "check_nonnegative", counted)
        monkeypatch.setattr(stepper, "check_nonnegative", counted)
        res, reports = _run_steps(make_scenario("ex2", cells=64,
                                                t_final=0.02))
        assert not res.failed and res.steps > 1
        assert len(scans) == 3 * res.steps + 1
        assert all(r.min_h >= 0.0 and r.min_hb >= 0.0 for r in reports)

    @pytest.mark.parametrize("row,message", [
        (0, "negative depth in conserved state"),
        (3, "negative depth-weighted buoyancy in conserved state")])
    def test_negative_accepted_state_raises(self, monkeypatch, row,
                                            message):
        def combine(u, dt, f, u1, u2):
            out = ssp_rk3_combine(u, dt, f, u1, u2)
            out[row, 2] = -1e-3
            return out

        monkeypatch.setattr(stepper, "ssp_rk3_combine", combine)
        res, reports = _run_steps(_rest_scenario(t_final=0.01))
        assert res.failed and not reports
        assert res.failure_message == f"{message} at t=0"


class TestRhs:
    def test_telescoping_mass_flux(self):
        rng = np.random.default_rng(8)
        n = 32
        g = build_grid(-1.0, 1.0, n)
        y = g.centers
        h = 1.0 + 0.3 * np.sin(3 * y) + 0.1 * rng.uniform(size=n)
        v = 0.2 * np.cos(y)
        st = ConservedState.from_fields(h, 0 * y, h * v, 2 * h)
        topo = flat_topography(g)
        tend = rhs(st, topo, CoriolisSpec(0.0), g, Numerics(), Workspace(n))
        ws = Workspace(n)
        assemble_fluxes(st.array, topo, CoriolisSpec(0.0), g, Numerics(), ws)
        flux = ws.flux
        total = tend[0].sum() * g.dy
        assert total == pytest.approx(-(flux[0, -1] - flux[0, 0]),
                                      rel=1e-12, abs=1e-14)

    def test_lake_at_rest_zero_tendency(self):
        s = make_scenario("lake-at-rest", cells=200)
        tend = rhs(s.initial_state(), s.topography, s.coriolis, s.grid,
                   s.numerics, Workspace(200))
        scale = 25.0  # max |L| for the 5-deep lake
        assert np.abs(tend).max() <= 1e-13 * scale


class TestRunSimulation:
    def test_zero_final_time(self):
        s = _rest_scenario(t_final=0.0)
        res = run_simulation(s)
        assert res.t == 0.0 and len(res.snapshots) == 1
        assert np.array_equal(res.snapshots[0][1].array,
                              s.initial_state().array)

    def test_snapshot_times_exact(self):
        s = make_scenario("ex1-perturbed", cells=50, t_final=0.1,
                          snapshots=(0.03, 0.07, 0.1))
        res = run_simulation(s)
        assert [t for t, _ in res.snapshots] == [0.03, 0.07, 0.1]
        assert res.t == 0.1

    @staticmethod
    def _rounding_run(monkeypatch, snapshots):
        # each event is neared by a step 1e-5 short of it, then reached by
        # rounding: a step a relative 2e-12 short, not clipped to land
        calls = []

        def short(a_max, dy, cfl, t_remaining):
            calls.append(t_remaining)
            return (t_remaining - 1e-5 if len(calls) % 2
                    else t_remaining * (1.0 - 2e-12))

        monkeypatch.setattr(stepper, "cfl_dt", short)
        res, reports = _run_steps(_rest_scenario(t_final=1.0,
                                                 snapshots=snapshots))
        assert not res.failed, res.failure_message
        assert all(r.limit == "wave speed" for r in reports)
        assert [r.t for r in reports[1::2]] == list(snapshots)
        return res

    def test_event_reached_by_rounding_moves_on(self, monkeypatch):
        res = self._rounding_run(monkeypatch, (0.5, 1.0))
        assert [t for t, _ in res.snapshots] == [0.5, 1.0]
        assert res.t == 1.0 and res.steps == 4

    def test_final_time_reached_by_rounding_keeps_snapshot(self,
                                                           monkeypatch):
        res = self._rounding_run(monkeypatch, (1.0,))
        assert [t for t, _ in res.snapshots] == [1.0]
        assert res.t == 1.0 and res.steps == 2

    def test_deterministic(self):
        a = run_simulation(make_scenario("ex2", cells=64, t_final=0.05))
        b = run_simulation(make_scenario("ex2", cells=64, t_final=0.05))
        assert np.array_equal(a.state.array, b.state.array)
        assert a.steps == b.steps

    def test_failure_flagged_with_partial_output(self):
        g = build_grid(0.0, 1.0, 8)
        s = Scenario(name="bad", grid=g, coriolis=CoriolisSpec(0.0),
                     topography=flat_topography(g),
                     height=lambda y: np.ones_like(y),
                     b0=lambda y: np.full_like(y, np.inf),
                     t_final=1.0)
        with np.errstate(invalid="ignore"):
            res = run_simulation(s)
        assert res.failed
        assert "t=" in res.failure_message

    def test_negative_depth_in_a_stage_flagged(self):
        # a subnormal depth over a bump beside dry cells: round-off in the
        # draining limiter leaves h < 0 in a stage of the third step
        g = build_grid(0.0, 1.0, 6)
        h = np.array([1.0, 0.0, 0.0, 0.0, 1e-318, 0.0])
        s = Scenario(name="subnormal", grid=g, coriolis=CoriolisSpec(0.0),
                     topography=Topography(np.array([0.0, 0.1, 0.0, 0.0,
                                                     0.1, 0.0, 0.0])),
                     height=lambda y: h, b0=np.ones_like, t_final=1.0,
                     snapshots=(0.01,))
        accepted = []
        res = run_simulation(
            s, on_step=lambda state, report: accepted.append((report.t,
                                                              state)))
        assert res.failed
        assert res.failure_message == \
            f"negative depth in conserved state at t={res.t:.6g}"
        assert res.steps == len(accepted) == 2
        assert res.t == accepted[-1][0] and res.state is accepted[-1][1]
        assert [t for t, _ in res.snapshots] == [0.01]
        assert len(res.records) == res.steps + 1

    def test_non_finite_wave_speed_flagged_at_finite_time(self):
        # p^2/h overflows in L, so the interface speeds are NaN; the step
        # size would be NaN and the clock with it
        g = build_grid(0.0, 1.0, 6)
        s = Scenario(name="overflow", grid=g, coriolis=CoriolisSpec(0.0),
                     topography=flat_topography(g), height=np.ones_like,
                     b0=np.ones_like,
                     v0=lambda y: np.where(np.arange(6) == 2, 1e155, 0.0),
                     t_final=1.0)
        with np.errstate(all="ignore"):
            res = run_simulation(s)
        assert res.failed and res.steps == 0
        assert res.t == 0.0
        assert res.failure_message == "non-finite wave speed at t=0"
        assert np.array_equal(res.state.array, s.initial_state().array)

    def test_positivity_through_dam_break(self):
        s = make_scenario("ex2", cells=100, t_final=0.1)
        worst = [np.inf]

        def watch(state, report):
            worst[0] = min(worst[0], report.min_h, report.min_hb)

        res = run_simulation(s, on_step=watch)
        assert not res.failed
        assert worst[0] >= 0.0

    def test_records_collected(self):
        s = make_scenario("ex2", cells=64, t_final=0.02)
        res = run_simulation(s)
        assert len(res.records) == res.steps + 1
        assert res.records[0].t == 0.0
        assert res.records[-1].t == pytest.approx(0.02)


class TestStepSize:
    """The step-size rule that perfbench/spans.py mirrors to count clipped
    steps agrees with the limit the stepper reports."""

    @pytest.mark.parametrize("scenario_id, options, clipped, steps", [
        ("ex2", dict(cells=64, t_final=0.05, snapshots=(0.01, 0.02)), 3, 12),
        ("ex6", dict(cells=200), 4, 4),
        ("lake-at-rest", dict(cells=40), 1, 27)])
    def test_traced_clipped_steps_are_event_steps(self, scenario_id, options,
                                                  clipped, steps, spans):
        s = make_scenario(scenario_id, **options)
        tracer = spans.Tracer()
        with tracer.installed(trsw), tracer.call():
            res, reports = _run_steps(s)
        assert not res.failed and len(reports) == steps
        events = [r for r in reports if r.limit == "event"]
        assert tracer.counts["cfl.clipped"] == len(events) == clipped
        assert all(r.t in set(s.snapshots) | {s.t_final} for r in events)
        cfl_dy = s.numerics.cfl * s.grid.dy
        assert all(r.dt == cfl_dy / r.a_max for r in reports
                   if r.limit == "wave speed")


def _run_digest(scenario_id, cells, t_final):
    """sha256 of a run's final state and records, bit for bit."""
    result = run_simulation(make_scenario(scenario_id, cells=cells,
                                          t_final=t_final))
    rows = np.array([r.row() for r in result.records], float)
    return hashlib.sha256(result.state.array.tobytes()
                          + rows.tobytes()).hexdigest()


class TestPerRunConstants:
    """f and the bottom differences are computed once per run and held by
    the run's Grid and Topography, so no run sees another's values and
    none of them outlives its run."""

    RUNS = (("ex2", 40, 0.05), ("ex6", 40, 2.0), ("ex2", 40, 0.05))

    def test_back_to_back_runs_match_fresh_processes(self):
        in_process = [_run_digest(*run) for run in self.RUNS]
        src = os.path.dirname(os.path.dirname(stepper.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        fresh = []
        for run in self.RUNS[:2]:
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; sys.path.insert(0, sys.argv[1]); "
                 "from test_stepper import _run_digest; "
                 f"print(_run_digest(*{run!r}))",
                 os.path.dirname(os.path.abspath(__file__))],
                env=env, capture_output=True, text=True, check=True)
            fresh.append(proc.stdout.strip())
        assert in_process == [fresh[0], fresh[1], fresh[0]]

    def test_finished_run_leaves_no_grid_or_topography_alive(self):
        scenario = make_scenario("ex6", cells=40, t_final=1.0)
        result = run_simulation(scenario)
        assert not result.failed
        # the per-run constants the run used, wherever they are held
        constants = (scenario.grid.coriolis_values(scenario.coriolis)
                     + (scenario.topography.dz_iface,
                        scenario.topography.dz_center))
        names = ("grid", "topography", "f_center", "f_iface", "dz_iface",
                 "dz_center")
        refs = [weakref.ref(x) for x in
                (scenario.grid, scenario.topography) + constants]
        del scenario, result, constants
        gc.collect()
        assert [name for name, ref in zip(names, refs)
                if ref() is not None] == []


def _step_growth(scenario):
    """Per step of a run after the first, the peak of the traced memory
    over the memory at the step's start, in bytes."""
    import tracemalloc

    grown = []
    start = []

    def on_step(state, report):
        current, peak = tracemalloc.get_traced_memory()
        if start:  # the peak of this step over the memory at its start
            grown.append(peak - start[0])
        start[:] = [current]
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        res = run_simulation(scenario, on_step=on_step, collect_records=True)
    finally:
        tracemalloc.stop()
    assert not res.failed and res.steps >= 3
    assert len(grown) == res.steps - 1
    return grown


class TestWorkspace:
    """A run's stage arrays live in one workspace allocated per run, and
    a step allocates no n-float array but the accepted state's copy and
    the depth solve's transient gathers; the stage kernels never read what
    a workspace held before."""

    @pytest.mark.parametrize("name,t_final", [
        ("ex2", 5e-4), ("ex3b", 0.3), ("ex6", 2.5),
        # at rest p = 0, whose roots the depth solve writes in place; the
        # cubic branch gathers only where round-off makes p nonzero, up to
        # a fifth of the interfaces at this N
        ("lake-at-rest", 0.002)])
    def test_steps_allocate_no_stage_arrays(self, name, t_final):
        n = 4096
        state_bytes = 4 * n * 8
        grown = _step_growth(make_scenario(name, cells=n, t_final=t_final))
        # the accepted state's copy, a few boolean masks and the depth
        # solve's gathers of the interfaces that take the cubic branch
        assert max(grown) < 1.5 * state_bytes

    def test_cubic_branch_at_every_interface(self):
        # a flat f-plane with p != 0 at every interface, so the depth
        # solve's cubic branch gathers both sides whole: its worst case
        n = 4096
        state_bytes = 4 * n * 8
        g = build_grid(-10.0, 10.0, n)
        s = Scenario(name="cubic", grid=g, coriolis=CoriolisSpec(1.0),
                     topography=flat_topography(g),
                     height=lambda y: 1.0 + 0.1 * np.sin(y),
                     b0=np.ones_like, v0=lambda y: 0.3 + 0.1 * np.cos(y),
                     t_final=0.05)
        grown = _step_growth(s)
        # at the branch's peak 13 arrays of at most 2(n + 1) floats are
        # alive (see the workspace's docstring); the accepted state's copy
        # comes on top
        assert max(grown) < 13 * 2 * (n + 1) * 8 + state_bytes

    @pytest.mark.parametrize("n", [4, 200, 4000, 25600])
    def test_stage_buffers_are_contiguous(self, n):
        # each multi-row buffer that a stage kernel hands whole to numpy
        # is rows end to end, so that numpy runs it as one 1-D loop; the
        # drain's rows are flat arrays
        ws = Workspace(n)
        d, x, t, _, _, rootable, mask = ws.depth_work
        buffers = {
            "u1": ws.u1, "u2": ws.u2, "tend": ws.tend, "finite": ws.finite,
            "flux": ws.flux, "v_side": ws.v_side,
            "ratio_work": ws.ratio_work,
            "ratio_cell_work": ws.ratio_cell_work,
            "speed_work": ws.speed_work[0], "speed_work[1]": ws.speed_work[1],
            "depth d": d, "depth x": x, "depth t": t,
            "depth rootable": rootable, "depth mask": mask,
            "drain_flux": ws.drain_flux,
            "drain_ext_hi": ws.drain_ext_hi, "drain_ext_lo": ws.drain_ext_lo,
            "drain_out": ws.drain_out, "rho_ext": ws.rho_ext,
            "rho_hi": ws.rho_hi, "rho_lo": ws.rho_lo, "donor": ws.donor,
            "drain_mask": ws.drain_mask, "drain_moving": ws.drain_moving}
        strided = [name for name, buf in buffers.items()
                   if not buf.flags.c_contiguous]
        assert strided == []
        m = n + 1
        assert ws.u1.shape == ws.tend.shape == ws.finite.shape == (4, n)
        assert ws.v_side.shape == ws.ratio_work.shape == (2, m)
        assert ws.drain_flux.shape == ws.donor.shape == (2 * m + 1,)
        assert ws.rho_ext.shape == ws.drain_out.shape == (2 * n + 4,)

    @pytest.mark.parametrize("n", [0, 4, 200, 4000, 25600])
    def test_blocks_start_on_a_cache_line(self, n):
        # wherever the heap puts the allocation: a large np.empty starts
        # 16 bytes past a page
        ws = Workspace(n)
        assert ws.block.ctypes.data % 64 == 0
        assert ws.flag_block.ctypes.data % 64 == 0
        assert ws.block.flags.c_contiguous and ws.block.shape[1] == n + 4
        assert ws.flag_block.shape == (5, n + 4)
        assert ws.u1.ctypes.data == ws.block.ctypes.data
        assert ws.finite.ctypes.data == ws.flag_block.ctypes.data

    @pytest.mark.parametrize("name,cells,n_limited", [
        # the drain at dt = 0.2 scales one interface's nonzero flux
        ("ex2", 64, 1),
        # variable f and the Simpson source
        ("ex6", 200, 0),
        # every interface takes the depth solve's sqrt branch
        ("lake-at-rest", 40, 0)])
    def test_stage_kernels_ignore_stale_workspace(self, name, cells,
                                                   n_limited):
        from trsw.diagnostics import ConservationLedger, make_record

        s = make_scenario(name, cells=cells)
        state = s.initial_state()
        args = (state.array, s.topography, s.coriolis, s.grid, s.numerics)
        ledger = ConservationLedger(state, s.grid)
        assembled = Workspace(cells)
        assemble_fluxes(*args, assembled)
        flux = assembled.flux

        def filled(value, flag):
            ws = Workspace(cells)
            ws.block[...] = value
            ws.flag_block[...] = flag
            return ws

        def bits(out):
            return [np.asarray(x, float).tobytes() for x in out]

        def kernels(make_ws):
            ws = make_ws()
            assemble_fluxes(*args, ws)
            got = bits([ws.flux, *ws.speeds, ws.l_side, ws.q_side, ws.p_side,
                        ws.b_side, ws.h_side, ws.v_side, ws.l_cell_left,
                        ws.l_cell_right])
            got += bits([rhs(state, *args[1:], make_ws())])
            # the drain scales its argument: each call gets the flux as
            # assembled
            limited, count = draining_limit(state.array, flux.copy(), 0.2,
                                            s.grid.dy, make_ws())
            got += bits([limited, count])
            got += bits([make_record(0.0, state, s, ledger,
                                     make_ws()).row()])
            return got, count

        # zeros, as fresh pages hold them: an np.empty workspace may be
        # recycled memory of the poisoned one
        fresh_bits, count = kernels(lambda: filled(0.0, False))
        assert kernels(lambda: filled(np.nan, True))[0] == fresh_bits
        assert count == n_limited

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    @pytest.mark.parametrize("stack_cells", [None, 0], ids=["default", "0"])
    def test_no_stage_result_crosses_scratch(self, monkeypatch, stack_cells):
        # what crosses a call of these lives in a dedicated row, so the
        # scratch rows may hold anything once one of them returns.
        # stack_cells 0 gives k = kf = 1, one field per interface_values
        # call and one flux component per group: the layout of every grid
        # from N = 8192 on, whose run keeps the default layout's bits
        from trsw import diagnostics, workspace

        s = _dry_bed()

        def run():
            limited = []
            res = run_simulation(s, on_step=lambda state, report:
                                 limited.append(report.n_limited))
            assert not res.failed, res.failure_message
            snaps = [(t, snap.array.tobytes()) for t, snap in res.snapshots]
            rows = np.array([r.row() for r in res.records], float)
            return (res.steps, sum(limited), res.state.array.tobytes(),
                    snaps, rows.tobytes())

        plain = run()
        # 4 interfaces with a nonzero flux are limited; the zero fluxes
        # beside the dry cells do not count
        assert plain[:2] == (20, 4)
        if stack_cells is not None:
            monkeypatch.setattr(workspace, "_STACK_CELLS", stack_cells)
            ws = Workspace(s.grid.n)
            assert (len(ws.iv_groups), len(ws.flux_groups)) == (5, 4)
            assert run() == plain

        def poisoned(kernel):
            def call(*args):
                out = kernel(*args)
                args[-1].block[workspace._DEDICATED:] = np.nan
                return out
            return call

        for module, name in ((stepper, "assemble_fluxes"),
                             (stepper, "draining_limit"),
                             (stepper, "_tendency"),
                             (diagnostics, "make_record")):
            monkeypatch.setattr(module, name,
                                poisoned(getattr(module, name)))
        assert run() == plain
