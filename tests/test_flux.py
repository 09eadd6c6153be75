"""Tests for the central-upwind flux, local speeds, and diffusion switch."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trsw import flux, workspace
from trsw.flux import diffusion_switch, local_speeds, numerical_flux
from trsw.model import ConservedState, build_grid, desingularized_ratio
from trsw.reconstruction import minmod
from trsw.stepper import rhs
from trsw.workspace import Workspace, fresh

from support import scenario_of


def _states_from_sides(h_m, h_p, q_m, q_p, p_m, p_p, b_m, b_p, l_m, l_p):
    """A workspace whose side pairs hold the given interface states, with
    p recomputed as h*v."""
    h_m, h_p, q_m, q_p, p_m, p_p, b_m, b_p, l_m, l_p = map(
        np.atleast_1d, (h_m, h_p, q_m, q_p, p_m, p_p, b_m, b_p, l_m, l_p))
    v_m = desingularized_ratio(h_m, p_m)
    v_p = desingularized_ratio(h_p, p_p)
    ws = Workspace(h_m.size - 1)
    for pair, minus, plus in ((ws.h_side, h_m, h_p), (ws.q_side, q_m, q_p),
                              (ws.p_side, h_m * v_m, h_p * v_p),
                              (ws.b_side, b_m, b_p), (ws.l_side, l_m, l_p),
                              (ws.v_side, v_m, v_p)):
        pair[0], pair[1] = minus, plus
    return ws


def _speeds(v_m, v_p, h_m, h_p, b_m, b_p):
    """local_speeds on fresh buffers, from the v, h and b of both sides."""
    v_m, v_p, hb_m, hb_p = np.broadcast_arrays(
        v_m, v_p, np.multiply(h_m, b_m), np.multiply(h_p, b_p))
    shape = v_m.shape
    return local_speeds(np.stack([v_m, v_p]), np.stack([hb_m, hb_p]),
                        fresh(shape, 2), fresh((2,) + shape, 2))


def _switch(l_left, l_right, dy, length):
    """diffusion_switch on fresh buffers."""
    shape = np.broadcast_shapes(np.shape(l_left), np.shape(l_right))
    return diffusion_switch(l_left, l_right, dy, length, np.empty(shape),
                            fresh(shape, 2, 1))


def _flux(ws, switch):
    """numerical_flux of the interface states in ``ws``, copied, since the
    next call writes over the workspace's flux and speeds."""
    return tuple(x.copy() for x in numerical_flux(switch, ws))


def _stacked_flux(ws, switch):
    """The central-upwind flux as one stacked (4, n) formula, with
    G = (p, q*v, L, p*b) and minmod written out; numerical_flux must
    reproduce it bit for bit."""
    (h_m, h_p), (q_m, q_p), (p_m, p_p) = ws.h_side, ws.q_side, ws.p_side
    (b_m, b_p), (l_m, l_p), (v_m, v_p) = ws.b_side, ws.l_side, ws.v_side
    a_plus, a_minus = _speeds(v_m, v_p, h_m, h_p, b_m, b_p)
    u_minus = np.stack([h_m, q_m, p_m, h_m * b_m])
    u_plus = np.stack([h_p, q_p, p_p, h_p * b_p])
    g_minus = np.stack([p_m, q_m * v_m, l_m, p_m * b_m])
    g_plus = np.stack([p_p, q_p * v_p, l_p, p_p * b_p])
    denom = a_plus - a_minus
    degenerate = denom < 1.0e-12
    safe = np.where(degenerate, 1.0, denom)
    u_star = (a_plus * u_plus - a_minus * u_minus - (g_plus - g_minus)) / safe
    lo = np.minimum(u_plus - u_star, u_star - u_minus)
    hi = np.maximum(u_plus - u_star, u_star - u_minus)
    delta_u = np.where(lo > 0, lo, 0.0) + np.where(hi < 0, hi, 0.0)
    central = (a_plus * g_minus - a_minus * g_plus) / safe
    diffusion = (a_plus * a_minus / safe) * (u_plus - u_minus - delta_u)
    diffusion[1] *= switch
    diffusion[3] *= switch
    flux = central + diffusion
    mean = 0.5 * (g_minus + g_plus)
    flux[:, degenerate] = mean[:, degenerate]
    return flux, a_plus, a_minus


@st.composite
def _random_interfaces(draw):
    """Interface states with exact zeros in h and b, and dry interfaces
    (h = 0 on both sides, so a+ = a- = 0: degenerate speeds)."""
    n = draw(st.integers(1, 16))

    def field(lo, hi, zero_often=False):
        elems = st.floats(lo, hi)
        if zero_often:
            elems = st.one_of(st.just(0.0), elems)
        return np.array(draw(st.lists(elems, min_size=n, max_size=n)))

    h_m, h_p = field(0.0, 10.0, True), field(0.0, 10.0, True)
    dry = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    h_m[dry] = h_p[dry] = 0.0
    sides = (h_m, h_p, field(-10.0, 10.0), field(-10.0, 10.0),
             field(-10.0, 10.0), field(-10.0, 10.0), field(0.0, 5.0, True),
             field(0.0, 5.0, True), field(-50.0, 50.0), field(-50.0, 50.0))
    return sides, field(0.0, 1.0, True)


def _per_component_flux(ws, switch):
    """The central-upwind flux one component and one side at a time, on
    fresh arrays: the reference that numerical_flux's groups of
    components must reproduce bit for bit."""
    (h_m, h_p), (q_m, q_p), (p_m, p_p) = ws.h_side, ws.q_side, ws.p_side
    (b_m, b_p), (l_m, l_p), (v_m, v_p) = ws.b_side, ws.l_side, ws.v_side
    hb_m, hb_p = h_m * b_m, h_p * b_p
    if (hb_m < 0.0).any() or (hb_p < 0.0).any():
        raise ValueError("negative h*b in speed estimate")
    c_m, c_p = np.sqrt(hb_m), np.sqrt(hb_p)
    a_plus = np.maximum(np.maximum(v_m + c_m, v_p + c_p), 0.0)
    a_minus = np.minimum(np.minimum(v_m - c_m, v_p - c_p), 0.0)
    safe = a_plus - a_minus
    degenerate = safe < 1.0e-12
    safe[degenerate] = 1.0
    coef = a_plus * a_minus / safe
    rows = []
    for u_m, u_p, g_m, g_p, switched in (
            (h_m, h_p, p_m, p_p, False),
            (q_m, q_p, q_m * v_m, q_p * v_p, True),
            (p_m, p_p, l_m, l_p, False),
            (hb_m, hb_p, p_m * b_m, p_p * b_p, True)):
        u_star = (a_plus * u_p - a_minus * u_m - (g_p - g_m)) / safe
        x, y = u_p - u_star, u_star - u_m
        delta = (np.maximum(np.minimum(x, y), 0.0)
                 + np.minimum(np.maximum(x, y), 0.0))
        diffusion = (u_p - u_m - delta) * coef
        if switched:
            diffusion = diffusion * switch
        row = (a_plus * g_m - a_minus * g_p) / safe + diffusion
        row[degenerate] = 0.5 * (g_m + g_p)[degenerate]
        rows.append(row)
    return np.stack(rows), a_plus, a_minus


def _grouped_flux(k, sides, switch):
    """numerical_flux with k components per group, as on a grid of
    _STACK_CELLS / k interfaces, and that workspace."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workspace, "_STACK_CELLS", k * sides[0].size)
        ws = _states_from_sides(*sides)
    assert [len(group[0]) for group in ws.flux_groups] == [k] * (4 // k)
    return _flux(ws, switch), ws


def _seeded_sides(seed, n=40):
    """Interface states with dry interfaces (degenerate speeds) and a
    switch strictly between 0 and 1."""
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.0, 2.0, (2, n))
    h[:, rng.uniform(size=n) < 0.25] = 0.0
    q, p = rng.normal(size=(2, 2, n))
    b = rng.uniform(0.0, 3.0, (2, n))
    l = rng.uniform(-5.0, 5.0, (2, n))
    switch = rng.uniform(0.01, 0.99, n)
    return (h[0], h[1], q[0], q[1], p[0], p[1], b[0], b[1], l[0],
            l[1]), switch


class TestLocalSpeeds:
    def test_symmetric_gravity_waves(self):
        a_plus, a_minus = _speeds(0.0, 0.0, 1.0, 1.0, 1.0, 1.0)
        assert a_plus == 1.0 and a_minus == -1.0

    def test_supersonic_clamps_left_speed(self):
        a_plus, a_minus = _speeds(5.0, 5.0, 1.0, 1.0, 1.0, 1.0)
        assert a_plus == 6.0 and a_minus == 0.0

    def test_dry_interface(self):
        a_plus, a_minus = _speeds(0.3, 0.3, 0.0, 0.0, 0.0, 0.0)
        assert a_plus == 0.3 and a_minus == 0.0
        a_plus, a_minus = _speeds(-0.3, -0.3, 0.0, 0.0, 0.0, 0.0)
        assert a_plus == 0.0 and a_minus == -0.3

    def test_ordering_property(self):
        rng = np.random.default_rng(2)
        v = rng.uniform(-3, 3, (2, 100))
        h = rng.uniform(0, 2, (2, 100))
        b = rng.uniform(0, 2, (2, 100))
        a_plus, a_minus = _speeds(v[0], v[1], h[0], h[1], b[0], b[1])
        assert np.all(a_plus >= 0.0) and np.all(a_minus <= 0.0)

    def test_negative_product_rejected(self):
        with pytest.raises(ValueError):
            _speeds(0.0, 0.0, -1.0, 1.0, 1.0, 1.0)


def intermediate_state(u_minus, u_plus, g_minus, g_plus, a_plus, a_minus):
    """U* = (a+ U+ - a- U- - (G+ - G-)) / (a+ - a-) as numerical_flux
    builds it, for interfaces whose p component (U = p, G = L) holds the
    given states and whose speeds are the given ones, read back from the
    second argument, U* - U-, of its minmod call."""
    u_minus, u_plus, g_minus, g_plus = (
        np.asarray(x, float) for x in (u_minus, u_plus, g_minus, g_plus))
    seen = []

    def speeds(v_side, hb_side, out, work):
        out[0][...], out[1][...] = a_plus, a_minus
        return out

    def spy(x, y, out=None, work=None):
        seen.append(u_minus + y[2])  # the group of all four components
        return minmod(x, y, out=out, work=work)

    ones = np.ones(u_minus.size)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workspace, "_STACK_CELLS", 2 ** 20)
        # h = 1 on both sides keeps p = h*v exactly the given U
        ws = _states_from_sides(ones, ones, ones, ones, u_minus, u_plus,
                                ones, ones, g_minus, g_plus)
        mp.setattr(flux, "local_speeds", speeds)
        mp.setattr(flux, "minmod", spy)
        numerical_flux(ones, ws)
    (u_star,) = seen
    return u_star


class TestIntermediateState:
    """The intermediate state inside the production flux row."""

    def test_identical_states(self):
        u = np.array([1.0, 2.0, 3.0, 4.0])
        g = np.array([0.5, 0.5, 0.5, 0.5])
        assert intermediate_state(u, u, g, g, 2.0, -1.0) == pytest.approx(u)

    def test_arithmetic_mean_when_fluxes_cancel(self):
        u_m = np.array([1.0, 0.0, 0.0, 1.0])
        u_p = np.array([2.0, 0.0, 0.0, 2.0])
        g = np.zeros(4)
        out = intermediate_state(u_m, u_p, g, g, 1.0, -1.0)
        assert out == pytest.approx([1.5, 0.0, 0.0, 1.5])

    def test_algebraic_consistency(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            u = rng.uniform(-1, 1, 4)
            u_m = rng.uniform(-1, 1, 4)
            u_p = rng.uniform(-1, 1, 4)
            a_plus, a_minus = 1.7, -0.6
            g_m = rng.uniform(-1, 1, 4)
            g_p = g_m + a_plus * u_p - a_minus * u_m - (a_plus - a_minus) * u
            out = intermediate_state(u_m, u_p, g_m, g_p, a_plus, a_minus)
            assert out == pytest.approx(u, rel=1e-12, abs=1e-12)


class TestAntiDiffusion:
    """The built-in anti-diffusion minmod(U+ - U*, U* - U-) of
    numerical_flux, read back from the p-component flux of one interface."""

    @staticmethod
    def _delta(u_minus, u_plus, u_star, c):
        # h = 1 and b = c^2 on both sides make v = p, so the speeds are
        # a+ = max(p + c, 0) and a- = min(p - c, 0); L- = 0 and L+ is set so
        # that the intermediate state of p is u_star. The values are chosen
        # so that every operation is exact.
        a_plus = max(u_minus + c, u_plus + c, 0.0)
        a_minus = min(u_minus - c, u_plus - c, 0.0)
        denom = a_plus - a_minus
        l_plus = a_plus * u_plus - a_minus * u_minus - denom * u_star
        ws = _states_from_sides(1.0, 1.0, 0.0, 0.0, u_minus, u_plus,
                                c * c, c * c, 0.0, l_plus)
        flux, ap, am = _flux(ws, np.ones(1))
        assert (ap[0], am[0]) == (a_plus, a_minus)
        central = -a_minus * l_plus / denom
        diffusion = flux[2, 0] - central
        return (u_plus - u_minus) - diffusion / (a_plus * a_minus / denom)

    def test_all_equal(self):
        assert self._delta(1.0, 1.0, 1.0, c=2.0) == 0.0

    def test_same_sign_minimum(self):
        assert self._delta(0.0, 3.0, 1.0, c=0.5) == 1.0

    def test_opposite_signs(self):
        assert self._delta(0.0, 1.0, 2.0, c=1.5) == 0.0


class TestDiffusionSwitch:
    def test_zero_at_equal_values(self):
        assert _switch(72.0, 72.0, 0.04, 4.0) == 0.0

    @staticmethod
    def _jump_for_psi(psi, dy, length, l_left):
        # solve |dL|/dy * length/max(L) = psi with L_right = L_left + x > 0
        return psi * dy * l_left / (length - psi * dy)

    def test_half_at_unit_argument(self):
        # psi = 1/400 makes C*psi = 1, so H = 1/2
        dy, length = 0.04, 4.0
        x = self._jump_for_psi(1.0 / 400.0, dy, length, 1.0)
        h = _switch(1.0, 1.0 + x, dy, length)
        # tolerance limited by the (1 + x) - 1 cancellation in the L jump
        assert h == pytest.approx(0.5, rel=1e-9)

    def test_rapid_saturation(self):
        # psi = 1/100 gives 4^8 / (1 + 4^8)
        dy, length = 0.04, 4.0
        x = self._jump_for_psi(1.0 / 100.0, dy, length, 1.0)
        h = _switch(1.0, 1.0 + x, dy, length)
        assert h == pytest.approx(4.0 ** 8 / (1.0 + 4.0 ** 8), rel=1e-12)
        assert h == pytest.approx(0.9999847, abs=1e-6)

    def test_monotone_and_bounded(self):
        l_right = 1.0 + np.linspace(0.0, 1.0, 50)
        h = _switch(np.ones(50), l_right, 0.1, 10.0)
        assert np.all(np.diff(h) >= 0.0)
        # H < 1 mathematically; float evaluation may round up to 1.0
        assert np.all((h >= 0.0) & (h <= 1.0))
        assert np.all(np.isfinite(h))

    def test_nonpositive_values_guarded(self):
        h = _switch(-1.0, -2.0, 0.1, 10.0)
        assert np.isfinite(h) and 0.0 <= h <= 1.0
        assert np.isfinite(_switch(0.0, 0.0, 0.1, 10.0))


class TestNumericalFlux:
    def test_consistency_on_identical_states(self):
        h, q, p, b = 1.3, 0.4, -0.2, 2.0
        v = p / h
        l = p * v + 0.5 * b * h * h
        ws = _states_from_sides(h, h, q, q, p, p, b, b, l, l)
        flux, a_plus, a_minus = _flux(ws, np.zeros(1))
        expected = [p, q * v, l, p * b]
        assert flux[:, 0] == pytest.approx(expected, rel=1e-14)

    def test_degenerate_speeds_average_physical_fluxes(self):
        ws = _states_from_sides(0.0, 0.0, 0.1, 0.2, 0.0, 0.0, 0.0, 0.0,
                                1.0, 2.0)
        flux, a_plus, a_minus = _flux(ws, np.zeros(1))
        assert a_plus[0] == 0.0 and a_minus[0] == 0.0
        assert flux[2, 0] == pytest.approx(1.5)  # mean of the two L values

    def test_steady_jump_interface_zero_rhs(self):
        # two-state thermal equilibrium: L = 72 both sides, p = 0, flat Z
        n = 16
        half = n // 2
        h = np.where(np.arange(n) < half, 6.0, 4.0)
        b = np.where(np.arange(n) < half, 4.0, 9.0)
        st = ConservedState.from_fields(h, 0 * h, 0 * h, h * b)
        g = build_grid(-2.0, 2.0, n)
        tend = rhs(st, scenario_of(g), Workspace(n))
        assert np.abs(tend).max() <= 1e-13 * 72.0

    @settings(max_examples=300, deadline=None)
    @given(_random_interfaces(), st.sampled_from([1, 2, 4]))
    def test_matches_stacked_formula_bit_for_bit(self, drawn, k):
        # with k components per group, against both references
        sides, switch = drawn
        got, ws = _grouped_flux(k, sides, switch)
        for want in (_stacked_flux(ws, switch),
                     _per_component_flux(ws, switch)):
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()

    def test_switch_kills_q_and_hb_diffusion(self):
        # identical L and p but different q/b on each side: with H = 0 the
        # q and hb fluxes reduce to their central parts
        ws = _states_from_sides(2.0, 2.0, 1.0, 3.0, 0.0, 0.0, 4.0, 9.0,
                                72.0, 72.0)
        flux_off, _, _ = _flux(ws, np.zeros(1))
        flux_on, _, _ = _flux(ws, np.ones(1))
        assert flux_off[1, 0] == pytest.approx(0.0, abs=1e-14)
        assert flux_off[3, 0] == pytest.approx(0.0, abs=1e-14)
        assert flux_on[1, 0] != flux_off[1, 0]
        assert flux_on[3, 0] != flux_off[3, 0]


class TestComponentGroups:
    """numerical_flux runs each step over groups of k components; every k
    gives the bits of the flux evaluated one component at a time."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_groups_match_per_component_reference(self, k, seed):
        sides, switch = _seeded_sides(seed)
        got, ws = _grouped_flux(k, sides, switch)
        want = _per_component_flux(ws, switch)
        assert 0 < np.count_nonzero(got[1] - got[2] < 1.0e-12) < switch.size
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("side", [0, 1])
    def test_negative_product_raises(self, k, side):
        sides, switch = _seeded_sides(3)
        sides[0][7] = sides[1][7] = 1.0
        sides[6 + side][7] = -0.5  # b of one side, under a wet interface
        with pytest.raises(ValueError, match=r"negative h\*b"):
            _grouped_flux(k, sides, switch)
