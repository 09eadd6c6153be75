"""Mirror symmetry: on a flat bottom with f = 0 the scheme has no
preferred direction.

The 1-D equations are unchanged by y -> -y with v -> -v. A run from the
mirrored initial state (the arrays and the interface bottom reversed, p
negated) must end, mirrored back, in the bits of the run from the
original state, in as many steps: the reconstruction, the switch, the
flux, the drain and the RK combination treat both directions alike. R is
0 everywhere here, so its datum at the left boundary plays no part.
"""

from dataclasses import replace

import numpy as np
import pytest

from trsw.model import CoriolisSpec, Scenario, Topography, build_grid
from trsw.scenarios import make_scenario
from trsw.stepper import run_simulation


def _from_fields(scenario, h, u, v, b, z_iface):
    """``scenario`` started from the depth h and the primitives u, v and
    b at its cell centres, over the interface bottom z_iface."""
    return replace(scenario, topography=Topography(z_iface),
                   height=lambda y: h, height_is_surface=False,
                   u0=lambda y: u, v0=lambda y: v, b0=lambda y: b,
                   snapshots=())


def _mirror_pair(scenario, h, u, v, b):
    """The scenario from (h, u, v, b) on a flat bottom, and its mirror:
    every array reversed and v, so p = h v, negated."""
    flat = np.zeros(scenario.grid.n + 1)
    return (_from_fields(scenario, h, u, v, b, flat),
            _from_fields(scenario, h[::-1], u[::-1], -v[::-1], b[::-1],
                         flat[::-1]))


def _mirrored(state):
    """A (4, n) state reversed, p negated."""
    out = state[:, ::-1].copy()
    out[2] = -out[2]
    return out


def _assert_mirror_symmetric(scenario, h, u, v, b):
    original, mirror = _mirror_pair(scenario, h, u, v, b)
    # the mirrored initial state is the original one mirrored, bit for bit
    assert (_mirrored(mirror.initial_state().array).tobytes()
            == original.initial_state().array.tobytes())
    a = run_simulation(original, collect_records=False)
    m = run_simulation(mirror, collect_records=False)
    # a run that fails, fails alike, and keeps the mirrored last state
    assert (a.failed, a.failure_message) == (m.failed, m.failure_message)
    assert a.steps == m.steps > 0
    assert a.t == m.t
    assert _mirrored(m.state.array).tobytes() == a.state.array.tobytes()
    return a


@pytest.mark.parametrize("cells", [100, 200])
@pytest.mark.parametrize("name", ["ex2", "ex1-perturbed"])
def test_scenario_depths_on_a_flat_bottom(name, cells):
    # the scenario's own depths and buoyancy, at rest, over a flat bottom
    scenario = make_scenario(name, cells=cells)
    start = scenario.initial_state()
    h = start.h.copy()
    b = scenario.b0(scenario.grid.centers)
    zero = np.zeros_like(h)
    assert not _assert_mirror_symmetric(scenario, h, zero, zero, b).failed


def _piecewise(rng, n, lo, hi, pieces):
    """A piecewise-constant field of n cells with the given pieces."""
    cuts = np.sort(rng.integers(1, n, pieces - 1))
    values = rng.uniform(lo, hi, pieces)
    return np.repeat(values, np.diff(np.concatenate(([0], cuts, [n]))))


@pytest.mark.parametrize("seed", range(6))
def test_seeded_piecewise_state(seed):
    # 1 to 4 constant pieces of depth, velocities and buoyancy; a third of
    # the seeds lay a dry piece, and those runs may end flagged (the
    # near-dry defects), which the mirror run must then share
    rng = np.random.default_rng(seed)
    n = int(rng.integers(16, 65))
    pieces = int(rng.integers(1, 5))
    h = _piecewise(rng, n, 0.1, 2.0, pieces)
    if seed % 3 == 0 and pieces > 1:
        h[h == h.min()] = 0.0
    u = _piecewise(rng, n, -2.0, 2.0, pieces)
    v = _piecewise(rng, n, -1.0, 1.0, pieces)
    b = _piecewise(rng, n, 0.2, 3.0, pieces)
    grid = build_grid(-1.0, 1.0, n)
    scenario = Scenario(name=f"mirror-{seed}", grid=grid,
                        coriolis=CoriolisSpec(0.0),
                        topography=Topography(np.zeros(n + 1)),
                        height=np.ones_like, b0=np.ones_like, t_final=0.2)
    with np.errstate(all="ignore"):
        result = _assert_mirror_symmetric(scenario, h, u, v, b)
    assert seed % 3 == 0 or not result.failed
