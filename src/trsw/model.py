"""Grid, state, topography, and scenario data model for the 1-D thermal
rotating shallow water solver.

All containers are immutable value objects: arrays are copied on
construction and flagged read-only, so instances can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np

# desingularization threshold of the cell velocities (Kurganov & Petrova
# 2007), see desingularized_ratio
EPS = 1.0e-8
# floor of a divisor or threshold that would otherwise be zero
_TINY = 1.0e-300


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _differences(z: np.ndarray) -> np.ndarray:
    """z[1:] - z[:-1], read-only. Differences that are all +0.0, as over a
    flat bottom, come back as one broadcast zero: it multiplies to the same
    bits as the full array, and a run over a flat bottom then holds no
    n-float buffer for them."""
    d = z[1:] - z[:-1]
    if not d.view(np.int64).any():
        return np.broadcast_to(0.0, d.shape)
    return _readonly(d)


@dataclass(frozen=True)
class Grid:
    """Uniform finite-volume grid on [y_min, y_max] with n cells.

    Interfaces sit at y_min + j*dy (j = 0..n) and cell centers at the
    interface midpoints; y_min and y_max are hit exactly.
    """

    y_min: float
    y_max: float
    n: int

    def __post_init__(self):
        if self.n < 4:
            raise ValueError(f"need at least 4 cells, got {self.n}")
        if not (-np.inf < self.y_min < self.y_max < np.inf
                and 0.0 < self.dy < np.inf):
            raise ValueError(f"domain [{self.y_min}, {self.y_max}] over "
                             f"{self.n} cells must be finite and nonempty "
                             f"and give a positive, finite cell width")

    @cached_property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / self.n

    @cached_property
    def length(self) -> float:
        return self.y_max - self.y_min

    @cached_property
    def interfaces(self) -> np.ndarray:
        return _readonly(np.linspace(self.y_min, self.y_max, self.n + 1))

    @cached_property
    def centers(self) -> np.ndarray:
        return _readonly(self.y_min + (np.arange(self.n) + 0.5) * self.dy)


def build_grid(y_min: float, y_max: float, n: int) -> Grid:
    return Grid(float(y_min), float(y_max), int(n))


@dataclass(frozen=True, eq=False)
class Topography:
    """Bottom profile sampled at interfaces; cell-center values are always
    the average of the two adjacent interface values (never re-sampled),
    which keeps the discrete steady-state algebra exact.
    """

    z_iface: np.ndarray
    z_center: np.ndarray = field(init=False)

    def __post_init__(self):
        zi = _readonly(self.z_iface)
        object.__setattr__(self, "z_iface", zi)
        object.__setattr__(self, "z_center", _readonly(0.5 * (zi[:-1] + zi[1:])))

    @cached_property
    def dz_iface(self) -> np.ndarray:
        """Jump of Z across each cell, z_iface[j+1] - z_iface[j], (n,)."""
        return _differences(self.z_iface)

    @cached_property
    def dz_center(self) -> np.ndarray:
        """Difference of Z between neighbouring cell centers, (n-1,)."""
        return _differences(self.z_center)


def sample_topography(z: Callable[[np.ndarray], np.ndarray],
                      grid: Grid) -> Topography:
    """Sample the bottom function ``z`` at the grid's interfaces."""
    return Topography(z(grid.interfaces))


def flat_topography(grid: Grid) -> Topography:
    return Topography(np.zeros(grid.n + 1))


@dataclass(frozen=True)
class CoriolisSpec:
    """Coriolis parameter f(y) = f0 + beta*y.

    beta = 0 gives the constant f-plane; f0 = 0 with beta != 0 gives the
    equatorial beta-plane.
    """

    f0: float
    beta: float = 0.0

    def __post_init__(self):
        for name in ("f0", "beta"):
            value = getattr(self, name)
            if not -np.inf < value < np.inf:
                raise ValueError(f"{name} must be finite, got {value}")

    @property
    def is_constant(self) -> bool:
        return self.beta == 0.0

    def values(self, y) -> np.ndarray:
        y = np.asarray(y, float)
        return self.f0 + self.beta * y


@dataclass(frozen=True)
class Numerics:
    """Scheme parameters: CFL number and minmod parameter sigma."""

    cfl: float = 0.5
    sigma: float = 1.3

    def __post_init__(self):
        if not 0.0 < self.cfl < np.inf:
            raise ValueError(f"cfl must be positive and finite, got {self.cfl}")
        if not 1.0 <= self.sigma <= 2.0:
            raise ValueError(f"sigma must lie in [1, 2], got {self.sigma}")


def check_nonnegative(u: np.ndarray) -> Tuple[float, float]:
    """Raise ValueError if a (4, n) array of cell averages (h, q, p, hb)
    holds a negative depth or depth-weighted buoyancy; return the minima
    of h and hb, +0.0 for a zero of either sign. NaN is skipped, so it
    neither raises nor is returned."""
    min_h, min_hb = np.fmin.reduce(u[::3], axis=1, initial=np.inf) + 0.0
    if min_h < 0.0:
        raise ValueError("negative depth in conserved state")
    if min_hb < 0.0:
        raise ValueError("negative depth-weighted buoyancy in conserved state")
    return min_h, min_hb


@dataclass(frozen=True, eq=False)
class ConservedState:
    """Cell averages of (h, q, p, hb) stored as a read-only (4, n) array.

    h is the layer depth, q = h*u and p = h*v the zonal and meridional
    momentum densities, and hb the depth-weighted buoyancy. ``minima``
    holds (min h, min hb), from the one scan that checks them on
    construction (``check_nonnegative``).
    """

    array: np.ndarray
    minima: Tuple[float, float] = field(init=False, repr=False)

    def __post_init__(self):
        arr = _readonly(self.array)
        if arr.ndim != 2 or arr.shape[0] != 4:
            raise ValueError(f"expected a (4, n) array, got shape {arr.shape}")
        object.__setattr__(self, "minima", check_nonnegative(arr))
        object.__setattr__(self, "array", arr)

    @classmethod
    def from_fields(cls, h, q, p, hb) -> "ConservedState":
        # the constructor's read-only copy stacks the four fields: the
        # state's array is the only full-size array built
        return cls([h, q, p, hb])

    @property
    def h(self) -> np.ndarray:
        return self.array[0]

    @property
    def q(self) -> np.ndarray:
        return self.array[1]

    @property
    def p(self) -> np.ndarray:
        return self.array[2]

    @property
    def hb(self) -> np.ndarray:
        return self.array[3]


def desingularized_ratio(h, numerator, out=None, work=None) -> np.ndarray:
    """Bounded evaluation of numerator/h that stays finite as h -> 0:
    2*h*numerator / (h^2 + max(h^2, EPS^2)).

    Equals the exact ratio whenever |h| >= EPS. ``out`` receives the
    result and ``work`` is scratch of the same shape; without them both
    are fresh. Of a numerator of several rows over a row h, the terms of
    h alone are formed once.
    """
    h = np.asarray(h, float)
    numerator = np.asarray(numerator, float)
    if out is None:
        shape = np.broadcast_shapes(h.shape, numerator.shape)
        out, work = np.empty(shape), np.empty(shape)
    if h.ndim == 1 and out.ndim == 2 and len(out) > 1:
        # several rows over one h: the terms of h alone in two rows of work
        w0, w1 = work[0], work[1]
    else:
        w0, w1 = work, out
    h2 = np.multiply(h, h, out=w0)
    den = np.add(h2, np.maximum(h2, EPS * EPS, out=w1), out=h2)
    np.multiply(h, 2.0, out=w1)
    np.multiply(w1, numerator, out=out)
    out /= den
    return out[()] if out.ndim == 0 else out


def primitives_from_state(state: ConservedState, topo: Topography):
    """Recover (u, v, b, w) from cell averages.

    Velocities and buoyancy use the desingularized ratio so dry cells give
    zeros instead of division hazards; w = h + Z at cell centers.
    """
    u = desingularized_ratio(state.h, state.q)
    v = desingularized_ratio(state.h, state.p)
    b = desingularized_ratio(state.h, state.hb)
    w = state.h + topo.z_center
    return u, v, b, w


@dataclass(frozen=True, eq=False)
class Scenario:
    """A fully specified run: grid, rotation, bottom, initial-condition
    functions, final time, numerical parameters, and output times.

    ``height`` is interpreted as the free surface w when
    ``height_is_surface`` is set (depth then is w - Z, clipped at zero),
    otherwise as the depth h directly. All callables must accept ndarrays.
    """

    name: str
    grid: Grid
    coriolis: CoriolisSpec
    topography: Topography
    height: Callable[[np.ndarray], np.ndarray]
    b0: Callable[[np.ndarray], np.ndarray]
    u0: Optional[Callable[[np.ndarray], np.ndarray]] = None
    v0: Optional[Callable[[np.ndarray], np.ndarray]] = None
    height_is_surface: bool = False
    t_final: float = 0.0
    numerics: Numerics = Numerics()
    snapshots: tuple = ()

    def __post_init__(self):
        if not 0.0 <= self.t_final < np.inf:
            raise ValueError(
                f"t_final must be nonnegative and finite, got {self.t_final}")
        if len(self.topography.z_center) != self.grid.n:
            raise ValueError("topography does not match the grid")
        snaps = tuple(sorted(float(t) for t in self.snapshots))
        bad = [t for t in snaps if not 0.0 <= t <= self.t_final]
        if bad:
            raise ValueError(f"snapshot times must lie in [0, t_final], "
                             f"got {bad}")
        object.__setattr__(self, "snapshots", snaps)

    @cached_property
    def coriolis_values(self) -> Tuple[np.ndarray, np.ndarray]:
        """f at the cell centers and at the interfaces, read-only; computed
        on first use and held by the scenario, so it lives as long as the
        run's scenario."""
        grid = self.grid
        return (_readonly(self.coriolis.values(grid.centers)),
                _readonly(self.coriolis.values(grid.interfaces)))

    def initial_state(self) -> ConservedState:
        """Cell averages by midpoint sampling of the initial-condition
        functions; surface-specified heights subtract the discrete
        cell-center bottom so sampled equilibria stay exact."""
        y = self.grid.centers
        if self.height_is_surface:
            h = np.maximum(np.asarray(self.height(y), float) - self.topography.z_center, 0.0)
        else:
            h = np.asarray(self.height(y), float)
        u = np.asarray(self.u0(y), float) if self.u0 is not None else np.zeros_like(h)
        v = np.asarray(self.v0(y), float) if self.v0 is not None else np.zeros_like(h)
        b = np.asarray(self.b0(y), float)
        return ConservedState.from_fields(h, h * u, h * v, h * b)
