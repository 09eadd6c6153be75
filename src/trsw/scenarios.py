"""Factories for the benchmark experiments.

Scenario ids (CLI names):

  ex1-steady    discontinuous two-state equilibrium over two bottom humps
  ex1-perturbed same, with a 0.1 surface bump on [-1.5, -1.4]
  ex2           dam break over a nonflat bottom with a near-dry hump
  ex3a/ex3b/ex3c  mid-latitude Rossby adjustment of a zonal jet (flat,
                rising, falling buoyancy profile)
  ex4           breaking of a perturbed thermally balanced jet
  ex5           equatorial adjustment of a westward jet (marginal
                inertial stability)
  ex6           inertial instability of a balanced equatorial jet, seeded
                only by discretization noise
  lake-at-rest  still water over the ex2 bottom

Default cell counts mirror the benchmark resolutions; pass ``cells`` for
desk-scale runs. Anything not covered here is built by constructing a
Scenario directly.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .model import (CoriolisSpec, Scenario, build_grid,
                    flat_topography, sample_topography)


def perturbation_bump(y) -> np.ndarray:
    """Surface perturbation of ex1: 0.1 on the closed interval
    [-1.5, -1.4], zero elsewhere."""
    return np.where((y >= -1.5) & (y <= -1.4), 0.1, 0.0)


def _ex1_bottom(y):
    left = 0.85 * (np.cos(10.0 * np.pi * (y + 0.9)) + 1.0)
    right = 1.25 * (np.cos(10.0 * np.pi * (y - 0.4)) + 1.0)
    return np.where((y >= -1.0) & (y <= -0.8), left,
                    np.where((y >= 0.3) & (y <= 0.5), right, 0.0))


def _ex2_bottom(y):
    left = 2.0 * (np.cos(10.0 * np.pi * (y + 0.3)) + 1.0)
    right = 0.5 * (np.cos(10.0 * np.pi * (y - 0.3)) + 1.0)
    return np.where((y >= -0.4) & (y <= -0.2), left,
                    np.where((y >= 0.2) & (y <= 0.4), right, 0.0))


def _ex3_jet(y):
    return (2.0 * (1.0 + np.tanh(2.0 * y + 2.0))
            * (1.0 - np.tanh(2.0 * y - 2.0)) / (1.0 + np.tanh(2.0)) ** 2)


def _ex4_v_hump(y):
    return np.where((y > -0.5) & (y < 0.5),
                    0.1 * np.exp(-y * y) - 0.1 * np.exp(-0.25), 0.0)


def _ex1(perturbed: bool, n: int) -> Scenario:
    grid = build_grid(-2.0, 2.0, n)
    surface = lambda y: np.where(y < 0.0, 6.0, 4.0)
    if perturbed:
        height = lambda y: surface(y) + perturbation_bump(y)
    else:
        height = surface
    return Scenario(
        name="ex1-perturbed" if perturbed else "ex1-steady",
        grid=grid,
        coriolis=CoriolisSpec(0.0),
        topography=sample_topography(_ex1_bottom, grid),
        height=height, height_is_surface=True,
        b0=lambda y: np.where(y < 0.0, 4.0, 9.0),
        t_final=0.4, snapshots=(0.1, 0.2, 0.4))


def _ex2(n: int) -> Scenario:
    grid = build_grid(-1.0, 1.0, n)
    return Scenario(
        name="ex2", grid=grid,
        coriolis=CoriolisSpec(0.0),
        topography=sample_topography(_ex2_bottom, grid),
        height=lambda y: np.where(y < 0.0, 5.0, 1.0),
        height_is_surface=True,
        b0=lambda y: np.where(y < 0.0, 1.0, 5.0),
        t_final=0.3, snapshots=(0.3,))


def _ex3(case: str, n: int) -> Scenario:
    grid = build_grid(-250.0, 250.0, n)
    b_profiles = {
        "a": lambda y: np.ones_like(y),
        "b": lambda y: 1.0 + 0.1 * np.tanh(0.5 * y),
        "c": lambda y: 1.0 - 0.1 * np.tanh(0.5 * y),
    }
    t_final = 19.2 * math.pi
    return Scenario(
        name=f"ex3{case}", grid=grid,
        coriolis=CoriolisSpec(1.0),
        topography=flat_topography(grid),
        height=lambda y: np.ones_like(y),
        u0=_ex3_jet, b0=b_profiles[case],
        t_final=t_final, snapshots=(9.2 * math.pi, t_final))


def _ex4(n: int) -> Scenario:
    grid = build_grid(-50.0, 50.0, n)
    return Scenario(
        name="ex4", grid=grid,
        coriolis=CoriolisSpec(1.0),
        topography=flat_topography(grid),
        height=lambda y: np.ones_like(y),
        u0=lambda y: 3.0 - 3.0 * np.tanh(y) ** 2,
        v0=_ex4_v_hump,
        b0=lambda y: 10.0 - 6.0 * np.tanh(y),
        t_final=10.0, snapshots=(2.0, 4.0, 6.0, 8.0, 10.0))


def _ex5(n: int) -> Scenario:
    grid = build_grid(-250.0, 250.0, n)
    t_final = 112.2 * math.pi
    return Scenario(
        name="ex5", grid=grid,
        coriolis=CoriolisSpec(0.0, 0.1),
        topography=flat_topography(grid),
        height=lambda y: np.full_like(y, 0.121),
        u0=lambda y: -0.1 * np.exp(-y ** 2),
        b0=lambda y: 0.1 + 0.01 * np.exp(-y ** 2),
        t_final=t_final,
        snapshots=(49.2 * math.pi, 69.2 * math.pi, 83.2 * math.pi, t_final))


def _ex6(n: int) -> Scenario:
    grid = build_grid(-250.0, 250.0, n)
    t_final = 3.5 * math.pi
    return Scenario(
        name="ex6", grid=grid,
        coriolis=CoriolisSpec(0.0, 0.1),
        topography=flat_topography(grid),
        height=lambda y: 0.11 - 0.05 * np.exp(-y ** 2),
        u0=lambda y: -0.1 * np.exp(-y ** 2),
        b0=lambda y: np.full_like(y, 0.1),
        t_final=t_final,
        snapshots=(0.26 * math.pi, 0.94 * math.pi, 1.62 * math.pi, t_final))


def _lake_at_rest(n: int) -> Scenario:
    grid = build_grid(-1.0, 1.0, n)
    return Scenario(
        name="lake-at-rest", grid=grid,
        coriolis=CoriolisSpec(0.0),
        topography=sample_topography(_ex2_bottom, grid),
        height=lambda y: np.full_like(y, 5.0),
        height_is_surface=True,
        b0=lambda y: np.ones_like(y),
        t_final=0.3, snapshots=(0.3,))


_FACTORIES = {
    "ex1-steady": (lambda n: _ex1(False, n), 100),
    "ex1-perturbed": (lambda n: _ex1(True, n), 100),
    "ex2": (_ex2, 200),
    "ex3a": (lambda n: _ex3("a", n), 6000),
    "ex3b": (lambda n: _ex3("b", n), 6000),
    "ex3c": (lambda n: _ex3("c", n), 6000),
    "ex4": (_ex4, 4000),
    "ex5": (_ex5, 6000),
    "ex6": (_ex6, 8000),
    "lake-at-rest": (_lake_at_rest, 200),
}

SCENARIO_IDS = tuple(_FACTORIES)


def make_scenario(scenario_id: str, cells: Optional[int] = None,
                  t_final: Optional[float] = None,
                  snapshots: Optional[Sequence[float]] = None,
                  sigma: Optional[float] = None,
                  cfl: Optional[float] = None) -> Scenario:
    """Build a named scenario, optionally overriding the resolution, final
    time, snapshot times, or scheme parameters."""
    try:
        factory, default_n = _FACTORIES[scenario_id]
    except KeyError:
        known = ", ".join(SCENARIO_IDS)
        raise ValueError(f"unknown scenario {scenario_id!r} (known: {known})") \
            from None
    scenario = factory(int(cells) if cells is not None else default_n)

    changes = {}
    if t_final is not None:
        changes["t_final"] = float(t_final)
        if snapshots is None:
            changes["snapshots"] = tuple(
                t for t in scenario.snapshots if t <= float(t_final)) \
                or (float(t_final),)
    if snapshots is not None:
        changes["snapshots"] = tuple(float(t) for t in snapshots)
    if sigma is not None or cfl is not None:
        num = scenario.numerics
        changes["numerics"] = replace(
            num,
            sigma=num.sigma if sigma is None else float(sigma),
            cfl=num.cfl if cfl is None else float(cfl))
    if changes:
        scenario = replace(scenario, **changes)
    return scenario
