"""The benchmark's workloads, their seeded inputs, and one call of each.

A workload is one fixed scenario run the way a user runs it: through the
command line (``trsw.cli.main``) or through the library
(``make_scenario`` + ``run_simulation``). Seed 0 is the canonical paper
scenario. Any other seed scales the initial depth, momenta and hb of every
cell by ``1 + PERTURB_AMPLITUDE * g(y)``, where g is a seeded sum of three
sinusoids of random wavenumber, phase and weight, |g| <= 1, optionally
windowed by a Gaussian. Velocities and buoyancy are unchanged and dry
cells stay dry, so every seed does the same work as seed 0 to within a
step or two.

Two defects of the solver decide where the perturbation may go; both are
open robustness items, and the windows keep them out of a benchmark that
measures speed:

* ex2: any disturbance of the water at rest right of the dam, whose
  surface touches the crest of the right hump, makes a thin film there
  and the step size collapses (269 steps become 1184, 3084 and 1472 for
  seeds 11 to 13, whether the surface or the depth is perturbed). The perturbation
  of ex2 is windowed to the deep reservoir, around y = -0.75.
* ex6: the Coriolis parameter reaches |f| = 25 at the domain edges while
  the step is bounded only by the wave speed, so |f| dt is far above the
  stability limit of the explicit source there and only the exact
  equilibrium survives: a 1e-12 perturbation of the whole domain ends in
  a non-finite state or an uncaught "negative depth" error. The
  perturbation of ex6 is windowed to |y| of a few units around the jet,
  which decays like exp(-y^2).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import math
import os
import time
from typing import Callable, List, Optional, Tuple

import numpy as np

from control import Control

PERTURB_AMPLITUDE = 1.0e-3


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: str
    cells: int
    t_final: Optional[float]          # None keeps the scenario's own
    snapshots: Tuple[float, ...]
    via_cli: bool
    perturb_window: Optional[Tuple[float, float]]  # (center, width); None: everywhere
    control: Control  # timed around every call; same cells and mix of work


_EX6_T_FINAL = 3.5 * math.pi

WORKLOADS = {w.name: w for w in (
    Workload(
        name="dambreak-cli",
        why="floor-bound wet/dry path: CLI ex2 dam break at N=200, "
            "surface-fallback depth solves and degenerate speeds over a "
            "nonflat bottom, one diagnostics record per step",
        scenario="ex2", cells=200, t_final=0.3,
        snapshots=tuple(k / 20 for k in range(1, 7)),
        via_cli=True, perturb_window=(-0.75, 0.15),
        control=Control(cells=200, steps=2000, rows=0, nominal_s=0.116)),
    Workload(
        name="jet-wide",
        why="per-cell-bound smooth path: library ex3b jet at N=25600, flat "
            "bottom, constant f, limiter idle, no files written",
        scenario="ex3b", cells=25600, t_final=0.1, snapshots=(),
        via_cli=False, perturb_window=None,
        control=Control(cells=25600, steps=150, rows=0, nominal_s=0.084)),
    Workload(
        name="equator-snapshots",
        why="output-heavy beta-plane path: CLI ex6 with variable-f Simpson "
            "source, few large steps and 16 snapshot CSVs",
        scenario="ex6", cells=4000, t_final=None,
        snapshots=tuple(_EX6_T_FINAL * k / 16 for k in range(1, 17)),
        via_cli=True, perturb_window=(0.0, 5.0),
        control=Control(cells=4000, steps=400, rows=24000,
                        nominal_s=0.110)),
)}


def seeded_profile(seed: int, y_min: float, length: float,
                   window: Optional[Tuple[float, float]]
                   ) -> Callable[[np.ndarray], np.ndarray]:
    """The seed's perturbation shape g(y), |g| <= 1, optionally times
    exp(-((y - center) / width)^2) for ``window = (center, width)``."""
    rng = np.random.default_rng(seed)
    waves = rng.integers(1, 8, size=3)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
    weights = rng.uniform(-1.0, 1.0, size=3)

    def g(y):
        x = (np.asarray(y, float) - y_min) / length
        out = sum(w * np.sin(2.0 * np.pi * k * x + ph)
                  for w, k, ph in zip(weights, waves, phases)) / 3.0
        if window is not None:
            center, width = window
            out = out * np.exp(-((np.asarray(y, float) - center) / width) ** 2)
        return out
    return g


@functools.lru_cache(maxsize=None)
def _perturbed_class(scenario_cls, state_cls):
    @dataclasses.dataclass(frozen=True, eq=False)
    class PerturbedScenario(scenario_cls):
        profile: Optional[Callable[[np.ndarray], np.ndarray]] = None

        def initial_state(self):
            base = scenario_cls.initial_state(self).array
            factor = 1.0 + PERTURB_AMPLITUDE * self.profile(self.grid.centers)
            return state_cls(base * factor)
    return PerturbedScenario


def perturbed(trsw, scenario, seed: int,
              window: Optional[Tuple[float, float]]):
    """``scenario`` with the seed's depth scaling applied to its initial
    state; seed 0 returns it unchanged."""
    if seed == 0:
        return scenario
    grid = scenario.grid
    fields = {f.name: getattr(scenario, f.name)
              for f in dataclasses.fields(scenario) if f.init}
    cls = _perturbed_class(trsw.Scenario, trsw.ConservedState)
    return cls(**fields, profile=seeded_profile(seed, grid.y_min,
                                                 grid.length, window))


def cli_argv(workload: Workload, cells: int, out: str) -> List[str]:
    argv = ["--scenario", workload.scenario, "--cells", str(cells),
            "--snapshots", ",".join(repr(t) for t in workload.snapshots),
            "--out", out, "--diagnostics"]
    if workload.t_final is not None:
        argv += ["--t-final", repr(workload.t_final)]
    return argv


def build_scenario(trsw, workload: Workload, seed: int, cells: int):
    """Library path: the scenario a user would build for this workload."""
    kwargs = {"cells": cells, "snapshots": workload.snapshots}
    if workload.t_final is not None:
        kwargs["t_final"] = workload.t_final
    return perturbed(trsw, trsw.make_scenario(workload.scenario, **kwargs),
                     seed, workload.perturb_window)


def setup(workload_name: str, seed: int, cells: int) -> None:
    """What a fresh interpreter does before the first step: import the
    package, build the scenario and its initial state."""
    import trsw
    workload = WORKLOADS[workload_name]
    if workload.via_cli:
        import trsw.cli  # noqa: F401
    build_scenario(trsw, workload, seed, cells).initial_state()


@dataclasses.dataclass
class Outcome:
    """What one call of a workload produced."""

    wall_s: float
    ok: bool
    message: str = ""
    result: object = None        # the SimulationResult
    sim_s: float = float("nan")  # time inside run_simulation
    files: List[str] = dataclasses.field(default_factory=list)


class Runner:
    """Calls one workload repeatedly with fixed inputs.

    On the CLI path it rebinds ``trsw.cli.make_scenario`` (to apply the
    seed) and ``trsw.cli.run_simulation`` (to keep the result and its
    time) for the lifetime of ``installed()``; both add one Python call
    per workload call.
    """

    def __init__(self, trsw, workload: Workload, seed: int, cells: int,
                 outdir: str):
        self.trsw = trsw
        self.workload = workload
        self.seed = seed
        self.cells = cells
        self.outdir = outdir
        self._last = None

    @contextlib.contextmanager
    def installed(self):
        if not self.workload.via_cli:
            yield self
            return
        cli = self.trsw.cli
        make, run = cli.make_scenario, cli.run_simulation
        seed, window = self.seed, self.workload.perturb_window

        def make_scenario(*args, **kwargs):
            return perturbed(self.trsw, make(*args, **kwargs), seed, window)

        def run_simulation(*args, **kwargs):
            t0 = time.perf_counter()
            result = run(*args, **kwargs)
            self._last = (result, time.perf_counter() - t0)
            return result

        cli.make_scenario, cli.run_simulation = make_scenario, run_simulation
        try:
            yield self
        finally:
            cli.make_scenario, cli.run_simulation = make, run

    def run_once(self) -> Outcome:
        """One workload call; files land in ``outdir``."""
        trsw = self.trsw
        if self.workload.via_cli:
            argv = cli_argv(self.workload, self.cells, self.outdir)
            self._last = None
            printed = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(printed):
                code = trsw.cli.main(argv)
            wall = time.perf_counter() - t0
            result, sim_s = self._last or (None, float("nan"))
            files = [line for line in printed.getvalue().splitlines() if line]
            return Outcome(wall, code == 0 and result is not None,
                           f"exit code {code}", result, sim_s, files)
        t0 = time.perf_counter()
        scenario = build_scenario(trsw, self.workload, self.seed, self.cells)
        t1 = time.perf_counter()
        result = trsw.run_simulation(scenario)
        t2 = time.perf_counter()
        return Outcome(t2 - t0, not result.failed, result.failure_message,
                       result, t2 - t1, [])

    def expected_files(self, result) -> List[str]:
        """The files a CLI call must have written, in order."""
        if not self.workload.via_cli:
            return []
        fileio, scenario = self.trsw.fileio, result.scenario
        names = [fileio.snapshot_filename(scenario.name, scenario.grid.n, t)
                 for t in scenario.snapshots]
        names.append(f"{scenario.name}_diagnostics.csv")
        return [os.path.join(self.outdir, name) for name in names]
