"""Well-balanced central-upwind finite-volume solver for the 1-D thermal
rotating shallow water equations.

The source terms are folded into a global flux variable, equilibrium
variables are reconstructed with a generalized minmod limiter, and the
numerical diffusion of the central-upwind flux is switched off near
equilibria, so thermo-geostrophic steady states are preserved to machine
precision while depth and buoyancy stay nonnegative.
"""

from .model import (ConservedState, CoriolisSpec, Grid, Numerics, Scenario,
                    Topography, build_grid, desingularized_ratio,
                    flat_topography, primitives_from_state,
                    sample_topography)
from .reconstruction import (GlobalPrimitive, InterfaceStates,
                             build_interface_states, depth_from_equilibrium,
                             equilibrium_centers, global_primitive, minmod,
                             source_potential)
from .flux import diffusion_switch, local_speeds, numerical_flux
from .stepper import (IntegrationError, SimulationResult, StepReport,
                      assemble_fluxes, cfl_dt, draining_limit, rhs,
                      run_simulation, source_term, ssp_rk3_combine,
                      ssp_rk3_step)
from .scenarios import SCENARIO_IDS, make_scenario, perturbation_bump
from .diagnostics import (BalanceTimeAverager, ConservationLedger,
                          DiagnosticsRecord, balance_residual, energy,
                          equatorial_eigenfrequency,
                          equatorial_inertial_period, gradient_max,
                          inertia_gravity_frequency, potential_vorticity,
                          rossby_burger, total_variation)
from .fileio import (compare_fields, compare_solutions, read_snapshot,
                     restrict_average, write_diagnostics, write_snapshot)

__version__ = "0.1.0"

__all__ = [
    "ConservedState", "CoriolisSpec", "Grid", "Numerics", "Scenario",
    "Topography", "build_grid", "desingularized_ratio", "flat_topography",
    "primitives_from_state", "sample_topography",
    "GlobalPrimitive", "InterfaceStates", "build_interface_states",
    "depth_from_equilibrium", "equilibrium_centers", "global_primitive",
    "minmod", "source_potential",
    "diffusion_switch", "local_speeds", "numerical_flux",
    "IntegrationError", "SimulationResult", "StepReport", "assemble_fluxes",
    "cfl_dt", "draining_limit", "rhs", "run_simulation", "source_term",
    "ssp_rk3_combine", "ssp_rk3_step",
    "SCENARIO_IDS", "make_scenario", "perturbation_bump",
    "BalanceTimeAverager", "ConservationLedger", "DiagnosticsRecord",
    "balance_residual", "energy", "equatorial_eigenfrequency",
    "equatorial_inertial_period", "gradient_max",
    "inertia_gravity_frequency", "potential_vorticity", "rossby_burger",
    "total_variation",
    "compare_fields", "compare_solutions", "read_snapshot",
    "restrict_average", "write_diagnostics", "write_snapshot",
]
