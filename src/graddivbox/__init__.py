"""Pseudospectral periodic-box solver for grad-div penalized incompressible flow.

Subpackages:

- `grid`: periodic grids, fields, exact spectral operators
- `forcing`: divergence-free low-mode body forces and their scales F, L, kappa
- `solver`: skew-symmetrized nonlinearity and IMEX time stepping
- `stats`: time-averaged dissipation statistics and the energy-budget audit
- `criterion`: nondimensional groups, dissipation bound, admissible gamma windows
- `config` / `runner` / `cli`: configuration, runs, sweeps, persistence
"""

from .criterion import (
    CriterionInput,
    CriterionReport,
    build_report,
    eps_bound,
    gamma_range_mesh_dependent,
    gamma_range_mesh_independent,
    kolmogorov_eta,
    nondimensional_groups,
)
from .forcing import ForceStats, ForcingSpec, compute_F, force_stats, realize_force
from .grid import Field, GridSpec, dealias, divergence, gradient, volume_norm_sq
from .solver import BlowUpError, FlowParams, StepperConfig, run_mms, step
from .stats import Diagnostics, RunningStats, diagnostics, finalize, update

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "CriterionInput",
    "CriterionReport",
    "Diagnostics",
    "Field",
    "FlowParams",
    "ForceStats",
    "ForcingSpec",
    "GridSpec",
    "RunningStats",
    "StepperConfig",
    "build_report",
    "compute_F",
    "dealias",
    "diagnostics",
    "divergence",
    "eps_bound",
    "finalize",
    "force_stats",
    "gamma_range_mesh_dependent",
    "gamma_range_mesh_independent",
    "gradient",
    "kolmogorov_eta",
    "nondimensional_groups",
    "realize_force",
    "run_mms",
    "step",
    "update",
    "volume_norm_sq",
]
