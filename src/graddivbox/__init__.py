"""Pseudospectral periodic-box solver for grad-div penalized incompressible flow.

Subpackages:

- `grid`: periodic grids, the compact layout of the 2/3-rule modes, fields
- `forcing`: divergence-free low-mode body forces and their scales F, L, kappa
- `solver`: skew-symmetrized nonlinearity and IMEX time stepping
- `stats`: time-averaged dissipation statistics and the energy-budget audit
- `criterion`: nondimensional groups, dissipation bound, admissible gamma windows
- `config` / `runner` / `cli` / `checkpoint`: configuration, runs, sweeps, persistence

The top level re-exports the public names of the layers below the runner:
`GridSpec`, `Field`; `ForcingSpec`, `ForceStats`, `realize_force`,
`force_stats`; `FlowParams`, `StepperConfig`, `BlowUpError`, `run_mms`;
`CriterionInput`, `CriterionReport`, `build_report`, `eps_bound`,
`gamma_range_mesh_independent`, `gamma_range_mesh_dependent`,
`kolmogorov_eta`, `nondimensional_groups`.
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
from .forcing import ForceStats, ForcingSpec, force_stats, realize_force
from .grid import Field, GridSpec
from .solver import BlowUpError, FlowParams, StepperConfig, run_mms

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "CriterionInput",
    "CriterionReport",
    "Field",
    "FlowParams",
    "ForceStats",
    "ForcingSpec",
    "GridSpec",
    "StepperConfig",
    "build_report",
    "eps_bound",
    "force_stats",
    "gamma_range_mesh_dependent",
    "gamma_range_mesh_independent",
    "kolmogorov_eta",
    "nondimensional_groups",
    "realize_force",
    "run_mms",
]
