"""Pseudospectral periodic-box solver for grad-div penalized incompressible flow.

Subpackages:

- `grid`: periodic grids, the compact layout of the 2/3-rule modes, fields
- `forcing`: divergence-free low-mode body forces and their scales F, L, kappa
- `solver`: skew-symmetrized nonlinearity and IMEX time stepping
- `stats`: time-averaged dissipation statistics and the energy-budget audit
- `criterion`: nondimensional groups, dissipation bound, admissible gamma windows
- `config` / `runner` / `cli` / `checkpoint`: configuration, runs, sweeps, persistence
"""

__version__ = "0.1.0"
