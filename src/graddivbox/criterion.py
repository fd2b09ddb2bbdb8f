"""Nondimensional groups, the dissipation bound, and admissible gamma windows.

Pure algebra on the scales (U, L, nu, gamma, kappa, h):

    Re      = L U / nu,   R_gamma = L U / gamma,
    bound   = (6 + 1/Re + (1/4) kappa^2 R_gamma) U^3 / L,
    eta     = Re^(-3/4) L  (Kolmogorov microscale),

and the admissible windows for the grad-div coefficient,

    mesh independent:  kappa^2/24 <= gamma/(LU) <= (kappa^2/4) Re,
    mesh dependent:    kappa^2/24 <= gamma/(LU) <= (kappa^2/4) (h/L)^(-4/3).

The constants 6, 24 and 4 are used verbatim; the lower endpoint is the same
in both regimes, and substituting h = eta makes the upper endpoints agree.
The constant 6 comes from a three-component estimate; 2d desk-scale runs
are compared against it unchanged, as a conservative check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CriterionInput:
    """Scales feeding the criterion algebra; h and gamma are optional, and gamma alone may be inf."""

    U: float
    L: float
    nu: float
    kappa: float
    gamma: float | None = None
    h: float | None = None

    def __post_init__(self):
        for name in ("U", "L", "nu") + (("h",) if self.h is not None else ()):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 1.0 <= self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and >= 1 (sup norm dominates rms), got {self.kappa}")
        if self.gamma is not None and not self.gamma >= 0:  # inf is the projected limit
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")


@dataclass(frozen=True)
class CriterionReport:
    Re: float
    R_gamma: float  # inf when gamma = 0 or absent
    eta: float
    eps_bound: float  # inf when R_gamma is inf
    eps_bound_viscous: float  # the gamma-free part (6 + 1/Re) U^3/L
    gamma_lo: float
    gamma_hi_mesh_independent: float
    gamma_hi_mesh_dependent: float | None
    mesh_dependent_window_empty: bool | None
    gamma: float | None
    in_window_mesh_independent: bool | None
    in_window_mesh_dependent: bool | None
    measured_eps_avg: float | None = None
    bound_satisfied: bool | None = None


def nondimensional_groups(inp: CriterionInput):
    """(Re, R_gamma); R_gamma is +inf when gamma is zero or not supplied."""
    re = inp.L * inp.U / inp.nu
    if inp.gamma is None or inp.gamma == 0.0:
        r_gamma = math.inf
    else:
        r_gamma = inp.L * inp.U / inp.gamma
    return re, r_gamma


def eps_bound(inp: CriterionInput) -> float:
    """Upper bound (6 + 1/Re + kappa^2 R_gamma / 4) U^3 / L on the mean dissipation.

    Infinite when the grad-div channel is absent (gamma = 0); the gamma-free
    part is available separately via eps_bound_viscous.
    """
    re, r_gamma = nondimensional_groups(inp)
    if math.isinf(r_gamma):
        return math.inf
    return (6.0 + 1.0 / re + 0.25 * inp.kappa ** 2 * r_gamma) * inp.U ** 3 / inp.L


def eps_bound_viscous(inp: CriterionInput) -> float:
    """The gamma-independent part (6 + 1/Re) U^3 / L of the bound."""
    re, _ = nondimensional_groups(inp)
    return (6.0 + 1.0 / re) * inp.U ** 3 / inp.L


def gamma_range_mesh_independent(inp: CriterionInput):
    """(gamma_lo, gamma_hi) = ((kappa^2/24) LU, (kappa^2/4) Re LU); empty when Re < 1/6."""
    re, _ = nondimensional_groups(inp)
    lu = inp.L * inp.U
    lo = inp.kappa ** 2 / 24.0 * lu
    hi = inp.kappa ** 2 / 4.0 * re * lu
    return lo, hi


def gamma_range_mesh_dependent(inp: CriterionInput):
    """(gamma_lo, gamma_hi) with gamma_hi = (kappa^2/4) (h/L)^(-4/3) LU.

    The window may be empty for coarse meshes (h near or above L); it is
    reported as-is, never clamped.
    """
    if inp.h is None:
        raise ValueError("mesh-dependent window needs a mesh width h")
    lu = inp.L * inp.U
    lo = inp.kappa ** 2 / 24.0 * lu
    hi = inp.kappa ** 2 / 4.0 * (inp.h / inp.L) ** (-4.0 / 3.0) * lu
    return lo, hi


def kolmogorov_eta(Re: float, L: float) -> float:
    """Kolmogorov microscale eta = Re^(-3/4) L, so Re = (eta/L)^(-4/3)."""
    if not Re > 0:
        raise ValueError(f"Re must be positive, got {Re}")
    return Re ** -0.75 * L


def build_report(inp: CriterionInput, measured_eps_avg: float | None = None) -> CriterionReport:
    """Assemble the full criterion report, with optional measured-dissipation check."""
    re, r_gamma = nondimensional_groups(inp)
    lo_mi, hi_mi = gamma_range_mesh_independent(inp)
    hi_md = None
    md_empty = None
    in_md = None
    if inp.h is not None:
        lo_md, hi_md = gamma_range_mesh_dependent(inp)
        md_empty = hi_md < lo_md
    in_mi = None
    if inp.gamma is not None:
        in_mi = lo_mi <= inp.gamma <= hi_mi
        if hi_md is not None:
            in_md = lo_mi <= inp.gamma <= hi_md
    bound = eps_bound(inp)
    satisfied = None
    if measured_eps_avg is not None:
        satisfied = measured_eps_avg <= bound
    return CriterionReport(
        Re=re,
        R_gamma=r_gamma,
        eta=kolmogorov_eta(re, inp.L),
        eps_bound=bound,
        eps_bound_viscous=eps_bound_viscous(inp),
        gamma_lo=lo_mi,
        gamma_hi_mesh_independent=hi_mi,
        gamma_hi_mesh_dependent=hi_md,
        mesh_dependent_window_empty=md_empty,
        gamma=inp.gamma,
        in_window_mesh_independent=in_mi,
        in_window_mesh_dependent=in_md,
        measured_eps_avg=measured_eps_avg,
        bound_satisfied=satisfied,
    )
