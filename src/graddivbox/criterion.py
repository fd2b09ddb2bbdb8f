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
    """Scales feeding the criterion algebra; h and gamma are optional, and gamma alone may be inf.

    The groups the report divides by or raises to a power, Re, U^3/L,
    kappa^2 and (h/L)^(-4/3), must be positive and finite floats.
    """

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
        h_group = () if self.h is None else (("(h/L)^(-4/3)", lambda: (self.h / self.L) ** (-4.0 / 3.0)),)
        for group, value in (("Re = LU/nu", lambda: self.L * self.U / self.nu),
                             ("U^3/L", lambda: self.U ** 3 / self.L), ("kappa^2", lambda: self.kappa ** 2)) + h_group:
            try:
                x = value()
            except (OverflowError, ZeroDivisionError):  # a float power past the largest float, or 0 ** -p
                x = math.inf
            if not 0 < x < math.inf:
                raise ValueError(f"{group} must be positive and finite, got {x}")


@dataclass(frozen=True)
class CriterionReport:
    Re: float
    R_gamma: float  # inf when gamma = 0 or absent
    eta: float
    eps_bound: float  # inf when R_gamma is inf
    eps_bound_viscous: float  # the gamma-free part (6 + 1/Re) U^3/L
    gamma_lo: float
    gamma_hi_mesh_independent: float  # below gamma_lo when Re < 1/6
    gamma_hi_mesh_dependent: float | None  # None without h; below gamma_lo for coarse meshes, never clamped
    mesh_dependent_window_empty: bool | None
    gamma: float | None
    in_window_mesh_independent: bool | None
    in_window_mesh_dependent: bool | None
    measured_eps_avg: float | None = None
    bound_satisfied: bool | None = None


def build_report(inp: CriterionInput, measured_eps_avg: float | None = None) -> CriterionReport:
    """The report of `inp`, each group, bound and window computed once; a check is None without its input."""
    lu = inp.L * inp.U
    re = lu / inp.nu
    r_gamma = lu / inp.gamma if inp.gamma else math.inf
    k2 = inp.kappa ** 2
    viscous = 6.0 + 1.0 / re
    bound = math.inf if math.isinf(r_gamma) else (viscous + 0.25 * k2 * r_gamma) * inp.U ** 3 / inp.L
    lo, hi_mi = k2 / 24.0 * lu, k2 / 4.0 * re * lu
    hi_md = None if inp.h is None else k2 / 4.0 * (inp.h / inp.L) ** (-4.0 / 3.0) * lu
    gamma = inp.gamma
    return CriterionReport(
        Re=re, R_gamma=r_gamma, eta=re ** -0.75 * inp.L,
        eps_bound=bound, eps_bound_viscous=viscous * inp.U ** 3 / inp.L,
        gamma_lo=lo, gamma_hi_mesh_independent=hi_mi, gamma_hi_mesh_dependent=hi_md,
        mesh_dependent_window_empty=None if hi_md is None else hi_md < lo,
        gamma=gamma,
        in_window_mesh_independent=None if gamma is None else lo <= gamma <= hi_mi,
        in_window_mesh_dependent=None if gamma is None or hi_md is None else lo <= gamma <= hi_md,
        measured_eps_avg=measured_eps_avg,
        bound_satisfied=None if measured_eps_avg is None else measured_eps_avg <= bound,
    )
