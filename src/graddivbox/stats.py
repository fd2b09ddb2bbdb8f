"""Time-averaged flow statistics and the per-step energy-budget audit.

Accumulates trapezoid-in-time integrals of the dissipation rate

    eps(u) = (1/|box|) int nu |grad u|^2 + gamma |div u|^2 dx,

of the mean-square velocity (giving the finite-window velocity scale U_T),
and of the mean-square divergence, read from one `diagnostics` record per
state. Time is the step index: step i starts at i * dt; `averaged` picks the
window's steps (for the config check too) and `t_accum` sums their dt. Each
step is also audited against the discrete energy inequality: the residual

    r = 1/2 ||u_next||^2 - 1/2 ||u_prev||^2
        + dt (nu ||grad u_mid||^2 + gamma ||div u_mid||^2) - dt (f, u_mid)

(all volume-normalized, u_mid the midpoint state) should be bounded by the
integrator's local truncation error; a large positive r flags a violation
of the inequality direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import (
    Field,
    GridSpec,
    inner_product,
    k_dot,
    parseval_weights,
    volume_norm_sq,  # noqa: F401  (kept as stats.volume_norm_sq, which the benchmark's tracer test reads)
    wavenumber_sq,
)
from .solver import FlowParams

# a step is averaged when it starts at or after burn_in, less this rounding slack
BURN_IN_TOL = 1e-12


def averaged(step: int, dt: float, burn_in: float) -> bool:
    """Whether the step that starts at step * dt lies in the averaging window."""
    return step * dt >= burn_in - BURN_IN_TOL


@dataclass
class RunningStats:
    """Single-writer accumulator for one averaging window; `step` is the next step's index."""

    burn_in: float = 0.0
    step: int = 0
    t_accum: float = 0.0
    int_eps_nu: float = 0.0
    int_eps_gamma: float = 0.0
    int_u_sq: float = 0.0
    int_div_sq: float = 0.0
    budget_residual_max: float = 0.0
    last_residual: float = field(default=0.0, repr=False)


@dataclass(frozen=True)
class Diagnostics:
    """Volume means of one state: |u|^2, the two dissipation channels and (div u)^2."""

    u_sq: float
    eps_nu: float
    eps_gamma: float
    div_sq: float


@lru_cache(maxsize=None)
def _parseval_wavenumber_sq(grid: GridSpec):
    """Per-mode Parseval weight times |k|^2."""
    return parseval_weights(grid) * wavenumber_sq(grid)


def _dissipation(u: Field, params: FlowParams) -> tuple:
    """(per-mode |uhat|^2, eps_nu, eps_gamma, div_sq) of `u` from Parseval.

    eps_nu is nu times the volume mean of the squared Frobenius norm of
    grad u, which per mode is |k|^2 |uhat|^2; eps_gamma is gamma times the
    volume mean of (div u)^2, per mode |k . uhat|^2.
    """
    grid = u.grid
    s = u.spec
    energy = np.sum(s.real ** 2 + s.imag ** 2, axis=0)
    grad_sq = float(np.sum(_parseval_wavenumber_sq(grid) * energy))
    kdotu = k_dot(grid, s)
    div_sq = float(np.sum(parseval_weights(grid) * (kdotu.real ** 2 + kdotu.imag ** 2)))
    return energy, params.nu * grad_sq, params.gamma * div_sq, div_sq


def diagnostics(u: Field, params: FlowParams) -> Diagnostics:
    """The diagnostics record of `u`, all from Parseval and one |uhat|^2 pass."""
    energy, eps_nu, eps_gamma, div_sq = _dissipation(u, params)
    return Diagnostics(float(np.sum(parseval_weights(u.grid) * energy)), eps_nu, eps_gamma, div_sq)


def update(stats: RunningStats, u_prev: Field, d_prev: Diagnostics, u_next: Field,
           d_next: Diagnostics, params: FlowParams, f: Field, dt: float) -> RunningStats:
    """Fold one solver step into the accumulator (trapezoid in time).

    `d_prev` and `d_next` are the diagnostics records of `u_prev` and
    `u_next`; the step is number `stats.step`, averaged if it starts in the
    window. The budget audit runs on every step; its signed residual,
    positive on a violation, is left in `stats.last_residual`.
    """
    mid = Field.from_spectral(u_prev.grid, 0.5 * (u_prev.spec + u_next.spec))
    _, eps_nu_mid, eps_gamma_mid, _ = _dissipation(mid, params)
    r = (0.5 * d_next.u_sq - 0.5 * d_prev.u_sq
         + dt * (eps_nu_mid + eps_gamma_mid) - dt * inner_product(f, mid))
    stats.last_residual = r
    stats.budget_residual_max = max(stats.budget_residual_max, r)
    if averaged(stats.step, dt, stats.burn_in):
        stats.int_eps_nu += 0.5 * dt * (d_prev.eps_nu + d_next.eps_nu)
        stats.int_eps_gamma += 0.5 * dt * (d_prev.eps_gamma + d_next.eps_gamma)
        stats.int_u_sq += 0.5 * dt * (d_prev.u_sq + d_next.u_sq)
        stats.int_div_sq += 0.5 * dt * (d_prev.div_sq + d_next.div_sq)
        stats.t_accum += dt
    stats.step += 1
    return stats


def finalize(stats: RunningStats, force_stats=None) -> dict:
    """Window averages: eps_avg, its nu/gamma split, U_T, mean-square divergence.

    With ForceStats supplied, also reports eps_avg normalized by U_T^3 / L.
    U_T is a finite-window estimate of the infinite-time velocity scale.
    """
    if stats.t_accum <= 0:
        raise ValueError("no averaging window: t_accum = 0")
    eps_nu = stats.int_eps_nu / stats.t_accum
    eps_gamma = stats.int_eps_gamma / stats.t_accum
    u_t = float(np.sqrt(stats.int_u_sq / stats.t_accum))
    out = {
        "eps_avg": eps_nu + eps_gamma,
        "eps_nu_avg": eps_nu,
        "eps_gamma_avg": eps_gamma,
        "U_T": u_t,
        "div_norm_sq_avg": stats.int_div_sq / stats.t_accum,
        "window": stats.t_accum,
        "budget_residual_max": stats.budget_residual_max,
    }
    if force_stats is not None and u_t > 0:
        out["eps_normalized"] = (eps_nu + eps_gamma) * force_stats.L / u_t ** 3
    return out
