"""Time-averaged flow statistics and the per-step energy-budget audit.

Folds a run's records, one (`diagnostics`, budget residual) pair per state,
into trapezoid-in-time integrals of the dissipation rate

    eps(u) = (1/|box|) int nu |grad u|^2 + gamma |div u|^2 dx,

of the kinetic energy |u|^2 / 2 (giving the finite-window velocity scale
U_T = sqrt(2 <kinetic_energy>)), and of the mean-square divergence, all
Parseval sums over the kept modes of the compact run state. A record is
a timeseries.csv row: the `Diagnostics` fields are its columns, in order,
as printed. Time is the step index: step i starts at i * dt,
and the window is the steps from the burn-in step on. `update`
audits each step against the discrete energy inequality: the residual

    r = 1/2 ||u_next||^2 - 1/2 ||u_prev||^2
        + dt (nu ||grad u_mid||^2 + gamma ||div u_mid||^2) - dt (f, u_mid)

(all volume-normalized, u_mid the midpoint state) should be bounded by the
integrator's local truncation error; a large positive r flags a violation
of the inequality direction.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .grid import k_dot
from .solver import SpectralOperator

class Diagnostics(NamedTuple):
    """Volume means of one state, the timeseries.csv columns in order: |u|^2 / 2, eps_nu, eps_gamma, (div u)^2."""

    kinetic_energy: float
    eps_nu: float
    eps_gamma: float
    div_norm_sq: float


def _dissipation(u: np.ndarray, op: SpectralOperator) -> tuple:
    """(per-mode |uhat|^2, eps_nu, eps_gamma, div_norm_sq) of compact coefficients `u` from Parseval.

    eps_nu is nu times the volume mean of the squared Frobenius norm of
    grad u, which per mode is |k|^2 |uhat|^2; eps_gamma is gamma times the
    volume mean of (div u)^2, per mode |k . uhat|^2.
    """
    energy = np.sum(u.real ** 2 + u.imag ** 2, axis=0)
    grad_sq = float(np.sum(op.weighted_ksq * energy))
    kdotu = k_dot(op.k, u)
    div_norm_sq = float(np.sum(op.weights * (kdotu.real ** 2 + kdotu.imag ** 2)))
    return energy, op.params.nu * grad_sq, op.params.gamma * div_norm_sq, div_norm_sq


def diagnostics(u: np.ndarray, op: SpectralOperator) -> Diagnostics:
    """The diagnostics record of compact coefficients `u`, all from Parseval and one |uhat|^2 pass."""
    energy, eps_nu, eps_gamma, div_norm_sq = _dissipation(u, op)
    return Diagnostics(0.5 * float(np.sum(op.weights * energy)), eps_nu, eps_gamma, div_norm_sq)


def update(records: list, u_prev: np.ndarray, u_next: np.ndarray, d_next: Diagnostics,
           op: SpectralOperator, f: np.ndarray) -> None:
    """Audit one solver step of size op.dt and append its record `(d_next, r)` to `records`.

    `u_prev`, `u_next` and the force `f` are compact coefficients; the last
    of `records` holds the diagnostics of `u_prev`, and `d_next` those of
    `u_next`. The budget residual r is signed, positive on a violation.
    """
    dt = op.dt
    mid = 0.5 * (u_prev + u_next)
    _, eps_nu_mid, eps_gamma_mid, _ = _dissipation(mid, op)
    f_dot_mid = float(np.sum(op.weights * np.sum((np.conj(f) * mid).real, axis=0)))
    r = d_next.kinetic_energy - records[-1][0].kinetic_energy + dt * (eps_nu_mid + eps_gamma_mid) - dt * f_dot_mid
    records.append((d_next, r))


def finalize(first_step: int, records: list, dt: float, burn_in_steps: int) -> dict:
    """Window averages of `records`: eps_avg, its nu/gamma split, U_T, mean-square divergence.

    `records[j]` is of the state at step first_step + j; the window is the
    steps from step burn_in_steps on, and its length is their count times
    dt. U_T is a finite-window estimate of the infinite-time velocity scale.
    """
    window = records[max(0, burn_in_steps - first_step):]
    if len(window) < 2:
        raise ValueError(f"no averaging window: no step from step {burn_in_steps} on")
    duration = (len(window) - 1) * dt
    sums = [0.0] * len(Diagnostics._fields)
    for (a, _), (b, _) in zip(window, window[1:]):  # each channel's trapezoid sum, step by step
        sums = [s + 0.5 * dt * (x + y) for s, x, y in zip(sums, a, b)]
    mean = Diagnostics(*(s / duration for s in sums))
    return {
        "eps_avg": mean.eps_nu + mean.eps_gamma,
        "eps_nu_avg": mean.eps_nu,
        "eps_gamma_avg": mean.eps_gamma,
        "U_T": float(np.sqrt(2.0 * mean.kinetic_energy)),
        "div_norm_sq_avg": mean.div_norm_sq,
        "window": duration,
        "budget_residual_max": max(0.0, *(r for _, r in records)),
    }
