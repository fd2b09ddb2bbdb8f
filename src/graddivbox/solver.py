"""Time integration of the grad-div penalized momentum equation.

The model advanced here is

    u_t + div(u x u) - (1/2)(div u) u - nu lap(u) - gamma grad(div u) = f(x)

on the periodic box, with no pressure variable: the penalty term
-gamma grad(div u) stands in for the pressure gradient. The nonlinearity is
the skew-symmetrized form written above, assembled pseudospectrally in the
rotational form omega x u + grad(|u|^2 / 2) + (1/2)(div u) u, omega = curl u,
with 2/3-rule dealiasing before and after products. Every product is
quadratic, so under the 2/3 rule (Orszag 1971) the two forms agree on every
retained mode, and the energy inner product of the term with u vanishes to
roundoff even when div u != 0. One evaluation makes one batched inverse
transform of [u, omega, div u] and one batched forward transform of
[omega x u + (1/2)(div u) u, |u|^2 / 2].

Time stepping is the L-stable two-stage second-order IMEX Runge-Kutta
scheme ARS(2,2,2): advection explicit, nu*lap + gamma*grad div implicit.
The implicit per-mode operator (I + c dt (nu |k|^2 I + gamma k k^T)) is
inverted in closed form by splitting each mode into its k-parallel and
k-perpendicular parts. The scheme is single-step and works on the spectral
coefficients alone, so a (u_hat, t) checkpoint restarts a run bitwise, and
the blow-up check reads the new spectral state without transforming it.

Work buffers: each grid has one set of scratch arrays (`_work_buffers`),
which `nonlinear_term` and `_solve_shifted` overwrite on every call. No
returned array aliases them, so a result stays valid across later calls
(the MMS force calls `nonlinear_term` inside a stage). They are not
thread-safe: two threads must not step on one grid at once. Building them
also asks the C allocator to keep freed memory (`_retain_freed_heap`).
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import (
    Field,
    GridSpec,
    dealias_mask,
    k_dot,
    k_parallel_coef,
    volume_norm_sq,
    wavenumber_sq,
    wavevectors,
)

# ARS(2,2,2) coefficients (Ascher, Ruuth & Spiteri 1997).
_ARS_GAMMA = 1.0 - np.sqrt(2.0) / 2.0
_ARS_DELTA = 1.0 - 1.0 / (2.0 * _ARS_GAMMA)


class BlowUpError(RuntimeError):
    """Non-finite values appeared in the solution."""

    def __init__(self, t):
        super().__init__(f"solution blow-up at t = {t}")
        self.t = t


@dataclass(frozen=True)
class FlowParams:
    """Physical coefficients: viscosity nu > 0 and grad-div coefficient gamma >= 0."""

    nu: float
    gamma: float = 0.0

    def __post_init__(self):
        if not self.nu > 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")


STEP_GRID_TOL = 1e-9


def step_index(t: float, dt: float, name: str) -> int:
    """The i with t = i * dt, less STEP_GRID_TOL steps of slack; else ValueError naming `name`."""
    steps = t / dt
    if not np.isfinite(steps):
        raise ValueError(f"{name} = {t} is not a finite number of steps of dt = {dt}")
    i = round(steps)
    if abs(steps - i) > STEP_GRID_TOL:
        raise ValueError(f"{name} = {t} is not on the step grid of dt = {dt}")
    return i


@dataclass(frozen=True)
class StepperConfig:
    """Fixed step dt; t_end is n_steps whole steps, and step i starts at i * dt."""

    dt: float
    t_end: float
    n_steps: int = field(init=False, repr=False)

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.t_end > 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        object.__setattr__(self, "n_steps", step_index(self.t_end, self.dt, "t_end"))
        if self.n_steps == 0:
            raise ValueError(f"t_end = {self.t_end} takes no step of dt = {self.dt}")


def _retain_freed_heap() -> None:
    """Ask the C allocator to keep freed heap memory for reuse (glibc's mallopt; elsewhere nothing).

    numpy's transforms allocate their intermediates on every call. With
    glibc's defaults freed memory goes back to the system and the next step
    faults it in again: 1680 faults per 3d n=32 step, 4.7 ms at the 2.8 us a
    fault took on a 2-vCPU VM. Now blocks below 32 MB come from the heap and
    up to 64 MB of free heap is kept. The setting is process-wide.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


@lru_cache(maxsize=None)
def _work_buffers(grid: GridSpec):
    """Scratch of one grid: the [u, omega, div u] and product stacks, a real and a complex array."""
    ncurl = 1 if grid.dim == 2 else 3
    buffers = (np.empty((grid.dim + ncurl + 1,) + grid.spectral_shape, dtype=complex),
               np.empty((grid.dim + 1,) + grid.shape),
               np.empty(grid.shape),
               np.empty(grid.spectral_shape, dtype=complex))
    _retain_freed_heap()  # set before the buffers were allocated, it raised peak RSS by 0.3 MB
    return buffers


def nonlinear_term(u: Field) -> np.ndarray:
    """Spectral coefficients of N(u) = div(u x u) - (1/2)(div u) u.

    N is assembled as omega x u + grad(|u|^2 / 2) + (1/2)(div u) u. In 2d
    omega is the scalar d_x u_y - d_y u_x and omega x u = (-omega u_y,
    omega u_x). The input is dealiased before the physical-space products
    and the products are dealiased again, so only alias-free Galerkin modes
    survive; the mean (k = 0) mode is exactly 0.
    """
    grid = u.grid
    dim = grid.dim
    mask = dealias_mask(grid)
    k = wavevectors(grid)
    ncurl = 1 if dim == 2 else 3
    lhs, rhs, rtmp, ctmp = _work_buffers(grid)

    # spectral [u, omega, div u] of the dealiased input
    s = np.multiply(u.spec, mask, out=lhs[:dim])
    for i in range(ncurl):
        a, b = (0, 1) if dim == 2 else ((i + 1) % 3, (i + 2) % 3)
        w_hat = np.multiply(k[a], s[b], out=lhs[dim + i])
        w_hat -= np.multiply(k[b], s[a], out=ctmp)
        np.multiply(1j, w_hat, out=w_hat)
    np.multiply(1j, k_dot(grid, s), out=lhs[-1])
    phys = Field.from_spectral(grid, lhs).phys
    up, w, div = phys[:dim], phys[dim:-1], phys[-1]

    # physical [omega x u + (1/2)(div u) u, |u|^2 / 2]; |u|^2 first, while rhs[:dim] is free
    usq = np.sum(np.multiply(up, up, out=rhs[:dim]), axis=0, out=rhs[dim])
    np.multiply(0.5, usq, out=usq)
    if dim == 2:
        np.multiply(np.negative(w[0], out=rtmp), up[1], out=rhs[0])
        np.multiply(w[0], up[0], out=rhs[1])
    else:
        for i in range(3):
            a, b = (i + 1) % 3, (i + 2) % 3
            np.multiply(w[a], up[b], out=rhs[i])
            rhs[i] -= np.multiply(w[b], up[a], out=rtmp)
    rhs[:dim] += np.multiply(np.multiply(0.5, div, out=rtmp), up, out=up)
    p_hat = Field.from_physical(grid, rhs).spec

    out = p_hat[:dim]
    for j in range(dim):
        out[j] += np.multiply(np.multiply(1j, k[j], out=ctmp), p_hat[dim], out=ctmp)
    out *= mask
    out[(slice(None),) + (0,) * dim] = 0.0
    return out


@lru_cache(maxsize=4)  # a sweep worker runs one gamma after another; old entries are dropped
def _implicit_denominators(grid: GridSpec, params: FlowParams, c: float):
    """Per-mode 1 + c nu |k|^2 (k-perpendicular part) and 1 + c (nu + gamma) |k|^2 (k-parallel part).

    The divisors themselves, not their reciprocals: x / d and x * (1 / d) differ in the last bit.
    """
    ksq = wavenumber_sq(grid)
    return 1.0 + c * params.nu * ksq, 1.0 + c * (params.nu + params.gamma) * ksq


def _solve_shifted(b_hat: np.ndarray, c: float, params: FlowParams, grid: GridSpec):
    """Closed-form solve of (I + c (nu |k|^2 I + gamma k k^T)) x = b per mode."""
    k = wavevectors(grid)
    coef = k_parallel_coef(grid, b_hat)
    denom_perp, denom_par = _implicit_denominators(grid, params, c)
    scratch = _work_buffers(grid)[3]
    out = np.empty_like(b_hat)
    for j in range(grid.dim):
        b_par = np.multiply(k[j], coef, out=scratch)
        np.divide(np.subtract(b_hat[j], b_par, out=out[j]), denom_perp, out=out[j])
        out[j] += np.divide(b_par, denom_par, out=b_par)
    return out


def _apply_linear(v_hat: np.ndarray, params: FlowParams, grid: GridSpec):
    """Apply nu lap + gamma grad div in spectral space."""
    k = wavevectors(grid)
    nu_ksq = -params.nu * wavenumber_sq(grid)
    kdotv = k_dot(grid, v_hat)
    out = np.empty_like(v_hat)
    for j in range(grid.dim):
        out[j] = nu_ksq * v_hat[j] - params.gamma * k[j] * kdotv
    return out


def imex_step(u_hat: np.ndarray, t: float, dt: float, params: FlowParams,
              grid: GridSpec, force_hat) -> np.ndarray:
    """One ARS(2,2,2) step on spectral coefficients.

    `force_hat` is either a constant spectral array or a callable t -> array
    (time-dependent forcing is used by the manufactured-solution harness).
    Raises BlowUpError, at t + dt, if the new coefficients are not finite.
    """
    g, d = _ARS_GAMMA, _ARS_DELTA

    def explicit(v_hat, tv):
        fh = force_hat(tv) if callable(force_hat) else force_hat
        return fh - nonlinear_term(Field.from_spectral(grid, v_hat))

    e0 = explicit(u_hat, t)
    u1 = _solve_shifted(u_hat + dt * g * e0, g * dt, params, grid)
    e1 = explicit(u1, t + g * dt)
    lu1 = _apply_linear(u1, params, grid)
    b = u_hat + dt * (d * e0 + (1.0 - d) * e1 + (1.0 - g) * lu1)
    u_next = _solve_shifted(b, g * dt, params, grid)
    if not np.all(np.isfinite(u_next)):
        raise BlowUpError(t + dt)
    return u_next


def step(u: Field, params: FlowParams, f: Field, cfg: StepperConfig, t: float = 0.0) -> Field:
    """Advance one time step of size cfg.dt; raises BlowUpError on non-finite output."""
    if f.grid != u.grid:
        raise ValueError("u and f live on different grids")
    return Field.from_spectral(u.grid, imex_step(u.spec, t, cfg.dt, params, u.grid, f.spec))


class ManufacturedSolution:
    """Separable target u*(x, t) = a(t) w(x) with analytic a(t).

    Spatial derivatives are taken spectrally from the exact samples of w
    (w is band-limited), so running the stepper against the induced force
    isolates the temporal discretization error. The samples of w are kept
    and each state is built as a(t) w and transformed, rather than scaled
    as a(t) w_hat: the two differ in the last bits, and the MMS errors
    (about 1e-8) are checked to 1e-9 relative, about 100 ulps of the state.
    """

    def __init__(self, grid: GridSpec, shape_phys: np.ndarray, amp, amp_dot):
        self.grid = grid
        self.shape_phys = np.asarray(shape_phys, dtype=float)
        self.shape_hat = Field.from_physical(grid, self.shape_phys).spec
        self.amp = amp
        self.amp_dot = amp_dot

    def state(self, t: float) -> Field:
        return Field.from_physical(self.grid, self.amp(t) * self.shape_phys)

    def state_dot_hat(self, t: float) -> np.ndarray:
        return self.amp_dot(t) * self.shape_hat


def divergent_mms_target(grid: GridSpec, omega: float = 1.3, amplitude: float = 0.5):
    """Default manufactured solution with nonzero divergence.

    w = (sin x' cos y', cos x' sin y' [, 0]) with x' = 2 pi x / L, so
    div w = 2 (2 pi / L) cos x' cos y' != 0; a(t) = amplitude * cos(omega t).
    """
    n, L = grid.n, grid.box_length
    x = np.arange(n) * (L / n)
    scale = 2.0 * np.pi / L
    if grid.dim == 2:
        X, Y = np.meshgrid(x, x, indexing="ij")
        w = np.stack([np.sin(scale * X) * np.cos(scale * Y),
                      np.cos(scale * X) * np.sin(scale * Y)])
    else:
        X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
        w = np.stack([np.sin(scale * X) * np.cos(scale * Y),
                      np.cos(scale * X) * np.sin(scale * Y),
                      np.zeros_like(X)])
    return ManufacturedSolution(
        grid, w,
        amp=lambda t: amplitude * np.cos(omega * t),
        amp_dot=lambda t: -amplitude * omega * np.sin(omega * t),
    )


def mms_force_hat(target: ManufacturedSolution, params: FlowParams):
    """Spectral forcing that makes `target` an exact solution of the discrete model.

    f = u*_t + N(u*) - nu lap u* - gamma grad div u*. This force is in
    general not divergence-free; that restriction is deliberately waived
    for verification runs.
    """
    grid = target.grid

    def fhat(t):
        u = target.state(t)
        return target.state_dot_hat(t) + nonlinear_term(u) - _apply_linear(u.spec, params, grid)

    return fhat


def run_mms(target: ManufacturedSolution, params: FlowParams, cfg: StepperConfig) -> dict:
    """Integrate against the manufactured force; report the worst-in-time error.

    Returns a dict with the max volume-normalized L2 error, the number of
    steps, and the error normalized by the target's peak norm.
    """
    grid = target.grid
    fhat = mms_force_hat(target, params)
    u_hat = target.state(0.0).spec.copy()
    max_err = 0.0
    max_ref = np.sqrt(volume_norm_sq(target.state(0.0)))
    for i in range(cfg.n_steps):
        t = i * cfg.dt
        u_hat = imex_step(u_hat, t, cfg.dt, params, grid, fhat)
        exact = target.state((i + 1) * cfg.dt)
        diff = Field.from_spectral(grid, u_hat - exact.spec)
        max_err = max(max_err, np.sqrt(volume_norm_sq(diff)))
        max_ref = max(max_ref, np.sqrt(volume_norm_sq(exact)))
    return {
        "steps": cfg.n_steps,
        "dt": cfg.dt,
        "max_l2_error": float(max_err),
        "max_rel_error": float(max_err / max_ref) if max_ref > 0 else 0.0,
    }
