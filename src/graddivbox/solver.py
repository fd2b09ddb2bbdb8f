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
roundoff even when div u != 0. One evaluation transforms [u, omega, div u]
to samples and [omega x u + (1/2)(div u) u, |u|^2 / 2] back with the grid's
transform pair, which skips the lines of the 2/3 rule's zero padding.

Time stepping is the L-stable two-stage second-order IMEX Runge-Kutta
scheme ARS(2,2,2): advection explicit, nu*lap + gamma*grad div implicit.
The implicit per-mode operator (I + c dt (nu |k|^2 I + gamma k k^T)) is
inverted in closed form by splitting each mode into its k-parallel and
k-perpendicular parts. The scheme is single-step and works on the spectral
coefficients alone, so a (u_hat, t) checkpoint restarts a run bitwise, and
the blow-up check reads the new spectral state without transforming it.

Run state: the state, the force and every stage are compact arrays, the
coefficients of the modes the 2/3 rule keeps (the layout of `grid`), as
every `Field` is. `nonlinear_term` and `_apply_linear` also take a batch
of states, (dim,) + batch + compact_shape, bitwise per state: the MMS study
builds its target's states and forces MMS_BLOCK steps at a time. One
`SpectralOperator`, built from (grid, params, dt), holds the step's frozen
constants. The kernels only read it and allocate their own arrays, so it
is immutable, and threads may step with one operator at once.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    Field,
    GridSpec,
    k_dot,
    k_parallel_coef,
    parseval_sum,
    parseval_weights,
    safe_wavenumber_sq,
    to_compact,
    to_physical,
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
    """Physical coefficients: finite viscosity nu > 0 and grad-div coefficient gamma >= 0."""

    nu: float
    gamma: float = 0.0

    def __post_init__(self):
        if not 0 < self.nu < np.inf:
            raise ValueError(f"nu must be positive and finite, got {self.nu}")
        if not 0 <= self.gamma < np.inf:
            raise ValueError(f"gamma must be nonnegative and finite, got {self.gamma}")


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


class SpectralOperator:
    """The frozen per-run constants of the step on the compact layout.

    The ARS divisors are arrays, not reciprocals: x / d and x * (1 / d) differ in the last bit.
    Constants that meet complex coefficients are complex: numpy casts a float operand exactly
    on every mixed operation, so the bits are the same and the cast is paid once.
    """

    def __init__(self, grid: GridSpec, params: FlowParams, dt: float):
        self.grid, self.params, self.dt = grid, params, dt
        self.k = tuple(kj.astype(complex) for kj in wavevectors(grid))
        ksq = wavenumber_sq(grid)
        self.safe_ksq = safe_wavenumber_sq(ksq).astype(complex)
        self.weights = parseval_weights(grid)
        self.weighted_ksq = self.weights * ksq
        self.neg_nu_ksq = (-params.nu * ksq).astype(complex)
        c_ars = _ARS_GAMMA * dt
        self.denom_perp = (1.0 + c_ars * params.nu * ksq).astype(complex)
        self.denom_par = (1.0 + c_ars * (params.nu + params.gamma) * ksq).astype(complex)
        _retain_freed_heap()


def nonlinear_term(u: np.ndarray, op: SpectralOperator) -> np.ndarray:
    """Compact spectral coefficients of N(u) = div(u x u) - (1/2)(div u) u.

    Assembled as omega x u + grad(|u|^2 / 2) + (1/2)(div u) u; in 2d omega is the scalar
    d_x u_y - d_y u_x. The compact ends of the transform pair dealias before and after the
    products. The k = 0 mode is exactly 0. `u` is (dim,) + batch + compact_shape.
    """
    grid, k = op.grid, op.k
    dim = grid.dim
    pairs = [(0, 1)] if dim == 2 else [((i + 1) % 3, (i + 2) % 3) for i in range(3)]
    # spectral [u, omega, div u] on the kept modes
    s = np.empty((dim + len(pairs) + 1,) + u.shape[1:], dtype=complex)
    s[:dim] = u
    for i, (a, b) in enumerate(pairs):
        w_hat = np.multiply(k[a], u[b], out=s[dim + i])
        w_hat -= k[b] * u[a]
        w_hat *= 1j
    np.multiply(1j, k_dot(k, u), out=s[-1])
    phys = to_physical(grid, s)
    up, w, div = phys[:dim], phys[dim:-1], phys[-1]
    # physical [omega x u + (1/2)(div u) u, |u|^2 / 2]; |u|^2 first, while rhs[:dim] is free
    rhs = np.empty((dim + 1,) + div.shape)
    np.multiply(0.5, np.sum(np.multiply(up, up, out=rhs[:dim]), axis=0), out=rhs[dim])
    if dim == 2:
        np.multiply(-w[0], up[1], out=rhs[0])
        np.multiply(w[0], up[0], out=rhs[1])
    else:
        for i, (a, b) in enumerate(pairs):
            np.multiply(w[a], up[b], out=rhs[i])
            rhs[i] -= w[b] * up[a]
    rhs[:dim] += np.multiply(0.5 * div, up, out=up)  # up is not read again
    del phys, up, w, div  # the samples are free before the forward transform allocates
    p_hat = to_compact(grid, rhs)
    out = p_hat[:dim]
    for j in range(dim):
        out[j] += 1j * k[j] * p_hat[dim]
    out[(Ellipsis,) + (0,) * dim] = 0.0
    return out


def _solve_shifted(b_hat: np.ndarray, op: SpectralOperator) -> np.ndarray:
    """Closed-form solve of (I + c (nu |k|^2 I + gamma k k^T)) x = b per mode, c = ARS gamma * dt."""
    k = op.k
    coef = k_parallel_coef(k, op.safe_ksq, b_hat)
    out = np.empty_like(b_hat)
    for j in range(len(k)):
        b_par = k[j] * coef
        np.divide(np.subtract(b_hat[j], b_par, out=out[j]), op.denom_perp, out=out[j])
        out[j] += np.divide(b_par, op.denom_par, out=b_par)
    return out


def _apply_linear(v_hat: np.ndarray, op: SpectralOperator) -> np.ndarray:
    """Apply nu lap + gamma grad div to compact spectral coefficients, (dim,) + batch + compact_shape."""
    k = op.k
    kdotv = k_dot(k, v_hat)
    out = np.empty_like(v_hat)
    for j in range(len(k)):
        out[j] = op.neg_nu_ksq * v_hat[j] - op.params.gamma * k[j] * kdotv
    return out


def imex_step(u_hat: np.ndarray, t: float, op: SpectralOperator, f0, f1) -> np.ndarray:
    """One ARS(2,2,2) step of size op.dt from time t on compact spectral coefficients.

    `f0` is the compact force at t and `f1` the force at the second stage, t + ARS gamma * dt;
    a constant force passes the same array twice. Raises BlowUpError, at t + dt, if the new
    coefficients are not finite.
    """
    g, d, dt = _ARS_GAMMA, _ARS_DELTA, op.dt
    e0 = f0 - nonlinear_term(u_hat, op)
    u1 = _solve_shifted(u_hat + dt * g * e0, op)
    e1 = f1 - nonlinear_term(u1, op)
    lu1 = _apply_linear(u1, op)
    b = u_hat + dt * (d * e0 + (1.0 - d) * e1 + (1.0 - g) * lu1)
    u_next = _solve_shifted(b, op)
    if not np.all(np.isfinite(u_next)):
        raise BlowUpError(t + dt)
    return u_next


class ManufacturedSolution:
    """Separable target u*(x, t) = a(t) w(x) with analytic a(t).

    Spatial derivatives are taken spectrally from the exact samples of w
    (w is band-limited), so running the stepper against the induced force
    isolates the temporal discretization error. The samples of w are kept
    and each state is built as a(t) w and transformed, rather than scaled
    as a(t) w_hat: the two differ in the last bits, and the MMS errors
    (about 1e-8) are checked to 1e-9 relative, about 100 ulps of the state.
    `states` builds the states of many times in one transform, each with
    the bits of its own; `state` is its one-time case.
    """

    def __init__(self, grid: GridSpec, shape_phys: np.ndarray, amp, amp_dot):
        self.grid = grid
        self.shape_phys = np.asarray(shape_phys, dtype=float)
        self.shape_hat = to_compact(grid, self.shape_phys)
        self.amp = amp
        self.amp_dot = amp_dot

    def states(self, times) -> np.ndarray:
        """The compact coefficients of a(t) w at each of `times`: (dim, len(times)) + compact_shape."""
        a = np.reshape([self.amp(t) for t in times], (-1,) + (1,) * self.grid.dim)
        return to_compact(self.grid, a * self.shape_phys[:, None])

    def state(self, t: float) -> Field:
        """The compact coefficients of a(t) w."""
        return Field(self.grid, self.states([t])[:, 0])


def divergent_mms_target(grid: GridSpec, omega: float = 1.3, amplitude: float = 0.5):
    """Default manufactured solution with nonzero divergence.

    w = (sin x' cos y', cos x' sin y' [, 0]) with x' = 2 pi x / L, so
    div w = 2 (2 pi / L) cos x' cos y' != 0; a(t) = amplitude * cos(omega t).
    """
    n, L = grid.n, grid.box_length
    X, Y = np.meshgrid(*[np.arange(n) * (L / n)] * grid.dim, indexing="ij")[:2]
    scale = 2.0 * np.pi / L
    w = np.stack([np.sin(scale * X) * np.cos(scale * Y), np.cos(scale * X) * np.sin(scale * Y)]
                 + [np.zeros(grid.shape)] * (grid.dim - 2))
    return ManufacturedSolution(
        grid, w,
        amp=lambda t: amplitude * np.cos(omega * t),
        amp_dot=lambda t: -amplitude * omega * np.sin(omega * t),
    )


# steps whose target states and forces are built together; 8 was slower at 2d n=32
MMS_BLOCK = 4


def mms_block(target: ManufacturedSolution, op: SpectralOperator, times) -> tuple:
    """(states, forces) of `target` at each of `times`, both (dim, len(times)) + compact_shape.

    The force f = u*_t + N(u*) - nu lap u* - gamma grad div u* makes the target an exact
    solution of the discrete model; it is in general not divergence-free, a restriction
    waived for verification runs. One forward transform builds the states and one
    `nonlinear_term` call the forces, each slice bitwise as a one-time build (f is summed
    in place onto N(u*): addition commutes).
    """
    u = target.states(times)
    adot = np.reshape([target.amp_dot(t) for t in times], (-1,) + (1,) * op.grid.dim)
    f = nonlinear_term(u, op)
    f += adot * target.shape_hat[:, None]
    f -= _apply_linear(u, op)
    return u, f


def run_mms(target: ManufacturedSolution, params: FlowParams, cfg: StepperConfig) -> dict:
    """Integrate against the manufactured force; report the worst-in-time error.

    The target's states and forces are built MMS_BLOCK steps at a time by
    `mms_block`, at each step's second-stage and end times: step b of a block
    takes forces 2b - 1 and 2b as `f0` and `f1`, and a block's first step the
    last force of the block before. The block's step-end errors and target
    norms are one `parseval_sum` each. Returns a dict with the max
    volume-normalized L2 error, the number of steps, and the error normalized
    by the target's peak norm, all over the kept modes.
    """
    grid, dt = target.grid, cfg.dt
    op = SpectralOperator(grid, params, dt)
    u, f = mms_block(target, op, [0.0])
    u_hat, carry = u[:, 0], f[:, 0]
    max_err, max_ref = 0.0, np.sqrt(parseval_sum(grid, u_hat))
    for start in range(0, cfg.n_steps, MMS_BLOCK):
        steps = range(start, min(start + MMS_BLOCK, cfg.n_steps))
        times = [t for i in steps for t in (i * dt + _ARS_GAMMA * dt, (i + 1) * dt)]
        exact, f = mms_block(target, op, times)
        ends = exact[:, 1::2]
        err = np.empty_like(ends)
        for b, i in enumerate(steps):
            u_hat = imex_step(u_hat, i * dt, op, carry if b == 0 else f[:, 2 * b - 1], f[:, 2 * b])
            err[:, b] = u_hat
        err -= ends
        max_err = max(max_err, np.sqrt(parseval_sum(grid, err).max()))
        max_ref = max(max_ref, np.sqrt(parseval_sum(grid, ends).max()))
        carry = f[:, -1].copy()
        del exact, f, ends, err  # the next block is built without this one's arrays
    return {
        "steps": cfg.n_steps,
        "dt": cfg.dt,
        "max_l2_error": float(max_err),
        "max_rel_error": float(max_err / max_ref) if max_ref > 0 else 0.0,
    }
