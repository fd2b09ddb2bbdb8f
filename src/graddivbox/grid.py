"""Periodic uniform grids, the compact spectral layout and its exact operators.

A field is held by its spectral coefficients on the modes the 2/3 rule
keeps (Orszag 1971), |m_j| <= `GridSpec.cutoff` = c: the compact layout,
shape `GridSpec.compact_shape` = (2c+1,)*(dim-1) + (c+1,). Its full axes
hold m = 0..c, -c..-1 and its last axis m = 0..c, so it is the kept part of
the real-to-complex half spectrum (numpy's n-d real transform) and
conjugate symmetry is structural. The force, the initial and restart
states, the MMS targets, every stage of a run and the checkpoint payload
live on it as bare arrays. `to_compact` and `to_physical` are the one
transform pair between it and the samples, `parseval_sum` the one volume
mean. A `Field` pairs an array with its grid only where `bench/workloads.py`
holds one: the realized force, checkpoint I/O and `ManufacturedSolution.state`.

Normalization: spectral coefficients are true Fourier-series coefficients,
``u(x) = sum_k uhat_k exp(i k.x)``, i.e. forward transform divided by the
total number of samples (``norm="forward"``). Parseval then reads
``mean(|u|^2) = sum_k w_k |uhat_k|^2`` with ``w_k = 2`` for modes whose
conjugate partner is not stored and ``w_k = 1`` on the m_last = 0 plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi

# 2/3 rule (Orszag 1971): products of the kept modes alias only onto removed
# modes, which keeps the nonlinear term skew-symmetric; a larger cutoff does not.
DEALIAS_FRACTION = 2.0 / 3.0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic box: `dim` axes, `n` samples per axis, side `box_length`.

    Wavevectors are k = (2*pi/box_length) * m for integer multi-indices m
    with |m_j| <= cutoff. Anisotropic grids are rejected by construction
    (single `n` for all axes).
    """

    dim: int
    n: int
    box_length: float

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        n = self.n
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 4, got {n}")
        if not 0 < self.box_length < np.inf:
            raise ValueError(f"box_length must be positive and finite, got {self.box_length}")

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def compact_shape(self) -> tuple:
        """Shape of the kept modes of one component."""
        c = self.cutoff
        return (2 * c + 1,) * (self.dim - 1) + (c + 1,)

    @property
    def spacing(self) -> float:
        return self.box_length / self.n

    @property
    def cutoff(self) -> int:
        """Largest |m_j| the 2/3 rule keeps (n is a power of two, so never a multiple of 3)."""
        return int(DEALIAS_FRACTION * (self.n // 2))


@lru_cache(maxsize=None)
def halves(grid: GridSpec) -> tuple:
    """(half-spectrum slice, compact slice) of m = 0..c and of m = -c..-1 on a full axis."""
    c, n = grid.cutoff, grid.n
    return (slice(0, c + 1), slice(0, c + 1)), (slice(n - c, n), slice(c + 1, 2 * c + 1))


def to_compact(grid: GridSpec, phys: np.ndarray) -> np.ndarray:
    """The kept coefficients of samples on the last `dim` axes, bitwise as the n-d real transform's.

    Leading axes (components, a batch) pass through. Each full axis drops its removed lines right
    after its pass, so later passes skip them.
    """
    x = np.fft.rfft(phys, axis=-1, norm="forward")[..., :grid.cutoff + 1]
    for j in range(-2, -grid.dim - 1, -1):
        x = np.fft.fft(x, axis=j, norm="forward")
        x = np.concatenate([x[(Ellipsis, f) + (slice(None),) * (-1 - j)] for f, _ in halves(grid)], axis=j)
    return x


def to_physical(grid: GridSpec, spec: np.ndarray) -> np.ndarray:
    """The samples of compact coefficients on the last `dim` axes, bitwise as the n-d inverse of them zero-padded.

    Leading axes pass through. Each full axis is padded to n with +0 between its m >= 0 and m < 0
    halves right before its pass, so no pass transforms a line that is all padding; irfft pads the
    last axis itself. No view of an earlier pass's result outlives the padding, so each pass frees
    the one before it.
    """
    x = spec
    (_, lo), (_, hi) = halves(grid)
    for j in range(-grid.dim, -1):
        post = (slice(None),) * (-1 - j)
        pad = x.shape[:j] + (grid.n - 2 * grid.cutoff - 1,) + x.shape[j + 1:]
        x = np.concatenate([x[(Ellipsis, lo) + post], np.zeros(pad, dtype=x.dtype), x[(Ellipsis, hi) + post]],
                           axis=j)
        x = np.fft.ifft(x, axis=j, norm="forward")
    return np.fft.irfft(x, grid.n, axis=-1, norm="forward")


@lru_cache(maxsize=None)
def mode_numbers(grid: GridSpec):
    """Integer mode index m_j along each axis, broadcast to the compact shape."""
    c = grid.cutoff
    full = np.concatenate([np.arange(c + 1), np.arange(-c, 0)]).astype(float)
    axes = [full] * (grid.dim - 1) + [np.arange(c + 1, dtype=float)]
    return tuple(np.meshgrid(*axes, indexing="ij"))


@lru_cache(maxsize=None)
def wavevectors(grid: GridSpec):
    """Physical wavevector components k_j = (2*pi/box_length) m_j."""
    scale = TWO_PI / grid.box_length
    return tuple(scale * m for m in mode_numbers(grid))


@lru_cache(maxsize=None)
def wavenumber_sq(grid: GridSpec):
    k = wavevectors(grid)
    return sum(kj * kj for kj in k)


@lru_cache(maxsize=None)
def parseval_weights(grid: GridSpec):
    """Multiplicity of each kept mode in the full spectrum: 1 on the m_last = 0 plane, else 2."""
    w = np.full(grid.compact_shape, 2.0)
    w[..., 0] = 1.0
    return w


@dataclass(frozen=True, eq=False)
class Field:
    """A multi-component field on a GridSpec: its compact coefficients `spec`, shape (ncomp,) + compact_shape."""

    grid: GridSpec
    spec: np.ndarray

    def __post_init__(self):
        if self.spec.shape[1:] != self.grid.compact_shape:
            raise ValueError(f"spectral shape {self.spec.shape} is not (ncomp,) + {self.grid.compact_shape}")


def k_dot(k, s):
    """Per-mode k . s of spectral vector coefficients (components on the first axis) and wavevectors k."""
    out = 0 + k[0] * s[0]  # starting at +0 makes an all-zero sum +0, never -0
    for j in range(1, len(k)):
        out += k[j] * s[j]
    return out


def parseval_sum(grid: GridSpec, spec: np.ndarray) -> np.ndarray:
    """(1/|box|) integral of |u|^2 over the kept modes of each state of (ncomp,) + batch + compact_shape.

    Each state's sum is bitwise the sum of that state alone.
    """
    w = parseval_weights(grid) * np.sum(spec.real ** 2 + spec.imag ** 2, axis=0)
    return np.sum(w, axis=tuple(range(-grid.dim, 0)))


def safe_wavenumber_sq(ksq):
    """|k|^2 with 1 in place of the 0 at k = 0, a divisor for every mode."""
    return np.where(ksq > 0, ksq, 1.0)


def k_parallel_coef(k, safe_ksq, s):
    """Per-mode k . s / |k|^2, 0 at k = 0 (index 0 of every axis); the k-parallel part is k_j times it."""
    coef = k_dot(k, s)
    coef /= safe_ksq
    coef[(0,) * len(k)] = 0.0  # k = 0 is the one mode with |k|^2 = 0
    return coef


def project_divergence_free(grid: GridSpec, spec: np.ndarray) -> np.ndarray:
    """`spec` without the k-parallel part of any mode (Leray projection)."""
    k = wavevectors(grid)
    s = spec.copy()
    coef = k_parallel_coef(k, safe_wavenumber_sq(wavenumber_sq(grid)), s)
    for j in range(grid.dim):
        s[j] -= k[j] * coef
    return s
