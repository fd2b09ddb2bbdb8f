"""Periodic uniform grids, vector fields, and exact spectral operators.

Fields live on a cubic (or square) periodic box and hold one view: their
spectral coefficients. The physical samples are an inverse transform
computed on each read. The spectral layout is the real-to-complex half
spectrum (numpy ``rfftn``), so conjugate symmetry is structural and the
inverse transform is real by construction. Norms and inner products are
Parseval sums over that half spectrum.

Normalization: spectral coefficients are true Fourier-series coefficients,
``u(x) = sum_k uhat_k exp(i k.x)``, i.e. forward transform divided by the
total number of samples. This is the single normalization of the whole
package, applied inside the transforms by ``norm="forward"`` in
`Field.from_physical` and `Field.phys`; Parseval then reads
``mean(|u|^2) = sum_k w_k |uhat_k|^2`` with ``w_k = 2`` for modes whose
conjugate partner is not stored and ``w_k = 1`` on the self-conjugate
planes.
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
    with |m_j| <= n/2. Anisotropic grids are rejected by construction
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
        if not self.box_length > 0:
            raise ValueError(f"box_length must be positive, got {self.box_length}")

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def spectral_shape(self) -> tuple:
        return (self.n,) * (self.dim - 1) + (self.n // 2 + 1,)

    @property
    def spacing(self) -> float:
        return self.box_length / self.n


@lru_cache(maxsize=None)
def mode_numbers(grid: GridSpec):
    """Integer mode index m_j along each axis, broadcast to the spectral shape."""
    n = grid.n
    full = np.fft.fftfreq(n, 1.0 / n)
    half = np.arange(n // 2 + 1, dtype=float)
    axes = [full] * (grid.dim - 1) + [half]
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
def dealias_mask(grid: GridSpec):
    """Boolean mask keeping modes with |m_j| <= DEALIAS_FRACTION * n/2 on every axis."""
    cutoff = DEALIAS_FRACTION * (grid.n / 2) + 1e-9
    mask = np.ones(grid.spectral_shape, dtype=bool)
    for m in mode_numbers(grid):
        mask &= np.abs(m) <= cutoff
    return mask


@lru_cache(maxsize=None)
def parseval_weights(grid: GridSpec):
    """Multiplicity of each stored mode in the full spectrum (1 or 2)."""
    w = np.full(grid.spectral_shape, 2.0)
    w[..., 0] = 1.0
    w[..., -1] = 1.0  # Nyquist plane of the real axis is self-conjugate
    return w


class Field:
    """A multi-component field on a GridSpec, held as its spectral coefficients.

    `spec` has shape (ncomp, n, ..., n//2+1). Velocity and force fields have
    ncomp == grid.dim; scalars (e.g. a divergence) have ncomp == 1. The
    physical samples, shape (ncomp, n, ..., n), are an inverse transform
    computed on every read of `phys`; nothing is cached. Fields are treated
    as immutable; operators return new instances.
    """

    __slots__ = ("grid", "spec")

    def __init__(self, grid: GridSpec, spec):
        spec = np.asarray(spec, dtype=complex)
        if spec.shape[1:] != grid.spectral_shape:
            raise ValueError(f"spectral shape {spec.shape} is not (ncomp,) + {grid.spectral_shape}")
        self.grid = grid
        self.spec = spec

    @classmethod
    def from_physical(cls, grid: GridSpec, arr) -> "Field":
        arr = np.asarray(arr, dtype=float)
        if arr.shape[1:] != grid.shape:
            raise ValueError(f"physical shape {arr.shape} is not (ncomp,) + {grid.shape}")
        axes = tuple(range(1, grid.dim + 1))
        return cls(grid, np.fft.rfftn(arr, axes=axes, norm="forward"))

    @classmethod
    def from_spectral(cls, grid: GridSpec, arr) -> "Field":
        return cls(grid, arr)

    @classmethod
    def zeros(cls, grid: GridSpec) -> "Field":
        return cls(grid, np.zeros((grid.dim,) + grid.spectral_shape, dtype=complex))

    @property
    def ncomp(self) -> int:
        return self.spec.shape[0]

    @property
    def phys(self):
        axes = tuple(range(1, self.grid.dim + 1))
        return np.fft.irfftn(self.spec, s=self.grid.shape, axes=axes, norm="forward")


def k_dot(grid: GridSpec, s):
    """Per-mode k . s of spectral vector coefficients (components on the first axis)."""
    k = wavevectors(grid)
    out = 0 + k[0] * s[0]  # starting at +0 makes an all-zero sum +0, never -0
    for j in range(1, grid.dim):
        out += k[j] * s[j]
    return out


def divergence(u: Field) -> Field:
    """Spectral divergence of a vector field; returns a one-component Field."""
    d = 1j * k_dot(u.grid, u.spec)
    return Field.from_spectral(u.grid, d[np.newaxis])


def gradient(field: Field) -> Field:
    """Full gradient tensor; component order is (i, j) -> i * dim + j for d(field_i)/dx_j."""
    grid = field.grid
    k = wavevectors(grid)
    s = field.spec
    out = np.empty((field.ncomp * grid.dim,) + grid.spectral_shape, dtype=complex)
    for i in range(field.ncomp):
        for j in range(grid.dim):
            out[i * grid.dim + j] = 1j * k[j] * s[i]
    return Field.from_spectral(grid, out)


def dealias(field: Field) -> Field:
    """Zero all modes above the grid's dealias cutoff (idempotent)."""
    return Field.from_spectral(field.grid, field.spec * dealias_mask(field.grid))


def volume_norm_sq(field: Field) -> float:
    """(1/|box|) integral of |field|^2, by Parseval over the stored half-spectrum."""
    w = parseval_weights(field.grid)
    s = field.spec
    return float(np.sum(w * np.sum(s.real ** 2 + s.imag ** 2, axis=0)))


def inner_product(u: Field, v: Field) -> float:
    """Volume-normalized L2 inner product (1/|box|) integral of u . v, by Parseval."""
    w = parseval_weights(u.grid)
    su, sv = u.spec, v.spec
    return float(np.sum(w * np.sum((np.conj(su) * sv).real, axis=0)))


@lru_cache(maxsize=None)
def _safe_wavenumber_sq(grid: GridSpec):
    """|k|^2 with 1 in place of the 0 at k = 0, a divisor for every mode."""
    ksq = wavenumber_sq(grid)
    return np.where(ksq > 0, ksq, 1.0)


def k_parallel_coef(grid: GridSpec, s):
    """Per-mode k . s / |k|^2, and 0 at k = 0: the k-parallel part of s is k_j times it."""
    coef = k_dot(grid, s)
    coef /= _safe_wavenumber_sq(grid)
    coef[(0,) * grid.dim] = 0.0  # k = 0 is the one mode with |k|^2 = 0
    return coef


def project_divergence_free(u: Field) -> Field:
    """Remove the k-parallel part of every mode (Leray projection)."""
    grid = u.grid
    k = wavevectors(grid)
    s = u.spec.copy()
    coef = k_parallel_coef(grid, s)
    for j in range(grid.dim):
        s[j] -= k[j] * coef
    return Field.from_spectral(grid, s)


def zero_mean(u: Field) -> Field:
    s = u.spec.copy()
    s[(slice(None),) + (0,) * u.grid.dim] = 0.0
    return Field.from_spectral(u.grid, s)
