"""Divergence-free low-mode body forces and their derived scalars.

A force is specified mode by mode: each entry ``(m, a)`` contributes
``a exp(i k.x) + conj(a) exp(-i k.x)`` with ``k = (2*pi/box_length) m``,
so a single entry ``m=(0,1,0), a=(F0,0,0)`` yields ``2 F0 cos(2*pi*y/L) e_x``.
The conjugate partner is added automatically; listing both ``m`` and ``-m``
is rejected as ambiguous.

From the realized force we compute the amplitude scale F (rms), the force
length scale L (a three-way minimum involving gradient norms and the box
size), and the signal-to-noise ratio kappa = sup|f| / rms|f| >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import (
    Field,
    GridSpec,
    divergence,
    gradient,
    volume_norm_sq,
)


class ForcingError(ValueError):
    """Invalid or degenerate forcing specification."""


@dataclass(frozen=True)
class ForcingSpec:
    """Low-mode force: list of (integer wavevector m, complex amplitude per component).

    Every mode must satisfy m . a = 0 (divergence-free), m != 0 (zero mean),
    and max|m_j| <= n_low so energy enters only at large scales.
    """

    grid: GridSpec
    modes: tuple = dc_field(default=())
    n_low: int = 2

    def __post_init__(self):
        dim = self.grid.dim
        norm_modes = []
        seen = set()
        for m, a in self.modes:
            m = tuple(int(mj) for mj in m)
            a = tuple(complex(aj) for aj in a)
            if len(m) != dim or len(a) != dim:
                raise ForcingError(f"mode {m} / amplitude {a} must have {dim} components")
            if all(mj == 0 for mj in m):
                raise ForcingError("m = 0 mode violates the zero-mean requirement")
            if max(abs(mj) for mj in m) > self.n_low:
                raise ForcingError(f"mode {m} exceeds the large-scale cutoff n_low = {self.n_low}")
            kdota = sum(mj * aj for mj, aj in zip(m, a))
            scale = max(abs(mj) for mj in m) * max(abs(aj) for aj in a)
            if scale > 0 and abs(kdota) > 1e-14 * scale:
                raise ForcingError(f"mode {m}: k . a = {kdota} is not zero (force must be divergence-free)")
            # the {m, -m} pair is keyed by its member whose first nonzero entry is positive
            key = m if next(mj for mj in m if mj) > 0 else tuple(-mj for mj in m)
            if key in seen:
                raise ForcingError(f"duplicate or conjugate-duplicate mode {m}")
            seen.add(key)
            norm_modes.append((m, a))
        object.__setattr__(self, "modes", tuple(norm_modes))


@dataclass(frozen=True)
class ForceStats:
    """Derived scalars of a body force: amplitude F, length scale L, ratio kappa.

    L is the least of the box size, F / sup|grad f| and F / rms|grad f|;
    L_branch names the attaining candidate ('box_length', 'sup_gradient' or
    'rms_gradient'). kappa = sup|f| / F is >= 1 by definition.
    """

    F: float
    L: float
    L_branch: str
    kappa: float
    grad_f_sup: float
    grad_f_l2: float


def realize_force(spec: ForcingSpec) -> Field:
    """Build the force field's spectral coefficients from its mode list."""
    if not spec.modes:
        raise ForcingError("zero force: the mode list is empty")
    grid = spec.grid
    n = grid.n
    coeffs = np.zeros((grid.dim,) + grid.spectral_shape, dtype=complex)
    for m, a in spec.modes:
        _place_mode(coeffs, m, a, n)
    # reality is structural in the half-spectrum layout
    return Field.from_spectral(grid, coeffs)


def _place_mode(coeffs, m, a, n):
    # The rfft layout stores only m_last >= 0; entries on the m_last = 0
    # plane need their conjugate partner placed explicitly.
    if m[-1] < 0:
        m = tuple(-mj for mj in m)
        a = tuple(np.conj(aj) for aj in a)
    idx = tuple(mj % n for mj in m)
    for c, ac in enumerate(a):
        coeffs[(c,) + idx] += ac
    if m[-1] == 0:
        conj_idx = tuple((-mj) % n for mj in m)
        for c, ac in enumerate(a):
            coeffs[(c,) + conj_idx] += np.conj(ac)


def compute_F(f: Field) -> float:
    """Force amplitude scale: the volume-normalized rms of f."""
    fsq = volume_norm_sq(f)
    if fsq <= 0.0:
        raise ForcingError("degenerate forcing: F = 0")
    return float(np.sqrt(fsq))


def force_stats(f: Field) -> ForceStats:
    """F, L and kappa of a force, from one gradient and one sup over the samples."""
    F = compute_F(f)
    g = gradient(f)
    gp = g.phys
    fp = f.phys
    sup = float(np.sqrt(np.max(np.sum(gp * gp, axis=0))))
    l2 = float(np.sqrt(volume_norm_sq(g)))
    candidates = {
        "box_length": f.grid.box_length,
        "sup_gradient": F / sup if sup > 0 else np.inf,
        "rms_gradient": F / l2 if l2 > 0 else np.inf,
    }
    branch = min(candidates, key=candidates.get)
    return ForceStats(
        F=F,
        L=candidates[branch],
        L_branch=branch,
        kappa=float(np.sqrt(np.max(np.sum(fp * fp, axis=0)))) / F,
        grad_f_sup=sup,
        grad_f_l2=l2,
    )


def check_divergence_free(f: Field, tol: float = 1e-12) -> float:
    """Relative divergence norm of a realized force; raises beyond `tol`."""
    div = float(np.sqrt(volume_norm_sq(divergence(f))))
    rel = div / max(compute_F(f), 1e-300)
    if rel > tol:
        raise ForcingError(f"force divergence {rel:.3e} exceeds tolerance {tol:.1e}")
    return rel
