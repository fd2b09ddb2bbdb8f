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

from .grid import Field, GridSpec, k_dot, parseval_sum, to_physical, wavevectors


class ForcingError(ValueError):
    """Invalid or degenerate forcing specification."""


@dataclass(frozen=True)
class ForcingSpec:
    """Low-mode force: list of (integer wavevector m, complex amplitude per component).

    Every mode must satisfy m . a = 0 (divergence-free), m != 0 (zero mean),
    max|m_j| <= n_low so energy enters only at large scales, and max|m_j| <=
    grid.cutoff so the 2/3 rule keeps it.
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
            if max(abs(mj) for mj in m) > self.grid.cutoff:
                raise ForcingError(f"mode {m} of forcing.modes exceeds the 2/3-rule cutoff {self.grid.cutoff}")
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
    """Build the force field's compact coefficients from its mode list."""
    if not spec.modes:
        raise ForcingError("zero force: the mode list is empty")
    grid = spec.grid
    coeffs = np.zeros((grid.dim,) + grid.compact_shape, dtype=complex)
    for m, a in spec.modes:
        _place_mode(coeffs, m, a, 2 * grid.cutoff + 1)
    # reality is structural in the compact layout
    return Field(grid, coeffs)


def _place_mode(coeffs, m, a, size):
    # The compact layout stores only m_last >= 0, at index m_j mod size on
    # the full axes; entries on the m_last = 0 plane need their conjugate
    # partner placed explicitly.
    if m[-1] < 0:
        m = tuple(-mj for mj in m)
        a = tuple(np.conj(aj) for aj in a)
    idx = tuple(mj % size for mj in m)
    for c, ac in enumerate(a):
        coeffs[(c,) + idx] += ac
    if m[-1] == 0:
        conj_idx = tuple((-mj) % size for mj in m)
        for c, ac in enumerate(a):
            coeffs[(c,) + conj_idx] += np.conj(ac)


def compute_F(f: Field) -> float:
    """Force amplitude scale: the volume-normalized rms of f."""
    fsq = parseval_sum(f.grid, f.spec)
    if fsq <= 0.0:
        raise ForcingError("degenerate forcing: F = 0")
    return float(np.sqrt(fsq))


def _sup_norm(p: np.ndarray) -> float:
    """Largest pointwise Euclidean norm over samples `p`, components on the first axis."""
    return float(np.sqrt(np.max(np.sum(p * p, axis=0))))


def force_stats(f: Field) -> ForceStats:
    """F, L and kappa of a force, from one gradient and one transform of it stacked with the force."""
    grid = f.grid
    F = compute_F(f)
    # d(f_i)/dx_j at component i * dim + j
    g = (1j * np.stack(wavevectors(grid)) * f.spec[:, np.newaxis]).reshape((-1,) + grid.compact_shape)
    p = to_physical(grid, np.concatenate([g, f.spec]))
    sup = _sup_norm(p[:len(g)])
    l2 = float(np.sqrt(parseval_sum(grid, g)))
    candidates = {
        "box_length": grid.box_length,
        "sup_gradient": F / sup if sup > 0 else np.inf,
        "rms_gradient": F / l2 if l2 > 0 else np.inf,
    }
    branch = min(candidates, key=candidates.get)
    return ForceStats(
        F=F,
        L=candidates[branch],
        L_branch=branch,
        kappa=_sup_norm(p[len(g):]) / F,
        grad_f_sup=sup,
        grad_f_l2=l2,
    )


def check_divergence_free(f: Field, tol: float = 1e-12) -> float:
    """Relative divergence norm of a realized force; raises beyond `tol`."""
    div = 1j * k_dot(wavevectors(f.grid), f.spec)[np.newaxis]
    rel = float(np.sqrt(parseval_sum(f.grid, div))) / compute_F(f)  # compute_F refuses F = 0
    if rel > tol:
        raise ForcingError(f"force divergence {rel:.3e} exceeds tolerance {tol:.1e}")
    return rel
