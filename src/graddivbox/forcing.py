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

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import TWO_PI, Field, GridSpec, k_dot, mode_numbers, parseval_sum, to_physical, wavevectors

# largest ||div f|| / ((2 pi / box_length) F) a realized force may have; the measure is free of the box size
DIVERGENCE_TOL = 1e-12
EPS = np.finfo(float).eps


class ForcingError(ValueError):
    """Invalid or degenerate forcing specification."""


@dataclass(frozen=True)
class ForcingSpec:
    """Low-mode force: list of (integer wavevector m, complex amplitude per component).

    Every mode must satisfy |m . a| <= DIVERGENCE_TOL |a| with a margin for rounding (divergence-free: then the
    realized ||div f|| / ((2 pi / box_length) F) = (sum |m . a|^2 / sum |a|^2)^(1/2) is too), m != 0 (zero mean),
    max|m_j| <= n_low so energy enters only at large scales, and max|m_j| <=
    grid.cutoff so the 2/3 rule keeps it. A nonempty list needs a nonzero amplitude,
    and every |a|^2 and their sum must be finite, the sum a normal float. So must
    the triangle-inequality bounds (2 sum |a|)^2 on sup|f|^2 and (2 sum |k| |a|)^2
    on sup|grad f|^2, the squares `force_stats` takes; the first also bounds
    F^2 = 2 sum |a|^2 <= (2 sum |a|)^2 / 2.
    """

    grid: GridSpec
    modes: tuple = dc_field(default=())
    n_low: int = 2

    def __post_init__(self):
        dim = self.grid.dim
        norm_modes = []
        seen = set()
        a_sq_sum = a_sum = ka_sum = 0.0
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
            a_sq = sum(aj.real * aj.real + aj.imag * aj.imag for aj in a)  # no abs: it raises past the largest float
            if not a_sq < np.inf:
                raise ForcingError(f"mode {m} of forcing.modes: |a|^2 = {a_sq} is not finite")
            a_sq_sum += a_sq
            a_norm = math.hypot(*(x for aj in a for x in (aj.real, aj.imag)))  # |a|, where a_sq may underflow
            a_sum += a_norm
            ka_sum += TWO_PI / self.grid.box_length * math.hypot(*m) * a_norm  # |k| |a|
            mdota = sum(mj * aj for mj, aj in zip(m, a))
            rounding = 4 * dim * EPS * sum(abs(mj) * abs(aj) for mj, aj in zip(m, a))  # bounds m . a's and k . a's
            if not abs(mdota) + rounding <= DIVERGENCE_TOL * a_norm:
                raise ForcingError(f"mode {m} of forcing.modes: |m . a| = {abs(mdota):.3e} plus its rounding exceeds "
                                   f"{DIVERGENCE_TOL:.1e} |a| (force must be divergence-free)")
            # the {m, -m} pair is keyed by its member whose first nonzero entry is positive
            key = m if next(mj for mj in m if mj) > 0 else tuple(-mj for mj in m)
            if key in seen:
                raise ForcingError(f"duplicate or conjugate-duplicate mode {m}")
            seen.add(key)
            norm_modes.append((m, a))
        if norm_modes and not any(aj for _, a in norm_modes for aj in a):
            raise ForcingError("zero force: every amplitude of forcing.modes is 0")
        if norm_modes and not np.finfo(float).tiny <= a_sq_sum < np.inf:  # F^2 = 2 a_sq_sum
            raise ForcingError(f"forcing.modes: sum of |a|^2 = {a_sq_sum} is not a positive, finite, normal float")
        for name, square in (("sup|f|^2 <= (2 sum |a|)^2", 4.0 * a_sum * a_sum),
                             ("sup|grad f|^2 <= (2 sum |k| |a|)^2", 4.0 * ka_sum * ka_sum)):
            if not square < np.inf:
                raise ForcingError(f"forcing.modes: {name} = {square} is not finite")
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
    """Build the force field's compact coefficients from its mode list; an empty list gives f = 0.

    Each mode (m, a) adds a to the slot whose `mode_numbers` equal m and conj(a) to the one whose equal -m;
    the layout stores at most one of the two, both only on the m_last = 0 plane, and no slot is added twice.
    """
    grid = spec.grid
    coeffs = np.zeros((grid.dim,) + grid.compact_shape, dtype=complex)
    slot_modes = mode_numbers(grid)
    for m, a in spec.modes:
        a = np.array(a)
        for sign, amp in ((1, a), (-1, a.conj())):
            at = np.logical_and.reduce([mj_slot == sign * mj for mj_slot, mj in zip(slot_modes, m)])
            coeffs[:, at] += amp[:, np.newaxis]
    return Field(grid, coeffs)


def compute_F(grid: GridSpec, f: np.ndarray) -> float:
    """Force amplitude scale: the volume-normalized rms of the force with compact coefficients f."""
    fsq = parseval_sum(grid, f)
    if fsq <= 0.0:
        raise ForcingError("degenerate forcing: F = 0")
    return float(np.sqrt(fsq))


def force_stats(f: Field) -> ForceStats:
    """F, L and kappa of a force, from transforms of `dim` components: each row d(f_i)/dx_j of its gradient, and f."""
    grid = f.grid
    F = compute_F(grid, f.spec)
    g = 1j * np.stack(wavevectors(grid)) * f.spec[:, np.newaxis]  # d(f_i)/dx_j at [i, j]
    sq = 0.0  # |grad f|^2's samples, added in the component order of kappa's np.sum and so to the bits of one sum
    for gi in g:
        for pj in to_physical(grid, gi):
            sq += pj * pj
    sup = float(np.sqrt(np.max(sq)))
    l2 = float(np.sqrt(parseval_sum(grid, g.reshape((-1,) + grid.compact_shape))))
    p = to_physical(grid, f.spec)
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
        kappa=float(np.sqrt(np.max(np.sum(p * p, axis=0)))) / F,
        grad_f_sup=sup,
        grad_f_l2=l2,
    )


def check_divergence_free(f: Field) -> float:
    """||div f|| / ((2 pi / box_length) F) of a realized force, bounded by `ForcingSpec`; raises past DIVERGENCE_TOL.
    Its one caller is the benchmark's set-up; it goes when that set-up moves to bare arrays (ROADMAP item 9)."""
    div = 1j * k_dot(wavevectors(f.grid), f.spec)[np.newaxis]
    rel = float(np.sqrt(parseval_sum(f.grid, div))) / (TWO_PI / f.grid.box_length * compute_F(f.grid, f.spec))  # F > 0
    if not rel <= DIVERGENCE_TOL:  # nan too
        raise ForcingError(f"force divergence {rel:.3e} exceeds tolerance {DIVERGENCE_TOL:.1e}")
    return rel
