import re

import numpy as np
import pytest

from graddivbox.grid import (
    Field,
    GridSpec,
    parseval_sum,
    project_divergence_free,
    to_compact,
    wavevectors,
)
from graddivbox.solver import FlowParams, _apply_linear
from graddivbox.stats import diagnostics

from conftest import (
    TWO_PI,
    coords,
    divergence,
    extend,
    from_samples,
    operator,
    random_state,
    restrict,
    samples,
    shear_state,
    spectral_shape,
    zeros,
)


class TestGridSpec:
    def test_valid(self):
        g = GridSpec(dim=3, n=64, box_length=1.5)
        assert g.shape == (64, 64, 64)
        assert g.compact_shape == (43, 43, 22)
        assert g.spacing == pytest.approx(1.5 / 64)

    @pytest.mark.parametrize("n", [3, 5, 37, 49, 2, 0, -8])
    def test_rejects_odd_or_small_n(self, n):
        with pytest.raises(ValueError, match=f"^n must be even and >= 4, got {n}$"):
            GridSpec(dim=2, n=n, box_length=1.0)

    def test_accepts_every_even_n_with_the_largest_alias_free_cutoff(self):
        # products of kept modes reach 2c and alias onto 2c - n, which must stay below -c: 3c < n
        for n in range(4, 101, 2):
            c = GridSpec(dim=2, n=n, box_length=1.0).cutoff
            assert 3 * c < n <= 3 * (c + 1)

    def test_cutoff_of_every_power_of_two_is_unchanged(self):
        # int(2/3 * (n // 2)) was the cutoff when n had to be a power of two, so those grids keep their bits
        for p in range(2, 21):
            n = 2 ** p
            assert GridSpec(dim=3, n=n, box_length=1.0).cutoff == int(2.0 / 3.0 * (n // 2))

    def test_rejects_bad_dim_and_box(self):
        with pytest.raises(ValueError):
            GridSpec(dim=1, n=8, box_length=1.0)
        with pytest.raises(ValueError):
            GridSpec(dim=2, n=8, box_length=0.0)


class TestTransforms:
    def test_single_mode_gives_one_conjugate_pair(self, grid2d):
        xs = coords(grid2d)
        f = from_samples(grid2d, np.cos(xs[0])[np.newaxis])
        nonzero = np.abs(f[0]) > 1e-14
        # cos(x) along the first (full) axis -> exactly the m = (1, 0), (-1, 0) pair
        assert nonzero.sum() == 2
        assert f[0][1, 0] == pytest.approx(0.5)
        assert f[0][-1, 0] == pytest.approx(0.5)

    def test_zero_field(self, grid3d):
        z = to_compact(grid3d, np.zeros((3,) + grid3d.shape))
        assert z.shape == (3,) + grid3d.compact_shape and np.all(z == 0.0)

    def test_round_trip_random(self, grid3d):
        u = from_samples(grid3d, np.random.default_rng(3).standard_normal((3,) + grid3d.shape))
        back = from_samples(grid3d, samples(grid3d, u))
        err = np.sqrt(parseval_sum(grid3d, back - u))
        assert err <= 1e-12 * np.sqrt(parseval_sum(grid3d, u))

    @pytest.mark.parametrize("build, shape", [
        # bare samples are a valid transform input, one component's coefficients, which Field refuses
        (lambda g, a: Field(g, to_compact(g, a)), lambda g: g.shape),
        (Field, lambda g: g.compact_shape),
    ], ids=["physical", "spectral"])
    def test_missing_component_axis_rejected(self, grid2d, build, shape):
        c = str(grid2d.compact_shape)
        with pytest.raises(ValueError, match=re.escape(f"{c} is not (ncomp,) + {c}")):
            build(grid2d, np.zeros(shape(grid2d)))

    def test_spectral_round_trip(self, grid2d):
        u = random_state(grid2d, seed=5)
        again = to_compact(grid2d, samples(grid2d, u))
        assert np.max(np.abs(again - u)) < 1e-14


class TestDivergence:
    def test_shear_is_divergence_free(self, grid3d):
        d = divergence(grid3d, shear_state(grid3d))
        assert np.sqrt(parseval_sum(grid3d, d)) < 1e-13

    def test_sin_x_mode(self, grid2d):
        xs = coords(grid2d)
        u = from_samples(grid2d, np.stack([np.sin(xs[0]), np.zeros(grid2d.shape)]))
        d = divergence(grid2d, u)
        np.testing.assert_allclose(samples(grid2d, d)[0], np.cos(xs[0]), atol=1e-12)

    def test_divergence_of_gradient_is_laplacian(self, grid2d):
        xs = coords(grid2d)
        phi = from_samples(grid2d, np.sin(xs[0])[np.newaxis])
        grad_phi = 1j * np.stack(wavevectors(grid2d)) * phi
        d = divergence(grid2d, grad_phi)
        # div(grad phi) = -(2 pi / L)^2 phi for the fundamental mode
        np.testing.assert_allclose(samples(grid2d, d)[0], -np.sin(xs[0]), atol=1e-12)


class TestLinearOperators:
    def test_single_mode_matches_hand_formula(self, grid3d):
        # nu lap + gamma grad div acts on a single mode as -nu |k|^2 a - gamma k (k . a)
        s = np.zeros((3,) + grid3d.compact_shape, dtype=complex)
        m = (2, 1, 1)
        amp = np.array([0.3 + 0.1j, -0.2j, 0.5])
        for c in range(3):
            s[c][m] = amp[c]
        k = np.array([kk[m] for kk in wavevectors(grid3d)])
        got = _apply_linear(s, operator(grid3d, FlowParams(nu=0.3, gamma=1.7)))
        expected = -0.3 * (k @ k) * amp - 1.7 * k * (k @ amp)
        np.testing.assert_allclose([got[c][m] for c in range(3)], expected, atol=1e-13)
        assert np.count_nonzero(got) == np.count_nonzero(s)

    def test_linearity(self, grid2d):
        u = random_state(grid2d, seed=1)
        v = random_state(grid2d, seed=2)
        combo = 2.5 * u - 0.7 * v
        op = operator(grid2d, FlowParams(nu=0.3, gamma=1.7))
        for apply in (lambda f: _apply_linear(f, op), lambda f: divergence(grid2d, f),
                      lambda f: project_divergence_free(grid2d, f)):
            lhs = apply(combo)
            rhs = 2.5 * apply(u) - 0.7 * apply(v)
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))

    def test_resolved_mode_derivative_is_analytic(self, grid2d):
        xs = coords(grid2d)
        m = 5
        f = from_samples(grid2d, np.sin(m * xs[0])[np.newaxis])
        g = 1j * wavevectors(grid2d)[0] * f
        np.testing.assert_allclose(samples(grid2d, g)[0], m * np.cos(m * xs[0]), atol=1e-11)


class TestDealias:
    """The 2/3 rule's cut of the reference in conftest that the transform tests compare against.

    restrict keeps |m_j| <= cutoff of a half-spectrum, extend pads with +0.
    """

    def test_low_modes_unchanged(self, grid2d):
        s = np.zeros((1,) + spectral_shape(grid2d), dtype=complex)
        s[0][3, 0] = 0.5
        s[0][-3, 0] = 0.5
        np.testing.assert_array_equal(extend(grid2d, restrict(grid2d, s)), s)

    def test_highest_mode_zeroed(self, grid2d):
        s = np.zeros((1,) + spectral_shape(grid2d), dtype=complex)
        s[0][grid2d.n // 2, 0] = 1.0
        assert np.all(restrict(grid2d, s) == 0.0)

    def test_idempotent_bitwise(self, grid3d):
        axes = (1, 2, 3)
        full = np.fft.rfftn(np.random.default_rng(9).standard_normal((3,) + grid3d.shape), axes=axes)
        once = extend(grid3d, restrict(grid3d, full))
        twice = extend(grid3d, restrict(grid3d, once))
        np.testing.assert_array_equal(once, twice)


class TestVolumeNorm:
    def test_constant_field(self, grid3d):
        c = np.array([1.0, -2.0, 0.5])
        u = from_samples(grid3d, np.broadcast_to(c[:, None, None, None], (3,) + grid3d.shape))
        assert parseval_sum(grid3d, u) == pytest.approx(float(c @ c))

    def test_shear_half(self, grid3d):
        assert parseval_sum(grid3d, shear_state(grid3d)) == pytest.approx(0.5, rel=1e-13)

    def test_parseval(self, grid2d):
        u = random_state(grid2d, seed=11)
        p = samples(grid2d, u)
        phys_val = float(np.mean(np.sum(p * p, axis=0)))
        assert parseval_sum(grid2d, u) == pytest.approx(phys_val, rel=1e-12)

    def test_nonnegative_and_definite(self, grid2d):
        assert parseval_sum(grid2d, zeros(grid2d)) == 0.0
        u = random_state(grid2d, seed=21)
        assert parseval_sum(grid2d, u) > 0.0

    def test_one_norm_path_for_physical_and_spectral_fields(self, grid3d):
        # a state's norm and a run's kinetic-energy record are one Parseval sum, bit for bit
        u = random_state(grid3d, seed=16)
        assert 0.5 * parseval_sum(grid3d, u) == diagnostics(u, operator(grid3d)).kinetic_energy
        p = samples(grid3d, u)
        assert parseval_sum(grid3d, u) == pytest.approx(float(np.mean(np.sum(p * p, axis=0))), rel=1e-12)

    @pytest.mark.parametrize("dim, n", [(2, 32), (2, 64), (3, 16)])
    def test_batched_sums_are_the_per_state_sums(self, dim, n):
        # run_mms sums a block's step-end states, a strided view, at once; each keeps its own bits
        grid = GridSpec(dim=dim, n=n, box_length=TWO_PI)
        states = np.stack([random_state(grid, seed=s) for s in range(8)], axis=1)
        expected = [parseval_sum(grid, states[:, b]) for b in range(1, 8, 2)]
        assert parseval_sum(grid, states[:, 1::2]).tolist() == expected


def test_projected_field_is_divergence_free(grid2d):
    u = project_divergence_free(grid2d, random_state(grid2d, seed=4))
    assert np.sqrt(parseval_sum(grid2d, divergence(grid2d, u))) <= 1e-12 * np.sqrt(parseval_sum(grid2d, u))
