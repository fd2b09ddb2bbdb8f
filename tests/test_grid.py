import re

import numpy as np
import pytest

from graddivbox.grid import (
    Field,
    GridSpec,
    dealias,
    dealias_mask,
    divergence,
    gradient,
    inner_product,
    project_divergence_free,
    volume_norm_sq,
    wavevectors,
)
from graddivbox.solver import FlowParams, _apply_linear

from conftest import TWO_PI, coords, operator, random_state_field, shear_field


class TestGridSpec:
    def test_valid(self):
        g = GridSpec(dim=3, n=64, box_length=1.5)
        assert g.shape == (64, 64, 64)
        assert g.spectral_shape == (64, 64, 33)
        assert g.spacing == pytest.approx(1.5 / 64)

    @pytest.mark.parametrize("n", [3, 6, 12, 48, 0, -8])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            GridSpec(dim=2, n=n, box_length=1.0)

    def test_rejects_bad_dim_and_box(self):
        with pytest.raises(ValueError):
            GridSpec(dim=1, n=8, box_length=1.0)
        with pytest.raises(ValueError):
            GridSpec(dim=2, n=8, box_length=0.0)


class TestTransforms:
    def test_single_mode_gives_one_conjugate_pair(self, grid2d):
        xs = coords(grid2d)
        f = Field.from_physical(grid2d, np.cos(xs[0])[np.newaxis])
        nonzero = np.abs(f.spec[0]) > 1e-14
        # cos(x) along the first (full) axis -> exactly the m = (1, 0), (-1, 0) pair
        assert nonzero.sum() == 2
        assert f.spec[0][1, 0] == pytest.approx(0.5)
        assert f.spec[0][-1, 0] == pytest.approx(0.5)

    def test_zero_field(self, grid3d):
        z = Field.zeros(grid3d)
        assert np.all(z.spec == 0.0)

    def test_round_trip_random(self, grid3d):
        u = Field.from_physical(grid3d, np.random.default_rng(3).standard_normal((3,) + grid3d.shape))
        back = Field.from_spectral(grid3d, u.spec.copy())
        err = np.sqrt(volume_norm_sq(Field.from_physical(grid3d, back.phys - u.phys)))
        assert err <= 1e-12 * np.sqrt(volume_norm_sq(u))

    @pytest.mark.parametrize("build, shape", [
        (Field.from_physical, lambda g: g.shape),
        (Field.from_spectral, lambda g: g.spectral_shape),
    ], ids=["physical", "spectral"])
    def test_missing_component_axis_rejected(self, grid2d, build, shape):
        expected = shape(grid2d)
        with pytest.raises(ValueError, match=re.escape(f"{expected} is not (ncomp,) + {expected}")):
            build(grid2d, np.zeros(expected))

    def test_spectral_round_trip(self, grid2d):
        u = random_state_field(grid2d, seed=5)
        s = u.spec.copy()
        again = Field.from_physical(grid2d, Field.from_spectral(grid2d, s).phys).spec
        assert np.max(np.abs(again - s)) < 1e-14


class TestDivergence:
    def test_shear_is_divergence_free(self, grid3d):
        d = divergence(shear_field(grid3d))
        assert np.sqrt(volume_norm_sq(d)) < 1e-13

    def test_sin_x_mode(self, grid2d):
        xs = coords(grid2d)
        u = Field.from_physical(grid2d, np.stack([np.sin(xs[0]), np.zeros(grid2d.shape)]))
        d = divergence(u)
        np.testing.assert_allclose(d.phys[0], np.cos(xs[0]), atol=1e-12)

    def test_divergence_of_gradient_is_laplacian(self, grid2d):
        xs = coords(grid2d)
        phi = Field.from_physical(grid2d, np.sin(xs[0])[np.newaxis])
        grad_phi = Field.from_spectral(grid2d, gradient(phi).spec)
        d = divergence(grad_phi)
        # div(grad phi) = -(2 pi / L)^2 phi for the fundamental mode
        np.testing.assert_allclose(d.phys[0], -np.sin(xs[0]), atol=1e-12)


class TestLinearOperators:
    def test_single_mode_matches_hand_formula(self, grid3d):
        # nu lap + gamma grad div acts on a single mode as -nu |k|^2 a - gamma k (k . a)
        s = np.zeros((3,) + grid3d.spectral_shape, dtype=complex)
        m = (2, 1, 1)
        amp = np.array([0.3 + 0.1j, -0.2j, 0.5])
        for c in range(3):
            s[c][m] = amp[c]
        k = np.array([kk[m] for kk in wavevectors(grid3d)])
        op = operator(grid3d, FlowParams(nu=0.3, gamma=1.7))
        got = op.extend(_apply_linear(op.restrict(s), op))
        expected = -0.3 * (k @ k) * amp - 1.7 * k * (k @ amp)
        np.testing.assert_allclose([got[c][m] for c in range(3)], expected, atol=1e-13)
        assert np.count_nonzero(got) == np.count_nonzero(s)

    def test_linearity(self, grid2d):
        u = random_state_field(grid2d, seed=1)
        v = random_state_field(grid2d, seed=2)
        combo = Field.from_spectral(grid2d, 2.5 * u.spec - 0.7 * v.spec)
        params = FlowParams(nu=0.3, gamma=1.7)

        def linear(f):
            op = operator(grid2d, params)
            return Field.from_spectral(grid2d, op.extend(_apply_linear(op.restrict(f.spec), op)))

        for op in (linear, divergence, dealias):
            lhs = op(combo).spec
            rhs = 2.5 * op(u).spec - 0.7 * op(v).spec
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))

    def test_resolved_mode_derivative_is_analytic(self, grid2d):
        xs = coords(grid2d)
        m = 5
        f = Field.from_physical(grid2d, np.sin(m * xs[0])[np.newaxis])
        g = gradient(f)
        np.testing.assert_allclose(g.phys[0], m * np.cos(m * xs[0]), atol=1e-11)


class TestDealias:
    def test_low_modes_unchanged(self, grid2d):
        s = np.zeros((1,) + grid2d.spectral_shape, dtype=complex)
        s[0][3, 0] = 0.5
        s[0][-3, 0] = 0.5
        f = Field.from_spectral(grid2d, s)
        np.testing.assert_array_equal(dealias(f).spec, f.spec)

    def test_highest_mode_zeroed(self, grid2d):
        s = np.zeros((1,) + grid2d.spectral_shape, dtype=complex)
        s[0][grid2d.n // 2, 0] = 1.0
        f = Field.from_spectral(grid2d, s)
        assert np.all(dealias(f).spec == 0.0)

    def test_idempotent_bitwise(self, grid3d):
        u = Field.from_physical(grid3d, np.random.default_rng(9).standard_normal((3,) + grid3d.shape))
        once = dealias(u).spec
        twice = dealias(Field.from_spectral(grid3d, once)).spec
        np.testing.assert_array_equal(once, twice)


class TestVolumeNorm:
    def test_constant_field(self, grid3d):
        c = np.array([1.0, -2.0, 0.5])
        u = Field.from_physical(grid3d, np.broadcast_to(c[:, None, None, None], (3,) + grid3d.shape).copy())
        assert volume_norm_sq(u) == pytest.approx(float(c @ c))

    def test_shear_half(self, grid3d):
        assert volume_norm_sq(shear_field(grid3d)) == pytest.approx(0.5, rel=1e-13)

    def test_parseval(self, grid2d):
        p = np.random.default_rng(11).standard_normal((2,) + grid2d.shape)
        phys_val = float(np.mean(np.sum(p * p, axis=0)))
        assert volume_norm_sq(Field.from_physical(grid2d, p)) == pytest.approx(phys_val, rel=1e-12)

    def test_nonnegative_and_definite(self, grid2d):
        assert volume_norm_sq(Field.zeros(grid2d)) == 0.0
        u = random_state_field(grid2d, seed=21)
        assert volume_norm_sq(u) > 0.0

    def test_inner_product_consistency(self, grid2d):
        u = random_state_field(grid2d, seed=1)
        v = random_state_field(grid2d, seed=2)
        spec_val = inner_product(u, v)
        phys_val = float(np.mean(np.sum(u.phys * v.phys, axis=0)))
        assert spec_val == pytest.approx(phys_val, rel=1e-12, abs=1e-14)

    def test_one_norm_path_for_physical_and_spectral_fields(self, grid3d):
        rng = np.random.default_rng(16)
        pu, pv = rng.standard_normal((2, 3) + grid3d.shape)
        u, v = Field.from_physical(grid3d, pu), Field.from_physical(grid3d, pv)
        su, sv = Field.from_spectral(grid3d, u.spec), Field.from_spectral(grid3d, v.spec)
        assert volume_norm_sq(u) == volume_norm_sq(su)
        assert inner_product(u, v) == inner_product(su, sv)
        assert volume_norm_sq(u) == pytest.approx(float(np.mean(np.sum(pu * pu, axis=0))), rel=1e-12)


def test_projected_field_is_divergence_free(grid2d):
    u = project_divergence_free(random_state_field(grid2d, seed=4))
    assert np.sqrt(volume_norm_sq(divergence(u))) <= 1e-12 * np.sqrt(volume_norm_sq(u))
