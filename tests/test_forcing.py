import numpy as np
import pytest

from graddivbox.forcing import (
    ForcingError,
    ForcingSpec,
    compute_F,
    force_stats,
    realize_force,
)
from graddivbox.grid import Field, GridSpec, mode_numbers, parseval_sum

from conftest import TWO_PI, coords, divergence, from_samples, samples, zeros


def sinusoidal_force(grid, F0=1.0):
    """(F0 sin(2 pi y / L), 0[, 0]) as a Field."""
    xs = coords(grid)
    scale = TWO_PI / grid.box_length
    comps = [F0 * np.sin(scale * xs[1])] + [np.zeros(grid.shape)] * (grid.dim - 1)
    return from_samples(grid, np.stack(comps))


def taylor_green_force(grid, F0=1.0):
    """F0 (sin x cos y, -cos x sin y) on a 2 pi box; |f|^2 has max 1, mean 1/2."""
    xs = coords(grid)
    return from_samples(grid, np.stack([
        F0 * np.sin(xs[0]) * np.cos(xs[1]),
        -F0 * np.cos(xs[0]) * np.sin(xs[1]),
    ]))


class TestForcingSpec:
    def test_single_shear_mode(self, grid3d):
        spec = ForcingSpec(grid=grid3d, modes=(((0, 1, 0), (2.0, 0, 0)),))
        f = realize_force(spec)
        xs = coords(grid3d)
        # a exp(iky) + conj -> 2 * 2.0 * cos(y) in the x component
        np.testing.assert_allclose(samples(f)[0], 4.0 * np.cos(xs[1]), atol=1e-12)
        np.testing.assert_allclose(samples(f)[1:], 0.0, atol=1e-14)

    def test_rejects_non_divergence_free(self, grid3d):
        with pytest.raises(ForcingError, match="divergence-free"):
            ForcingSpec(grid=grid3d, modes=(((1, 0, 0), (1.0, 0, 0)),))

    def test_rejects_mean_mode(self, grid3d):
        with pytest.raises(ForcingError, match="zero-mean"):
            ForcingSpec(grid=grid3d, modes=(((0, 0, 0), (1.0, 0, 0)),))

    def test_rejects_high_mode(self, grid3d):
        with pytest.raises(ForcingError, match="n_low"):
            ForcingSpec(grid=grid3d, modes=(((0, 0, 3), (1.0, 0, 0)),), n_low=2)

    def test_rejects_conjugate_duplicates(self, grid3d):
        with pytest.raises(ForcingError, match="duplicate"):
            ForcingSpec(grid=grid3d, modes=(
                ((0, 1, 0), (1.0, 0, 0)),
                ((0, -1, 0), (1.0, 0, 0)),
            ))

    def test_empty_modes_rejected_at_realization(self, grid3d):
        with pytest.raises(ForcingError, match="zero force"):
            realize_force(ForcingSpec(grid=grid3d, modes=()))

    def test_random_admissible_spec_divergence_free(self, grid3d):
        rng = np.random.default_rng(17)
        for trial in range(10):
            m = tuple(rng.integers(-2, 3, size=3))
            if all(v == 0 for v in m):
                continue
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            k = np.array(m, dtype=float)
            a = a - k * (k @ a) / (k @ k)  # project amplitude orthogonal to k
            spec = ForcingSpec(grid=grid3d, modes=((m, tuple(a)),))
            f = realize_force(spec)
            rel = np.sqrt(parseval_sum(grid3d, divergence(f)) / parseval_sum(grid3d, f.spec))
            assert rel <= 1e-12

    def test_modes_sit_where_the_transform_of_their_samples_puts_them(self, grid3d):
        # negative m_j wrap to index m_j mod (2c + 1); an m_last = 0 mode also fills its conjugate
        modes = (((1, -2, 0), (2.0, 1.0, 0.5j)), ((-1, 2, -1), (0.0, 1.0 - 1j, 2.0 - 2j)),
                 ((2, 0, 1), (0.5j, 0.0, -1.0j)))
        spec = ForcingSpec(grid=grid3d, modes=modes)
        xs = coords(grid3d)
        phys = np.zeros((3,) + grid3d.shape)
        for m, a in spec.modes:
            wave = np.exp(1j * sum(mj * x for mj, x in zip(m, xs)))
            phys += np.stack([2.0 * (aj * wave).real for aj in a])
        np.testing.assert_allclose(realize_force(spec).spec, from_samples(grid3d, phys).spec, atol=1e-14)

    def test_band_limited(self, grid3d):
        spec = ForcingSpec(grid=grid3d, modes=(((0, 1, 0), (1.0, 0, 0)),), n_low=2)
        f = realize_force(spec)
        s = np.abs(f.spec)
        for m in mode_numbers(grid3d):
            assert np.all(s[:, np.abs(m) > spec.n_low] == 0.0)

    def test_zero_mean_exact(self, grid3d):
        f = realize_force(ForcingSpec(grid=grid3d, modes=(((0, 1, 0), (1.0, 0, 0)),)))
        assert np.all(f.spec[:, 0, 0, 0] == 0.0)


class TestForceAmplitude:
    def test_sinusoidal(self, grid3d):
        F0 = 3.0
        assert compute_F(sinusoidal_force(grid3d, F0)) == pytest.approx(F0 / np.sqrt(2), rel=1e-12)

    def test_homogeneous_in_scale(self, grid2d):
        f = taylor_green_force(grid2d)
        scaled = Field(grid2d, 4.0 * f.spec)
        assert compute_F(scaled) == pytest.approx(4.0 * compute_F(f), rel=1e-13)

    def test_constant_magnitude_fixture(self, grid2d):
        # |f| = F0 everywhere: (F0 cos y, F0 sin y); zero-mean but not div-free
        xs = coords(grid2d)
        F0 = 2.5
        f = from_samples(grid2d, np.stack([F0 * np.cos(xs[1]), F0 * np.sin(xs[1])]))
        assert compute_F(f) == pytest.approx(F0, rel=1e-12)
        assert force_stats(f).kappa == pytest.approx(1.0, rel=1e-12)

    def test_zero_force_rejected(self, grid2d):
        with pytest.raises(ForcingError, match="degenerate"):
            compute_F(zeros(grid2d))


class TestForceLengthScale:
    def test_sinusoidal_branches(self, grid3d):
        # branches: box 2 pi, F/sup|grad f| = 1/sqrt(2), F/rms|grad f| = 1
        st = force_stats(sinusoidal_force(grid3d, F0=1.0))
        assert st.L == pytest.approx(1.0 / np.sqrt(2), rel=1e-12)
        assert st.L_branch == "sup_gradient"

    def test_scale_invariant(self, grid3d):
        f = sinusoidal_force(grid3d)
        scaled = Field(grid3d, 7.0 * f.spec)
        assert force_stats(scaled).L == pytest.approx(force_stats(f).L, rel=1e-12)

    def test_mode_two_halves_L(self, grid2d):
        xs = coords(grid2d)
        f1 = from_samples(grid2d, np.stack([np.sin(xs[1]), np.zeros(grid2d.shape)]))
        f2 = from_samples(grid2d, np.stack([np.sin(2 * xs[1]), np.zeros(grid2d.shape)]))
        assert force_stats(f2).L == pytest.approx(0.5 * force_stats(f1).L, rel=1e-12)

    def test_gradient_inequalities(self, grid3d):
        for F0 in (0.3, 1.0, 5.0):
            st = force_stats(sinusoidal_force(grid3d, F0))
            assert st.L * st.grad_f_sup <= st.F * (1 + 1e-12)
            assert st.L * st.grad_f_l2 <= st.F * (1 + 1e-12)


class TestKappa:
    def test_sinusoidal(self, grid3d):
        assert force_stats(sinusoidal_force(grid3d, F0=1.7)).kappa == pytest.approx(np.sqrt(2), rel=1e-10)

    def test_taylor_green(self, grid2d):
        assert force_stats(taylor_green_force(grid2d, F0=0.9)).kappa == pytest.approx(np.sqrt(2), rel=1e-10)

    def test_scale_invariant(self, grid2d):
        f = taylor_green_force(grid2d)
        scaled = Field(grid2d, 0.01 * f.spec)
        assert force_stats(scaled).kappa == pytest.approx(force_stats(f).kappa, rel=1e-13)

    def test_translation_invariant(self, grid2d):
        f = taylor_green_force(grid2d)
        shifted = from_samples(grid2d, np.roll(samples(f), (5, 11), axis=(1, 2)))
        assert force_stats(shifted).kappa == pytest.approx(force_stats(f).kappa, rel=1e-12)

    def test_kappa_at_least_one(self, grid3d):
        rng = np.random.default_rng(23)
        for trial in range(5):
            m = (0, 1, int(rng.integers(1, 3)))
            a = (float(rng.standard_normal()), 0.0, 0.0)
            f = realize_force(ForcingSpec(grid=grid3d, modes=((m, a),)))
            assert force_stats(f).kappa >= 1.0 - 1e-12

    def test_fine_grid_adequacy(self):
        # sup-norm sampled on the run grid vs a 4x finer grid, band-limited force
        coarse = GridSpec(dim=2, n=32, box_length=TWO_PI)
        fine = GridSpec(dim=2, n=128, box_length=TWO_PI)
        modes = (((1, 1), (-0.25j, 0.25j)), ((1, -1), (-0.25j, -0.25j)))
        kc = force_stats(realize_force(ForcingSpec(grid=coarse, modes=modes))).kappa
        kf = force_stats(realize_force(ForcingSpec(grid=fine, modes=modes))).kappa
        assert kc == pytest.approx(kf, rel=1e-6)
