import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from graddivbox.config import RunConfig
from graddivbox.forcing import (
    DIVERGENCE_TOL,
    ForceStats,
    ForcingError,
    ForcingSpec,
    check_divergence_free,
    compute_F,
    force_stats,
    realize_force,
)
from graddivbox.grid import (
    Field,
    GridSpec,
    mode_numbers,
    parseval_sum,
    project_divergence_free,
    to_physical,
    wavevectors,
)
from graddivbox.runner import initial_condition
from graddivbox.solver import FlowParams, SpectralOperator, StepperConfig, imex_step

from conftest import TWO_PI, coords, divergence, from_samples, random_state, samples, shear_state, zeros


def sinusoidal_force(grid, F0=1.0):
    """(F0 sin(2 pi y / L), 0[, 0]) as a Field, the force statistics' input."""
    return Field(grid, shear_state(grid, F0))


def taylor_green_force(grid, F0=1.0):
    """F0 (sin x cos y, -cos x sin y) on a 2 pi box, as a Field; |f|^2 has max 1, mean 1/2."""
    xs = coords(grid)
    return Field(grid, from_samples(grid, np.stack([
        F0 * np.sin(xs[0]) * np.cos(xs[1]),
        -F0 * np.cos(xs[0]) * np.sin(xs[1]),
    ])))


class TestForcingSpec:
    def test_single_shear_mode(self, grid3d):
        spec = ForcingSpec(grid=grid3d, modes=(((0, 1, 0), (2.0, 0, 0)),))
        f = realize_force(spec)
        xs = coords(grid3d)
        # a exp(iky) + conj -> 2 * 2.0 * cos(y) in the x component
        np.testing.assert_allclose(samples(grid3d, f.spec)[0], 4.0 * np.cos(xs[1]), atol=1e-12)
        np.testing.assert_allclose(samples(grid3d, f.spec)[1:], 0.0, atol=1e-14)

    def test_rejects_non_divergence_free(self, grid3d):
        with pytest.raises(ForcingError, match="divergence-free"):
            ForcingSpec(grid=grid3d, modes=(((1, 0, 0), (1.0, 0, 0)),))

    def test_divergence_bound_scales_with_a_mode_whose_square_underflows(self, grid3d):
        # |a|^2 = 2e-340 underflows, |a| = 1.4e-170 does not: the mode is divergence-free at every scale
        spec = ForcingSpec(grid=grid3d, modes=(((1, 1, 0), (1e-170, -1e-170, 0)), ((0, 1, 0), (1.0, 0, 0))))
        assert len(spec.modes) == 2
        with pytest.raises(ForcingError, match=r"^mode \(1, 1, 0\) of forcing.modes: \|m \. a\| = 1\.000e-170 "):
            ForcingSpec(grid=grid3d, modes=(((1, 1, 0), (1e-170, 0, 0)), ((0, 1, 0), (1.0, 0, 0))))

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

    def test_rejects_all_zero_amplitudes(self, grid3d):
        with pytest.raises(ForcingError, match="zero force: every amplitude of forcing.modes is 0"):
            ForcingSpec(grid=grid3d, modes=(((0, 1, 0), (0.0, 0, 0)), ((1, 0, 0), (0, -0.0, 0j))))

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
            rel = np.sqrt(parseval_sum(grid3d, divergence(grid3d, f.spec)) / parseval_sum(grid3d, f.spec))
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
        np.testing.assert_allclose(realize_force(spec).spec, from_samples(grid3d, phys), atol=1e-14)

    def test_band_limited(self, grid3d):
        spec = ForcingSpec(grid=grid3d, modes=(((0, 1, 0), (1.0, 0, 0)),), n_low=2)
        f = realize_force(spec)
        s = np.abs(f.spec)
        for m in mode_numbers(grid3d):
            assert np.all(s[:, np.abs(m) > spec.n_low] == 0.0)

    def test_zero_mean_exact(self, grid3d):
        f = realize_force(ForcingSpec(grid=grid3d, modes=(((0, 1, 0), (1.0, 0, 0)),)))
        assert np.all(f.spec[:, 0, 0, 0] == 0.0)


class TestDivergenceCheck:
    BOXES = [TWO_PI * 1e-5, TWO_PI * 1e-3, TWO_PI, TWO_PI * 1e5]

    @pytest.mark.parametrize("box_length", BOXES)
    def test_rounding_of_an_admissible_mode_passes_at_any_box_size(self, box_length):
        # m . a = 0.3 - (0.1 + 0.2) = -5.6e-17 passes ForcingSpec; ||div f|| / F alone grows as 1 / box_length
        grid = GridSpec(dim=3, n=8, box_length=box_length)
        f = realize_force(ForcingSpec(grid=grid, modes=(((1, 1, 0), (0.3, -(0.1 + 0.2), 0.0)),)))
        assert check_divergence_free(f) < 1e-15

    @pytest.mark.parametrize("box_length", BOXES)
    def test_divergent_force_is_refused_at_any_box_size(self, box_length):
        grid = GridSpec(dim=3, n=8, box_length=box_length)
        f = realize_force(ForcingSpec(grid=grid, modes=(((1, 1, 0), (1.0, -1.0, 0.0)),)))
        tilted = Field(grid, f.spec * np.array([1.0, 1.0 - 1e-9, 1.0])[:, np.newaxis, np.newaxis, np.newaxis])
        with pytest.raises(ForcingError, match=r"force divergence 7\.07\de-10 exceeds tolerance 1\.0e-12"):
            check_divergence_free(tilted)

    def test_nan_coefficient_is_refused(self, grid3d):
        # rel = nan compared false against the tolerance, so the check returned nan
        f = realize_force(ForcingSpec(grid=grid3d, modes=(((1, 1, 0), (1.0, -1.0, 0.0)),)))
        spec = f.spec.copy()
        spec[2, 1, 0, 0] = np.nan
        with pytest.raises(ForcingError, match="force divergence nan exceeds tolerance"):
            check_divergence_free(Field(grid3d, spec))

    def test_measure_on_the_two_pi_box_is_the_relative_divergence(self, grid3d):
        f = realize_force(ForcingSpec(grid=grid3d, modes=(((1, 1, 0), (0.3, -(0.1 + 0.2), 0.0)),)))
        assert check_divergence_free(f) == np.sqrt(parseval_sum(grid3d, divergence(grid3d, f.spec))) / compute_F(f)


@st.composite
def tilted_mode_lists(draw):
    """(grid, modes(t)): 1 to 3 modes up to the largest m the grid keeps, |m . a| about t DIVERGENCE_TOL |a| each.

    Each a is a complex multiple of a real vector with its part along m projected out in floats,
    plus t DIVERGENCE_TOL |a| m / |m|^2, so m . a also holds the projection's rounding.
    """
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([4, 6, 8, 12, 48, 96] + ([256, 512] if dim == 2 else [])))
    grid = GridSpec(dim=dim, n=n, box_length=draw(st.sampled_from([TWO_PI * 1e-5, 1.0, TWO_PI, 3.7e5])))
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        m = np.array(draw(st.tuples(*[st.integers(-grid.cutoff, grid.cutoff)] * dim).filter(any)), dtype=float)
        p = np.array(draw(st.tuples(*[st.floats(-1, 1)] * dim)))
        p -= m * (m @ p) / (m @ m)
        assume(p @ p > 1e-6)
        c = draw(st.sampled_from([1.0, 0.1, -3j, 1e-100, 1e100 + 1e100j]))
        parts.append((tuple(int(mj) for mj in m), p, np.sqrt(p @ p) * m / (m @ m), c))
    return grid, lambda t: tuple((m, tuple(c * (p + t * DIVERGENCE_TOL * q))) for m, p, q, c in parts)


@settings(max_examples=50, deadline=None)
@given(tilted_mode_lists())
def test_the_most_divergent_accepted_spec_passes_the_divergence_check(grid_modes):
    # bisect the tilt t to the edge of what ForcingSpec accepts, where the rounding of m . a and of
    # the realized k . a matters most
    grid, modes = grid_modes

    def accepted(t):
        try:
            return ForcingSpec(grid=grid, modes=modes(t), n_low=grid.cutoff)
        except ForcingError as e:
            assert "divergence-free" in str(e) or "duplicate" in str(e)
            return None

    assume(accepted(0.0) is not None)
    lo, hi = 0.0, 2.0
    assert accepted(hi) is None
    for _ in range(60):
        lo, hi = ((lo + hi) / 2, hi) if accepted((lo + hi) / 2) else (lo, (lo + hi) / 2)
    assert check_divergence_free(realize_force(accepted(lo))) <= DIVERGENCE_TOL


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
        f = Field(grid2d, from_samples(grid2d, np.stack([F0 * np.cos(xs[1]), F0 * np.sin(xs[1])])))
        assert compute_F(f) == pytest.approx(F0, rel=1e-12)
        assert force_stats(f).kappa == pytest.approx(1.0, rel=1e-12)

    def test_zero_force_rejected(self, grid2d):
        with pytest.raises(ForcingError, match="degenerate"):
            compute_F(Field(grid2d, zeros(grid2d)))


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
        f1 = Field(grid2d, from_samples(grid2d, np.stack([np.sin(xs[1]), np.zeros(grid2d.shape)])))
        f2 = Field(grid2d, from_samples(grid2d, np.stack([np.sin(2 * xs[1]), np.zeros(grid2d.shape)])))
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
        shifted = Field(grid2d, from_samples(grid2d, np.roll(samples(grid2d, f.spec), (5, 11), axis=(1, 2))))
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


def stacked_force_stats(f):
    """Reference: the statistics from one transform of the 2 dim + dim stack [grad f, f], summed by np.sum."""
    grid = f.grid
    F = compute_F(f)
    g = (1j * np.stack(wavevectors(grid)) * f.spec[:, np.newaxis]).reshape((-1,) + grid.compact_shape)
    p = to_physical(grid, np.concatenate([g, f.spec]))
    sup = float(np.sqrt(np.max(np.sum(p[:len(g)] * p[:len(g)], axis=0))))
    l2 = float(np.sqrt(parseval_sum(grid, g)))
    candidates = {
        "box_length": grid.box_length,
        "sup_gradient": F / sup if sup > 0 else np.inf,
        "rms_gradient": F / l2 if l2 > 0 else np.inf,
    }
    branch = min(candidates, key=candidates.get)
    kappa = float(np.sqrt(np.max(np.sum(p[len(g):] * p[len(g):], axis=0)))) / F
    return ForceStats(F=F, L=candidates[branch], L_branch=branch, kappa=kappa, grad_f_sup=sup, grad_f_l2=l2)


def random_forces(grid, seed):
    """Seeded divergence-free forces on `grid`: a random mode list, realized, and a projected random field."""
    rng = np.random.default_rng(seed)
    top = min(grid.cutoff, 4)
    modes, keys = [], set()
    while len(modes) < 3:
        m = tuple(int(v) for v in rng.integers(-top, top + 1, size=grid.dim))
        key = m if next((v for v in m if v), 0) > 0 else tuple(-v for v in m)
        if not any(m) or key in keys:
            continue
        keys.add(key)
        k = np.array(m, dtype=float)
        a = rng.standard_normal(grid.dim) + 1j * rng.standard_normal(grid.dim)
        modes.append((m, tuple(a - k * (k @ a) / (k @ k))))
    spec = ForcingSpec(grid=grid, modes=tuple(modes), n_low=top)
    return [realize_force(spec), Field(grid, project_divergence_free(grid, random_state(grid, seed)))]


def bits(stats):
    return [v.hex() if isinstance(v, float) else v for v in vars(stats).values()]


@pytest.mark.parametrize("dim, n", [(2, 8), (2, 16), (2, 32), (2, 48), (2, 64),
                                    (3, 8), (3, 16), (3, 32), (3, 48), (3, 64)])
def test_force_stats_are_bitwise_those_of_one_stacked_transform(dim, n):
    for seed, box_length in enumerate((TWO_PI, 1.0, 37.5) if dim == 2 or n < 64 else (TWO_PI,)):
        grid = GridSpec(dim=dim, n=n, box_length=box_length)
        for f in random_forces(grid, 100 * n + seed):
            assert bits(force_stats(f)) == bits(stacked_force_stats(f))


def traced_peak(fn, *args):
    """Bytes of the traced peak of a second call of `fn`; the first call imports what it needs."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dim, n", [(2, 32), (2, 64), (3, 16), (3, 32)])
def test_no_set_up_stage_allocates_more_than_one_step(tmp_path, dim, n):
    grid = GridSpec(dim=dim, n=n, box_length=TWO_PI)
    modes = ((((1, 1), (-0.25j, 0.25j)), ((1, -1), (-0.25j, -0.25j))) if dim == 2 else
             (((0, 0, 1), (-0.5j, 0.5, 0)), ((0, 1, 0), (0.5, 0, -0.5j)), ((1, 0, 0), (0, -0.5j, 0.5))))
    cfg = RunConfig(grid=grid, params=FlowParams(nu=0.05, gamma=1.0), forcing=ForcingSpec(grid=grid, modes=modes),
                    stepper=StepperConfig(dt=0.01, t_end=0.01), burn_in=0.0, window=0.01, seed=1,
                    output_dir=str(tmp_path))
    force = realize_force(cfg.forcing)
    u = initial_condition(cfg, force)
    step = traced_peak(imex_step, u, 0.0, SpectralOperator(grid, cfg.params, 0.01), force.spec, force.spec)
    peaks = {"realize_force": traced_peak(realize_force, cfg.forcing), "force_stats": traced_peak(force_stats, force),
             "initial_condition": traced_peak(initial_condition, cfg, force)}
    assert all(peak <= step for peak in peaks.values()), (peaks, step)
