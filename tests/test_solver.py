import math

import numpy as np
import pytest

from graddivbox.grid import (
    Field,
    GridSpec,
    dealias,
    divergence,
    inner_product,
    project_divergence_free,
    volume_norm_sq,
)
from graddivbox.solver import (
    BlowUpError,
    FlowParams,
    ManufacturedSolution,
    StepperConfig,
    divergent_mms_target,
    nonlinear_term,
    run_mms,
    step,
)
from graddivbox.stats import diagnostics

from conftest import TWO_PI, coords, random_state_field, shear_field


class TestRhs:
    """The right-hand side: the nonlinear term, and the inputs `step` refuses."""

    def test_skew_symmetry_random(self, grid3d):
        for seed in range(5):
            u = random_state_field(grid3d, seed=seed)
            n = Field.from_spectral(grid3d, nonlinear_term(u))
            rel = abs(inner_product(n, u)) / math.sqrt(volume_norm_sq(n) * volume_norm_sq(u))
            assert rel <= 1e-10

    def test_grid_mismatch(self, grid2d):
        other = GridSpec(dim=2, n=16, box_length=TWO_PI)
        with pytest.raises(ValueError, match="grids"):
            step(Field.zeros(grid2d), FlowParams(nu=0.1, gamma=0.0), Field.zeros(other),
                 StepperConfig(dt=1e-3, t_end=1.0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_state_raises(self, grid2d):
        bad = np.full((2,) + grid2d.shape, np.nan)
        with pytest.raises(BlowUpError, match="t = 0.001"):
            step(Field.from_physical(grid2d, bad), FlowParams(nu=0.1, gamma=0.0), Field.zeros(grid2d),
                 StepperConfig(dt=1e-3, t_end=1.0))

    def test_skew_term_inert_on_divergence_free(self, grid2d):
        # with div-free data the -(1/2)(div u) u term contributes nothing
        u = dealias(project_divergence_free(random_state_field(grid2d, seed=4)))
        full = nonlinear_term(u)
        # recompute the skew half alone: N includes it with weight 1/2
        from graddivbox.grid import dealias_mask, wavevectors
        grid = u.grid
        mask = dealias_mask(grid)
        kvec = wavevectors(grid)
        ud_hat = u.spec * mask
        dhat = 1j * sum(kvec[j] * ud_hat[j] for j in range(2))
        dp = Field.from_spectral(grid, dhat[np.newaxis]).phys[0]
        up = Field.from_spectral(grid, ud_hat).phys
        skew = Field.from_physical(grid, dp * up).spec * mask
        assert np.max(np.abs(skew)) <= 1e-10 * max(np.max(np.abs(full)), 1.0)


class TestStep:
    def test_shear_decay_exact(self, grid3d):
        nu = 0.1
        cfg = StepperConfig(dt=1e-3, t_end=1.0)
        params = FlowParams(nu=nu, gamma=1.0)
        u = shear_field(grid3d)
        f = Field.zeros(grid3d)
        for i in range(200):
            u = step(u, params, f, cfg, t=i * cfg.dt)
        exact = np.exp(-nu * 0.2) * shear_field(grid3d).phys
        err = np.sqrt(volume_norm_sq(Field.from_physical(grid3d, u.phys - exact)))
        assert err < 1e-8

    def test_large_gamma_kills_divergence(self, grid3d):
        xs = coords(grid3d)
        # pure gradient field: maximally divergent initial data
        u0 = Field.from_physical(grid3d, np.stack([
            np.cos(xs[0]), np.zeros(grid3d.shape), np.zeros(grid3d.shape)]))
        cfg = StepperConfig(dt=1e-2, t_end=1.0)
        u1 = step(u0, FlowParams(nu=0.01, gamma=1e6), Field.zeros(grid3d), cfg)
        params = FlowParams(nu=0.01, gamma=1e6)
        reduction = math.sqrt(diagnostics(u0, params).div_sq / diagnostics(u1, params).div_sq)
        assert reduction >= 1e3

    def test_energy_dissipative_unforced(self, grid2d):
        u = random_state_field(grid2d, seed=12)
        params = FlowParams(nu=0.05, gamma=0.5)
        cfg = StepperConfig(dt=2e-3, t_end=1.0)
        f = Field.zeros(grid2d)
        e_prev = volume_norm_sq(u)
        for i in range(50):
            u = step(u, params, f, cfg, t=i * cfg.dt)
            e = volume_norm_sq(u)
            assert e <= e_prev + 1e-10 * e_prev
            e_prev = e

    def test_zero_mean_preserved_exactly(self, grid2d):
        u = random_state_field(grid2d, seed=13)
        params = FlowParams(nu=0.05, gamma=1.0)
        cfg = StepperConfig(dt=2e-3, t_end=1.0)
        f = Field.zeros(grid2d)
        for i in range(20):
            u = step(u, params, f, cfg, t=i * cfg.dt)
            assert np.all(u.spec[:, 0, 0] == 0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_detected(self, grid2d):
        u = Field.from_physical(grid2d, 1e150 * random_state_field(grid2d, seed=1).phys)
        cfg = StepperConfig(dt=10.0, t_end=100.0)
        with pytest.raises(BlowUpError, match="blow-up"):
            v = u
            for i in range(20):
                v = step(v, FlowParams(nu=1e-6, gamma=0.0), Field.zeros(grid2d), cfg, t=i * cfg.dt)


class TestTransformCount:
    """A step makes two nonlinear evaluations, each one batched inverse and one batched forward transform."""

    # per evaluation, 2d: [u, omega, div u] (4) + [omega x u + (div u) u / 2, |u|^2 / 2] (3); 3d: 7 + 4
    @pytest.mark.parametrize("dim, components", [(2, 14), (3, 22)])
    def test_fft_components_per_step(self, monkeypatch, dim, components):
        grid = GridSpec(dim=dim, n=16, box_length=TWO_PI)
        u = random_state_field(grid, seed=3)
        f = Field.from_spectral(grid, random_state_field(grid, seed=4).spec)
        counted = []

        def counting(fft):
            def wrapper(a, *args, **kwargs):
                axes = kwargs.get("axes")
                transformed = range(a.ndim) if axes is None else [ax % a.ndim for ax in axes]
                counted.append(math.prod(size for ax, size in enumerate(a.shape) if ax not in transformed))
                return fft(a, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.fft, "rfftn", counting(np.fft.rfftn))
        monkeypatch.setattr(np.fft, "irfftn", counting(np.fft.irfftn))
        step(u, FlowParams(nu=0.05, gamma=1.0), f, StepperConfig(dt=1e-3, t_end=1.0))
        assert sum(counted) == components
        assert len(counted) == 4


class TestStepGrid:
    def test_n_steps(self):
        assert StepperConfig(dt=1e-3, t_end=1.0).n_steps == 1000
        assert StepperConfig(dt=0.1, t_end=93.0).n_steps == 930

    def test_off_grid_t_end_rejected(self):
        # 2.5 steps: round() alone would run 2 and stop at t = 0.2
        with pytest.raises(ValueError, match=r"t_end = 0\.25 is not on the step grid of dt = 0\.1"):
            StepperConfig(dt=0.1, t_end=0.25)

    def test_t_end_of_no_step_rejected(self):
        # t_end is within the step-grid slack of 0 steps; run_mms would report an error of 0.0
        with pytest.raises(ValueError, match=r"^t_end = 1e-10 takes no step of dt = 1\.0$"):
            StepperConfig(dt=1.0, t_end=1e-10)

    @pytest.mark.parametrize("dt, t_end", [(1e-3, math.inf), (5e-324, 0.5)])
    def test_infinite_step_count_rejected(self, dt, t_end):
        with pytest.raises(ValueError, match=r"^t_end = .* is not a finite number of steps of dt = "):
            StepperConfig(dt=dt, t_end=t_end)


class TestMms:
    def test_decaying_shear_target(self, grid2d):
        # exact solution of the model: integrator error only
        nu = 0.1
        xs = coords(grid2d)
        w = np.stack([np.sin(xs[1]), np.zeros(grid2d.shape)])
        target = ManufacturedSolution(
            grid2d, w,
            amp=lambda t: math.exp(-nu * t),
            amp_dot=lambda t: -nu * math.exp(-nu * t),
        )
        report = run_mms(target, FlowParams(nu=nu, gamma=2.0), StepperConfig(dt=1e-3, t_end=1.0))
        assert report["max_l2_error"] <= 1e-8

    def test_zero_target(self, grid2d):
        target = ManufacturedSolution(
            grid2d, np.zeros((2,) + grid2d.shape),
            amp=lambda t: 1.0, amp_dot=lambda t: 0.0,
        )
        report = run_mms(target, FlowParams(nu=0.1, gamma=1.0), StepperConfig(dt=1e-2, t_end=0.1))
        assert report["max_l2_error"] == 0.0

    def test_divergent_target_second_order(self, grid2d):
        target = divergent_mms_target(grid2d)
        params = FlowParams(nu=0.05, gamma=1.0)
        errs = [
            run_mms(target, params, StepperConfig(dt=dt, t_end=0.4))["max_l2_error"]
            for dt in (4e-3, 2e-3)
        ]
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_raises(self):
        # the state is non-finite after step 4; the error must not stay at step 3's value
        grid = GridSpec(dim=2, n=16, box_length=TWO_PI)
        target = divergent_mms_target(grid, amplitude=5000.0)
        with pytest.raises(BlowUpError, match=r"t = 2\.0$"):
            run_mms(target, FlowParams(nu=1e-4, gamma=0.0), StepperConfig(dt=0.5, t_end=2.5))
