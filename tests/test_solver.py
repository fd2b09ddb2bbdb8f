import math

import numpy as np
import pytest

from graddivbox.grid import Field, GridSpec, k_dot, parseval_sum, project_divergence_free, wavevectors
from graddivbox.solver import (
    BlowUpError,
    FlowParams,
    ManufacturedSolution,
    StepperConfig,
    divergent_mms_target,
    run_mms,
)

from conftest import (
    TWO_PI,
    coords,
    field_diagnostics,
    from_samples,
    inner,
    nonlinear_field,
    random_state_field,
    samples,
    shear_field,
    step,
    zeros,
)


class TestRhs:
    """The right-hand side: the nonlinear term, and a state the step refuses."""

    def test_skew_symmetry_random(self, grid3d):
        for seed in range(5):
            u = random_state_field(grid3d, seed=seed)
            n = nonlinear_field(u)
            rel = abs(inner(n, u)) / math.sqrt(parseval_sum(grid3d, n.spec) * parseval_sum(grid3d, u.spec))
            assert rel <= 1e-10

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_state_raises(self, grid2d):
        bad = np.full((2,) + grid2d.shape, np.nan)
        with pytest.raises(BlowUpError, match="t = 0.001"):
            step(from_samples(grid2d, bad), FlowParams(nu=0.1, gamma=0.0), zeros(grid2d),
                 StepperConfig(dt=1e-3, t_end=1.0))

    def test_skew_term_inert_on_divergence_free(self, grid2d):
        # with div-free data the -(1/2)(div u) u term contributes nothing
        u = Field(grid2d, project_divergence_free(grid2d, random_state_field(grid2d, seed=4).spec))
        full = nonlinear_field(u).spec
        # recompute the skew half alone: N includes it with weight 1/2
        dp = samples(Field(grid2d, 1j * k_dot(wavevectors(grid2d), u.spec)[np.newaxis]))[0]
        skew = from_samples(grid2d, dp * samples(u)).spec
        assert np.max(np.abs(skew)) <= 1e-10 * max(np.max(np.abs(full)), 1.0)


class TestStep:
    def test_shear_decay_exact(self, grid3d):
        nu = 0.1
        cfg = StepperConfig(dt=1e-3, t_end=1.0)
        params = FlowParams(nu=nu, gamma=1.0)
        u = shear_field(grid3d)
        f = zeros(grid3d)
        for i in range(200):
            u = step(u, params, f, cfg, t=i * cfg.dt)
        exact = np.exp(-nu * 0.2) * samples(shear_field(grid3d))
        err = np.sqrt(parseval_sum(grid3d, from_samples(grid3d, samples(u) - exact).spec))
        assert err < 1e-8

    def test_large_gamma_kills_divergence(self, grid3d):
        xs = coords(grid3d)
        # pure gradient field: maximally divergent initial data
        u0 = from_samples(grid3d, np.stack([
            np.cos(xs[0]), np.zeros(grid3d.shape), np.zeros(grid3d.shape)]))
        cfg = StepperConfig(dt=1e-2, t_end=1.0)
        u1 = step(u0, FlowParams(nu=0.01, gamma=1e6), zeros(grid3d), cfg)
        params = FlowParams(nu=0.01, gamma=1e6)
        reduction = math.sqrt(field_diagnostics(u0, params).div_sq / field_diagnostics(u1, params).div_sq)
        assert reduction >= 1e3

    def test_energy_dissipative_unforced(self, grid2d):
        u = random_state_field(grid2d, seed=12)
        params = FlowParams(nu=0.05, gamma=0.5)
        cfg = StepperConfig(dt=2e-3, t_end=1.0)
        f = zeros(grid2d)
        e_prev = parseval_sum(grid2d, u.spec)
        for i in range(50):
            u = step(u, params, f, cfg, t=i * cfg.dt)
            e = parseval_sum(grid2d, u.spec)
            assert e <= e_prev + 1e-10 * e_prev
            e_prev = e

    def test_zero_mean_preserved_exactly(self, grid2d):
        u = random_state_field(grid2d, seed=13)
        params = FlowParams(nu=0.05, gamma=1.0)
        cfg = StepperConfig(dt=2e-3, t_end=1.0)
        f = zeros(grid2d)
        for i in range(20):
            u = step(u, params, f, cfg, t=i * cfg.dt)
            assert np.all(u.spec[:, 0, 0] == 0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_detected(self, grid2d):
        u = Field(grid2d, 1e150 * random_state_field(grid2d, seed=1).spec)
        cfg = StepperConfig(dt=10.0, t_end=100.0)
        with pytest.raises(BlowUpError, match="blow-up"):
            v = u
            for i in range(20):
                v = step(v, FlowParams(nu=1e-6, gamma=0.0), zeros(grid2d), cfg, t=i * cfg.dt)


class TestTransformCount:
    """A step makes two nonlinear evaluations, each one 1-D pass per axis each way, and no n-d transform."""

    # lines per evaluation at n = 16 (cutoff 5, so 11 and 6 kept entries on a full and the last axis):
    # 2d inverse 4*6 + 4*16, forward 3*16 + 3*6; 3d inverse 7*11*6 + 7*16*6 + 7*16*16,
    # forward 4*16*16 + 4*16*6 + 4*11*6. The n-d transforms of the half-spectrum took 350 and
    # 11968 lines per step.
    @pytest.mark.parametrize("dim, lines", [(2, 308), (3, 9196)])
    def test_line_transforms_per_step(self, monkeypatch, dim, lines):
        grid = GridSpec(dim=dim, n=16, box_length=TWO_PI)
        u = random_state_field(grid, seed=3)
        f = random_state_field(grid, seed=4)
        counted, nd_calls = [], []

        def counting(fft):
            def wrapper(a, *args, axis=-1, **kwargs):
                counted.append(math.prod(a.shape) // a.shape[axis])
                return fft(a, *args, axis=axis, **kwargs)
            return wrapper

        def recording(fft):
            def wrapper(*args, **kwargs):
                nd_calls.append(fft.__name__)
                return fft(*args, **kwargs)
            return wrapper

        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
        for name in ("rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, recording(getattr(np.fft, name)))
        step(u, FlowParams(nu=0.05, gamma=1.0), f, StepperConfig(dt=1e-3, t_end=1.0))
        assert sum(counted) == lines
        assert len(counted) == 2 * 2 * dim
        assert nd_calls == []


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

    def test_each_target_time_is_transformed_once(self, grid2d):
        # step i's end state is also step i + 1's first-stage state; a(t) is read once per state
        target = divergent_mms_target(grid2d)
        amp, times = target.amp, []
        target.amp = lambda t: times.append(t) or amp(t)
        run_mms(target, FlowParams(nu=0.05, gamma=1.0), StepperConfig(dt=1e-2, t_end=0.05))
        assert len(times) == len(set(times)) == 1 + 2 * 5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_raises(self):
        # the state is non-finite after step 4; the error must not stay at step 3's value
        grid = GridSpec(dim=2, n=16, box_length=TWO_PI)
        target = divergent_mms_target(grid, amplitude=5000.0)
        with pytest.raises(BlowUpError, match=r"t = 2\.0$"):
            run_mms(target, FlowParams(nu=1e-4, gamma=0.0), StepperConfig(dt=0.5, t_end=2.5))
