import math

import numpy as np
import pytest

from graddivbox.grid import GridSpec, parseval_sum, project_divergence_free
from graddivbox.solver import (
    BlowUpError,
    FlowParams,
    ManufacturedSolution,
    StepperConfig,
    divergent_mms_target,
    imex_step,
    nonlinear_term,
    run_mms,
)
from graddivbox.stats import diagnostics

from conftest import (
    TWO_PI,
    coords,
    divergence,
    from_samples,
    inner,
    operator,
    random_state,
    samples,
    shear_state,
    zeros,
)


class TestRhs:
    """The right-hand side: the nonlinear term, and a state the step refuses."""

    def test_skew_symmetry_random(self, grid3d):
        for seed in range(5):
            u = random_state(grid3d, seed=seed)
            n = nonlinear_term(u, operator(grid3d))
            rel = abs(inner(grid3d, n, u)) / math.sqrt(parseval_sum(grid3d, n) * parseval_sum(grid3d, u))
            assert rel <= 1e-10

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_state_raises(self, grid2d):
        bad = from_samples(grid2d, np.full((2,) + grid2d.shape, np.nan))
        f = zeros(grid2d)
        with pytest.raises(BlowUpError, match="t = 0.001"):
            imex_step(bad, 0.0, operator(grid2d, FlowParams(nu=0.1, gamma=0.0), 1e-3), f, f)

    def test_skew_term_inert_on_divergence_free(self, grid2d):
        # with div-free data the -(1/2)(div u) u term contributes nothing
        u = project_divergence_free(grid2d, random_state(grid2d, seed=4))
        full = nonlinear_term(u, operator(grid2d))
        # recompute the skew half alone: N includes it with weight 1/2
        dp = samples(grid2d, divergence(grid2d, u))[0]
        skew = from_samples(grid2d, dp * samples(grid2d, u))
        assert np.max(np.abs(skew)) <= 1e-10 * max(np.max(np.abs(full)), 1.0)


class TestStep:
    def test_shear_decay_exact(self, grid3d):
        nu = 0.1
        op = operator(grid3d, FlowParams(nu=nu, gamma=1.0), 1e-3)
        u = shear_state(grid3d)
        f = zeros(grid3d)
        for i in range(200):
            u = imex_step(u, i * op.dt, op, f, f)
        exact = np.exp(-nu * 0.2) * samples(grid3d, shear_state(grid3d))
        err = np.sqrt(parseval_sum(grid3d, from_samples(grid3d, samples(grid3d, u) - exact)))
        assert err < 1e-8

    def test_large_gamma_kills_divergence(self, grid3d):
        xs = coords(grid3d)
        # pure gradient field: maximally divergent initial data
        u0 = from_samples(grid3d, np.stack([
            np.cos(xs[0]), np.zeros(grid3d.shape), np.zeros(grid3d.shape)]))
        op = operator(grid3d, FlowParams(nu=0.01, gamma=1e6), 1e-2)
        f = zeros(grid3d)
        u1 = imex_step(u0, 0.0, op, f, f)
        reduction = math.sqrt(diagnostics(u0, op).div_norm_sq / diagnostics(u1, op).div_norm_sq)
        assert reduction >= 1e3

    def test_energy_dissipative_unforced(self, grid2d):
        u = random_state(grid2d, seed=12)
        op = operator(grid2d, FlowParams(nu=0.05, gamma=0.5), 2e-3)
        f = zeros(grid2d)
        e_prev = parseval_sum(grid2d, u)
        for i in range(50):
            u = imex_step(u, i * op.dt, op, f, f)
            e = parseval_sum(grid2d, u)
            assert e <= e_prev + 1e-10 * e_prev
            e_prev = e

    def test_zero_mean_preserved_exactly(self, grid2d):
        u = random_state(grid2d, seed=13)
        op = operator(grid2d, FlowParams(nu=0.05, gamma=1.0), 2e-3)
        f = zeros(grid2d)
        for i in range(20):
            u = imex_step(u, i * op.dt, op, f, f)
            assert np.all(u[:, 0, 0] == 0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_detected(self, grid2d):
        u = 1e150 * random_state(grid2d, seed=1)
        op = operator(grid2d, FlowParams(nu=1e-6, gamma=0.0), 10.0)
        f = zeros(grid2d)
        with pytest.raises(BlowUpError, match="blow-up"):
            for i in range(20):
                u = imex_step(u, i * op.dt, op, f, f)


class TestEvenGrids:
    """Grids of an even n that is no power of two hold the gate's criteria 1, 2 and 3 at its tolerances."""

    @pytest.mark.parametrize("dim, n", [(2, 48), (2, 96), (3, 48), (3, 96)])
    def test_skew_symmetry(self, dim, n):
        grid = GridSpec(dim=dim, n=n, box_length=TWO_PI)
        for seed in range(3):
            u = random_state(grid, seed=seed)
            nl = nonlinear_term(u, operator(grid))
            rel = abs(inner(grid, nl, u)) / math.sqrt(parseval_sum(grid, nl) * parseval_sum(grid, u))
            assert rel <= 1e-10

    @pytest.mark.parametrize("n", [48, 96])
    def test_shear_decays_at_the_viscous_rate(self, n):
        # criterion 3 in 2d: sin(y) e_x decays as exp(-nu t) for every gamma, to 1e-6 at t = 1
        grid = GridSpec(dim=2, n=n, box_length=TWO_PI)
        nu, dt = 0.1, 1e-3
        u0 = shear_state(grid)
        for gamma in (0.0, 1.0, 1e3):
            u = u0
            op = operator(grid, FlowParams(nu=nu, gamma=gamma), dt)
            f = zeros(grid)
            for i in range(1000):
                u = imex_step(u, i * dt, op, f, f)
            assert math.sqrt(parseval_sum(grid, u - math.exp(-nu) * u0)) <= 1e-6

    def test_mms_temporal_order(self):
        # criterion 2 at 2d n = 48
        grid = GridSpec(dim=2, n=48, box_length=TWO_PI)
        target = divergent_mms_target(grid)
        params = FlowParams(nu=0.05, gamma=1.0)
        errs = [run_mms(target, params, StepperConfig(dt=dt, t_end=0.4))["max_l2_error"]
                for dt in (4e-3, 2e-3, 1e-3)]
        assert min(math.log2(a / b) for a, b in zip(errs, errs[1:])) >= 1.9


class TestTransformCount:
    """A step makes two nonlinear evaluations, each one 1-D pass per axis each way, and no n-d transform."""

    # lines per evaluation at n = 16 (cutoff 5, so 11 and 6 kept entries on a full and the last axis):
    # 2d inverse 4*6 + 4*16, forward 3*16 + 3*6; 3d inverse 7*11*6 + 7*16*6 + 7*16*16,
    # forward 4*16*16 + 4*16*6 + 4*11*6. The n-d transforms of the half-spectrum took 350 and
    # 11968 lines per step. At n = 48 (cutoff 15, so 31 and 16 kept): 2d inverse 4*16 + 4*48,
    # forward 3*48 + 3*16, 448 per evaluation; 3d inverse 7*31*16 + 7*48*16 + 7*48*48, forward
    # 4*48*48 + 4*48*16 + 4*31*16, 39248 per evaluation.
    @pytest.mark.parametrize("dim, n, lines", [(2, 16, 308), (3, 16, 9196), (2, 48, 896), (3, 48, 78496)])
    def test_line_transforms_per_step(self, monkeypatch, dim, n, lines):
        grid = GridSpec(dim=dim, n=n, box_length=TWO_PI)
        u = random_state(grid, seed=3)
        f = random_state(grid, seed=4)
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
        imex_step(u, 0.0, operator(grid, FlowParams(nu=0.05, gamma=1.0), 1e-3), f, f)
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
