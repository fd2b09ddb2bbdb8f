import math

import numpy as np
import pytest

from graddivbox.grid import Field, parseval_sum, wavevectors
from graddivbox.solver import FlowParams, StepperConfig
from graddivbox.stats import Diagnostics, diagnostics, finalize, update
from graddivbox.forcing import ForceStats

from conftest import (
    coords,
    divergence,
    field_diagnostics,
    from_samples,
    operator,
    random_state_field,
    samples,
    shear_field,
    step,
    zeros,
)


def fold(records, u_prev, u_next, params, f, dt):
    """update() from `u_prev`, whose record a run would hold (the first when `records` is empty), to `u_next`."""
    op = operator(u_prev.grid, params, dt)
    if not records:
        records.append((diagnostics(u_prev.spec, op), 0.0))
    update(records, u_prev.spec, u_next.spec, diagnostics(u_next.spec, op), op, f.spec)
    return records


class TestDissipationRate:
    def test_shear(self, grid3d):
        # |grad u|^2 has volume mean 1/2 for unit shear; div-free kills the gamma channel
        d = field_diagnostics(shear_field(grid3d), FlowParams(nu=1.0, gamma=7.0))
        assert d.eps_nu == pytest.approx(0.5, rel=1e-12)
        assert d.eps_gamma == pytest.approx(0.0, abs=1e-24)
        assert d.div_sq == pytest.approx(0.0, abs=1e-24)
        assert d.u_sq == pytest.approx(0.5, rel=1e-12)

    def test_gradient_field_gamma_channel(self, grid2d):
        xs = coords(grid2d)
        # u = grad(sin x) = (cos x, 0): div u = -sin x, mean square 1/2
        u = from_samples(grid2d, np.stack([np.cos(xs[0]), np.zeros(grid2d.shape)]))
        d = field_diagnostics(u, FlowParams(nu=1e-30, gamma=2.0))
        assert d.div_sq == pytest.approx(0.5, rel=1e-12)
        assert d.eps_gamma == pytest.approx(1.0, rel=1e-12)
        assert d.eps_nu <= 1e-29

    def test_zero_field(self, grid2d):
        d = field_diagnostics(zeros(grid2d), FlowParams(nu=1.0, gamma=1.0))
        assert (d.u_sq, d.eps_nu, d.eps_gamma, d.div_sq) == (0.0, 0.0, 0.0, 0.0)

    def test_gamma_zero_kills_channel(self, grid2d):
        u = random_state_field(grid2d, seed=2)
        d = field_diagnostics(u, FlowParams(nu=0.1, gamma=0.0))
        assert d.eps_gamma == 0.0
        assert d.div_sq > 0.0

    def test_parseval_consistency(self, grid2d):
        # spectral dissipation equals physical-space quadrature of nu |grad u|^2 + gamma (div u)^2
        u = random_state_field(grid2d, seed=31)
        params = FlowParams(nu=0.7, gamma=1.3)
        rec = field_diagnostics(u, params)
        grad = 1j * np.stack(wavevectors(grid2d)) * u.spec[:, np.newaxis]
        g = samples(Field(grid2d, grad.reshape((4,) + grid2d.compact_shape)))
        d = samples(Field(grid2d, divergence(u)))[0]
        assert rec.eps_nu == pytest.approx(params.nu * float(np.mean(np.sum(g * g, axis=0))), rel=1e-10)
        assert rec.div_sq == pytest.approx(float(np.mean(d * d)), rel=1e-10)
        assert rec.eps_gamma == pytest.approx(params.gamma * rec.div_sq, rel=1e-15)
        assert rec.u_sq == pytest.approx(float(np.mean(np.sum(samples(u) ** 2, axis=0))), rel=1e-12)


class TestUpdate:
    def test_residual_third_order_in_dt(self, grid2d):
        # unforced step: energy-budget residual shrinks ~8x under dt halving
        params = FlowParams(nu=0.05, gamma=0.5)
        f = zeros(grid2d)
        u0 = random_state_field(grid2d, seed=5)
        res = []
        for dt in (4e-3, 2e-3):
            u1 = step(u0, params, f, StepperConfig(dt=dt, t_end=1.0), t=0.0)
            res.append(abs(fold([], u0, u1, params, f, dt)[-1][1]))
        assert res[1] <= 0.2 * res[0]

    def test_trapezoid_sums_read_the_records(self, grid2d):
        # update appends the step's record, its residual from the records and the midpoint only
        op = operator(grid2d, FlowParams(nu=1.0, gamma=0.0), 0.5)
        u = shear_field(grid2d).spec
        records = [(Diagnostics(1.0, 2.0, 3.0, 4.0), 0.0)]
        update(records, u, u, Diagnostics(5.0, 6.0, 7.0, 8.0), op, np.zeros_like(u))
        # 1/2 (5 - 1) + dt eps(mid), with eps(mid) = 1/2 for unit shear at nu = 1
        assert records[1][0] == Diagnostics(5.0, 6.0, 7.0, 8.0)
        assert records[1][1] == pytest.approx(2.25, rel=1e-12)
        # finalize sums the records alone: over a window of 0.5, each average is the mean of the pair
        out = finalize(0, records, 0.5, 0.0)
        assert (out["U_T"], out["eps_nu_avg"], out["eps_gamma_avg"], out["div_norm_sq_avg"]) == (np.sqrt(3.0), 4.0, 5.0, 6.0)
        assert (out["window"], out["budget_residual_max"]) == (0.5, records[1][1])

    def test_stationary_integral_grows_linearly(self, grid2d):
        u = shear_field(grid2d)
        params = FlowParams(nu=1.0, gamma=0.0)
        f = zeros(grid2d)
        records = []
        for _ in range(10):
            fold(records, u, u, params, f, dt=0.1)
        out = finalize(0, records, 0.1, 0.0)
        # constant integrand eps = 0.5 accumulated over t = 1
        assert out["eps_avg"] * out["window"] == pytest.approx(0.5, rel=1e-12)
        assert out["window"] == pytest.approx(1.0)

    def test_burn_in_excludes_accumulation(self, grid2d):
        u = shear_field(grid2d)
        params = FlowParams(nu=1.0, gamma=0.0)
        f = zeros(grid2d)
        records = []
        for _ in range(4):
            fold(records, u, u, params, f, dt=0.1)
        with pytest.raises(ValueError, match="no averaging window"):
            finalize(0, records, 0.1, 0.5)
        for _ in range(6):
            fold(records, u, u, params, f, dt=0.1)
        assert finalize(0, records, 0.1, 0.5)["window"] == pytest.approx(0.5)

    def test_clock_is_the_step_index(self, grid2d):
        # 929 additions of 0.1 give 92.899999999999, short of burn_in; 929 * 0.1 is not
        u = shear_field(grid2d)
        records = fold([], u, u, FlowParams(nu=1.0, gamma=0.0), zeros(grid2d), dt=0.1)
        assert finalize(929, records, 0.1, 92.9)["window"] == 0.1

    def test_accumulator_split_consistent(self, grid2d):
        params = FlowParams(nu=0.3, gamma=0.9)
        f = zeros(grid2d)
        records = []
        u = random_state_field(grid2d, seed=7)
        cfg = StepperConfig(dt=1e-3, t_end=1.0)
        for i in range(5):
            un = step(u, params, f, cfg, t=i * cfg.dt)
            fold(records, u, un, params, f, cfg.dt)
            u = un
        out = finalize(0, records, cfg.dt, 0.0)
        assert out["eps_nu_avg"] >= 0 and out["eps_gamma_avg"] >= 0 and out["U_T"] >= 0
        assert out["eps_avg"] == out["eps_nu_avg"] + out["eps_gamma_avg"]


class TestFinalize:
    def test_constant_dissipation(self, grid2d):
        u = shear_field(grid2d)
        params = FlowParams(nu=1.0, gamma=0.0)
        records = []
        for _ in range(20):
            fold(records, u, u, params, zeros(grid2d), dt=0.05)
        out = finalize(0, records, 0.05, 0.0)
        assert out["eps_avg"] == pytest.approx(0.5, rel=1e-12)

    def test_constant_velocity_scale(self, grid2d):
        u = shear_field(grid2d, amplitude=3.0)
        records = []
        for _ in range(8):
            fold(records, u, u, FlowParams(nu=1.0, gamma=0.0), zeros(grid2d), dt=0.1)
        out = finalize(0, records, 0.1, 0.0)
        # ||u||^2 volume mean is amplitude^2 / 2
        assert out["U_T"] == pytest.approx(3.0 / np.sqrt(2), rel=1e-12)

    def test_empty_window_errors(self):
        # one record is a state and no step
        with pytest.raises(ValueError, match="window"):
            finalize(0, [(Diagnostics(1.0, 1.0, 1.0, 1.0), 0.0)], 0.1, 0.0)

    def test_normalized_dissipation_with_force_stats(self, grid2d):
        u = shear_field(grid2d)
        records = fold([], u, u, FlowParams(nu=1.0, gamma=0.0), zeros(grid2d), dt=1.0)
        fstats = ForceStats(F=1.0, L=2.0, L_branch="box_length", kappa=1.4,
                            grad_f_sup=1.0, grad_f_l2=1.0)
        out = finalize(0, records, 1.0, 0.0, fstats)
        assert out["eps_normalized"] == pytest.approx(out["eps_avg"] * 2.0 / out["U_T"] ** 3)
        assert "eps_normalized" not in finalize(0, records, 1.0, 0.0)

    def test_window_doubling_stationary(self, grid2d):
        # stationarity diagnostic: doubling the window barely moves the average
        u = shear_field(grid2d)
        params = FlowParams(nu=1.0, gamma=0.0)
        r1, r2 = [], []
        for _ in range(10):
            fold(r1, u, u, params, zeros(grid2d), dt=0.1)
        for _ in range(20):
            fold(r2, u, u, params, zeros(grid2d), dt=0.1)
        a, b = finalize(0, r1, 0.1, 0.0)["eps_avg"], finalize(0, r2, 0.1, 0.0)["eps_avg"]
        assert abs(a - b) <= 0.05 * abs(a)

    def test_budget_residual_max_is_over_all_records_and_nonnegative(self):
        def records(*residuals):
            return [(Diagnostics(1.0, 1.0, 1.0, 1.0), r) for r in residuals]

        # the largest residual counts even when its step lies before the window
        assert finalize(0, records(0.0, 3.0, -1.0, 0.5), 0.1, 0.2)["budget_residual_max"] == 3.0
        assert finalize(0, records(0.0, -1.0, -2.0), 0.1, 0.0)["budget_residual_max"] == 0.0


class TestEnergyOverTime:
    def test_final_energy_over_window_decays(self, grid2d):
        # ||u(T)||^2 / T halves when T doubles for statistically steady data
        u = shear_field(grid2d)
        e = parseval_sum(grid2d, u.spec)
        t1, t2 = 1.0, 2.0
        assert e / t2 <= 0.75 * (e / t1)
