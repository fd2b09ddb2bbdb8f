import math

import numpy as np
import pytest

from graddivbox.grid import Field, dealias, gradient, volume_norm_sq, zero_mean
from graddivbox.solver import FlowParams, StepperConfig, step
from graddivbox.stats import Diagnostics, RunningStats, diagnostics, finalize, update
from graddivbox.forcing import ForceStats

from conftest import coords, random_state_field, shear_field


def fold(stats, u_prev, u_next, params, f, dt):
    """update() with the diagnostics records a run would carry for both states."""
    return update(stats, u_prev, diagnostics(u_prev, params), u_next,
                  diagnostics(u_next, params), params, f, dt)


class TestDissipationRate:
    def test_shear(self, grid3d):
        # |grad u|^2 has volume mean 1/2 for unit shear; div-free kills the gamma channel
        d = diagnostics(shear_field(grid3d), FlowParams(nu=1.0, gamma=7.0))
        assert d.eps_nu == pytest.approx(0.5, rel=1e-12)
        assert d.eps_gamma == pytest.approx(0.0, abs=1e-24)
        assert d.div_sq == pytest.approx(0.0, abs=1e-24)
        assert d.u_sq == pytest.approx(0.5, rel=1e-12)

    def test_gradient_field_gamma_channel(self, grid2d):
        xs = coords(grid2d)
        # u = grad(sin x) = (cos x, 0): div u = -sin x, mean square 1/2
        u = Field.from_physical(grid2d, np.stack([np.cos(xs[0]), np.zeros(grid2d.shape)]))
        d = diagnostics(u, FlowParams(nu=1e-30, gamma=2.0))
        assert d.div_sq == pytest.approx(0.5, rel=1e-12)
        assert d.eps_gamma == pytest.approx(1.0, rel=1e-12)
        assert d.eps_nu <= 1e-29

    def test_zero_field(self, grid2d):
        d = diagnostics(Field.zeros(grid2d), FlowParams(nu=1.0, gamma=1.0))
        assert (d.u_sq, d.eps_nu, d.eps_gamma, d.div_sq) == (0.0, 0.0, 0.0, 0.0)

    def test_gamma_zero_kills_channel(self, grid2d):
        u = random_state_field(grid2d, seed=2)
        d = diagnostics(u, FlowParams(nu=0.1, gamma=0.0))
        assert d.eps_gamma == 0.0
        assert d.div_sq > 0.0

    def test_parseval_consistency(self, grid2d):
        # spectral dissipation equals physical-space quadrature of nu |grad u|^2 + gamma (div u)^2
        u = random_state_field(grid2d, seed=31)
        params = FlowParams(nu=0.7, gamma=1.3)
        rec = diagnostics(u, params)
        g = gradient(u).phys
        from graddivbox.grid import divergence
        d = divergence(u).phys[0]
        assert rec.eps_nu == pytest.approx(params.nu * float(np.mean(np.sum(g * g, axis=0))), rel=1e-10)
        assert rec.div_sq == pytest.approx(float(np.mean(d * d)), rel=1e-10)
        assert rec.eps_gamma == pytest.approx(params.gamma * rec.div_sq, rel=1e-15)
        assert rec.u_sq == pytest.approx(float(np.mean(np.sum(u.phys * u.phys, axis=0))), rel=1e-12)


class TestUpdate:
    def test_residual_third_order_in_dt(self, grid2d):
        # unforced step: energy-budget residual shrinks ~8x under dt halving
        params = FlowParams(nu=0.05, gamma=0.5)
        f = Field.zeros(grid2d)
        u0 = random_state_field(grid2d, seed=5)
        res = []
        for dt in (4e-3, 2e-3):
            u1 = step(u0, params, f, StepperConfig(dt=dt, t_end=1.0), t=0.0)
            res.append(abs(fold(RunningStats(), u0, u1, params, f, dt).last_residual))
        assert res[1] <= 0.2 * res[0]

    def test_trapezoid_sums_read_the_records(self, grid2d):
        # the integrands come from the records passed in; only the midpoint is recomputed
        u = shear_field(grid2d)
        stats = update(RunningStats(), u, Diagnostics(1.0, 2.0, 3.0, 4.0), u,
                       Diagnostics(5.0, 6.0, 7.0, 8.0), FlowParams(nu=1.0, gamma=0.0),
                       Field.zeros(grid2d), dt=0.5)
        assert (stats.int_u_sq, stats.int_eps_nu, stats.int_eps_gamma, stats.int_div_sq) == (1.5, 2.0, 2.5, 3.0)
        # 1/2 (5 - 1) + dt eps(mid), with eps(mid) = 1/2 for unit shear at nu = 1
        assert stats.last_residual == pytest.approx(2.25, rel=1e-12)

    def test_stationary_integral_grows_linearly(self, grid2d):
        u = shear_field(grid2d)
        params = FlowParams(nu=1.0, gamma=0.0)
        f = Field.zeros(grid2d)
        stats = RunningStats(burn_in=0.0)
        for _ in range(10):
            fold(stats, u, u, params, f, dt=0.1)
        # constant integrand eps = 0.5 accumulated over t = 1
        assert stats.int_eps_nu + stats.int_eps_gamma == pytest.approx(0.5, rel=1e-12)
        assert stats.t_accum == pytest.approx(1.0)

    def test_burn_in_excludes_accumulation(self, grid2d):
        u = shear_field(grid2d)
        params = FlowParams(nu=1.0, gamma=0.0)
        f = Field.zeros(grid2d)
        stats = RunningStats(burn_in=0.5)
        for _ in range(4):
            fold(stats, u, u, params, f, dt=0.1)
        assert stats.t_accum == 0.0
        assert stats.int_eps_nu + stats.int_eps_gamma == 0.0
        for _ in range(6):
            fold(stats, u, u, params, f, dt=0.1)
        assert stats.t_accum == pytest.approx(0.5)

    def test_clock_is_the_step_index(self, grid2d):
        # 929 additions of 0.1 give 92.899999999999, short of burn_in; 929 * 0.1 is not
        u = shear_field(grid2d)
        stats = RunningStats(burn_in=92.9, step=929)
        fold(stats, u, u, FlowParams(nu=1.0, gamma=0.0), Field.zeros(grid2d), dt=0.1)
        assert (stats.step, stats.t_accum) == (930, 0.1)

    def test_accumulator_split_consistent(self, grid2d):
        params = FlowParams(nu=0.3, gamma=0.9)
        f = Field.zeros(grid2d)
        stats = RunningStats(burn_in=0.0)
        u = random_state_field(grid2d, seed=7)
        cfg = StepperConfig(dt=1e-3, t_end=1.0)
        for i in range(5):
            un = step(u, params, f, cfg, t=i * cfg.dt)
            fold(stats, u, un, params, f, cfg.dt)
            u = un
        assert stats.int_eps_nu >= 0 and stats.int_eps_gamma >= 0 and stats.int_u_sq >= 0


class TestFinalize:
    def test_constant_dissipation(self, grid2d):
        u = shear_field(grid2d)
        params = FlowParams(nu=1.0, gamma=0.0)
        stats = RunningStats(burn_in=0.0)
        for _ in range(20):
            fold(stats, u, u, params, Field.zeros(grid2d), dt=0.05)
        out = finalize(stats)
        assert out["eps_avg"] == pytest.approx(0.5, rel=1e-12)

    def test_constant_velocity_scale(self, grid2d):
        u = shear_field(grid2d, amplitude=3.0)
        stats = RunningStats(burn_in=0.0)
        for _ in range(8):
            fold(stats, u, u, FlowParams(nu=1.0, gamma=0.0), Field.zeros(grid2d), dt=0.1)
        out = finalize(stats)
        # ||u||^2 volume mean is amplitude^2 / 2
        assert out["U_T"] == pytest.approx(3.0 / np.sqrt(2), rel=1e-12)

    def test_empty_window_errors(self):
        with pytest.raises(ValueError, match="window"):
            finalize(RunningStats(burn_in=0.0))

    def test_normalized_dissipation_with_force_stats(self, grid2d):
        u = shear_field(grid2d)
        stats = RunningStats(burn_in=0.0)
        fold(stats, u, u, FlowParams(nu=1.0, gamma=0.0), Field.zeros(grid2d), dt=1.0)
        fstats = ForceStats(F=1.0, L=2.0, L_branch="box_length", kappa=1.4,
                            grad_f_sup=1.0, grad_f_l2=1.0)
        out = finalize(stats, fstats)
        assert out["eps_normalized"] == pytest.approx(out["eps_avg"] * 2.0 / out["U_T"] ** 3)

    def test_window_doubling_stationary(self, grid2d):
        # stationarity diagnostic: doubling the window barely moves the average
        u = shear_field(grid2d)
        params = FlowParams(nu=1.0, gamma=0.0)
        s1 = RunningStats(burn_in=0.0)
        s2 = RunningStats(burn_in=0.0)
        for _ in range(10):
            fold(s1, u, u, params, Field.zeros(grid2d), dt=0.1)
        for _ in range(20):
            fold(s2, u, u, params, Field.zeros(grid2d), dt=0.1)
        a, b = finalize(s1)["eps_avg"], finalize(s2)["eps_avg"]
        assert abs(a - b) <= 0.05 * abs(a)


class TestEnergyOverTime:
    def test_final_energy_over_window_decays(self, grid2d):
        # ||u(T)||^2 / T halves when T doubles for statistically steady data
        u = shear_field(grid2d)
        e = volume_norm_sq(u)
        t1, t2 = 1.0, 2.0
        assert e / t2 <= 0.75 * (e / t1)
