import numpy as np
import pytest

from graddivbox.config import RunConfig
from graddivbox.grid import parseval_sum, wavevectors
from graddivbox.runner import _summarize
from graddivbox.solver import FlowParams, StepperConfig, imex_step
from graddivbox.stats import Diagnostics, diagnostics, finalize, update
from graddivbox.forcing import ForceStats, ForcingSpec

from conftest import (
    coords,
    divergence,
    from_samples,
    operator,
    random_state,
    samples,
    shear_state,
    zeros,
)


def fold(records, u_prev, u_next, op, f):
    """update() from `u_prev`, whose record a run would hold (the first when `records` is empty), to `u_next`."""
    if not records:
        records.append((diagnostics(u_prev, op), 0.0))
    update(records, u_prev, u_next, diagnostics(u_next, op), op, f)
    return records


class TestDissipationRate:
    def test_shear(self, grid3d):
        # |grad u|^2 has volume mean 1/2 for unit shear; div-free kills the gamma channel
        d = diagnostics(shear_state(grid3d), operator(grid3d, FlowParams(nu=1.0, gamma=7.0)))
        assert d.eps_nu == pytest.approx(0.5, rel=1e-12)
        assert d.eps_gamma == pytest.approx(0.0, abs=1e-24)
        assert d.div_norm_sq == pytest.approx(0.0, abs=1e-24)
        assert d.kinetic_energy == pytest.approx(0.25, rel=1e-12)

    def test_gradient_field_gamma_channel(self, grid2d):
        xs = coords(grid2d)
        # u = grad(sin x) = (cos x, 0): div u = -sin x, mean square 1/2
        u = from_samples(grid2d, np.stack([np.cos(xs[0]), np.zeros(grid2d.shape)]))
        d = diagnostics(u, operator(grid2d, FlowParams(nu=1e-30, gamma=2.0)))
        assert d.div_norm_sq == pytest.approx(0.5, rel=1e-12)
        assert d.eps_gamma == pytest.approx(1.0, rel=1e-12)
        assert d.eps_nu <= 1e-29

    def test_zero_field(self, grid2d):
        d = diagnostics(zeros(grid2d), operator(grid2d, FlowParams(nu=1.0, gamma=1.0)))
        assert (d.kinetic_energy, d.eps_nu, d.eps_gamma, d.div_norm_sq) == (0.0, 0.0, 0.0, 0.0)

    def test_gamma_zero_kills_channel(self, grid2d):
        u = random_state(grid2d, seed=2)
        d = diagnostics(u, operator(grid2d, FlowParams(nu=0.1, gamma=0.0)))
        assert d.eps_gamma == 0.0
        assert d.div_norm_sq > 0.0

    def test_parseval_consistency(self, grid2d):
        # spectral dissipation equals physical-space quadrature of nu |grad u|^2 + gamma (div u)^2
        u = random_state(grid2d, seed=31)
        params = FlowParams(nu=0.7, gamma=1.3)
        rec = diagnostics(u, operator(grid2d, params))
        grad = 1j * np.stack(wavevectors(grid2d)) * u[:, np.newaxis]
        g = samples(grid2d, grad.reshape((4,) + grid2d.compact_shape))
        d = samples(grid2d, divergence(grid2d, u))[0]
        assert rec.eps_nu == pytest.approx(params.nu * float(np.mean(np.sum(g * g, axis=0))), rel=1e-10)
        assert rec.div_norm_sq == pytest.approx(float(np.mean(d * d)), rel=1e-10)
        assert rec.eps_gamma == pytest.approx(params.gamma * rec.div_norm_sq, rel=1e-15)
        assert rec.kinetic_energy == pytest.approx(0.5 * float(np.mean(np.sum(samples(grid2d, u) ** 2, axis=0))),
                                                   rel=1e-12)


class TestUpdate:
    def test_residual_third_order_in_dt(self, grid2d):
        # unforced step: energy-budget residual shrinks ~8x under dt halving
        params = FlowParams(nu=0.05, gamma=0.5)
        f = zeros(grid2d)
        u0 = random_state(grid2d, seed=5)
        res = []
        for dt in (4e-3, 2e-3):
            op = operator(grid2d, params, dt)
            u1 = imex_step(u0, 0.0, op, f, f)
            res.append(abs(fold([], u0, u1, op, f)[-1][1]))
        assert res[1] <= 0.2 * res[0]

    def test_trapezoid_sums_read_the_records(self, grid2d):
        # update appends the step's record, its residual from the records and the midpoint only
        op = operator(grid2d, FlowParams(nu=1.0, gamma=0.0), 0.5)
        u = shear_state(grid2d)
        records = [(Diagnostics(0.5, 2.0, 3.0, 4.0), 0.0)]
        update(records, u, u, Diagnostics(2.5, 6.0, 7.0, 8.0), op, np.zeros_like(u))
        # (2.5 - 0.5) + dt eps(mid), with eps(mid) = 1/2 for unit shear at nu = 1
        assert records[1][0] == Diagnostics(2.5, 6.0, 7.0, 8.0)
        assert records[1][1] == pytest.approx(2.25, rel=1e-12)
        # finalize sums the records alone: over a window of 0.5, each average is the mean of the pair
        out = finalize(0, records, 0.5, 0.0)
        assert (out["U_T"], out["eps_nu_avg"], out["eps_gamma_avg"], out["div_norm_sq_avg"]) == (np.sqrt(3.0), 4.0, 5.0, 6.0)
        assert (out["window"], out["budget_residual_max"]) == (0.5, records[1][1])

    def test_stationary_integral_grows_linearly(self, grid2d):
        u = shear_state(grid2d)
        op = operator(grid2d, FlowParams(nu=1.0, gamma=0.0), 0.1)
        f = zeros(grid2d)
        records = []
        for _ in range(10):
            fold(records, u, u, op, f)
        out = finalize(0, records, 0.1, 0.0)
        # constant integrand eps = 0.5 accumulated over t = 1
        assert out["eps_avg"] * out["window"] == pytest.approx(0.5, rel=1e-12)
        assert out["window"] == pytest.approx(1.0)

    def test_burn_in_excludes_accumulation(self, grid2d):
        u = shear_state(grid2d)
        op = operator(grid2d, FlowParams(nu=1.0, gamma=0.0), 0.1)
        f = zeros(grid2d)
        records = []
        for _ in range(4):
            fold(records, u, u, op, f)
        with pytest.raises(ValueError, match="no averaging window"):
            finalize(0, records, 0.1, 5)
        for _ in range(6):
            fold(records, u, u, op, f)
        assert finalize(0, records, 0.1, 5)["window"] == pytest.approx(0.5)

    def test_clock_is_the_step_index(self, grid2d):
        # 929 additions of 0.1 give 92.899999999999, short of burn_in; 929 * 0.1 is not
        u = shear_state(grid2d)
        records = fold([], u, u, operator(grid2d, FlowParams(nu=1.0, gamma=0.0), 0.1), zeros(grid2d))
        assert finalize(929, records, 0.1, 929)["window"] == 0.1

    def test_accumulator_split_consistent(self, grid2d):
        op = operator(grid2d, FlowParams(nu=0.3, gamma=0.9), 1e-3)
        f = zeros(grid2d)
        records = []
        u = random_state(grid2d, seed=7)
        for i in range(5):
            un = imex_step(u, i * op.dt, op, f, f)
            fold(records, u, un, op, f)
            u = un
        out = finalize(0, records, op.dt, 0.0)
        assert out["eps_nu_avg"] >= 0 and out["eps_gamma_avg"] >= 0 and out["U_T"] >= 0
        assert out["eps_avg"] == out["eps_nu_avg"] + out["eps_gamma_avg"]


class TestFinalize:
    def test_constant_dissipation(self, grid2d):
        u = shear_state(grid2d)
        op = operator(grid2d, FlowParams(nu=1.0, gamma=0.0), 0.05)
        records = []
        for _ in range(20):
            fold(records, u, u, op, zeros(grid2d))
        out = finalize(0, records, 0.05, 0.0)
        assert out["eps_avg"] == pytest.approx(0.5, rel=1e-12)

    def test_constant_velocity_scale(self, grid2d):
        u = shear_state(grid2d, amplitude=3.0)
        op = operator(grid2d, FlowParams(nu=1.0, gamma=0.0), 0.1)
        records = []
        for _ in range(8):
            fold(records, u, u, op, zeros(grid2d))
        out = finalize(0, records, 0.1, 0.0)
        # ||u||^2 volume mean is amplitude^2 / 2
        assert out["U_T"] == pytest.approx(3.0 / np.sqrt(2), rel=1e-12)

    def test_empty_window_errors(self):
        # one record is a state and no step
        with pytest.raises(ValueError, match="window"):
            finalize(0, [(Diagnostics(1.0, 1.0, 1.0, 1.0), 0.0)], 0.1, 0.0)

    def test_normalized_dissipation_with_force_stats(self, grid2d, tmp_path):
        # the run summary normalizes eps_avg by U_T^3 / L when it has ForceStats
        u = shear_state(grid2d)
        params = FlowParams(nu=1.0, gamma=0.0)
        records = fold([], u, u, operator(grid2d, params, 1.0), zeros(grid2d))
        cfg = RunConfig(grid=grid2d, params=params, forcing=ForcingSpec(grid=grid2d),
                        stepper=StepperConfig(dt=1.0, t_end=1.0), burn_in=0.0, window=1.0, seed=0,
                        output_dir=str(tmp_path))
        fstats = ForceStats(F=1.0, L=2.0, L_branch="box_length", kappa=1.4,
                            grad_f_sup=1.0, grad_f_l2=1.0)
        out = _summarize(cfg, fstats, records)
        assert out["eps_avg"] == finalize(0, records, 1.0, 0.0)["eps_avg"]
        assert out["eps_normalized"] == pytest.approx(out["eps_avg"] * 2.0 / out["U_T"] ** 3)
        assert _summarize(cfg, None, records)["eps_normalized"] is None

    def test_window_doubling_stationary(self, grid2d):
        # stationarity diagnostic: doubling the window barely moves the average
        u = shear_state(grid2d)
        op = operator(grid2d, FlowParams(nu=1.0, gamma=0.0), 0.1)
        r1, r2 = [], []
        for _ in range(10):
            fold(r1, u, u, op, zeros(grid2d))
        for _ in range(20):
            fold(r2, u, u, op, zeros(grid2d))
        a, b = finalize(0, r1, 0.1, 0.0)["eps_avg"], finalize(0, r2, 0.1, 0.0)["eps_avg"]
        assert abs(a - b) <= 0.05 * abs(a)

    def test_budget_residual_max_is_over_all_records_and_nonnegative(self):
        def records(*residuals):
            return [(Diagnostics(1.0, 1.0, 1.0, 1.0), r) for r in residuals]

        # the largest residual counts even when its step lies before the window
        assert finalize(0, records(0.0, 3.0, -1.0, 0.5), 0.1, 2)["budget_residual_max"] == 3.0
        assert finalize(0, records(0.0, -1.0, -2.0), 0.1, 0.0)["budget_residual_max"] == 0.0


class TestEnergyOverTime:
    def test_final_energy_over_window_decays(self, grid2d):
        # ||u(T)||^2 / T halves when T doubles for statistically steady data
        u = shear_state(grid2d)
        e = parseval_sum(grid2d, u)
        t1, t2 = 1.0, 2.0
        assert e / t2 <= 0.75 * (e / t1)
