"""The per-grid work buffers and cached spectral constants of the step and the diagnostics.

The reference functions below evaluate the same expressions in the same
order with a fresh array for every intermediate. The solver must match them
bit for bit (signed zeros included), and no array it returns may share
memory with a work buffer.
"""

import platform
import resource

import numpy as np
import pytest

from graddivbox import solver
from graddivbox.grid import (
    Field,
    GridSpec,
    _safe_wavenumber_sq,
    dealias_mask,
    k_dot,
    k_parallel_coef,
    parseval_weights,
    volume_norm_sq,
    wavenumber_sq,
    wavevectors,
)
from graddivbox.solver import (
    FlowParams,
    StepperConfig,
    _implicit_denominators,
    _solve_shifted,
    _work_buffers,
    divergent_mms_target,
    imex_step,
    mms_force_hat,
    nonlinear_term,
    run_mms,
)
from graddivbox.stats import _parseval_wavenumber_sq, diagnostics

from conftest import TWO_PI, random_state_field

PARAMS = FlowParams(nu=0.05, gamma=1.3)
DT = 2e-3


def ref_k_dot(grid, s):
    k = wavevectors(grid)
    return sum(k[j] * s[j] for j in range(grid.dim))


def ref_k_parallel_coef(grid, s):
    ksq = wavenumber_sq(grid)
    return np.where(ksq > 0, ref_k_dot(grid, s) / np.where(ksq > 0, ksq, 1.0), 0.0)


def ref_nonlinear_term(u):
    grid, dim = u.grid, u.grid.dim
    mask, k = dealias_mask(grid), wavevectors(grid)
    ncurl = 1 if dim == 2 else 3
    lhs = np.empty((dim + ncurl + 1,) + grid.spectral_shape, dtype=complex)
    s = np.multiply(u.spec, mask, out=lhs[:dim])
    for i in range(ncurl):
        a, b = (0, 1) if dim == 2 else ((i + 1) % 3, (i + 2) % 3)
        lhs[dim + i] = 1j * (k[a] * s[b] - k[b] * s[a])
    lhs[-1] = 1j * ref_k_dot(grid, s)
    phys = Field.from_spectral(grid, lhs).phys
    up, w, div = phys[:dim], phys[dim:-1], phys[-1]
    rhs = np.empty((dim + 1,) + grid.shape)
    if dim == 2:
        np.multiply(-w[0], up[1], out=rhs[0])
        np.multiply(w[0], up[0], out=rhs[1])
    else:
        for i in range(3):
            a, b = (i + 1) % 3, (i + 2) % 3
            rhs[i] = w[a] * up[b] - w[b] * up[a]
    rhs[:dim] += (0.5 * div) * up
    rhs[dim] = 0.5 * np.sum(up * up, axis=0)
    p_hat = Field.from_physical(grid, rhs).spec
    out = p_hat[:dim]
    for j in range(dim):
        out[j] += 1j * k[j] * p_hat[dim]
    out *= mask
    out[(slice(None),) + (0,) * dim] = 0.0
    return out


def ref_solve_shifted(b_hat, c, params, grid):
    k, ksq = wavevectors(grid), wavenumber_sq(grid)
    coef = ref_k_parallel_coef(grid, b_hat)
    denom_perp = 1.0 + c * params.nu * ksq
    denom_par = 1.0 + c * (params.nu + params.gamma) * ksq
    out = np.empty_like(b_hat)
    for j in range(grid.dim):
        b_par = k[j] * coef
        out[j] = (b_hat[j] - b_par) / denom_perp + b_par / denom_par
    return out


def ref_apply_linear(v_hat, params, grid):
    k, ksq = wavevectors(grid), wavenumber_sq(grid)
    kdotv = ref_k_dot(grid, v_hat)
    out = np.empty_like(v_hat)
    for j in range(grid.dim):
        out[j] = -params.nu * ksq * v_hat[j] - params.gamma * k[j] * kdotv
    return out


def ref_imex_step(u_hat, t, dt, params, grid, force_hat):
    g, d = solver._ARS_GAMMA, solver._ARS_DELTA

    def explicit(v_hat, tv):
        fh = force_hat(tv) if callable(force_hat) else force_hat
        return fh - ref_nonlinear_term(Field.from_spectral(grid, v_hat))

    e0 = explicit(u_hat, t)
    u1 = ref_solve_shifted(u_hat + dt * g * e0, g * dt, params, grid)
    e1 = explicit(u1, t + g * dt)
    lu1 = ref_apply_linear(u1, params, grid)
    b = u_hat + dt * (d * e0 + (1.0 - d) * e1 + (1.0 - g) * lu1)
    return ref_solve_shifted(b, g * dt, params, grid)


def ref_mms_force_hat(target, params):
    def fhat(t):
        u = target.state(t)
        return target.state_dot_hat(t) + ref_nonlinear_term(u) - ref_apply_linear(u.spec, params, target.grid)
    return fhat


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def aliases_a_buffer(arr, grid):
    return any(np.shares_memory(arr, buf) for buf in _work_buffers(grid))


@pytest.fixture(params=[2, 3], ids=["2d", "3d"])
def grid(request):
    return GridSpec(dim=request.param, n=16, box_length=TWO_PI)


class TestNoAliasing:
    def test_nonlinear_term_result_survives_the_next_call(self, grid):
        first = nonlinear_term(random_state_field(grid, seed=1))
        kept = first.copy()
        nonlinear_term(random_state_field(grid, seed=2))
        assert same_bits(first, kept)
        assert not aliases_a_buffer(first, grid)

    def test_imex_step_result_survives_the_next_call(self, grid):
        f = random_state_field(grid, seed=3).spec
        first = imex_step(random_state_field(grid, seed=1).spec, 0.0, DT, PARAMS, grid, f)
        kept = first.copy()
        imex_step(random_state_field(grid, seed=2).spec, 0.0, DT, PARAMS, grid, f)
        assert same_bits(first, kept)
        assert not aliases_a_buffer(first, grid)

    def test_solve_result_is_a_new_array(self, grid):
        b = random_state_field(grid, seed=4).spec
        assert not aliases_a_buffer(_solve_shifted(b, DT, PARAMS, grid), grid)


class TestSameBitsAsReference:
    def test_nonlinear_term(self, grid):
        u = random_state_field(grid, seed=5)
        assert same_bits(nonlinear_term(u), ref_nonlinear_term(u))

    def test_step_with_constant_force(self, grid):
        u, f = random_state_field(grid, seed=6).spec, random_state_field(grid, seed=7).spec
        assert same_bits(imex_step(u, 0.3, DT, PARAMS, grid, f), ref_imex_step(u, 0.3, DT, PARAMS, grid, f))

    def test_step_with_mms_force(self, grid):
        # the force calls nonlinear_term inside each stage, between the stage's own calls
        target = divergent_mms_target(grid)
        u = target.state(0.1).spec
        got = imex_step(u, 0.1, DT, PARAMS, grid, mms_force_hat(target, PARAMS))
        assert same_bits(got, ref_imex_step(u, 0.1, DT, PARAMS, grid, ref_mms_force_hat(target, PARAMS)))

    def test_run_mms(self, monkeypatch):
        grid2 = GridSpec(dim=2, n=16, box_length=TWO_PI)
        target = divergent_mms_target(grid2)
        cfg = StepperConfig(dt=4e-3, t_end=0.04)
        got = run_mms(target, PARAMS, cfg)
        monkeypatch.setattr(solver, "imex_step", ref_imex_step)
        monkeypatch.setattr(solver, "mms_force_hat", ref_mms_force_hat)
        ref = run_mms(target, PARAMS, cfg)
        assert [v.hex() for v in (got["max_l2_error"], got["max_rel_error"])] == \
            [v.hex() for v in (ref["max_l2_error"], ref["max_rel_error"])]

    def test_k_dot_keeps_the_sign_of_zero(self, grid):
        # an all -0.0 input: the sum starts at +0, so every mode is +0 + 0j
        s = np.full((grid.dim,) + grid.spectral_shape, complex(-0.0, -0.0))
        assert same_bits(k_dot(grid, s), ref_k_dot(grid, s))
        u = random_state_field(grid, seed=8).spec
        assert same_bits(k_dot(grid, u), ref_k_dot(grid, u))
        assert same_bits(k_parallel_coef(grid, u), ref_k_parallel_coef(grid, u))

    def test_diagnostics(self, grid):
        u = random_state_field(grid, seed=9)
        w, ksq, s = parseval_weights(grid), wavenumber_sq(grid), u.spec
        kdotu = ref_k_dot(grid, s)
        d = diagnostics(u, PARAMS)
        assert d.u_sq == volume_norm_sq(u)
        assert d.eps_nu == PARAMS.nu * float(np.sum(w * ksq * np.sum(s.real ** 2 + s.imag ** 2, axis=0)))
        assert d.div_sq == float(np.sum(w * (kdotu.real ** 2 + kdotu.imag ** 2)))
        assert d.eps_gamma == PARAMS.gamma * d.div_sq


class TestCachedConstants:
    def test_equal_to_the_inline_expressions(self, grid):
        ksq = wavenumber_sq(grid)
        assert np.array_equal(_safe_wavenumber_sq(grid), np.where(ksq > 0, ksq, 1.0))
        assert np.array_equal(_parseval_wavenumber_sq(grid), parseval_weights(grid) * ksq)
        c = solver._ARS_GAMMA * DT
        perp, par = _implicit_denominators(grid, PARAMS, c)
        assert np.array_equal(perp, 1.0 + c * PARAMS.nu * ksq)
        assert np.array_equal(par, 1.0 + c * (PARAMS.nu + PARAMS.gamma) * ksq)

    def test_denominators_keep_few_entries(self, grid):
        # a sweep worker steps one gamma after another; old gammas are dropped
        b = random_state_field(grid, seed=10).spec
        for gamma in range(10):
            _solve_shifted(b, DT, FlowParams(nu=0.05, gamma=float(gamma)), grid)
        assert _implicit_denominators.cache_info().currsize <= 4


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the freed-memory setting is glibc's mallopt")
def test_steady_steps_fault_in_no_fresh_pages():
    # numpy's transforms allocate intermediates on every call; kept freed memory serves them
    grid3 = GridSpec(dim=3, n=32, box_length=TWO_PI)
    u, f = random_state_field(grid3, seed=11).spec, random_state_field(grid3, seed=12).spec
    for _ in range(3):
        u = imex_step(u, 0.0, DT, PARAMS, grid3, f)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        u = imex_step(u, 0.0, DT, PARAMS, grid3, f)
    # the default allocator settings fault in about 1700 pages per step here
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 5 * 100
