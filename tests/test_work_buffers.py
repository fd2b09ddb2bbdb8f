"""The compact run state: its layout, the operator's constants and work buffers.

The reference functions below are the half-spectrum step the compact state
replaced: the same expressions in the same order, with the dealias-mask
multiplies and a fresh array for every intermediate. On the kept modes the
compact step must match them bit for bit (signed zeros included), and no
array it returns may share memory with a work buffer.
"""

import platform
import resource

import numpy as np
import pytest

from graddivbox import solver
from graddivbox.grid import (
    Field,
    GridSpec,
    dealias_mask,
    k_dot,
    k_parallel_coef,
    parseval_weights,
    safe_wavenumber_sq,
    wavenumber_sq,
    wavevectors,
)
from graddivbox.solver import (
    FlowParams,
    SpectralOperator,
    StepperConfig,
    _solve_shifted,
    divergent_mms_target,
    imex_step,
    mms_force_hat,
    mms_states,
    nonlinear_term,
    run_mms,
)
from graddivbox.stats import diagnostics

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
        shape_hat = Field.from_physical(target.grid, target.shape_phys).spec
        return (target.amp_dot(t) * shape_hat + ref_nonlinear_term(u)
                - ref_apply_linear(u.spec, params, target.grid))
    return fhat


def ref_run_mms(target, params, cfg):
    grid = target.grid
    fhat = ref_mms_force_hat(target, params)
    u_hat = target.state(0.0).spec.copy()
    max_err = 0.0
    for i in range(cfg.n_steps):
        u_hat = ref_imex_step(u_hat, i * cfg.dt, cfg.dt, params, grid, fhat)
        diff = u_hat - target.state((i + 1) * cfg.dt).spec
        max_err = max(max_err, np.sqrt(np.sum(parseval_weights(grid) * np.sum(np.abs(diff) ** 2, axis=0))))
    return max_err


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def aliases_a_buffer(arr, op):
    return any(np.shares_memory(arr, buf) for buf in (op.stack, *op.passes, op.products, op.rtmp, op.ctmp))


def band_limited(op, seed):
    """A zero-mean random half-spectrum state with +0 on every mode the 2/3 rule removes."""
    return op.extend(op.restrict(random_state_field(op.grid, seed=seed).spec))


@pytest.fixture(params=[2, 3], ids=["2d", "3d"])
def grid(request):
    return GridSpec(dim=request.param, n=16, box_length=TWO_PI)


@pytest.fixture
def op(grid):
    return SpectralOperator(grid, PARAMS, DT)


class TestLayout:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [4, 8, 32, 64])
    def test_blocks_cover_exactly_the_kept_modes(self, dim, n):
        g = GridSpec(dim=dim, n=n, box_length=TWO_PI)
        op = SpectralOperator(g, PARAMS, DT)
        assert len(op.blocks) == 2 ** (dim - 1)
        assert all(isinstance(sl, slice) for blk in op.blocks for side in blk for sl in side[1:])
        cover = np.zeros(g.spectral_shape, dtype=int)
        for full, _ in op.blocks:
            cover[full] += 1
        assert np.array_equal(cover, dealias_mask(g).astype(int))
        assert np.prod(op.shape) == np.count_nonzero(dealias_mask(g))

    @pytest.mark.parametrize("n", [4, 8, 32, 64])
    def test_restrict_extend_round_trip(self, n):
        g = GridSpec(dim=3, n=n, box_length=TWO_PI)
        op = SpectralOperator(g, PARAMS, DT)
        rng = np.random.default_rng(n)
        c = rng.standard_normal((3,) + op.shape) + 1j * rng.standard_normal((3,) + op.shape)
        assert same_bits(op.restrict(op.extend(c)), c)
        full = rng.standard_normal((3,) + g.spectral_shape) + 0j
        assert np.array_equal(op.extend(op.restrict(full)), full * dealias_mask(g))
        assert not np.any(np.signbit(op.extend(c).view(float)) & (op.extend(c).view(float) == 0))

    def test_compact_axes_hold_the_mode_numbers_in_order(self):
        g = GridSpec(dim=2, n=8, box_length=TWO_PI)
        op = SpectralOperator(g, PARAMS, DT)
        m = [kj / (TWO_PI / g.box_length) for kj in op.k]
        assert m[0][:, 0].tolist() == [0, 1, 2, -2, -1]
        assert m[1][0].tolist() == [0, 1, 2]


class TestNoAliasing:
    def test_nonlinear_term_result_survives_the_next_call(self, op):
        first = nonlinear_term(op.restrict(random_state_field(op.grid, seed=1).spec), op)
        kept = first.copy()
        nonlinear_term(op.restrict(random_state_field(op.grid, seed=2).spec), op)
        assert same_bits(first, kept)
        assert not aliases_a_buffer(first, op)

    def test_imex_step_result_survives_the_next_call(self, op):
        f = op.restrict(random_state_field(op.grid, seed=3).spec)
        first = imex_step(op.restrict(random_state_field(op.grid, seed=1).spec), 0.0, op, f)
        kept = first.copy()
        imex_step(op.restrict(random_state_field(op.grid, seed=2).spec), 0.0, op, f)
        assert same_bits(first, kept)
        assert not aliases_a_buffer(first, op)

    def test_solve_result_is_a_new_array(self, op):
        b = op.restrict(random_state_field(op.grid, seed=4).spec)
        assert not aliases_a_buffer(_solve_shifted(b, op), op)


class TestSameBitsAsReference:
    def test_nonlinear_term(self, op):
        u = band_limited(op, seed=5)
        got = nonlinear_term(op.restrict(u), op)
        ref = ref_nonlinear_term(Field(op.grid, u))
        assert same_bits(got, op.restrict(ref))
        assert np.array_equal(op.extend(got), ref)  # the reference is zero off the kept modes

    def test_solve_shifted(self, op):
        b = band_limited(op, seed=14)
        ref = ref_solve_shifted(b, solver._ARS_GAMMA * DT, PARAMS, op.grid)
        assert same_bits(op.extend(_solve_shifted(op.restrict(b), op)), ref)

    def test_step_with_constant_force(self, op):
        u, f = band_limited(op, seed=6), band_limited(op, seed=7)
        got = op.extend(imex_step(op.restrict(u), 0.3, op, op.restrict(f)))
        assert same_bits(got, ref_imex_step(u, 0.3, DT, PARAMS, op.grid, f))

    def test_step_with_mms_force(self, op):
        # the force calls nonlinear_term inside each stage, between the stage's own calls;
        # the reference carries the transform's roundoff on the removed modes, where it stays
        target = divergent_mms_target(op.grid)
        u = target.state(0.1).spec
        got = imex_step(op.restrict(u), 0.1, op, mms_force_hat(target, op, mms_states(target, op)))
        ref = ref_imex_step(u, 0.1, DT, PARAMS, op.grid, ref_mms_force_hat(target, PARAMS))
        assert same_bits(got, op.restrict(ref))

    def test_run_mms(self):
        # every state of the run matches the reference bitwise; the error sums run over the
        # kept modes only, so they move at roundoff against the half-spectrum sums
        grid2 = GridSpec(dim=2, n=16, box_length=TWO_PI)
        target = divergent_mms_target(grid2)
        cfg = StepperConfig(dt=4e-3, t_end=0.04)
        op = SpectralOperator(grid2, PARAMS, cfg.dt)
        f, f_ref = mms_force_hat(target, op, mms_states(target, op)), ref_mms_force_hat(target, PARAMS)
        u_ref = target.state(0.0).spec.copy()
        u = op.restrict(u_ref)
        for i in range(cfg.n_steps):
            u = imex_step(u, i * cfg.dt, op, f)
            u_ref = ref_imex_step(u_ref, i * cfg.dt, cfg.dt, PARAMS, grid2, f_ref)
            assert same_bits(u, op.restrict(u_ref))
        got = run_mms(target, PARAMS, cfg)["max_l2_error"]
        assert got == pytest.approx(ref_run_mms(target, PARAMS, cfg), rel=1e-12, abs=0.0)

    def test_k_dot_keeps_the_sign_of_zero(self, grid):
        # an all -0.0 input: the sum starts at +0, so every mode is +0 + 0j
        k = wavevectors(grid)
        s = np.full((grid.dim,) + grid.spectral_shape, complex(-0.0, -0.0))
        assert same_bits(k_dot(k, s), ref_k_dot(grid, s))
        u = random_state_field(grid, seed=8).spec
        assert same_bits(k_dot(k, u), ref_k_dot(grid, u))
        safe = safe_wavenumber_sq(wavenumber_sq(grid))
        assert same_bits(k_parallel_coef(k, safe, u), ref_k_parallel_coef(grid, u))

    def test_diagnostics(self, op):
        s = op.restrict(random_state_field(op.grid, seed=9).spec)
        w, ksq = op.restrict(parseval_weights(op.grid)), op.restrict(wavenumber_sq(op.grid))
        kdotu = sum(op.k[j] * s[j] for j in range(op.grid.dim))
        d = diagnostics(s, op)
        energy = np.sum(s.real ** 2 + s.imag ** 2, axis=0)
        assert d.u_sq == op.norm_sq(s) == float(np.sum(w * energy))
        assert d.eps_nu == PARAMS.nu * float(np.sum(w * ksq * energy))
        assert d.div_sq == float(np.sum(w * (kdotu.real ** 2 + kdotu.imag ** 2)))
        assert d.eps_gamma == PARAMS.gamma * d.div_sq


class TestCachedConstants:
    def test_equal_to_the_inline_expressions(self, op):
        grid = op.grid
        ksq = op.restrict(wavenumber_sq(grid))
        assert all(np.array_equal(kc, op.restrict(kf)) for kc, kf in zip(op.k, wavevectors(grid)))
        assert np.array_equal(op.safe_ksq, np.where(ksq > 0, ksq, 1.0))
        assert np.array_equal(op.weights, op.restrict(parseval_weights(grid)))
        assert np.array_equal(op.weighted_ksq, op.restrict(parseval_weights(grid) * wavenumber_sq(grid)))
        assert np.array_equal(op.neg_nu_ksq, -PARAMS.nu * ksq)
        c = solver._ARS_GAMMA * DT
        assert np.array_equal(op.denom_perp, 1.0 + c * PARAMS.nu * ksq)
        assert np.array_equal(op.denom_par, 1.0 + c * (PARAMS.nu + PARAMS.gamma) * ksq)

    def test_padding_stays_zero(self, op):
        # the per-axis pass buffers hold +0 on the removed modes of each axis after steps
        u = op.restrict(random_state_field(op.grid, seed=10).spec)
        for _ in range(3):
            u = imex_step(u, 0.0, op, np.zeros_like(u))
        for j, buf in enumerate(op.passes, start=1):
            removed = buf[(slice(None),) * j + (slice(op.grid.cutoff + 1, op.grid.n - op.grid.cutoff),)]
            assert removed.size and not np.any(removed.view(float))
            assert not np.any(np.signbit(removed.view(float)))


class TestPrunedTransforms:
    """The per-axis passes give bitwise what the n-d transforms of the half-spectrum give."""

    @staticmethod
    def inputs(op, seed):
        # random band-limited coefficients, and one sine mode: its samples hold exact zeros
        rng = np.random.default_rng(seed)
        shape = op.stack.shape
        single = np.zeros(shape, dtype=complex)
        single[(slice(None),) + (1,) * op.grid.dim] = -0.5j
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape), single

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_same_bits_as_the_nd_transforms(self, dim, n):
        g = GridSpec(dim=dim, n=n, box_length=TWO_PI)
        op = SpectralOperator(g, PARAMS, DT)
        axes = tuple(range(1, dim + 1))
        for s in self.inputs(op, seed=n + dim):
            phys = op.to_physical(s)
            assert same_bits(phys, np.fft.irfftn(op.extend(s), s=g.shape, axes=axes, norm="forward"))
            products = phys[:dim + 1]
            assert same_bits(op.to_compact(products),
                             op.restrict(np.fft.rfftn(products, axes=axes, norm="forward")))
        assert np.any(phys == 0)  # the single mode's samples, where signed zeros must match too


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the freed-memory setting is glibc's mallopt")
def test_steady_steps_fault_in_no_fresh_pages():
    # numpy's transforms allocate intermediates on every call; kept freed memory serves them
    grid3 = GridSpec(dim=3, n=32, box_length=TWO_PI)
    op = SpectralOperator(grid3, PARAMS, DT)
    u = op.restrict(random_state_field(grid3, seed=11).spec)
    f = op.restrict(random_state_field(grid3, seed=12).spec)
    for _ in range(3):
        u = imex_step(u, 0.0, op, f)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        u = imex_step(u, 0.0, op, f)
    # the default allocator settings fault in about 1700 pages per step here
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 5 * 100
