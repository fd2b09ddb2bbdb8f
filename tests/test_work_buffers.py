"""The compact run state: its layout, the operator's constants and its pure kernels.

The reference functions below are the half-spectrum step the compact state
replaced: the same expressions in the same order, with the dealias-mask
multiplies, the n-d transforms and a fresh array for every intermediate,
on half-spectrum constants built here the way the grid built them before
the compact layout. On the kept modes the compact step must match them bit
for bit (signed zeros included), no array it returns may change when the
kernels run again, and the operator is read, never written.
"""

import pickle
import platform
import resource
import threading

import numpy as np
import pytest

from graddivbox import solver
from graddivbox.grid import (
    GridSpec,
    k_dot,
    k_parallel_coef,
    mode_numbers,
    parseval_weights,
    safe_wavenumber_sq,
    to_compact,
    to_physical,
    wavenumber_sq,
    wavevectors,
)
from graddivbox.solver import (
    FlowParams,
    SpectralOperator,
    StepperConfig,
    _apply_linear,
    _solve_shifted,
    divergent_mms_target,
    imex_step,
    mms_block,
    nonlinear_term,
    run_mms,
)
from graddivbox.stats import diagnostics

from conftest import TWO_PI, extend, half_index, random_state, restrict, spectral_shape

PARAMS = FlowParams(nu=0.05, gamma=1.3)
DT = 2e-3


def half_modes(grid):
    full = np.fft.fftfreq(grid.n, 1.0 / grid.n)
    axes = [full] * (grid.dim - 1) + [np.arange(grid.n // 2 + 1, dtype=float)]
    return np.meshgrid(*axes, indexing="ij")


def half_k(grid):
    return [(TWO_PI / grid.box_length) * m for m in half_modes(grid)]


def half_ksq(grid):
    return sum(kj * kj for kj in half_k(grid))


def half_mask(grid):
    mask = np.ones(spectral_shape(grid), dtype=bool)
    for m in half_modes(grid):
        mask &= np.abs(m) <= grid.cutoff
    return mask


def half_weights(grid):
    w = np.full(spectral_shape(grid), 2.0)
    w[..., 0] = 1.0
    w[..., -1] = 1.0  # Nyquist plane of the real axis is self-conjugate
    return w


def forward(grid, phys):
    return np.fft.rfftn(phys, axes=tuple(range(1, grid.dim + 1)), norm="forward")


def inverse(grid, spec):
    return np.fft.irfftn(spec, s=grid.shape, axes=tuple(range(1, grid.dim + 1)), norm="forward")


def ref_k_dot(k, s):
    return sum(k[j] * s[j] for j in range(len(k)))


def ref_k_parallel_coef(k, ksq, s):
    return np.where(ksq > 0, ref_k_dot(k, s) / np.where(ksq > 0, ksq, 1.0), 0.0)


def ref_nonlinear_term(u, grid):
    dim = grid.dim
    mask, k = half_mask(grid), half_k(grid)
    ncurl = 1 if dim == 2 else 3
    lhs = np.empty((dim + ncurl + 1,) + spectral_shape(grid), dtype=complex)
    s = np.multiply(u, mask, out=lhs[:dim])
    for i in range(ncurl):
        a, b = (0, 1) if dim == 2 else ((i + 1) % 3, (i + 2) % 3)
        lhs[dim + i] = 1j * (k[a] * s[b] - k[b] * s[a])
    lhs[-1] = 1j * ref_k_dot(k, s)
    phys = inverse(grid, lhs)
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
    p_hat = forward(grid, rhs)
    out = p_hat[:dim]
    for j in range(dim):
        out[j] += 1j * k[j] * p_hat[dim]
    out *= mask
    out[(slice(None),) + (0,) * dim] = 0.0
    return out


def ref_solve_shifted(b_hat, c, params, grid):
    k, ksq = half_k(grid), half_ksq(grid)
    coef = ref_k_parallel_coef(k, ksq, b_hat)
    denom_perp = 1.0 + c * params.nu * ksq
    denom_par = 1.0 + c * (params.nu + params.gamma) * ksq
    out = np.empty_like(b_hat)
    for j in range(grid.dim):
        b_par = k[j] * coef
        out[j] = (b_hat[j] - b_par) / denom_perp + b_par / denom_par
    return out


def ref_apply_linear(v_hat, params, grid):
    k, ksq = half_k(grid), half_ksq(grid)
    kdotv = ref_k_dot(k, v_hat)
    out = np.empty_like(v_hat)
    for j in range(grid.dim):
        out[j] = -params.nu * ksq * v_hat[j] - params.gamma * k[j] * kdotv
    return out


def ref_imex_step(u_hat, t, dt, params, grid, force_hat):
    g, d = solver._ARS_GAMMA, solver._ARS_DELTA

    def explicit(v_hat, tv):
        fh = force_hat(tv) if callable(force_hat) else force_hat
        return fh - ref_nonlinear_term(v_hat, grid)

    e0 = explicit(u_hat, t)
    u1 = ref_solve_shifted(u_hat + dt * g * e0, g * dt, params, grid)
    e1 = explicit(u1, t + g * dt)
    lu1 = ref_apply_linear(u1, params, grid)
    b = u_hat + dt * (d * e0 + (1.0 - d) * e1 + (1.0 - g) * lu1)
    return ref_solve_shifted(b, g * dt, params, grid)


def ref_state(target, t):
    """The half-spectrum of a(t) w, roundoff above the cutoff included."""
    return forward(target.grid, target.amp(t) * target.shape_phys)


def ref_mms_force_hat(target, params):
    def fhat(t):
        u = ref_state(target, t)
        shape_hat = forward(target.grid, target.shape_phys)
        return (target.amp_dot(t) * shape_hat + ref_nonlinear_term(u, target.grid)
                - ref_apply_linear(u, params, target.grid))
    return fhat


def ref_run_mms(target, params, cfg):
    grid = target.grid
    fhat = ref_mms_force_hat(target, params)
    u_hat = ref_state(target, 0.0)
    max_err = 0.0
    for i in range(cfg.n_steps):
        u_hat = ref_imex_step(u_hat, i * cfg.dt, cfg.dt, params, grid, fhat)
        diff = u_hat - ref_state(target, (i + 1) * cfg.dt)
        max_err = max(max_err, np.sqrt(np.sum(half_weights(grid) * np.sum(np.abs(diff) ** 2, axis=0))))
    return max_err


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def band_limited(grid, seed):
    """A zero-mean random half-spectrum state with +0 on every mode the 2/3 rule removes."""
    return extend(grid, random_state(grid, seed=seed))


@pytest.fixture(params=[2, 3], ids=["2d", "3d"])
def grid(request):
    return GridSpec(dim=request.param, n=16, box_length=TWO_PI)


@pytest.fixture
def op(grid):
    return SpectralOperator(grid, PARAMS, DT)


class TestLayout:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [4, 6, 8, 12, 32, 48, 64])
    def test_blocks_cover_exactly_the_kept_modes(self, dim, n):
        # the compact modes, placed in the half-spectrum by their mode numbers, hit each kept mode once
        g = GridSpec(dim=dim, n=n, box_length=TWO_PI)
        cover = np.zeros(spectral_shape(g), dtype=int)
        np.add.at(cover, half_index(g), 1)
        assert np.array_equal(cover, half_mask(g).astype(int))
        assert np.prod(g.compact_shape) == np.count_nonzero(half_mask(g))

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 32, 48, 64])
    def test_restrict_extend_round_trip(self, n):
        g = GridSpec(dim=3, n=n, box_length=TWO_PI)
        rng = np.random.default_rng(n)
        shape = (3,) + g.compact_shape
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert same_bits(restrict(g, extend(g, c)), c)
        full = rng.standard_normal((3,) + spectral_shape(g)) + 0j
        assert np.array_equal(extend(g, restrict(g, full)), full * half_mask(g))
        assert not np.any(np.signbit(extend(g, c).view(float)) & (extend(g, c).view(float) == 0))

    def test_compact_axes_hold_the_mode_numbers_in_order(self):
        m = mode_numbers(GridSpec(dim=2, n=8, box_length=TWO_PI))
        assert m[0][:, 0].tolist() == [0, 1, 2, -2, -1]
        assert m[1][0].tolist() == [0, 1, 2]


class TestNoAliasing:
    def test_nonlinear_term_result_survives_the_next_call(self, op):
        first = nonlinear_term(random_state(op.grid, seed=1), op)
        kept = first.copy()
        nonlinear_term(random_state(op.grid, seed=2), op)
        assert same_bits(first, kept)

    def test_imex_step_result_survives_the_next_call(self, op):
        f = random_state(op.grid, seed=3)
        first = imex_step(random_state(op.grid, seed=1), 0.0, op, f, f)
        kept = first.copy()
        imex_step(random_state(op.grid, seed=2), 0.0, op, f, f)
        assert same_bits(first, kept)

    def test_solve_result_is_a_new_array(self, op):
        b = random_state(op.grid, seed=4)
        first = _solve_shifted(b, op)
        kept = first.copy()
        _solve_shifted(random_state(op.grid, seed=5), op)
        assert same_bits(first, kept)
        assert not np.shares_memory(first, b)

    def test_one_operator_shared_by_two_threads(self, op):
        # each thread steps its own state with the one operator; both match the serial steps
        f = random_state(op.grid, seed=3)
        starts = [random_state(op.grid, seed=s) for s in (1, 2)]

        def run(u, out, barrier):
            barrier.wait()
            for i in range(20):
                u = imex_step(u, i * DT, op, f, f)
                out.append(u)

        def snapshot():
            return {name: (id(value), pickle.dumps(value)) for name, value in vars(op).items()}

        serial, threaded, barrier = [[], []], [[], []], threading.Barrier(2)
        for u, out in zip(starts, serial):
            run(u, out, threading.Barrier(1))
        before = snapshot()
        threads = [threading.Thread(target=run, args=(u, out, barrier)) for u, out in zip(starts, threaded)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert [len(out) for out in threaded] == [20, 20]
        assert all(same_bits(a, b) for ser, thr in zip(serial, threaded) for a, b in zip(ser, thr))
        assert snapshot() == before


class TestSameBitsAsReference:
    def test_nonlinear_term(self, op):
        g = op.grid
        u = band_limited(g, seed=5)
        got = nonlinear_term(restrict(g, u), op)
        ref = ref_nonlinear_term(u, g)
        assert same_bits(got, restrict(g, ref))
        assert np.array_equal(extend(g, got), ref)  # the reference is zero off the kept modes

    def test_solve_shifted(self, op):
        g = op.grid
        b = band_limited(g, seed=14)
        ref = ref_solve_shifted(b, solver._ARS_GAMMA * DT, PARAMS, g)
        assert same_bits(extend(g, _solve_shifted(restrict(g, b), op)), ref)

    def test_step_with_constant_force(self, op):
        g = op.grid
        u, f = band_limited(g, seed=6), band_limited(g, seed=7)
        got = extend(g, imex_step(restrict(g, u), 0.3, op, restrict(g, f), restrict(g, f)))
        assert same_bits(got, ref_imex_step(u, 0.3, DT, PARAMS, g, f))

    def test_step_with_mms_force(self, op):
        # the block's states and forces are built together, one per stage time;
        # the reference carries the transform's roundoff on the removed modes, where it stays
        g = op.grid
        target = divergent_mms_target(g)
        u = ref_state(target, 0.1)
        assert same_bits(target.state(0.1).spec, restrict(g, u))
        times = [0.1, 0.1 + solver._ARS_GAMMA * DT]
        states, forces = mms_block(target, op, times)
        assert same_bits(states[:, 0], restrict(g, u))
        got = imex_step(states[:, 0], 0.1, op, forces[:, 0], forces[:, 1])
        ref = ref_imex_step(u, 0.1, DT, PARAMS, g, ref_mms_force_hat(target, PARAMS))
        assert same_bits(got, restrict(g, ref))

    @pytest.mark.parametrize("t_end", [4e-3, 0.02], ids=["1-step", "5-steps"])
    def test_run_mms(self, monkeypatch, t_end):
        # every state of the run, in whole and partial blocks, matches the reference bitwise; the
        # error sums run over the kept modes only, so they move at roundoff against the half-spectrum
        grid2 = GridSpec(dim=2, n=16, box_length=TWO_PI)
        target = divergent_mms_target(grid2)
        cfg = StepperConfig(dt=4e-3, t_end=t_end)
        steps, step = [], solver.imex_step
        monkeypatch.setattr(solver, "imex_step", lambda *a: steps.append(step(*a)) or steps[-1])
        got = run_mms(target, PARAMS, cfg)["max_l2_error"]
        assert len(steps) == cfg.n_steps
        f_ref = ref_mms_force_hat(target, PARAMS)
        u_ref = ref_state(target, 0.0)
        for i in range(cfg.n_steps):
            u_ref = ref_imex_step(u_ref, i * cfg.dt, cfg.dt, PARAMS, grid2, f_ref)
            assert same_bits(steps[i], restrict(grid2, u_ref))
        assert got == pytest.approx(ref_run_mms(target, PARAMS, cfg), rel=1e-12, abs=0.0)

    def test_k_dot_keeps_the_sign_of_zero(self, grid):
        # an all -0.0 input: the sum starts at +0, so every mode is +0 + 0j
        k = wavevectors(grid)
        s = np.full((grid.dim,) + grid.compact_shape, complex(-0.0, -0.0))
        assert same_bits(k_dot(k, s), ref_k_dot(k, s))
        u = random_state(grid, seed=8)
        assert same_bits(k_dot(k, u), ref_k_dot(k, u))
        ksq = wavenumber_sq(grid)
        assert same_bits(k_parallel_coef(k, safe_wavenumber_sq(ksq), u), ref_k_parallel_coef(k, ksq, u))

    def test_diagnostics(self, op):
        g = op.grid
        s = random_state(g, seed=9)
        w, ksq = restrict(g, half_weights(g)), restrict(g, half_ksq(g))
        kdotu = sum(op.k[j] * s[j] for j in range(g.dim))
        d = diagnostics(s, op)
        energy = np.sum(s.real ** 2 + s.imag ** 2, axis=0)
        assert d.kinetic_energy == 0.5 * float(np.sum(w * energy))
        assert d.eps_nu == PARAMS.nu * float(np.sum(w * ksq * energy))
        assert d.div_norm_sq == float(np.sum(w * (kdotu.real ** 2 + kdotu.imag ** 2)))
        assert d.eps_gamma == PARAMS.gamma * d.div_norm_sq


class TestBatchedKernels:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("batch", [1, 3, 8])
    def test_each_slice_is_the_one_state_call(self, dim, n, batch):
        # a batch axis after the component axis: every slice has the bits of its own call
        g = GridSpec(dim=dim, n=n, box_length=TWO_PI)
        op = SpectralOperator(g, PARAMS, DT)
        u = np.stack([random_state(g, seed=20 + b) for b in range(batch)], axis=1)
        got_n, got_l = nonlinear_term(u, op), _apply_linear(u, op)
        assert got_n.shape == got_l.shape == u.shape
        for b in range(batch):
            assert same_bits(np.ascontiguousarray(got_n[:, b]), nonlinear_term(u[:, b].copy(), op))
            assert same_bits(np.ascontiguousarray(got_l[:, b]), _apply_linear(u[:, b].copy(), op))


class TestCachedConstants:
    def test_equal_to_the_inline_expressions(self, op):
        # the constants that meet complex coefficients are held cast to complex
        grid = op.grid
        ksq = restrict(grid, half_ksq(grid))
        assert all(same_bits(kc, restrict(grid, kf).astype(complex)) for kc, kf in zip(op.k, half_k(grid)))
        assert same_bits(op.safe_ksq, np.where(ksq > 0, ksq, 1.0).astype(complex))
        assert same_bits(op.weights, restrict(grid, half_weights(grid)))
        assert same_bits(op.weighted_ksq, restrict(grid, half_weights(grid) * half_ksq(grid)))
        assert same_bits(op.neg_nu_ksq, (-PARAMS.nu * ksq).astype(complex))
        c = solver._ARS_GAMMA * DT
        assert same_bits(op.denom_perp, (1.0 + c * PARAMS.nu * ksq).astype(complex))
        assert same_bits(op.denom_par, (1.0 + c * (PARAMS.nu + PARAMS.gamma) * ksq).astype(complex))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_grid_constants_are_the_kept_half_spectrum_ones(self, dim, n):
        # built on the compact layout, they carry the bits the half-spectrum arrays carried
        g = GridSpec(dim=dim, n=n, box_length=TWO_PI / 3)
        assert all(same_bits(mc, restrict(g, mf)) for mc, mf in zip(mode_numbers(g), half_modes(g)))
        assert all(same_bits(kc, restrict(g, kf)) for kc, kf in zip(wavevectors(g), half_k(g)))
        assert same_bits(wavenumber_sq(g), restrict(g, half_ksq(g)))
        assert same_bits(parseval_weights(g), restrict(g, half_weights(g)))


class TestPrunedTransforms:
    """The grid's per-axis passes give bitwise what the n-d transforms of the half-spectrum give."""

    @staticmethod
    def inputs(grid, ncomp, seed):
        # random band-limited coefficients, and one sine mode: its samples hold exact zeros
        rng = np.random.default_rng(seed)
        shape = (ncomp,) + grid.compact_shape
        single = np.zeros(shape, dtype=complex)
        single[(slice(None),) + (1,) * grid.dim] = -0.5j
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape), single

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [4, 6, 8, 12, 16, 32, 48, 64])
    def test_same_bits_as_the_nd_transforms(self, dim, n):
        # the step's [u, omega, div u] stack (omega has 1 component in 2d, 3 in 3d), and the
        # force gradient's dim^2 components
        g = GridSpec(dim=dim, n=n, box_length=TWO_PI)
        for i, ncomp in enumerate((dim + (1 if dim == 2 else 3) + 1, dim * dim)):
            for s in self.inputs(g, ncomp, seed=n + dim + 100 * i):
                phys = to_physical(g, s)
                assert same_bits(phys, inverse(g, extend(g, s)))
                products = phys[:dim + 1]
                assert same_bits(to_compact(g, products), restrict(g, forward(g, products)))
            assert np.any(phys == 0)  # the single mode's samples, where signed zeros must match too


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the freed-memory setting is glibc's mallopt")
def test_steady_steps_fault_in_no_fresh_pages():
    # numpy's transforms allocate intermediates on every call; kept freed memory serves them
    grid3 = GridSpec(dim=3, n=32, box_length=TWO_PI)
    op = SpectralOperator(grid3, PARAMS, DT)
    u = random_state(grid3, seed=11)
    f = random_state(grid3, seed=12)
    for _ in range(3):
        u = imex_step(u, 0.0, op, f, f)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        u = imex_step(u, 0.0, op, f, f)
    # the default allocator settings fault in about 1700 pages per step here
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 5 * 100
