import functools

import numpy as np
import pytest
import yaml

from graddivbox.config import Dumper, SweepConfig, run_config_to_dict
from graddivbox.grid import GridSpec, k_dot, mode_numbers, parseval_weights, to_compact, wavevectors
from graddivbox.solver import FlowParams, SpectralOperator

TWO_PI = 2.0 * np.pi

# one "[acceptance] criterion N <name>: PASS/FAIL" line per gate criterion,
# replayed after the test summary so fd-level capture cannot swallow them
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance gate")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def grid2d():
    return GridSpec(dim=2, n=32, box_length=TWO_PI)


@pytest.fixture
def grid3d():
    return GridSpec(dim=3, n=16, box_length=TWO_PI)


def coords(grid):
    """Meshgrid of sample coordinates, ij indexing."""
    x = np.arange(grid.n) * grid.spacing
    return np.meshgrid(*([x] * grid.dim), indexing="ij")


def spectral_shape(grid):
    """Shape of the half-spectrum (numpy rfftn) of one component."""
    return (grid.n,) * (grid.dim - 1) + (grid.n // 2 + 1,)


def half_index(grid):
    """Where each compact mode sits in the half-spectrum: m_j mod n along every axis."""
    return tuple(m.astype(int) % grid.n for m in mode_numbers(grid))


def restrict(grid, full):
    """Reference: the kept modes of a half-spectrum array (any leading axes), as a compact array."""
    return full[(Ellipsis,) + half_index(grid)]


def extend(grid, compact):
    """Reference: the half-spectrum array that holds `compact` on the kept modes and +0 elsewhere."""
    out = np.zeros(compact.shape[:-grid.dim] + spectral_shape(grid), dtype=compact.dtype)
    out[(Ellipsis,) + half_index(grid)] = compact
    return out


def write_config(path, cfg):
    """Write a RunConfig, or a SweepConfig with its sweep section, as the YAML a user would."""
    if isinstance(cfg, SweepConfig):
        d = run_config_to_dict(cfg.base)
        d["sweep"] = {"gamma_values": list(cfg.gamma_values), "parallel_workers": cfg.parallel_workers}
    else:
        d = run_config_to_dict(cfg)
    with open(path, "w") as fh:
        yaml.dump(d, fh, Dumper=Dumper, sort_keys=False)


def from_samples(grid, phys):
    """The compact coefficients of the kept modes of physical samples (components first)."""
    return to_compact(grid, np.asarray(phys, dtype=float))


def samples(grid, u):
    """The physical samples of compact coefficients u, shape (ncomp,) + grid.shape."""
    return np.fft.irfftn(extend(grid, u), s=grid.shape, axes=tuple(range(1, grid.dim + 1)), norm="forward")


def zeros(grid):
    """The compact coefficients of the zero vector field."""
    return np.zeros((grid.dim,) + grid.compact_shape, dtype=complex)


def inner(grid, u, v):
    """Volume-normalized L2 inner product of compact coefficients u and v, by Parseval over the kept modes."""
    return float(np.sum(parseval_weights(grid) * np.sum((np.conj(u) * v).real, axis=0)))


def divergence(grid, u):
    """The compact coefficients of div u, one component."""
    return (1j * k_dot(wavevectors(grid), u))[np.newaxis]


def zero_mean(u):
    """Compact coefficients u with the mean (k = 0) mode set to 0."""
    s = u.copy()
    s[(slice(None),) + (0,) * (u.ndim - 1)] = 0.0
    return s


def random_state(grid, seed=0):
    """Zero-mean random vector field on the kept modes (the model's state space), compact."""
    rng = np.random.default_rng(seed)
    return zero_mean(from_samples(grid, rng.standard_normal((grid.dim,) + grid.shape)))


def shear_state(grid, amplitude=1.0):
    """(amplitude * sin(2 pi y / L), 0[, 0]), compact: divergence-free unidirectional shear."""
    xs = coords(grid)
    scale = TWO_PI / grid.box_length
    comps = [amplitude * np.sin(scale * xs[1])] + [np.zeros(grid.shape)] * (grid.dim - 1)
    return from_samples(grid, np.stack(comps))


@functools.lru_cache(maxsize=None)
def operator(grid, params=FlowParams(nu=1.0), dt=1.0):
    """The run operator of (grid, params, dt); the nonlinear term depends on the grid alone."""
    return SpectralOperator(grid, params, dt)
