"""Properties of the checkpoint format over random compact states, grids and header values.

A write followed by a read gives back the state, the time and the flow
parameters bit for bit, in an array the caller owns, from a file that holds
the header and the compact coefficients and nothing else.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graddivbox.checkpoint import read_checkpoint, write_checkpoint
from graddivbox.grid import Field, GridSpec
from graddivbox.solver import FlowParams

HEADER_BYTES = 4 + 3 * 4 + 4 * 8
FINITE = {"allow_nan": False, "allow_infinity": False}


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("checkpoints") / "state.ckpt"


@st.composite
def checkpoints(draw):
    """(grid, u, t, params): a random compact state with one drawn value, possibly -0, inf or nan, in it."""
    # below about 8e-153 the largest |k|^2 of a 3d n = 32 grid overflows, a box_length GridSpec refuses
    grid = GridSpec(dim=draw(st.sampled_from([2, 3])), n=draw(st.sampled_from([4, 6, 8, 12, 16, 32])),
                    box_length=draw(st.floats(min_value=1e-150, **FINITE)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (grid.dim,) + grid.compact_shape
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spec.flat[draw(st.integers(0, spec.size - 1))] = draw(st.complex_numbers(allow_nan=True, allow_infinity=True))
    params = FlowParams(nu=draw(st.floats(min_value=0.0, exclude_min=True, **FINITE)),
                        gamma=draw(st.floats(min_value=0.0, **FINITE)))
    return grid, spec, draw(st.floats(**FINITE)), params


def bits(*values):
    return struct.pack(f"<{len(values)}d", *values)


@settings(max_examples=60, deadline=None)
@given(checkpoints())
def test_round_trip_keeps_every_bit(path, checkpoint):
    grid, u, t, params = checkpoint
    write_checkpoint(path, Field(grid, u), t, params)
    dim, c = grid.dim, grid.cutoff
    assert path.stat().st_size == HEADER_BYTES + 16 * dim * (2 * c + 1) ** (dim - 1) * (c + 1)
    grid_back, back, t_back, params_back = read_checkpoint(path)
    assert (grid_back.dim, grid_back.n) == (grid.dim, grid.n)
    assert back.spec.dtype == u.dtype and back.spec.tobytes() == u.tobytes()
    assert back.spec.flags.writeable and back.spec.flags.owndata
    assert bits(grid_back.box_length, t_back, params_back.nu, params_back.gamma) == bits(
        grid.box_length, t, params.nu, params.gamma)


def test_3d_n48_round_trip_keeps_every_bit(path):
    grid = GridSpec(dim=3, n=48, box_length=2.0)
    rng = np.random.default_rng(48)
    shape = (3,) + grid.compact_shape
    u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    write_checkpoint(path, Field(grid, u), 0.25, FlowParams(nu=0.05, gamma=1.0))
    grid_back, back, t_back, params_back = read_checkpoint(path)
    assert grid_back == grid and (t_back, params_back) == (0.25, FlowParams(nu=0.05, gamma=1.0))
    assert path.stat().st_size == HEADER_BYTES + 16 * 3 * 31 * 31 * 16
    assert back.spec.tobytes() == u.tobytes()
