"""Properties of the checkpoint format over random compact states, grids and header values.

A write followed by a read gives back the state, the time and the flow
parameters bit for bit, and a payload with any nonzero coefficient above
the 2/3-rule cutoff is refused.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graddivbox.checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from graddivbox.grid import Field, GridSpec, extend
from graddivbox.solver import FlowParams

HEADER_BYTES = 4 + 3 * 4 + 4 * 8
FINITE = {"allow_nan": False, "allow_infinity": False}


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("checkpoints") / "state.ckpt"


@st.composite
def checkpoints(draw):
    """(u, t, params): a random compact state with one drawn value, possibly -0, inf or nan, in it."""
    grid = GridSpec(dim=draw(st.sampled_from([2, 3])), n=draw(st.sampled_from([4, 8, 16, 32])),
                    box_length=draw(st.floats(min_value=0.0, exclude_min=True, **FINITE)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (grid.dim,) + grid.compact_shape
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spec.flat[draw(st.integers(0, spec.size - 1))] = draw(st.complex_numbers(allow_nan=True, allow_infinity=True))
    params = FlowParams(nu=draw(st.floats(min_value=0.0, exclude_min=True, **FINITE)),
                        gamma=draw(st.floats(min_value=0.0, **FINITE)))
    return Field(grid, spec), draw(st.floats(**FINITE)), params


def bits(*values):
    return struct.pack(f"<{len(values)}d", *values)


@settings(max_examples=60, deadline=None)
@given(checkpoints())
def test_round_trip_keeps_every_bit(path, checkpoint):
    u, t, params = checkpoint
    write_checkpoint(path, u, t, params)
    grid, back, t_back, params_back = read_checkpoint(path)
    assert (grid.dim, grid.n) == (u.grid.dim, u.grid.n)
    assert back.spec.dtype == u.spec.dtype and back.spec.tobytes() == u.spec.tobytes()
    assert bits(grid.box_length, t_back, params_back.nu, params_back.gamma) == bits(
        u.grid.box_length, t, params.nu, params.gamma)


@settings(max_examples=60, deadline=None)
@given(checkpoints(), st.data())
def test_a_coefficient_above_the_cutoff_is_refused(path, checkpoint, data):
    u, t, params = checkpoint
    grid = u.grid
    write_checkpoint(path, u, t, params)
    full = extend(grid, u.spec)
    kept = extend(grid, np.ones((1,) + grid.compact_shape, dtype=bool))[0]
    removed = np.argwhere(~kept)
    where = tuple(removed[data.draw(st.integers(0, len(removed) - 1))])
    full[(data.draw(st.integers(0, grid.dim - 1)),) + where] = data.draw(
        st.complex_numbers(allow_nan=True, allow_infinity=True).filter(lambda z: z != 0))
    path.write_bytes(path.read_bytes()[:HEADER_BYTES] + full.astype("<c16").tobytes())
    with pytest.raises(CheckpointError, match="nonzero coefficient above the 2/3-rule cutoff"):
        read_checkpoint(path)
