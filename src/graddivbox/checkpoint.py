"""Binary checkpoint files for restartable runs.

Little-endian layout:

    bytes 0-3    magic "GDPB"
    u32          format version (currently 1)
    u32          dim
    u32          n
    f64          box_length
    f64          t
    f64          nu
    f64          gamma
    payload      dim * n^dim f64 values: the physical-space velocity
                 components, component-major, each component row-major

The physical-space state is the canonical solver state, so writing and
reloading a checkpoint restarts a serial run bitwise.
"""

from __future__ import annotations

import struct

import numpy as np

from .grid import Field, GridSpec
from .solver import FlowParams

MAGIC = b"GDPB"
VERSION = 1
_HEADER = struct.Struct("<4sIIIdddd")


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


def write_checkpoint(path, u: Field, t: float, params: FlowParams) -> None:
    grid = u.grid
    header = _HEADER.pack(MAGIC, VERSION, grid.dim, grid.n,
                          grid.box_length, t, params.nu, params.gamma)
    payload = np.ascontiguousarray(u.phys, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_checkpoint(path):
    """Returns (grid, u, t, params)."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise CheckpointError(f"{path}: truncated header")
        magic, version, dim, n, box_length, t, nu, gamma = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        grid = GridSpec(dim=dim, n=n, box_length=box_length)
        count = dim * grid.num_samples
        data = np.frombuffer(fh.read(count * 8), dtype="<f8")
        if data.size != count:
            raise CheckpointError(f"{path}: truncated payload")
    u = Field.from_physical(grid, data.reshape((dim,) + grid.shape).copy())
    return grid, u, t, FlowParams(nu=nu, gamma=gamma)
