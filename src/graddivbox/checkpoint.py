"""Binary checkpoint files for restartable runs.

Little-endian layout:

    bytes 0-3    magic "GDPB"
    u32          format version (currently 2)
    u32          dim
    u32          n
    f64          box_length
    f64          t
    f64          nu
    f64          gamma
    payload      version 2: dim * n^(dim-1) * (n/2+1) complex128 values, the
                 half-spectrum (numpy rfftn layout, Fourier-series
                 coefficients) of the velocity, component-major, each
                 component row-major;
                 version 1: dim * n^dim f64 values, the physical-space
                 velocity, laid out the same way

The spectral coefficients are the canonical solver state, so writing and
reloading a version-2 checkpoint restarts a serial run bitwise. Version 1
files are still read. A checkpoint is written to a temporary file in the
target's directory and then renamed onto the target, so a failed write
leaves the previous file intact.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .grid import Field, GridSpec
from .solver import FlowParams

MAGIC = b"GDPB"
VERSION = 2
_HEADER = struct.Struct("<4sIIIdddd")


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


def write_checkpoint(path, u: Field, t: float, params: FlowParams) -> None:
    grid = u.grid
    header = _HEADER.pack(MAGIC, VERSION, grid.dim, grid.n,
                          grid.box_length, t, params.nu, params.gamma)
    payload = np.ascontiguousarray(u.spec, dtype="<c16").tobytes()
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_checkpoint(path):
    """Returns (grid, u, t, params)."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise CheckpointError(f"{path}: truncated header")
        magic, version, dim, n, box_length, t, nu, gamma = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        if version not in (1, VERSION):
            raise CheckpointError(f"{path}: unsupported format version {version}")
        grid = GridSpec(dim=dim, n=n, box_length=box_length)
        shape = (dim,) + (grid.shape if version == 1 else grid.spectral_shape)
        dtype = np.dtype("<f8" if version == 1 else "<c16")
        count = int(np.prod(shape))
        data = np.frombuffer(fh.read(count * dtype.itemsize), dtype=dtype)
        if data.size != count:
            raise CheckpointError(f"{path}: truncated payload")
    data = data.reshape(shape).copy()
    u = Field.from_physical(grid, data) if version == 1 else Field.from_spectral(grid, data)
    return grid, u, t, FlowParams(nu=nu, gamma=gamma)
