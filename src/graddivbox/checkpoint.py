"""Binary checkpoint files for restartable runs.

Little-endian layout:

    bytes 0-3    magic "GDPB"
    u32          format version (2)
    u32          dim
    u32          n
    f64          box_length
    f64          t
    f64          nu
    f64          gamma
    payload      dim * n^(dim-1) * (n/2+1) complex128 values, the
                 half-spectrum (numpy rfftn layout, Fourier-series
                 coefficients) of the velocity, component-major, each
                 component row-major; +0 off the modes the 2/3 rule keeps

A `Field` holds only the kept modes, so the writer extends it to the
half-spectrum and the reader restricts the payload back, bitwise; a
restart from a written checkpoint therefore reproduces a serial run
bitwise. The reader refuses a file whose payload has a nonzero coefficient
above the 2/3-rule cutoff, an invalid header value, a short payload or
trailing bytes. Version 1 files (a physical-space payload) are not read. A
checkpoint is written to a temporary file in the target's directory and
then renamed onto the target, so a failed write leaves the previous file
intact.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .grid import Field, GridSpec, extend, restrict
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
    payload = np.ascontiguousarray(extend(grid, u.spec), dtype="<c16").tobytes()
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
    """Returns (grid, u, t, params), u a compact Field."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise CheckpointError(f"{path}: truncated header")
        magic, version, dim, n, box_length, t, nu, gamma = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        try:
            grid = GridSpec(dim=dim, n=n, box_length=box_length)
            params = FlowParams(nu=nu, gamma=gamma)
        except ValueError as e:
            raise CheckpointError(f"{path}: invalid header: {e}") from e
        shape = (dim,) + grid.spectral_shape
        size = math.prod(shape) * 16
        stored = os.fstat(fh.fileno()).st_size - _HEADER.size  # a corrupt header cannot ask for a huge read
        if stored < size:
            raise CheckpointError(f"{path}: truncated payload")
        if stored > size:
            raise CheckpointError(f"{path}: {stored - size} trailing bytes after the payload")
        full = np.frombuffer(fh.read(size), dtype="<c16").reshape(shape)
    spec = restrict(grid, full)
    if not np.array_equal(extend(grid, spec), full, equal_nan=True):
        raise CheckpointError(f"checkpoint has a nonzero coefficient above the 2/3-rule cutoff {grid.cutoff}: {path}")
    return grid, Field(grid, spec), t, params
