"""Binary checkpoint files for restartable runs.

Little-endian layout:

    bytes 0-3    magic "GDPB"
    u32          format version (3)
    u32          dim
    u32          n
    f64          box_length
    f64          t
    f64          nu
    f64          gamma
    payload      dim * (2c+1)^(dim-1) * (c+1) complex128 values, c the
                 2/3-rule cutoff of n: the velocity's coefficients on the
                 compact layout of `grid` (Fourier-series coefficients of
                 the kept modes), component-major, each component row-major

The payload is the state a run holds, written and read as it is, so a
restart from a written checkpoint reproduces a serial run bitwise. The
reader refuses an invalid header value, a short payload or trailing bytes,
and every format version but 3 (version 1 held samples, version 2 the
zero-padded half-spectrum). A checkpoint is written to a temporary file in
the target's directory and then renamed onto the target, so a failed write
leaves the previous file intact.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .grid import Field, GridSpec
from .solver import FlowParams

MAGIC = b"GDPB"
VERSION = 3
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
        shape = (dim,) + grid.compact_shape
        size = math.prod(shape) * 16
        stored = os.fstat(fh.fileno()).st_size - _HEADER.size  # a corrupt header cannot ask for a huge read
        if stored < size:
            raise CheckpointError(f"{path}: truncated payload")
        if stored > size:
            raise CheckpointError(f"{path}: {stored - size} trailing bytes after the payload")
        spec = np.frombuffer(fh.read(size), dtype="<c16").reshape(shape).astype(complex)  # owned, writable
    return grid, Field(grid, spec), t, params
