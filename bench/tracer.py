"""Span tracing of graddivbox from outside the package.

`Tracer.install()` replaces every module-level binding of the traced
functions inside the package (so `stats.volume_norm_sq`, `runner.volume_norm_sq`
and `grid.volume_norm_sq` are all counted), the classmethods of the
package's classes, the lazy `Field.phys`/`Field.spec` views and
`numpy.fft.rfftn`/`irfftn` with wrappers that append one span per call:
name, start, end, parent span and operation id. A view read opens a span
only when it computes the view (transform and scaling), not when it returns
the cached array. Spans stay in memory in flat arrays until `dump()` writes
them to an .npz file; `Analysis` derives counts and self times from a dump.

The module imports nothing heavy at import time, so a process can time
`import graddivbox` after importing it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

# Modules under src/graddivbox/ that are traced, in layer order. `criterion`
# (pure algebra) and `cli` (argument parsing) are left out.
LAYERS = ("config", "forcing", "grid", "solver", "stats", "checkpoint", "runner")

# Private names traced because a per-layer metric names them.
PRIVATE = {"solver": ("_solve_shifted",), "runner": ("_run_for_sweep",)}

# Lazy views: reading one computes it from the other view when its slot is empty.
VIEWS = {"Field": ("phys", "spec")}

FFT_NAMES = ("rfftn", "irfftn")
OP_PREFIX = "op."


def layer_of(name: str) -> str:
    """Layer a span belongs to: numpy.fft is part of the grid layer."""
    if name.startswith("numpy.fft."):
        return "grid"
    return name.split(".", 1)[0]


def _fft_work(args, kwargs, result):
    """(component transforms, computed bytes in + out) of one n-d FFT call."""
    a = args[0]
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    if axes is None:
        components = 1
    else:
        transformed = {ax % a.ndim for ax in axes}
        components = 1
        for ax, size in enumerate(a.shape):
            if ax not in transformed:
                components *= size
    return components, a.nbytes + result.nbytes


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.fft_components = array("q")
        self.fft_bytes = array("q")
        self._stack = [-1]
        self._op = -1
        self._ops = 0
        self._patched: list = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.fft_components.append(0)
        self.fft_bytes.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn, fft: bool = False):
        name_id = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if fft:
                self.fft_components[idx], self.fft_bytes[idx] = _fft_work(args, kwargs, result)
            return result

        return traced

    def _wrap_view(self, name: str, slot: str, fget):
        name_id = self._intern(name)

        @functools.wraps(fget)
        def traced(obj):
            if getattr(obj, slot, None) is not None:
                return fget(obj)
            idx = self._open(name_id)
            try:
                return fget(obj)
            finally:
                self._close(idx)

        return traced

    @contextlib.contextmanager
    def operation(self, name: str):
        """Root span for one public call; spans opened inside carry its operation id."""
        self._op = self._ops
        self._ops += 1
        idx = self._open(self._intern(OP_PREFIX + name))
        try:
            yield self._op
        finally:
            self._close(idx)
            self._op = -1

    def install(self) -> None:
        import numpy.fft

        modules = {layer: importlib.import_module(f"graddivbox.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._install_class(f"{layer}.{attr}", obj)
                elif callable(obj):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for attr in FFT_NAMES:
            obj = getattr(numpy.fft, attr)
            wrappers[id(obj)] = (obj, self._wrap(f"numpy.fft.{attr}", obj, fft=True))

        package = [m for name, m in sys.modules.items() if name.split(".", 1)[0] == "graddivbox"]
        for mod in [numpy.fft, *package]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def _install_class(self, name: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if isinstance(obj, classmethod):
                wrapped = classmethod(self._wrap(f"{name}.{attr}", obj.__func__))
            elif isinstance(obj, property) and attr in VIEWS.get(cls.__name__, ()):
                wrapped = property(self._wrap_view(f"{name}.{attr}", "_" + attr, obj.fget))
            else:
                continue
            self._patched.append((cls, attr, obj))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def dump(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=self.name_id.typecode),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=self.parent.typecode),
            op=np.frombuffer(self.op, dtype=self.op.typecode),
            fft_components=np.frombuffer(self.fft_components, dtype=np.int64),
            fft_bytes=np.frombuffer(self.fft_bytes, dtype=np.int64),
        )


class Analysis:
    """Counts and self times of the spans of chosen operations in a dump.

    A span's self time is its duration minus the durations of its child
    spans; spans of one thread nest, so the children never overlap.
    """

    def __init__(self, path):
        import numpy as np

        self._np = np
        with np.load(path) as d:
            self.names = [str(s) for s in d["names"]]
            self.name_id = d["name_id"].astype(np.int64)
            self.op = d["op"].astype(np.int64)
            self.dur = (d["end"] - d["start"]).astype(np.float64) * 1e-9
            parent = d["parent"].astype(np.int64)
            self.fft_components = d["fft_components"]
            self.fft_bytes = d["fft_bytes"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=self.dur[has_parent], minlength=self.dur.size)
        self.self_time = self.dur - child_time

    def _select(self, ops, names=None):
        mask = self._np.isin(self.op, list(ops))
        if names is not None:
            ids = [i for i, n in enumerate(self.names) if n in names]
            mask &= self._np.isin(self.name_id, ids)
        return mask

    def ops_named(self, prefix: str) -> list:
        """Ids of the operations whose root span name starts with `prefix`."""
        ids = [i for i, n in enumerate(self.names) if n.startswith(OP_PREFIX + prefix)]
        return sorted(set(self.op[self._np.isin(self.name_id, ids)].tolist()))

    def count(self, ops, name) -> int:
        return int(self._select(ops, [name]).sum())

    def durations(self, ops, name):
        """Durations in seconds of the spans named `name`, children included."""
        return self.dur[self._select(ops, [name])]

    def total(self, ops, *names) -> float:
        return float(self.dur[self._select(ops, names)].sum())

    def self_total(self, ops, *names) -> float:
        return float(self.self_time[self._select(ops, names)].sum())

    def layer_self(self, ops, layer) -> float:
        return self.self_total(ops, *[n for n in self.names if layer_of(n) == layer])

    def fft(self, ops):
        """(component transforms, computed bytes) over the chosen operations."""
        mask = self._select(ops)
        return int(self.fft_components[mask].sum()), int(self.fft_bytes[mask].sum())

    def counts(self, op) -> dict:
        """Exact per-name call counts plus FFT work of one operation."""
        ids, n = self._np.unique(self.name_id[self._select([op])], return_counts=True)
        out = {self.names[i]: int(c) for i, c in zip(ids.tolist(), n.tolist())}
        out["fft_components"], out["fft_bytes"] = self.fft([op])
        return out
