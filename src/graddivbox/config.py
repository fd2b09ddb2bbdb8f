"""Run and sweep configuration: YAML schema, validation, round-trip serialization.

`_SCHEMA` is the one declaration of the schema (README "Config schema" shows
it as YAML): every section's keys, or a top-level scalar, with the converter
and the default of each. It drives the key check, which rejects any other
key, the conversion, which names the key it refuses (flat paths such as
`grid.n`), the defaults and the keys `run_config_to_dict` dumps. Physical
parameters (viscosity, gamma, forcing, box size) have no defaults;
forcing.n_low defaults to 2, stats.burn_in to 0. stepper.t_end, stats.burn_in
and stats.window are whole steps of stepper.dt (`solver.step_index`), the
window at least one, and t_end defaults to burn_in + window. The sweep
section is read by sweep configs only. The file is read by YAML 1.2's
number rules (`_Loader`), and a float key refuses a boolean or a string;
`Dumper` writes a `run_config_to_dict` mapping so that it loads back equal.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import yaml

from .forcing import ForcingSpec
from .grid import GridSpec
from .solver import FlowParams, StepperConfig, step_index


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    params: FlowParams
    forcing: ForcingSpec
    stepper: StepperConfig
    burn_in: float
    window: float
    seed: int
    output_dir: str
    burn_in_steps: int = field(init=False, repr=False)

    def __post_init__(self):
        if self.burn_in < 0:
            raise ConfigError(f"stats.burn_in must be nonnegative, got {self.burn_in}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        dt = self.stepper.dt
        try:
            burn_in_steps = step_index(self.burn_in, dt, "stats.burn_in")
            window_steps = step_index(self.window, dt, "stats.window")
        except ValueError as e:
            raise ConfigError(str(e)) from e
        if window_steps < 1:  # a window that is not positive, or rounds to no step
            raise ConfigError(f"stats.window = {self.window} must be at least one step of dt = {dt}")
        if self.stepper.n_steps != burn_in_steps + window_steps:
            raise ConfigError("stepper.t_end must equal stats.burn_in + stats.window")
        object.__setattr__(self, "burn_in_steps", burn_in_steps)


@dataclass(frozen=True)
class SweepConfig:
    base: RunConfig
    gamma_values: tuple
    parallel_workers: int = 1

    def __post_init__(self):
        gv = tuple(float(g) for g in self.gamma_values)
        if not gv:
            raise ConfigError("sweep.gamma_values must be nonempty")
        if not all(0 <= g < math.inf for g in gv):
            raise ConfigError(f"sweep.gamma_values must be nonnegative and finite, got {list(gv)}")
        if any(b <= a for a, b in zip(gv, gv[1:])):
            raise ConfigError("sweep.gamma_values must be strictly increasing")
        if self.parallel_workers < 1:
            raise ConfigError("sweep.parallel_workers must be >= 1")
        object.__setattr__(self, "gamma_values", gv)


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {value!r}")
    return float(value)


def _finite(value) -> float:
    x = _number(value)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {x}")
    return x


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def _numbers(value) -> tuple:
    if not isinstance(value, list) or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value):
        raise ValueError(f"must be a list of numbers, got {value!r}")
    return tuple(float(v) for v in value)


def _nonempty_str(value) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"must be a nonempty string, got {value!r}")
    return value


def _modes(raw) -> tuple:
    """forcing.modes, a list of {m: [...], amplitude: [[re, im], ...]}, as ((m, amplitude), ...)."""
    if not isinstance(raw, list):
        raise ConfigError("forcing.modes must be a list")
    modes = []
    for i, entry in enumerate(raw):
        for key in entry if isinstance(entry, dict) else ():
            if key not in ("m", "amplitude"):
                raise ConfigError(f"unknown config key: forcing.modes[{i}].{key}")
        try:
            m = tuple(_integer(v) for v in entry["m"])
            amp = tuple(complex(_number(real), _number(imag)) for real, imag in entry["amplitude"])
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"forcing.modes[{i}]: expected integers m and amplitude [[re, im], ...] ({e})") from e
        modes.append((m, amp))
    return tuple(modes)


_REQUIRED = object()

# The schema: each section's keys, or a top-level scalar, as (converter, default), in the order
# of the dump. stepper.t_end's default, burn_in + window, is given where the section is read.
_SCHEMA = {
    "grid": {"dim": (_integer, _REQUIRED), "n": (_integer, _REQUIRED), "box_length": (_number, _REQUIRED)},
    "flow": {"nu": (_number, _REQUIRED), "gamma": (_number, _REQUIRED)},
    "forcing": {"n_low": (_integer, 2), "modes": (_modes, _REQUIRED)},
    "stepper": {"dt": (_number, _REQUIRED), "t_end": (_number, None)},
    # finite: they make the default t_end, so a bad value is refused as stats.*, not as stepper.t_end
    "stats": {"burn_in": (_finite, 0.0), "window": (_finite, _REQUIRED)},
    "seed": (_integer, 0),
    "output_dir": (_nonempty_str, "out"),
    "sweep": {"gamma_values": (_numbers, _REQUIRED), "parallel_workers": (_integer, 1)},
}


def _check_keys(d: dict) -> None:
    for key, value in d.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key: {key}")
        for sub in value if isinstance(_SCHEMA[key], dict) and isinstance(value, dict) else ():
            if sub not in _SCHEMA[key]:
                raise ConfigError(f"unknown config key: {key}.{sub}")


def _get(d: dict, path: str, kind, default=_REQUIRED):
    """The value at `path` converted by `kind`, or `default` when it is absent.

    A refusal of `kind` is named by `path`, unless it is a ConfigError, which names its key itself.
    """
    cur = d
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            if default is _REQUIRED:
                raise ConfigError(f"missing required config key: {path}")
            return default
        cur = cur[part]
    try:
        return kind(cur)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as e:  # OverflowError: an int too large for a float
        raise ConfigError(f"{path}: {e}") from e


def _section(d: dict, name: str, **defaults):
    """The converted value of top-level scalar `name`, or the dict of section `name`'s values.

    `defaults` replace the table's defaults of the keys they name.
    """
    spec = _SCHEMA[name]
    if not isinstance(spec, dict):
        return _get(d, name, *spec)
    return {key: _get(d, f"{name}.{key}", kind, defaults.get(key, default)) for key, (kind, default) in spec.items()}


def _build(name: str, cls, **values):
    """`cls(**values)`, with its refusal named by the config section `name`."""
    try:
        return cls(**values)
    except ValueError as e:
        raise ConfigError(f"{name}: {e}") from e


def _build_run_config(d: dict) -> RunConfig:
    _check_keys(d)
    grid = _build("grid", GridSpec, **_section(d, "grid"))
    params = _build("flow", FlowParams, **_section(d, "flow"))
    forcing = _build("forcing", ForcingSpec, grid=grid, **_section(d, "forcing"))
    stats = _section(d, "stats")  # before the stepper: its values make the default t_end
    stepper = _build("stepper", StepperConfig, **_section(d, "stepper", t_end=stats["burn_in"] + stats["window"]))
    return RunConfig(grid=grid, params=params, forcing=forcing, stepper=stepper, **stats,
                     seed=_section(d, "seed"), output_dir=_section(d, "output_dir"))


def run_config_to_dict(cfg: RunConfig) -> dict:
    """The mapping a run config loads from: every key of the table but the sweep's, in its order."""
    owners = {"grid": cfg.grid, "flow": cfg.params, "forcing": cfg.forcing, "stepper": cfg.stepper, "stats": cfg}
    d = {name: {key: getattr(owners[name], key) for key in spec} if isinstance(spec, dict) else getattr(cfg, name)
         for name, spec in _SCHEMA.items() if name != "sweep"}
    d["forcing"]["modes"] = [{"m": list(m), "amplitude": [[a.real, a.imag] for a in amp]}
                             for m, amp in cfg.forcing.modes]
    return d


class _Loader(yaml.SafeLoader):
    """YAML's safe loader, reading every YAML 1.2 float as a float.

    YAML 1.1 reads a number with an exponent as a float only when it has a decimal point and a signed
    exponent, so 5e-2, 1e0 and 1.0e154 would be strings. Ints and .inf, .nan resolve as before.
    """


class Dumper(yaml.SafeDumper):
    """YAML's safe dumper, quoting every string `_Loader` reads as a float (1e3, 09), so a config loads back."""


for _cls in (_Loader, Dumper):
    _cls.add_implicit_resolver("tag:yaml.org,2002:float",
                               re.compile(r"^[-+]?(\.[0-9]+|[0-9][0-9_]*(\.[0-9_]*)?)([eE][-+]?[0-9]+)?$"),
                               list("-+0123456789."))


def _load(path) -> dict:
    with open(path, "rb") as fh:  # PyYAML detects UTF-8 or UTF-16, and refuses other bytes as invalid YAML
        try:
            d = yaml.load(fh, Loader=_Loader)
        except yaml.YAMLError as e:
            raise ConfigError(f"config file {path} is not valid YAML: {e}") from e
    if not isinstance(d, dict):
        raise ConfigError(f"config file {path} is not a mapping")
    return d


def load_run_config(path) -> RunConfig:
    return _build_run_config(_load(path))


def load_sweep_config(path) -> SweepConfig:
    d = _load(path)
    return SweepConfig(base=_build_run_config(d), **_section(d, "sweep"))
