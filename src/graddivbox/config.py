"""Run and sweep configuration: YAML schema, validation, round-trip serialization.

Schema (flat key paths shown as they appear in error messages):

    grid.dim, grid.n, grid.box_length
    flow.nu, flow.gamma
    forcing.n_low, forcing.modes  (list of {m: [...], amplitude: [[re, im], ...]})
    stepper.dt, stepper.t_end
    stats.burn_in, stats.window
    seed, output_dir
    sweep.gamma_values, sweep.parallel_workers   (read by sweep configs only)

Any other key is rejected. Physical parameters (viscosity, gamma, forcing,
box size) have no defaults; forcing.n_low defaults to 2, stats.burn_in to 0.
stepper.t_end may be left out: it is whole steps of stepper.dt, as many as
stats.burn_in + stats.window, and a step must start in the window (`averaged`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import yaml

from .forcing import ForcingSpec
from .grid import GridSpec
from .solver import FlowParams, StepperConfig
from .stats import averaged


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

    def __post_init__(self):
        if not self.window > 0:
            raise ConfigError("stats.window must be positive")
        if self.burn_in < 0:
            raise ConfigError("stats.burn_in must be nonnegative")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        dt, n_steps = self.stepper.dt, self.stepper.n_steps
        if n_steps != round((self.burn_in + self.window) / dt):
            raise ConfigError("stepper.t_end must equal stats.burn_in + stats.window")
        if not averaged(n_steps - 1, dt, self.burn_in):
            raise ConfigError(f"stats.burn_in leaves no step of dt = {dt} to average over")


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


_REQUIRED = object()

# Keys of each section; None marks a top-level scalar.
_SCHEMA = {
    "grid": ("dim", "n", "box_length"),
    "flow": ("nu", "gamma"),
    "forcing": ("n_low", "modes"),
    "stepper": ("dt", "t_end"),
    "stats": ("burn_in", "window"),
    "seed": None,
    "output_dir": None,
    "sweep": ("gamma_values", "parallel_workers"),
}


def _check_keys(d: dict) -> None:
    for key, value in d.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key: {key}")
        for sub in value if _SCHEMA[key] and isinstance(value, dict) else ():
            if sub not in _SCHEMA[key]:
                raise ConfigError(f"unknown config key: {key}.{sub}")


def _get(d: dict, path: str, default=_REQUIRED, kind=lambda v: v):
    """The value at `path` converted by `kind`, or `default` when it is absent."""
    cur = d
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            if default is _REQUIRED:
                raise ConfigError(f"missing required config key: {path}")
            return default
        cur = cur[part]
    try:
        return kind(cur)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from e


def _finite(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {x}")
    return x


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def _build_run_config(d: dict) -> RunConfig:
    _check_keys(d)
    try:
        grid = GridSpec(
            dim=_get(d, "grid.dim", kind=_integer),
            n=_get(d, "grid.n", kind=_integer),
            box_length=_get(d, "grid.box_length", kind=float),
        )
    except ValueError as e:
        raise ConfigError(f"grid: {e}") from e
    try:
        params = FlowParams(nu=_get(d, "flow.nu", kind=float), gamma=_get(d, "flow.gamma", kind=float))
    except ValueError as e:
        raise ConfigError(f"flow: {e}") from e

    raw_modes = _get(d, "forcing.modes")
    if not isinstance(raw_modes, list):
        raise ConfigError("forcing.modes must be a list")
    modes = []
    for i, entry in enumerate(raw_modes):
        for key in entry if isinstance(entry, dict) else ():
            if key not in ("m", "amplitude"):
                raise ConfigError(f"unknown config key: forcing.modes[{i}].{key}")
        try:
            m = tuple(_integer(v) for v in entry["m"])
            amp = tuple(complex(re, im) for re, im in entry["amplitude"])
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"forcing.modes[{i}]: expected integers m and amplitude [[re, im], ...] ({e})") from e
        modes.append((m, amp))
    try:
        forcing = ForcingSpec(grid=grid, modes=tuple(modes), n_low=_get(d, "forcing.n_low", 2, _integer))
    except ValueError as e:
        raise ConfigError(f"forcing: {e}") from e

    # finite before they make the default t_end, so a bad value is named as stats.*
    burn_in = _get(d, "stats.burn_in", 0.0, _finite)
    window = _get(d, "stats.window", kind=_finite)
    try:
        stepper = StepperConfig(
            dt=_get(d, "stepper.dt", kind=float),
            t_end=_get(d, "stepper.t_end", burn_in + window, float),
        )
    except ValueError as e:
        raise ConfigError(f"stepper: {e}") from e

    return RunConfig(
        grid=grid,
        params=params,
        forcing=forcing,
        stepper=stepper,
        burn_in=burn_in,
        window=window,
        seed=_get(d, "seed", 0, _integer),
        output_dir=_get(d, "output_dir", "out", str),
    )


def run_config_to_dict(cfg: RunConfig) -> dict:
    return {
        "grid": dataclasses.asdict(cfg.grid),
        "flow": {"nu": cfg.params.nu, "gamma": cfg.params.gamma},
        "forcing": {
            "n_low": cfg.forcing.n_low,
            "modes": [
                {"m": list(m), "amplitude": [[a.real, a.imag] for a in amp]}
                for m, amp in cfg.forcing.modes
            ],
        },
        "stepper": {
            "dt": cfg.stepper.dt,
            "t_end": cfg.stepper.t_end,
        },
        "stats": {"burn_in": cfg.burn_in, "window": cfg.window},
        "seed": cfg.seed,
        "output_dir": cfg.output_dir,
    }


def _load(path) -> dict:
    with open(path) as fh:
        try:
            d = yaml.safe_load(fh)
        except yaml.YAMLError as e:
            raise ConfigError(f"config file {path} is not valid YAML: {e}") from e
    if not isinstance(d, dict):
        raise ConfigError(f"config file {path} is not a mapping")
    return d


def load_run_config(path) -> RunConfig:
    return _build_run_config(_load(path))


def load_sweep_config(path) -> SweepConfig:
    d = _load(path)
    return SweepConfig(
        base=_build_run_config(d),
        gamma_values=_get(d, "sweep.gamma_values", kind=lambda v: tuple(float(g) for g in v)),
        parallel_workers=_get(d, "sweep.parallel_workers", 1, _integer),
    )
