"""Properties of the config schema over random valid run and sweep configs.

A config dumped by `run_config_to_dict` (with a sweep section for a sweep
config) and `yaml.safe_dump` loads back equal to itself: every key the
table declares survives the YAML text, including output directories that
YAML would read as another type if they were written unquoted.
"""

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from graddivbox.config import RunConfig, SweepConfig, load_run_config, load_sweep_config, run_config_to_dict
from graddivbox.forcing import ForcingSpec
from graddivbox.grid import GridSpec
from graddivbox.solver import FlowParams, StepperConfig

FINITE = {"allow_nan": False, "allow_infinity": False}
POSITIVE = {"min_value": 0.0, "exclude_min": True, **FINITE}


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("configs") / "config.yaml"


def _key(m):
    """The member of the pair {m, -m} whose first nonzero entry is positive."""
    return m if next(mj for mj in m if mj) > 0 else tuple(-mj for mj in m)


def _perpendicular(m):
    """An integer vector p with m . p = 0 and p != 0, for m != 0."""
    if len(m) == 2:
        return (m[1], -m[0])
    e = np.eye(3, dtype=int)[int(np.argmin(np.abs(m)))]  # the axis least parallel to m
    return tuple(int(v) for v in np.cross(m, e))


@st.composite
def modes(draw, dim, bound):
    """A divergence-free mode (m, a): 0 < max|m_j| <= bound and a a complex multiple of a vector normal to m."""
    m = draw(st.tuples(*[st.integers(-bound, bound)] * dim).filter(any))
    c = complex(draw(st.floats(-10, 10)), draw(st.floats(-10, 10)))
    return m, tuple(c * p for p in _perpendicular(m))


@st.composite
def run_configs(draw):
    grid = GridSpec(dim=draw(st.sampled_from([2, 3])), n=draw(st.sampled_from([4, 8, 16, 32])),
                    box_length=draw(st.floats(**POSITIVE)))
    n_low = draw(st.integers(1, 4))
    forcing = ForcingSpec(grid=grid, n_low=n_low, modes=tuple(draw(st.lists(
        modes(grid.dim, min(n_low, grid.cutoff)), max_size=3, unique_by=lambda mode: _key(mode[0])))))
    dt = draw(st.sampled_from([1e-3, 2e-3, 5e-3, 0.01, 0.1]))
    burn_in, window = dt * draw(st.integers(0, 50)), dt * draw(st.integers(1, 50))
    output_dir = draw(st.one_of(
        st.sampled_from(["out", "null", "true", "1.5", "~", "a dir/with: colon", "-"]),
        st.text(st.characters(categories=("L", "N"), include_characters="/._- "), min_size=1)))
    params = FlowParams(nu=draw(st.floats(**POSITIVE)), gamma=draw(st.floats(0.0, **FINITE)))
    return RunConfig(grid=grid, params=params, forcing=forcing, stepper=StepperConfig(dt=dt, t_end=burn_in + window),
                     burn_in=burn_in, window=window, seed=draw(st.integers(0, 2 ** 63)), output_dir=output_dir)


@settings(max_examples=60, deadline=None)
@given(run_configs())
def test_run_config_round_trips(path, cfg):
    path.write_text(yaml.safe_dump(run_config_to_dict(cfg), sort_keys=False))
    assert load_run_config(path) == cfg


@settings(max_examples=40, deadline=None)
@given(run_configs(), st.lists(st.floats(0.0, **FINITE), min_size=1, max_size=5, unique=True),
       st.integers(1, 8))
def test_sweep_config_round_trips(path, base, gammas, workers):
    sweep = SweepConfig(base=base, gamma_values=tuple(sorted(gammas)), parallel_workers=workers)
    d = run_config_to_dict(base)
    d["sweep"] = {"gamma_values": list(sweep.gamma_values), "parallel_workers": workers}
    path.write_text(yaml.safe_dump(d, sort_keys=False))
    assert load_sweep_config(path) == sweep
