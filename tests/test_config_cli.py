import dataclasses
import json
import math
import os
import re
import shutil
import struct

import numpy as np
import pytest
import yaml

from graddivbox.checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from graddivbox.cli import main
from graddivbox.config import (
    ConfigError,
    RunConfig,
    SweepConfig,
    load_run_config,
    load_sweep_config,
    run_config_to_dict,
)
from graddivbox.forcing import ForcingSpec
from graddivbox.grid import GridSpec, parseval_sum
from graddivbox import checkpoint, config, runner, stats
from graddivbox.runner import run_single, run_sweep
from graddivbox.solver import BlowUpError, FlowParams, StepperConfig

from conftest import TWO_PI, extend, random_state_field, shear_field, write_config, zeros


HEADER_BYTES = 4 + 3 * 4 + 4 * 8


def small_run_config(tmp_path, dim=2, n=32, nu=0.05, gamma=1.0, dt=2e-3,
                     t_end=0.1, burn_in=0.0, window=0.1, seed=1,
                     modes=None, subdir="out"):
    grid = GridSpec(dim=dim, n=n, box_length=TWO_PI)
    if modes is None:
        modes = (((1, 1), (-0.25j, 0.25j)), ((1, -1), (-0.25j, -0.25j)))
    forcing = ForcingSpec(grid=grid, modes=modes)
    return RunConfig(
        grid=grid,
        params=FlowParams(nu=nu, gamma=gamma),
        forcing=forcing,
        stepper=StepperConfig(dt=dt, t_end=t_end),
        burn_in=burn_in,
        window=window,
        seed=seed,
        output_dir=str(tmp_path / subdir),
    )


class TestConfigRoundTrip:
    def test_run_config_round_trips(self, tmp_path):
        cfg = small_run_config(tmp_path)
        path = tmp_path / "run.yaml"
        write_config(path, cfg)
        assert load_run_config(path) == cfg

    def test_sweep_config_round_trips(self, tmp_path):
        sweep = SweepConfig(base=small_run_config(tmp_path),
                            gamma_values=(0.0, 0.5, 2.0), parallel_workers=2)
        path = tmp_path / "sweep.yaml"
        write_config(path, sweep)
        assert load_sweep_config(path) == sweep

    def test_missing_key_names_offender(self, tmp_path):
        path = tmp_path / "bad.yaml"
        with open(path, "w") as fh:
            yaml.safe_dump({"grid": {"dim": 2, "n": 32}}, fh)
        with pytest.raises(ConfigError, match="grid.box_length"):
            load_run_config(path)

    def test_invalid_grid_reported(self, tmp_path):
        cfg = small_run_config(tmp_path)
        write_config(tmp_path / "g.yaml", cfg)
        d = yaml.safe_load(open(tmp_path / "g.yaml"))
        d["grid"]["n"] = 37
        with open(tmp_path / "g.yaml", "w") as fh:
            yaml.safe_dump(d, fh)
        with pytest.raises(ConfigError, match="power of two"):
            load_run_config(tmp_path / "g.yaml")

    @pytest.mark.parametrize("name", [
        "stats.burnin", "grid.bogus", "grid.dealias_fraction", "stepper.scheme",
        "stepper.cfl_target", "sweep.workers", "seeds",
    ])
    def test_unknown_key_names_offender(self, tmp_path, name):
        d = run_config_to_dict(small_run_config(tmp_path))
        *section, key = name.split(".")
        (d.setdefault(section[0], {}) if section else d)[key] = 0.15
        path = tmp_path / "unknown.yaml"
        path.write_text(yaml.safe_dump(d))
        with pytest.raises(ConfigError, match=f"unknown config key: {name}$"):
            load_run_config(path)

    @pytest.mark.parametrize("name, value", [
        ("stats.window", "abc"), ("seed", [1]), ("stats.burn_in", None), ("sweep.parallel_workers", "two"),
        ("sweep.gamma_values", ["a"]),
    ])
    def test_unconvertible_value_names_offender(self, tmp_path, name, value):
        d = run_config_to_dict(small_run_config(tmp_path))
        d["sweep"] = {"gamma_values": [0.0, 1.0]}
        *section, key = name.split(".")
        (d[section[0]] if section else d)[key] = value
        path = tmp_path / "value.yaml"
        path.write_text(yaml.safe_dump(d))
        with pytest.raises(ConfigError, match=f"^{name}: "):
            load_sweep_config(path)

    @pytest.mark.parametrize("name, value", [
        ("grid.dim", 2.5), ("grid.dim", True), ("grid.n", 32.7), ("grid.n", math.inf), ("forcing.n_low", 2.5),
        ("forcing.modes[0].m", 1.6), ("forcing.modes[0].m", True), ("seed", 2.9), ("seed", True),
        ("sweep.parallel_workers", 1.5), ("sweep.parallel_workers", False),
    ])
    def test_non_integer_value_names_offender(self, tmp_path, name, value):
        d = run_config_to_dict(small_run_config(tmp_path))
        d["sweep"] = {"gamma_values": [0.0, 1.0]}
        if name == "forcing.modes[0].m":
            d["forcing"]["modes"][0]["m"] = [value, 0]
            name = "forcing.modes[0]: expected integers m"
        else:
            *section, key = name.split(".")
            (d[section[0]] if section else d)[key] = value
        path = tmp_path / "value.yaml"
        path.write_text(yaml.safe_dump(d))
        with pytest.raises(ConfigError, match=f"{re.escape(name)}.*must be an integer, got {value!r}"):
            load_sweep_config(path)

    @pytest.mark.parametrize("section, key, value, message", [
        ("grid", "n", 32.7, r"^grid\.n: must be an integer, got 32\.7$"),
        ("forcing", "n_low", 2.5, r"^forcing\.n_low: must be an integer, got 2\.5$"),
        ("grid", "n", 37, r"^grid: n must be a power of two"),
    ])
    def test_section_named_once(self, tmp_path, section, key, value, message):
        d = run_config_to_dict(small_run_config(tmp_path))
        d[section][key] = value
        path = tmp_path / "value.yaml"
        path.write_text(yaml.safe_dump(d))
        with pytest.raises(ConfigError, match=message):
            load_run_config(path)

    def test_readme_schema_is_the_schema_table(self, tmp_path):
        # the YAML block under README "Config schema" loads, and shows every key of the table
        readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
        block = re.search(r"### Config schema\n\n```yaml\n(.*?)```", readme, re.S).group(1)
        path = tmp_path / "readme.yaml"
        path.write_text(block)
        load_sweep_config(path)

        def keys(d):
            return {(name, key) for name, sub in d.items() for key in (sub if isinstance(sub, dict) else [None])}
        assert keys(yaml.safe_load(block)) == keys(config._SCHEMA)

    def test_integral_float_loads_as_int(self, tmp_path):
        cfg = small_run_config(tmp_path)
        d = run_config_to_dict(cfg)
        d["grid"]["n"], d["seed"] = 32.0, 1.0
        path = tmp_path / "value.yaml"
        path.write_text(yaml.safe_dump(d))
        loaded = load_run_config(path)
        assert loaded == cfg and type(loaded.grid.n) is int and type(loaded.seed) is int

    @pytest.mark.parametrize("section, key, value", [
        ("grid", "box_length", math.inf), ("flow", "nu", math.inf), ("flow", "gamma", math.nan),
    ])
    def test_non_finite_physical_value_is_a_config_error(self, tmp_path, section, key, value):
        d = run_config_to_dict(small_run_config(tmp_path))
        d[section][key] = value
        path = tmp_path / "value.yaml"
        path.write_text(yaml.safe_dump(d))
        with pytest.raises(ConfigError, match=f"^{section}: {key} must be .* and finite, got {value}$"):
            load_run_config(path)

    @pytest.mark.parametrize("key, value, t_end", [
        ("stats.burn_in", math.nan, True), ("stats.burn_in", math.inf, True), ("stats.window", math.inf, True),
        ("stats.burn_in", math.nan, False), ("stats.window", math.nan, False), ("seed", -1, True),
    ], ids=["burn_in-nan", "burn_in-inf", "window-inf", "burn_in-nan-no-t_end", "window-nan-no-t_end",
            "seed-negative"])
    def test_non_finite_stats_value_or_negative_seed_is_a_config_error(self, tmp_path, capsys, key, value, t_end):
        # without t_end the stats values make its default, so they are checked before the stepper
        d = run_config_to_dict(small_run_config(tmp_path, n=8))
        *section, name = key.split(".")
        (d[section[0]] if section else d)[name] = value
        if not t_end:
            del d["stepper"]["t_end"]
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(d))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}")
        assert not os.path.exists(tmp_path / "out")

    def test_unknown_mode_key_names_offender(self, tmp_path):
        d = run_config_to_dict(small_run_config(tmp_path))
        d["forcing"]["modes"][1]["phase"] = 0.5
        path = tmp_path / "mode.yaml"
        path.write_text(yaml.safe_dump(d))
        with pytest.raises(ConfigError, match=r"forcing\.modes\[1\]\.phase"):
            load_run_config(path)

    @pytest.mark.parametrize("value", [None, ["a", "b"], 3, ""], ids=["null", "list", "number", "empty"])
    def test_output_dir_must_be_a_nonempty_string(self, tmp_path, monkeypatch, capsys, value):
        # null was read as the directory 'None', a list as its repr and 3 as '3'
        monkeypatch.chdir(tmp_path)
        d = run_config_to_dict(small_run_config(tmp_path, n=8))
        d["output_dir"] = value
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(d))
        with pytest.raises(ConfigError, match=r"^output_dir: must be a nonempty string, got "):
            load_run_config(path)
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: output_dir: must be a nonempty string")
        assert os.listdir(tmp_path) == ["run.yaml"]

    def test_sweep_section_allowed_in_run_config(self, tmp_path):
        sweep = SweepConfig(base=small_run_config(tmp_path), gamma_values=(0.0, 1.0))
        path = tmp_path / "sweep.yaml"
        write_config(path, sweep)
        assert load_run_config(path) == sweep.base


class TestWindowValidation:
    def _load(self, tmp_path, **stepper_and_stats):
        d = run_config_to_dict(small_run_config(tmp_path))
        for key, value in stepper_and_stats.items():
            d["stepper" if key in ("dt", "t_end") else "stats"][key] = value
        path = tmp_path / "window.yaml"
        path.write_text(yaml.safe_dump(d))
        return load_run_config(path)

    def test_no_step_after_burn_in_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="stats.burn_in"):
            self._load(tmp_path, dt=0.01, t_end=0.2, burn_in=0.195, window=0.005)

    def test_t_end_must_match_burn_in_plus_window(self, tmp_path):
        with pytest.raises(ConfigError, match="stepper.t_end"):
            self._load(tmp_path, dt=0.01, t_end=0.3, burn_in=0.0, window=0.2)

    def test_t_end_defaults_to_burn_in_plus_window(self, tmp_path):
        d = run_config_to_dict(small_run_config(tmp_path))
        del d["stepper"]["t_end"]
        d["stats"] = {"burn_in": 0.02, "window": 0.04}
        path = tmp_path / "default.yaml"
        path.write_text(yaml.safe_dump(d))
        assert load_run_config(path).stepper.t_end == pytest.approx(0.06)

    def test_window_of_one_step_runs(self, tmp_path):
        # the last step starts exactly at burn_in: accepted, and it is averaged
        cfg = self._load(tmp_path, dt=0.01, t_end=0.2, burn_in=0.19, window=0.01)
        assert run_single(cfg)["window"] == pytest.approx(0.01)

    def test_off_grid_t_end_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^stepper: t_end = 0\.105 is not on the step grid of dt = 0\.01$"):
            self._load(tmp_path, dt=0.01, t_end=0.105, burn_in=0.0, window=0.105)

    @pytest.mark.parametrize("dt, burn_in", [(0.1, 92.9), (0.004, 13.124)])
    def test_last_step_at_burn_in_is_averaged(self, tmp_path, dt, burn_in):
        # a clock summed step by step reads 92.899999999999 after 929 steps of 0.1
        d = run_config_to_dict(small_run_config(tmp_path, n=4))
        d["stepper"] = {"dt": dt}
        d["stats"] = {"burn_in": burn_in, "window": dt}
        path = tmp_path / "edge.yaml"
        path.write_text(yaml.safe_dump(d))
        cfg = load_run_config(path)
        assert run_single(cfg)["window"] == dt
        out = run_sweep(SweepConfig(base=cfg, gamma_values=(1.0,)))
        assert out["failures"] == {}
        assert json.load(open(os.path.join(cfg.output_dir, "sweep.json")))["failures"] == {}

    def test_bad_window_does_not_start_a_sweep(self, tmp_path):
        with pytest.raises(ConfigError, match="stats.burn_in"):
            base = small_run_config(tmp_path, dt=0.01, t_end=0.2, burn_in=0.195, window=0.005)
            run_sweep(SweepConfig(base=base, gamma_values=(0.0, 1.0)))
        assert not os.path.exists(tmp_path / "out")


class TestSweepValidation:
    def test_duplicates_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="strictly increasing"):
            SweepConfig(base=small_run_config(tmp_path), gamma_values=(1.0, 1.0))

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="nonempty"):
            SweepConfig(base=small_run_config(tmp_path), gamma_values=())

    def test_negative_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="nonnegative"):
            SweepConfig(base=small_run_config(tmp_path), gamma_values=(-1.0, 0.0))

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma_is_a_config_error(self, tmp_path, capsys, gamma):
        # the first gamma would run before the second one failed, and no sweep.csv be written
        d = run_config_to_dict(small_run_config(tmp_path, n=8))
        d["sweep"] = {"gamma_values": [0.0, gamma]}
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump(d))
        assert main(["sweep", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: sweep.gamma_values must be nonnegative and finite")
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("value", ["12", [True, 2.0], [0.0, "1"], 1.0, None, {"g": 1.0}],
                             ids=["string", "boolean", "string-entry", "scalar", "null", "mapping"])
    def test_gamma_values_must_be_a_list_of_numbers(self, tmp_path, capsys, value):
        # "12" was read as the sweep (1.0, 2.0), by iterating the string, and so was [true, 2.0]
        d = run_config_to_dict(small_run_config(tmp_path, n=8))
        d["sweep"] = {"gamma_values": value}
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump(d))
        with pytest.raises(ConfigError, match=r"^sweep\.gamma_values: must be a list of numbers, got "):
            load_sweep_config(path)
        assert main(["sweep", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: sweep.gamma_values: must be a list of numbers")
        assert not os.path.exists(tmp_path / "out")


class TestRunSingle:
    def test_shear_decay_average_matches_analytic(self, tmp_path):
        # f = 0, u0 = unit shear: eps(t) = 0.5 nu exp(-2 nu t), averaged over [0, 1]
        nu = 0.1
        grid = GridSpec(dim=2, n=32, box_length=TWO_PI)
        cfg = RunConfig(
            grid=grid, params=FlowParams(nu=nu, gamma=0.0),
            forcing=ForcingSpec(grid=grid, modes=()),
            stepper=StepperConfig(dt=1e-3, t_end=1.0),
            burn_in=0.0, window=1.0, seed=0, output_dir=str(tmp_path / "decay"),
        )
        ck = tmp_path / "ic.ckpt"
        write_checkpoint(ck, shear_field(grid), 0.0, cfg.params)
        summary = run_single(cfg, restart_path=str(ck))
        expected = 0.25 * (1.0 - math.exp(-2 * nu))
        assert summary["eps_avg"] == pytest.approx(expected, rel=1e-4)

    def test_bound_flag_present_for_forced_run(self, tmp_path):
        cfg = small_run_config(tmp_path, t_end=0.05, window=0.05)
        summary = run_single(cfg)
        assert summary["bound_satisfied"] == (summary["eps_avg"] <= summary["eps_bound"])
        data = json.load(open(os.path.join(cfg.output_dir, "summary.json")))
        assert isinstance(data["bound_satisfied"], bool)

    def test_gamma_zero_reports_inf_r_gamma_as_string(self, tmp_path):
        cfg = small_run_config(tmp_path, gamma=0.0, t_end=0.05, window=0.05)
        run_single(cfg)
        data = json.load(open(os.path.join(cfg.output_dir, "summary.json")))
        assert data["R_gamma"] == "inf"
        assert data["eps_bound"] == "inf"

    def test_restart_reproduces_tail_bitwise(self, tmp_path):
        full = small_run_config(tmp_path, t_end=0.08, window=0.08, subdir="full")
        run_single(full)
        half = dataclasses.replace(
            full, stepper=dataclasses.replace(full.stepper, t_end=0.04),
            output_dir=str(tmp_path / "half"), window=0.04,
        )
        run_single(half)
        resumed = dataclasses.replace(full, output_dir=str(tmp_path / "resumed"))
        run_single(resumed, restart_path=os.path.join(half.output_dir, "final.ckpt"))
        full_rows = open(os.path.join(full.output_dir, "timeseries.csv")).read().splitlines()
        res_rows = open(os.path.join(resumed.output_dir, "timeseries.csv")).read().splitlines()
        n_tail = len(res_rows) - 1  # minus header
        assert n_tail > 0
        assert full_rows[-n_tail:] == res_rows[1:]

    def test_restart_in_place_writes_the_uninterrupted_timeseries(self, tmp_path):
        # a half run into D resumed into D keeps D's rows up to t0 and appends the rest
        full = small_run_config(tmp_path, t_end=0.08, window=0.08, subdir="full")
        run_single(full)
        half = dataclasses.replace(
            full, stepper=dataclasses.replace(full.stepper, t_end=0.04),
            output_dir=str(tmp_path / "d"), window=0.04,
        )
        run_single(half)
        run_single(dataclasses.replace(full, output_dir=half.output_dir),
                   restart_path=os.path.join(half.output_dir, "final.ckpt"))
        for name in ("timeseries.csv", "summary.json", "final.ckpt"):
            full_file = open(os.path.join(full.output_dir, name), "rb").read()
            assert open(os.path.join(half.output_dir, name), "rb").read() == full_file, name

    def test_restart_into_a_fresh_directory_averages_from_t0(self, tmp_path):
        full = small_run_config(tmp_path, t_end=0.08, window=0.08, subdir="full")
        half = dataclasses.replace(
            full, stepper=dataclasses.replace(full.stepper, t_end=0.04),
            output_dir=str(tmp_path / "half"), window=0.04,
        )
        run_single(half)
        resumed = run_single(dataclasses.replace(full, output_dir=str(tmp_path / "resumed")),
                             restart_path=os.path.join(half.output_dir, "final.ckpt"))
        assert resumed["window"] == pytest.approx(0.04)

    @pytest.mark.parametrize("fault", ["five_cells", "word", "shifted_t", "missing_row", "row_before_t_zero"])
    def test_restart_in_place_refuses_malformed_kept_rows(self, tmp_path, capsys, fault):
        # kept rows are six floats at t = i * dt of consecutive steps i ending at t0; otherwise nothing is written
        half = small_run_config(tmp_path, t_end=0.04, window=0.04, subdir="d")
        run_single(half)
        csv_path = os.path.join(half.output_dir, "timeseries.csv")
        rows = open(csv_path).readlines()
        cells = rows[3].split(",")
        if fault == "five_cells":
            rows[3] = ",".join(cells[:5]) + "\n"
        elif fault == "word":
            rows[3] = ",".join(cells[:2] + ["x"] + cells[3:])
        elif fault == "shifted_t":
            rows[3] = ",".join([repr(float(cells[0]) + 1e-9)] + cells[1:])
        elif fault == "missing_row":
            del rows[3]
        else:
            rows.insert(1, ",".join([repr(-half.stepper.dt)] + rows[1].split(",")[1:]))
        open(csv_path, "w").writelines(rows)

        def files():
            return {name: open(os.path.join(half.output_dir, name), "rb").read()
                    for name in os.listdir(half.output_dir)}

        before = files()
        path = tmp_path / "full.yaml"
        write_config(path, dataclasses.replace(half, stepper=dataclasses.replace(half.stepper, t_end=0.08), window=0.08))
        assert main(["run", str(path), "--restart", os.path.join(half.output_dir, "final.ckpt")]) == 5
        assert capsys.readouterr().err.startswith(f"error: {csv_path} row ")
        assert files() == before

    @pytest.mark.parametrize("other", ["other_seed", "cut_short"])
    def test_restart_in_place_refuses_a_timeseries_without_the_restored_state(self, tmp_path, capsys, other):
        # the t0 row must hold the checkpoint state's diagnostics; otherwise nothing is written
        half = small_run_config(tmp_path, t_end=0.04, window=0.04, subdir="d")
        run_single(half)
        csv_path = os.path.join(half.output_dir, "timeseries.csv")
        if other == "other_seed":
            run_single(dataclasses.replace(half, seed=2, output_dir=str(tmp_path / "e")))
            shutil.copy(os.path.join(tmp_path, "e", "timeseries.csv"), csv_path)
        else:
            rows = open(csv_path).readlines()
            open(csv_path, "w").writelines(rows[:-1])

        def files():
            return {name: open(os.path.join(half.output_dir, name), "rb").read()
                    for name in os.listdir(half.output_dir)}

        before = files()
        path = tmp_path / "full.yaml"
        write_config(path, dataclasses.replace(half, stepper=dataclasses.replace(half.stepper, t_end=0.08), window=0.08))
        assert main(["run", str(path), "--restart", os.path.join(half.output_dir, "final.ckpt")]) == 5
        assert capsys.readouterr().err.startswith(f"error: {csv_path} has no row at the checkpoint time t0")
        assert files() == before

    def test_final_checkpoint_keeps_zero_mean_exactly(self, tmp_path):
        cfg = small_run_config(tmp_path, t_end=0.02, window=0.02)
        run_single(cfg)
        _, u, _, _ = read_checkpoint(os.path.join(cfg.output_dir, "final.ckpt"))
        assert np.all(u.spec[:, 0, 0] == 0.0)

    def _checkpoint_at(self, tmp_path, t0):
        cfg = small_run_config(tmp_path, dt=0.01, t_end=0.2, window=0.2, subdir="resumed")
        ck = tmp_path / "start.ckpt"
        write_checkpoint(ck, shear_field(cfg.grid), t0, cfg.params)
        return cfg, str(ck)

    def test_restart_off_step_grid_rejected(self, tmp_path):
        cfg, ck = self._checkpoint_at(tmp_path, 0.1049)
        with pytest.raises(ValueError, match=r"t0 = 0\.1049 is not on the step grid of dt = 0\.01"):
            run_single(cfg, restart_path=ck)
        assert not os.path.exists(cfg.output_dir)

    def test_restart_past_t_end_rejected(self, tmp_path):
        cfg, ck = self._checkpoint_at(tmp_path, 0.5)
        with pytest.raises(ValueError, match=r"t0 = 0\.5 .*dt = 0\.01 before t_end = 0\.2"):
            run_single(cfg, restart_path=ck)
        assert not os.path.exists(cfg.output_dir)

    def test_restart_before_t_zero_rejected(self, tmp_path):
        cfg, ck = self._checkpoint_at(tmp_path, -0.03)
        with pytest.raises(ValueError, match=r"t0 = -0\.03 starts no step of the run, at or after t = 0"):
            run_single(cfg, restart_path=ck)
        assert not os.path.exists(cfg.output_dir)

    @pytest.mark.parametrize("other", ["grid", "flow"])
    def test_restart_from_other_grid_or_flow_rejected(self, tmp_path, other):
        cfg, _ = self._checkpoint_at(tmp_path, 0.0)
        grid = GridSpec(dim=2, n=16, box_length=TWO_PI) if other == "grid" else cfg.grid
        params = FlowParams(nu=1.0) if other == "flow" else cfg.params
        ck = tmp_path / "other.ckpt"
        write_checkpoint(ck, shear_field(grid), 0.0, params)
        with pytest.raises(ValueError, match=f"checkpoint {other} .*do(es)? not match"):
            run_single(cfg, restart_path=str(ck))
        assert not os.path.exists(cfg.output_dir)

    def test_one_diagnostics_pass_per_state(self, tmp_path, monkeypatch):
        # one record per state: the initial one and each step's; the midpoint needs none
        calls = []

        def counted(u, op):
            calls.append(u)
            return stats_diagnostics(u, op)

        stats_diagnostics = stats.diagnostics
        monkeypatch.setattr(stats, "diagnostics", counted)
        monkeypatch.setattr(runner, "diagnostics", counted)
        cfg = small_run_config(tmp_path, t_end=0.01, window=0.01)
        run_single(cfg)
        n_steps = 5
        assert len(calls) == n_steps + 1

    @pytest.mark.parametrize("dim", [2, 3])
    def test_unforced_initial_state_has_unit_rms_on_a_coarse_grid(self, tmp_path, dim):
        # n = 8 keeps |m_j| <= 2 of the perturbation's |m_j| <= 4; the kept part is what is scaled
        cfg = small_run_config(tmp_path, dim=dim, n=8, modes=())
        assert parseval_sum(cfg.grid, runner.initial_condition(cfg, None)) == pytest.approx(1.0, rel=1e-12)

    def test_serial_rerun_is_bitwise(self, tmp_path):
        a = small_run_config(tmp_path, t_end=0.05, window=0.05, subdir="a")
        b = dataclasses.replace(a, output_dir=str(tmp_path / "b"))
        run_single(a)
        run_single(b)
        assert (open(os.path.join(a.output_dir, "timeseries.csv")).read()
                == open(os.path.join(b.output_dir, "timeseries.csv")).read())


class TestSweep:
    def test_singleton_sweep_matches_single_run(self, tmp_path):
        base = small_run_config(tmp_path, gamma=0.0, t_end=0.05, window=0.05, subdir="sw")
        out = run_sweep(SweepConfig(base=base, gamma_values=(0.0,)))
        single = run_single(dataclasses.replace(base, output_dir=str(tmp_path / "single")))
        assert out["summaries"]["0.0"]["eps_avg"] == single["eps_avg"]
        assert out["summaries"]["0.0"]["U_T"] == single["U_T"]

    def test_parallel_matches_serial(self, tmp_path):
        base_s = small_run_config(tmp_path, t_end=0.04, window=0.04, subdir="serial")
        base_p = dataclasses.replace(base_s, output_dir=str(tmp_path / "parallel"))
        out_s = run_sweep(SweepConfig(base=base_s, gamma_values=(0.0, 1.0)))
        out_p = run_sweep(SweepConfig(base=base_p, gamma_values=(0.0, 1.0), parallel_workers=2))
        for g in ("0.0", "1.0"):
            assert out_s["summaries"][g]["eps_avg"] == out_p["summaries"][g]["eps_avg"]
        sweep_csv = open(os.path.join(base_s.output_dir, "sweep.csv")).read()
        assert sweep_csv.splitlines()[0] == (
            "gamma,eps_total,eps_nu,eps_gamma,div_norm_avg,U_T,bound,in_window_mi,in_window_md")

    def test_blown_up_gamma_is_recorded_and_the_rest_written(self, tmp_path, monkeypatch, capsys):
        real_run_single = runner.run_single

        def blows_up_at_gamma_one(cfg, restart_path=None):
            if cfg.params.gamma == 1.0:
                raise BlowUpError(0.01)
            return real_run_single(cfg, restart_path)

        monkeypatch.setattr(runner, "run_single", blows_up_at_gamma_one)
        base = small_run_config(tmp_path, t_end=0.02, window=0.02)
        path = tmp_path / "sweep.yaml"
        write_config(path, SweepConfig(base=base, gamma_values=(0.0, 1.0)))
        assert main(["sweep", str(path)]) == 4
        capsys.readouterr()
        out = json.load(open(os.path.join(base.output_dir, "sweep.json")))
        assert out["failures"] == {"1.0": "blow-up at t = 0.01"}
        assert set(out["summaries"]) == {"0.0"}
        rows = open(os.path.join(base.output_dir, "sweep.csv")).read().splitlines()
        assert len(rows) == 2 and rows[1].startswith("0,")


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        grid = GridSpec(dim=2, n=16, box_length=1.0)
        u = random_state_field(grid, seed=0)
        params = FlowParams(nu=0.2, gamma=3.0)
        path = tmp_path / "s.ckpt"
        write_checkpoint(path, u, 1.25, params)
        assert path.stat().st_size == HEADER_BYTES + 2 * 11 * 6 * 16  # the compact payload: c = 5
        grid2, u2, t2, params2 = read_checkpoint(path)
        assert (grid2.dim, grid2.n, grid2.box_length) == (2, 16, 1.0)
        assert t2 == 1.25
        assert params2 == params
        np.testing.assert_array_equal(u2.spec, u.spec)

    def test_version_1_is_refused(self, tmp_path):
        # version 1 held the samples, version 2 the zero-padded half-spectrum; neither is read
        grid = GridSpec(dim=3, n=8, box_length=2.0)
        payloads = {1: bytes(8 * 3 * 8 ** 3),
                    2: extend(grid, random_state_field(grid).spec).astype("<c16").tobytes()}
        for version, payload in payloads.items():
            path = tmp_path / f"v{version}.ckpt"
            path.write_bytes(struct.pack("<4sIIIdddd", b"GDPB", version, 3, 8, 2.0, 0.75, 0.1, 4.0) + payload)
            with pytest.raises(CheckpointError, match=f"^{path}: unsupported format version {version}$"):
                read_checkpoint(path)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        grid = GridSpec(dim=2, n=16, box_length=1.0)
        path = tmp_path / "final.ckpt"
        write_checkpoint(path, zeros(grid), 0.5, FlowParams(nu=1.0))
        before = path.read_bytes()

        class PayloadWriteFails:
            def __init__(self, fh):
                self.fh = fh
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    raise OSError("no space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(checkpoint, "open",
                            lambda *args, **kw: PayloadWriteFails(open(*args, **kw)), raising=False)
        u = random_state_field(grid, seed=2)
        with pytest.raises(OSError, match="no space"):
            write_checkpoint(path, u, 1.0, FlowParams(nu=1.0))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["final.ckpt"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        grid = GridSpec(dim=2, n=16, box_length=1.0)
        u = zeros(grid)
        path = tmp_path / "t.ckpt"
        write_checkpoint(path, u, 0.0, FlowParams(nu=1.0))
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.ckpt"
        write_checkpoint(path, zeros(GridSpec(dim=2, n=16, box_length=1.0)), 0.0, FlowParams(nu=1.0))
        path.write_bytes(path.read_bytes() + bytes(16))
        with pytest.raises(CheckpointError, match=f"^{path}: 16 trailing bytes after the payload$"):
            read_checkpoint(path)

    @pytest.mark.parametrize("header, message", [
        ((7, 16, 1.0, 1.0, 0.0), "dim must be 2 or 3, got 7"),
        ((2, 12, 1.0, 1.0, 0.0), "n must be a power of two >= 4, got 12"),
        ((2, 16, float("nan"), 1.0, 0.0), "box_length must be positive and finite, got nan"),
        ((2, 16, float("inf"), 1.0, 0.0), "box_length must be positive and finite, got inf"),
        ((2, 16, 1.0, 0.0, 0.0), "nu must be positive and finite, got 0.0"),
        ((2, 16, 1.0, float("inf"), 0.0), "nu must be positive and finite, got inf"),
        ((2, 16, 1.0, 1.0, -1.0), "gamma must be nonnegative and finite, got -1.0"),
        ((2, 16, 1.0, 1.0, float("nan")), "gamma must be nonnegative and finite, got nan"),
    ], ids=["dim", "n", "box_length-nan", "box_length-inf", "nu-zero", "nu-inf", "gamma-negative", "gamma-nan"])
    def test_invalid_header_value_names_the_file(self, tmp_path, header, message):
        dim, n, box_length, nu, gamma = header
        path = tmp_path / "bad-header.ckpt"
        payload = bytes(16 * 2 * 11 * 6)  # a dim = 2, n = 16 payload: only the header is wrong
        path.write_bytes(struct.pack("<4sIIIdddd", b"GDPB", 3, dim, n, box_length, 0.0, nu, gamma) + payload)
        with pytest.raises(CheckpointError, match=f"^{path}: invalid header: {message}$"):
            read_checkpoint(path)


class TestCli:
    def test_criterion_subcommand(self, capsys):
        code = main(["criterion", "--U", "1", "--L", "1", "--nu", "0.01",
                     "--kappa", str(math.sqrt(2)), "--gamma", "1", "--h", "0.0625"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["Re"] == pytest.approx(100.0)
        assert report["gamma_lo"] == pytest.approx(1.0 / 12.0)
        assert report["gamma_hi_mesh_independent"] == pytest.approx(50.0)
        assert report["gamma_hi_mesh_dependent"] == pytest.approx(20.158, rel=1e-3)
        assert report["in_window_mesh_independent"] is True

    def test_criterion_missing_arg_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["criterion", "--U", "1"])
        assert exc.value.code == 2

    def test_run_subcommand(self, tmp_path, capsys):
        cfg = small_run_config(tmp_path, t_end=0.02, window=0.02)
        path = tmp_path / "run.yaml"
        write_config(path, cfg)
        assert main(["run", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert "eps_avg" in summary
        assert os.path.exists(os.path.join(cfg.output_dir, "timeseries.csv"))

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("grid: {dim: 2}\n")
        assert main(["run", str(path)]) == 2

    def test_missing_config_file_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 2

    @pytest.mark.parametrize("stepper", [{"dt": 2e-3, "t_end": math.inf}, {"dt": 5e-324, "t_end": 0.1}],
                             ids=["t_end-inf", "dt-denormal"])
    def test_infinite_step_count_is_a_config_error(self, tmp_path, capsys, stepper):
        d = run_config_to_dict(small_run_config(tmp_path))
        d["stepper"] = stepper
        path = tmp_path / "inf.yaml"
        path.write_text(yaml.safe_dump(d))
        assert main(["run", str(path)]) == 2
        assert "config error: stepper: t_end = " in capsys.readouterr().err

    def test_forcing_mode_above_the_dealias_cutoff_is_a_config_error(self, tmp_path, capsys):
        # n = 8 keeps |m_j| <= 2: all of this force's energy would sit on removed modes
        d = run_config_to_dict(small_run_config(tmp_path, n=8))
        d["forcing"] = {"n_low": 3, "modes": [{"m": [0, 3], "amplitude": [[0.5, 0.0], [0.0, 0.0]]}]}
        path = tmp_path / "high.yaml"
        path.write_text(yaml.safe_dump(d))
        with pytest.raises(ConfigError, match=r"forcing: mode \(0, 3\) of forcing\.modes exceeds the 2/3-rule cutoff 2$"):
            load_run_config(path)
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: forcing: mode (0, 3) of forcing.modes")

    def test_invalid_yaml_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("grid: {dim: 2, n: 16\nflow: [\n")
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: config file {path} is not valid YAML")

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_option_is_a_config_error(self, tmp_path, capsys, workers):
        path = tmp_path / "sweep.yaml"
        write_config(path, SweepConfig(base=small_run_config(tmp_path), gamma_values=(0.0,)))
        assert main(["sweep", str(path), "--workers", workers]) == 2
        assert capsys.readouterr().err == f"config error: --workers must be >= 1, got {workers}\n"
        assert not os.path.exists(tmp_path / "out")

    def test_restart_from_other_grid_is_refused_not_a_config_error(self, tmp_path, capsys):
        cfg = small_run_config(tmp_path, dt=0.01, t_end=0.2, window=0.2)
        path = tmp_path / "ok.yaml"
        write_config(path, cfg)
        ck = tmp_path / "other-grid.ckpt"
        other = GridSpec(dim=2, n=16, box_length=TWO_PI)
        write_checkpoint(ck, shear_field(other), 0.0, cfg.params)
        assert main(["run", str(path), "--restart", str(ck)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint grid does not match") and "config error" not in err

    def test_criterion_out_of_range_is_a_config_error(self, capsys):
        assert main(["criterion", "--U", "-1", "--L", "1", "--nu", "0.01", "--kappa", "1.5"]) == 2
        assert "config error: criterion: U must be positive" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_exit_code(self, tmp_path, capsys):
        cfg = small_run_config(
            tmp_path, nu=1e-6, gamma=0.0, dt=1.0, t_end=10.0, window=10.0,
            modes=(((1, 1), (-2.5e7j, 2.5e7j)), ((1, -1), (-2.5e7j, -2.5e7j))),
            subdir="blow")
        path = tmp_path / "blow.yaml"
        write_config(path, cfg)
        assert main(["run", str(path)]) == 3
        assert os.path.exists(os.path.join(cfg.output_dir, "blowup.ckpt"))

    def test_output_dir_option_overrides_config(self, tmp_path, capsys):
        cfg = small_run_config(tmp_path, t_end=0.02, window=0.02)
        path = tmp_path / "run.yaml"
        write_config(path, cfg)
        override = tmp_path / "elsewhere"
        assert main(["run", str(path), "--output-dir", str(override)]) == 0
        capsys.readouterr()
        assert os.path.exists(override / "summary.json")
        assert not os.path.exists(cfg.output_dir)

    def test_mms_subcommand(self, tmp_path, capsys):
        cfg = small_run_config(tmp_path, dt=4e-3, t_end=0.2, window=0.2)
        path = tmp_path / "mms.yaml"
        write_config(path, cfg)
        assert main(["mms", str(path), "--levels", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["levels"]) == 2
        assert report["observed_orders"][0] >= 1.9

    @pytest.mark.parametrize("levels", ["0", "-1"])
    def test_nonpositive_levels_option_is_a_config_error(self, tmp_path, capsys, levels):
        # it used to exit 0 with no level run and no order
        path = tmp_path / "mms.yaml"
        write_config(path, small_run_config(tmp_path, dt=4e-3, t_end=0.2, window=0.2))
        assert main(["mms", str(path), "--levels", levels]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: --levels must be >= 1, got {levels}\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_mms_blow_up_exit_code(self, tmp_path, capsys):
        # the dt = 2 level goes non-finite at t = 12; it used to report an order of -187
        cfg = small_run_config(tmp_path, n=16, nu=1e-6, gamma=0.0, dt=2.0, t_end=40.0, window=40.0)
        path = tmp_path / "mms.yaml"
        write_config(path, cfg)
        assert main(["mms", str(path), "--levels", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "blow-up at t = 12.0 with dt = 2.0" in captured.err

    def test_sweep_subcommand(self, tmp_path, capsys):
        base = small_run_config(tmp_path, t_end=0.02, window=0.02)
        sweep = SweepConfig(base=base, gamma_values=(0.0, 1.0))
        path = tmp_path / "sweep.yaml"
        write_config(path, sweep)
        assert main(["sweep", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["failures"] == {}
        assert set(out["summaries"]) == {"0.0", "1.0"}
