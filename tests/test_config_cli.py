import dataclasses
import json
import math
import os
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
    save_run_config,
    save_sweep_config,
)
from graddivbox.forcing import ForcingSpec
from graddivbox.grid import Field, GridSpec
from graddivbox import checkpoint, runner, stats
from graddivbox.runner import run_single, run_sweep
from graddivbox.solver import BlowUpError, FlowParams, StepperConfig

from conftest import TWO_PI, random_state_field, shear_field


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
        save_run_config(cfg, path)
        assert load_run_config(path) == cfg

    def test_sweep_config_round_trips(self, tmp_path):
        sweep = SweepConfig(base=small_run_config(tmp_path),
                            gamma_values=(0.0, 0.5, 2.0), parallel_workers=2)
        path = tmp_path / "sweep.yaml"
        save_sweep_config(sweep, path)
        assert load_sweep_config(path) == sweep

    def test_missing_key_names_offender(self, tmp_path):
        path = tmp_path / "bad.yaml"
        with open(path, "w") as fh:
            yaml.safe_dump({"grid": {"dim": 2, "n": 32}}, fh)
        with pytest.raises(ConfigError, match="grid.box_length"):
            load_run_config(path)

    def test_invalid_grid_reported(self, tmp_path):
        cfg = small_run_config(tmp_path)
        save_run_config(cfg, tmp_path / "g.yaml")
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

    def test_unknown_mode_key_names_offender(self, tmp_path):
        d = run_config_to_dict(small_run_config(tmp_path))
        d["forcing"]["modes"][1]["phase"] = 0.5
        path = tmp_path / "mode.yaml"
        path.write_text(yaml.safe_dump(d))
        with pytest.raises(ConfigError, match=r"forcing\.modes\[1\]\.phase"):
            load_run_config(path)

    def test_sweep_section_allowed_in_run_config(self, tmp_path):
        sweep = SweepConfig(base=small_run_config(tmp_path), gamma_values=(0.0, 1.0))
        path = tmp_path / "sweep.yaml"
        save_sweep_config(sweep, path)
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

        def counted(u, params):
            calls.append(u)
            return stats_diagnostics(u, params)

        stats_diagnostics = stats.diagnostics
        monkeypatch.setattr(stats, "diagnostics", counted)
        monkeypatch.setattr(runner, "diagnostics", counted)
        cfg = small_run_config(tmp_path, t_end=0.01, window=0.01)
        run_single(cfg)
        n_steps = 5
        assert len(calls) == n_steps + 1

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
        save_sweep_config(SweepConfig(base=base, gamma_values=(0.0, 1.0)), path)
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
        u = Field.from_physical(grid, np.random.default_rng(0).standard_normal((2, 16, 16)))
        params = FlowParams(nu=0.2, gamma=3.0)
        path = tmp_path / "s.ckpt"
        write_checkpoint(path, u, 1.25, params)
        grid2, u2, t2, params2 = read_checkpoint(path)
        assert (grid2.dim, grid2.n, grid2.box_length) == (2, 16, 1.0)
        assert t2 == 1.25
        assert params2 == params
        np.testing.assert_array_equal(u2.spec, u.spec)

    def test_version_1_physical_payload_still_loads(self, tmp_path):
        grid = GridSpec(dim=3, n=8, box_length=2.0)
        phys = np.random.default_rng(1).standard_normal((3,) + grid.shape)
        header = struct.pack("<4sIIIdddd", b"GDPB", 1, 3, 8, 2.0, 0.75, 0.1, 4.0)
        path = tmp_path / "v1.ckpt"
        path.write_bytes(header + phys.astype("<f8").tobytes())
        grid2, u, t, params = read_checkpoint(path)
        assert grid2 == grid
        assert (t, params) == (0.75, FlowParams(nu=0.1, gamma=4.0))
        np.testing.assert_array_equal(u.spec, np.fft.rfftn(phys, axes=(1, 2, 3), norm="forward"))

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        grid = GridSpec(dim=2, n=16, box_length=1.0)
        path = tmp_path / "final.ckpt"
        write_checkpoint(path, Field.zeros(grid), 0.5, FlowParams(nu=1.0))
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
        u = Field.zeros(grid)
        path = tmp_path / "t.ckpt"
        write_checkpoint(path, u, 0.0, FlowParams(nu=1.0))
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
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
        save_run_config(cfg, path)
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

    def test_restart_from_other_grid_is_refused_not_a_config_error(self, tmp_path, capsys):
        cfg = small_run_config(tmp_path, dt=0.01, t_end=0.2, window=0.2)
        path = tmp_path / "ok.yaml"
        save_run_config(cfg, path)
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
        save_run_config(cfg, path)
        assert main(["run", str(path)]) == 3
        assert os.path.exists(os.path.join(cfg.output_dir, "blowup.ckpt"))

    def test_output_dir_option_overrides_config(self, tmp_path, capsys):
        cfg = small_run_config(tmp_path, t_end=0.02, window=0.02)
        path = tmp_path / "run.yaml"
        save_run_config(cfg, path)
        override = tmp_path / "elsewhere"
        assert main(["run", str(path), "--output-dir", str(override)]) == 0
        capsys.readouterr()
        assert os.path.exists(override / "summary.json")
        assert not os.path.exists(cfg.output_dir)

    def test_mms_subcommand(self, tmp_path, capsys):
        cfg = small_run_config(tmp_path, dt=4e-3, t_end=0.2, window=0.2)
        path = tmp_path / "mms.yaml"
        save_run_config(cfg, path)
        assert main(["mms", str(path), "--levels", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["levels"]) == 2
        assert report["observed_orders"][0] >= 1.9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_mms_blow_up_exit_code(self, tmp_path, capsys):
        # the dt = 2 level goes non-finite at t = 12; it used to report an order of -187
        cfg = small_run_config(tmp_path, n=16, nu=1e-6, gamma=0.0, dt=2.0, t_end=40.0, window=40.0)
        path = tmp_path / "mms.yaml"
        save_run_config(cfg, path)
        assert main(["mms", str(path), "--levels", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "blow-up at t = 12.0 with dt = 2.0" in captured.err

    def test_sweep_subcommand(self, tmp_path, capsys):
        base = small_run_config(tmp_path, t_end=0.02, window=0.02)
        sweep = SweepConfig(base=base, gamma_values=(0.0, 1.0))
        path = tmp_path / "sweep.yaml"
        save_sweep_config(sweep, path)
        assert main(["sweep", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["failures"] == {}
        assert set(out["summaries"]) == {"0.0", "1.0"}
