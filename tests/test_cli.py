"""CLI module: config loading, sweeps, emission, exit codes."""

import concurrent.futures
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nanoloc import cli, sim
from nanoloc.cli import (CONFIG_DEFAULTS, RESULT_FIELDS, SWEEPABLE_PARAMETERS,
                         ConfigurationError, ResultRow, SweepSpec,
                         apply_swept_parameter,
                         config_from_mapping, emit_results, format_summary,
                         load_config, load_sweep, main, run_sweep,
                         sweep_point_seed)
from nanoloc.ranging import PACKET_BIT_BUDGET
from nanoloc.sim import SimConfig, run_simulation
from oracles import parse_result_csv


# Every key a config reads as a number (initial_energy_pj defaults to None).
NUMERIC_KEYS = sorted(key for key, value in CONFIG_DEFAULTS.items()
                      if type(value) in (int, float)
                      or key == "initial_energy_pj")
FLOAT_KEYS = sorted(key for key, value in CONFIG_DEFAULTS.items()
                    if type(value) is float or key == "initial_energy_pj")
INT_KEYS = sorted(key for key, value in CONFIG_DEFAULTS.items()
                  if type(value) is int)
# Around zero, and at the int32 and int64 overflow points.
INT_EXTREMES = (-1, 0, 1, 2, 2 ** 31, 2 ** 63)
# The extremes of floating point: near the largest and smallest normal
# magnitudes, the smallest subnormal, and decades between.
EXTREMES = (1e308, -1e308, 1e300, 1e200, 1e100, 1e30, 1e12, 1e-12, 1e-30,
            1e-100, 1e-200, 1e-300, 1e-308, -1e-308, 5e-324)
EXTREME_CASES = ([(key, value) for key in FLOAT_KEYS for value in EXTREMES]
                 + [(key, value) for key in INT_KEYS for value in INT_EXTREMES])


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("", encoding="utf-8")
        config = load_config(path)
        reference = SimConfig()
        assert config == reference
        assert config.update_period_s == 0.1
        assert config.channel.bandwidth_hz == 1e12
        assert config.iterations == 1000

    def test_empty_object_gives_defaults(self, tmp_path):
        path = write_json(tmp_path / "config.json", {})
        assert load_config(path) == SimConfig()

    def test_single_override(self, tmp_path):
        path = write_json(tmp_path / "config.json", {"charge_per_cycle_pc": 10})
        config = load_config(path)
        reference = SimConfig()
        assert config.harvester.charge_per_cycle_pc == 10.0
        assert dataclasses.replace(
            config, harvester=reference.harvester) == reference

    def test_zero_iterations_rejected(self, tmp_path):
        path = write_json(tmp_path / "config.json", {"iterations": 0})
        with pytest.raises(ConfigurationError, match="iterations"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_json(tmp_path / "config.json", {"iteration_count": 5})
        with pytest.raises(ConfigurationError, match="iteration_count"):
            load_config(path)

    def test_bad_value_names_key(self, tmp_path):
        path = write_json(tmp_path / "config.json", {"bandwidth_hz": -1.0})
        with pytest.raises(ConfigurationError, match="bandwidth_hz"):
            load_config(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = write_json(tmp_path / "config.json", {"spacing_m": "0.9mm"})
        with pytest.raises(ConfigurationError, match="spacing_m"):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="JSON"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "absent.json")

    def test_absorption_table_relative_path(self, tmp_path):
        table = tmp_path / "k.csv"
        table.write_text("frequency_hz,k_per_m\n1e12,0.5\n2e12,0.75\n",
                         encoding="utf-8")
        path = write_json(tmp_path / "config.json",
                          {"absorption_table_path": "k.csv"})
        config = load_config(path)
        assert config.channel.absorption_table == ((1e12, 0.5), (2e12, 0.75))

    def test_all_keys_accepted(self, tmp_path):
        # Each default as the file gives it: null where it is None.
        path = write_json(tmp_path / "config.json", CONFIG_DEFAULTS)
        assert load_config(path) == SimConfig()


class TestLoadSweep:
    def test_valid_sweep(self, tmp_path):
        path = write_json(tmp_path / "sweep.json", {
            "parameter": "bandwidth_hz",
            "values": [1e11, 5e11, 1e12],
            "seeds": [0, 1, 2],
        })
        sweep = load_sweep(path)
        assert sweep.parameter_name == "bandwidth_hz"
        assert sweep.values == (1e11, 5e11, 1e12)
        assert sweep.seeds == (0, 1, 2)

    def test_seeds_default(self, tmp_path):
        path = write_json(tmp_path / "sweep.json",
                          {"parameter": "spacing_m", "values": [1e-3]})
        assert load_sweep(path).seeds == (0,)

    def test_unknown_parameter(self, tmp_path):
        path = write_json(tmp_path / "sweep.json",
                          {"parameter": "antenna_gain", "values": [1]})
        with pytest.raises(ConfigurationError, match="antenna_gain"):
            load_sweep(path)

    def test_unsorted_values(self, tmp_path):
        path = write_json(tmp_path / "sweep.json",
                          {"parameter": "bandwidth_hz", "values": [1e12, 1e11]})
        with pytest.raises(ConfigurationError, match="sorted"):
            load_sweep(path)

    def test_empty_file_needs_parameter(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="'parameter'"):
            load_sweep(path)

    def test_empty_values(self, tmp_path):
        path = write_json(tmp_path / "sweep.json",
                          {"parameter": "bandwidth_hz", "values": []})
        with pytest.raises(ConfigurationError, match="empty"):
            load_sweep(path)

    @pytest.mark.parametrize("payload, message", [
        ({"values": [True, "2e12"]}, "values"),
        ({"values": ["2e12"]}, "values"),
        ({"values": [1e11], "seeds": [True]}, "seeds"),
        ({"values": [1e11], "seeds": [0, "1"]}, "seeds"),
        ({"values": [1e11], "seeds": [1.5]}, "seeds"),
        ({"values": [1e11], "seeds": []}, "seeds must not be empty"),
        ({"values": [1e11], "step": 1}, "unknown sweep key 'step'"),
        ({"values": 1e11}, "'values' and 'seeds' must be arrays"),
    ])
    def test_booleans_and_non_numbers_rejected(self, tmp_path, payload,
                                               message):
        path = write_json(tmp_path / "sweep.json",
                          {"parameter": "bandwidth_hz", **payload})
        with pytest.raises(ConfigurationError, match=message):
            load_sweep(path)


class TestApplySweptParameter:
    def test_each_parameter_lands(self):
        config = SimConfig()
        assert apply_swept_parameter(
            config, "frequency_hz", 2e12).channel.frequency_hz == 2e12
        assert apply_swept_parameter(
            config, "bandwidth_hz", 1e11).channel.bandwidth_hz == 1e11
        assert apply_swept_parameter(
            config, "sensitivity_dbm", -90.0).channel.receiver_sensitivity_dbm == -90.0
        assert apply_swept_parameter(
            config, "charge_per_cycle_pc", 2.0).harvester.charge_per_cycle_pc == 2.0
        assert apply_swept_parameter(
            config, "update_period_s", 0.22).update_period_s == 0.22
        assert apply_swept_parameter(
            config, "spacing_m", 3e-3).spacing_m == 3e-3

    def test_unknown_parameter(self):
        with pytest.raises(ConfigurationError, match="antenna_gain"):
            apply_swept_parameter(SimConfig(), "antenna_gain", 1.0)

    @pytest.mark.parametrize("name", SWEEPABLE_PARAMETERS)
    def test_same_config_as_config_key(self, name):
        # A swept value must land where the same config key lands.
        value = {"frequency_hz": 2e12, "charge_per_cycle_pc": 2.0,
                 "update_period_s": 0.22, "bandwidth_hz": 1e11,
                 "spacing_m": 3e-3, "sensitivity_dbm": -90.0}[name]
        key = {"sensitivity_dbm": "receiver_sensitivity_dbm"}.get(name, name)
        swept = apply_swept_parameter(SimConfig(), name, value)
        assert swept == config_from_mapping({key: value})
        assert swept != SimConfig()
        # The default value gives the default config, equal and of equal
        # hash whether or not k(f) was read: the acceptance run cache keys
        # on configs.
        default = apply_swept_parameter(SimConfig(), name,
                                        CONFIG_DEFAULTS[key])
        assert default == SimConfig() and hash(default) == hash(SimConfig())
        assert default.channel.absorption_per_m == 0.0
        assert default == SimConfig() and hash(default) == hash(SimConfig())

    def test_original_config_untouched(self):
        config = SimConfig()
        apply_swept_parameter(config, "bandwidth_hz", 1e11)
        assert config.channel.bandwidth_hz == 1e12


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("sweep_path", sorted(CONFIGS.glob("sweep_*.json")),
                         ids=lambda path: path.name)
def test_shipped_sweep_configs_load(sweep_path):
    # Loading only: every swept value must give a valid config.
    base = load_config(CONFIGS / "default.json")
    sweep = load_sweep(sweep_path)
    for value in sweep.values:
        config = apply_swept_parameter(base, sweep.parameter_name, value)
        assert isinstance(config, SimConfig)


def tiny_config(**overrides):
    base = dict(grid_rows=5, grid_cols=4, iterations=25, rng_seed=2)
    base.update(overrides)
    return SimConfig(**base)


class TestRunSweep:
    def test_rows_ordered_and_complete(self):
        sweep = SweepSpec("bandwidth_hz", (1e11, 1e12), (0, 1))
        rows = run_sweep(tiny_config(), sweep)
        assert [(r.parameter_value, r.seed) for r in rows] == [
            (1e11, 0), (1e11, 1), (1e12, 0), (1e12, 1)]
        assert all(r.parameter_name == "bandwidth_hz" for r in rows)
        assert all(r.attempts == 16 * 25 for r in rows)

    def test_mean_error_decreases_with_bandwidth(self):
        sweep = SweepSpec("bandwidth_hz", (1e11, 1e12), (0, 1, 2))
        rows = run_sweep(tiny_config(), sweep)
        narrow = np.mean([r.mean_error_m for r in rows if r.parameter_value == 1e11])
        wide = np.mean([r.mean_error_m for r in rows if r.parameter_value == 1e12])
        assert narrow > wide

    def test_single_point_equals_direct_run(self):
        config = tiny_config()
        sweep = SweepSpec("update_period_s", (0.1,), (7,))
        row = run_sweep(config, sweep)[0]

        direct = dataclasses.replace(
            apply_swept_parameter(config, "update_period_s", 0.1),
            rng_seed=sweep_point_seed(config.rng_seed, 0, 7))
        report = run_simulation(direct)
        assert row == ResultRow.from_report("update_period_s", 0.1, 7, report)

    def test_independent_randomness_per_point(self):
        sweep = SweepSpec("update_period_s", (0.1, 0.2), (0,))
        rows = run_sweep(tiny_config(), sweep)
        assert rows[0].mean_error_m != rows[1].mean_error_m

    def test_process_pool_rows_equal_serial_rows(self):
        sweep = SweepSpec("bandwidth_hz", (1e11, 1e12), (0, 1))
        serial = run_sweep(tiny_config(workers=1), sweep)
        pooled = run_sweep(tiny_config(workers=2), sweep)
        assert pooled == serial

    @pytest.mark.parametrize("workers, seeds, expected", [
        (10**6, (0, 1, 2), 3),    # clamped to the core count
        (10**6, (0,), 2),         # clamped to the point count
        (2, (0, 1, 2), 2),
        (1, (0, 1, 2), None),     # serial: no pool
    ])
    def test_pool_size_is_bounded(self, monkeypatch, workers, seeds,
                                  expected):
        requested = []

        class RecordingExecutor:
            """Records the requested pool size and runs the tasks in
            this process, so no process is started."""

            def __init__(self, max_workers=None, **kwargs):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingExecutor)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        sweep = SweepSpec("bandwidth_hz", (1e11, 1e12), seeds)
        rows = run_sweep(tiny_config(workers=workers), sweep)
        assert requested == ([] if expected is None else [expected])
        assert rows == run_sweep(tiny_config(), sweep)

    def test_failed_point_is_named(self, monkeypatch):
        def fail(config):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "run_simulation", fail)
        sweep = SweepSpec("spacing_m", (1e-3,), (4,))
        with pytest.raises(ConfigurationError, match=(
                r"sweep point spacing_m=0\.001 seed=4 failed: boom")):
            run_sweep(tiny_config(), sweep)


class TestEmitResults:
    def rows(self):
        config = tiny_config()
        return run_sweep(config, SweepSpec("bandwidth_hz", (1e11, 1e12), (0,)))

    def test_csv_header_and_round_trip(self, tmp_path, capsys):
        rows = self.rows()
        out = tmp_path / "results.csv"
        emit_results(rows, out, "csv")
        text = out.read_text(encoding="utf-8")
        header = text.splitlines()[0]
        assert header == ("parameter_name,parameter_value,seed,mean_error_m,"
                          "p90_error_m,availability,attempts,successes")
        assert len(text.splitlines()) == 1 + len(rows)
        assert parse_result_csv(out) == rows
        assert "bandwidth_hz" in capsys.readouterr().out

    def test_csv_cells(self, tmp_path, capsys):
        # Floats as their repr (shortest lossless form), NaN as "nan".
        row = ResultRow("bandwidth_hz", 0.30000000000000004, 1, math.nan,
                        math.nan, 1 / 3, 3, 1)
        out = tmp_path / "results.csv"
        emit_results([row], out, "csv")
        assert out.read_bytes() == (
            b"parameter_name,parameter_value,seed,mean_error_m,p90_error_m,"
            b"availability,attempts,successes\r\n"
            b"bandwidth_hz,0.30000000000000004,1,nan,nan,"
            b"0.3333333333333333,3,1\r\n")
        capsys.readouterr()

    def test_json_round_trip(self, tmp_path, capsys):
        rows = self.rows()
        out = tmp_path / "results.json"
        emit_results(rows, out, "json")
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert len(payload) == len(rows)
        rebuilt = [ResultRow(**entry) for entry in payload]
        assert rebuilt == rows
        capsys.readouterr()

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], tmp_path / "results.csv", "csv")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results(self.rows(), tmp_path / "results.txt", "yaml")

    def test_unwritable_path(self):
        with pytest.raises(OSError):
            emit_results(self.rows(), "/nonexistent-dir/results.csv", "csv")

    def test_summary_contains_all_rows(self):
        rows = self.rows()
        summary = format_summary(rows)
        assert summary.count("bandwidth_hz") == len(rows)
        assert "availability" in summary


class TestMain:
    def config_path(self, tmp_path, **extra):
        payload = {"grid_rows": 4, "grid_cols": 4, "iterations": 10}
        payload.update(extra)
        return write_json(tmp_path / "config.json", payload)

    def test_run_writes_results(self, tmp_path, capsys):
        config = self.config_path(tmp_path)
        out = tmp_path / "out.csv"
        code = main(["run", "--config", str(config), "--out", str(out)])
        assert code == 0
        rows = parse_result_csv(out)
        assert len(rows) == 1
        assert rows[0].parameter_name == "none"
        assert rows[0].attempts == 12 * 10
        capsys.readouterr()

    def test_run_without_out_prints_summary(self, tmp_path, capsys):
        config = self.config_path(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        assert "mean_err_mm" in capsys.readouterr().out

    def test_seed_override_changes_results(self, tmp_path, capsys):
        config = self.config_path(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        out_c = tmp_path / "c.csv"
        assert main(["run", "--config", str(config), "--seed", "1",
                     "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(config), "--seed", "2",
                     "--out", str(out_b)]) == 0
        assert main(["run", "--config", str(config), "--seed", "1",
                     "--out", str(out_c)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_c.read_bytes()
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_sweep_deterministic_output_bytes(self, tmp_path, capsys):
        config = self.config_path(tmp_path)
        sweep = write_json(tmp_path / "sweep.json", {
            "parameter": "bandwidth_hz",
            "values": [1e11, 1e12],
            "seeds": [0, 1],
        })
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            assert main(["sweep", "--config", str(config), "--sweep", str(sweep),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_json_without_successes_is_standard(self, tmp_path, capsys):
        # No node ever localizes, so both errors are NaN, which standard
        # JSON cannot hold: they are written as null.
        config = self.config_path(tmp_path, grid_rows=3, grid_cols=3,
                                  iterations=2, initial_energy_pj=0)
        out = tmp_path / "out.json"
        assert main(["run", "--config", str(config), "--out", str(out),
                     "--format", "json"]) == 0
        capsys.readouterr()

        def reject(constant):
            raise ValueError(f"not standard JSON: {constant}")

        [row] = json.loads(out.read_text(encoding="utf-8"),
                           parse_constant=reject)
        assert row["successes"] == 0
        assert row["mean_error_m"] is None and row["p90_error_m"] is None

    def test_missing_config_is_an_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err

    def test_bad_sweep_is_an_error(self, tmp_path, capsys):
        config = self.config_path(tmp_path)
        sweep = write_json(tmp_path / "sweep.json",
                           {"parameter": "nope", "values": [1]})
        code = main(["sweep", "--config", str(config), "--sweep", str(sweep)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_boolean_sweep_seed_is_an_error(self, tmp_path, capsys):
        config = self.config_path(tmp_path)
        sweep = write_json(tmp_path / "sweep.json", {
            "parameter": "bandwidth_hz", "values": [1e12], "seeds": [True]})
        code = main(["sweep", "--config", str(config), "--sweep", str(sweep)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")

    def test_negative_seed_rejected(self, tmp_path, capsys):
        config = self.config_path(tmp_path)
        code = main(["run", "--config", str(config), "--seed", "-3"])
        assert code == 1
        capsys.readouterr()

    def test_unreachable_turn_on_is_an_error(self, tmp_path, capsys):
        # Above the 800 pJ storage a node could never turn on.
        config = self.config_path(tmp_path, turn_on_threshold_pj=900)
        code = main(["run", "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ")
        assert "turn_on_threshold_pj" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("extra, table_row, named", [
        # V_g ** 2 under- and overflows.
        ({"generator_voltage_v": 1e-300}, None, "capacitance_f"),
        ({"generator_voltage_v": 1e200}, None, "capacitance_f"),
        # The per-cycle decay rate underflows to 0.
        ({"charge_per_cycle_pc": 1e-320}, None, "cycle_exponent"),
        # A positive decay rate whose curve inverse overflows.
        ({"charge_per_cycle_pc": 1e-304}, None, "cycle_exponent"),
        # An infinite number of harvesting cycles per period.
        ({"cycle_duration_s": 1e-320}, None, "update_period_s"),
        # A packet of all ones costs an infinite energy.
        ({"energy_rx_pulse_pj": 1e308}, None, "energy_rx_pulse_pj"),
        # A packet longer than one draw's bit budget.
        ({"packet_bits": PACKET_BIT_BUDGET + 1}, None, "packet_bits"),
        # A run too long to finish or to hold its per-iteration series.
        ({"iterations": 1e18}, None, "iterations"),
        # More nodes than a run may place.
        ({"grid_rows": 513, "grid_cols": 512}, None, "grid_rows"),
        # The spreading argument 4*pi*f*d/c underflows to 0.
        ({"frequency_hz": 5e-324}, None, "frequency_hz"),
        # Squared distances across the grid overflow.
        ({"spacing_m": 1e154}, None, "spacing_m"),
        ({}, "nan,0.5", "finite"),
        ({}, "inf,1.0", "finite"),
        # A field over the csv module's size limit of 131072 characters.
        ({}, "2e12," + "0" * 131073, "k.csv:3: field larger than"),
        # A blank row is skipped, but counted in the line numbers.
        ({}, "\n2e12,x", "k.csv:4: non-numeric value"),
        ({}, "2e12,0.5,0", "k.csv:3: expected 2 columns, got 3"),
        ({"transmit_power_dbm": math.inf}, None, "transmit_power_dbm"),
        ({"mobility_resample": 1}, None, "'mobility_resample' must be a bool"),
        ({"absorption_table_path": 5}, None,
         "'absorption_table_path' must be a string"),
    ], ids=["voltage_tiny", "voltage_huge", "charge_tiny", "charge_inverse",
            "cycle_tiny", "packet_huge", "packet_long", "iterations_huge",
            "grid_huge", "frequency_tiny", "spacing_huge", "table_nan",
            "table_inf", "table_field_huge", "table_blank_row",
            "table_three_columns", "transmit_inf", "resample_not_bool",
            "table_path_not_string"])
    def test_unusable_value_is_an_error(self, tmp_path, capsys, extra,
                                        table_row, named):
        if table_row is not None:
            (tmp_path / "k.csv").write_text(
                f"frequency_hz,k_per_m\n1e12,0.0\n{table_row}\n",
                encoding="utf-8")
            extra = {"absorption_table_path": "k.csv"}
        code = main(["run", "--config",
                     str(self.config_path(tmp_path, **extra))])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ")
        assert named in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("key, value", EXTREME_CASES)
    def test_extreme_value_runs_or_is_one_error(self, tmp_path, capsys, key,
                                                value):
        # Under error::RuntimeWarning a numpy overflow, underflow to a
        # divisor or invalid value would escape main as a traceback.  run
        # reads workers only for its check, so no value sizes a pool; the
        # grid, attempt and packet bounds reject the large integers before
        # anything is allocated for them.
        config = write_json(tmp_path / "config.json", {
            "grid_rows": 3, "grid_cols": 3, "iterations": 3, key: value})
        code = main(["run", "--config", str(config)])
        captured = capsys.readouterr()
        if code == 0:
            assert captured.err == ""
        else:
            assert code == 1
            assert re.fullmatch(r"error: [^\n]+\n", captured.err)
            assert captured.out == ""

    @pytest.mark.parametrize("key", NUMERIC_KEYS)
    def test_integer_too_large_for_a_float(self, tmp_path, capsys, key):
        # A 401-digit JSON integer.  Only rng_seed takes it, as --seed
        # does; iterations must not start a loop that long.
        config = self.config_path(tmp_path, **{key: 10 ** 400})
        code = main(["run", "--config", str(config)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if key == "rng_seed":
            assert code == 0
            assert captured.err == ""
        else:
            assert code == 1
            assert captured.err.startswith(f"error: config key '{key}' ")
            assert captured.out == ""

    def test_sweep_value_too_large_for_a_float(self, tmp_path, capsys):
        sweep = write_json(tmp_path / "sweep.json", {
            "parameter": "spacing_m", "values": [10 ** 400]})
        code = main(["sweep", "--config", str(self.config_path(tmp_path)),
                     "--sweep", str(sweep)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: {sweep}: sweep value ")
        assert captured.out == ""

    @pytest.mark.parametrize("kind, text, message", [
        ("config", "[" * 200_000 + "]" * 200_000, "invalid JSON: "),
        ("sweep", "[" * 200_000 + "]" * 200_000, "invalid JSON: "),
        # Valid JSON that is not an object.
        ("config", "[]", "config must be a JSON object"),
        ("sweep", "[1e12]", "sweep must be a JSON object"),
    ], ids=["config", "sweep", "config_array", "sweep_array"])
    def test_deeply_nested_json_is_an_error(self, tmp_path, capsys, kind,
                                            text, message):
        deep = tmp_path / "deep.json"
        deep.write_text(text, encoding="utf-8")
        files = {"config": self.config_path(tmp_path),
                 "sweep": write_json(tmp_path / "sweep.json", {
                     "parameter": "bandwidth_hz", "values": [1e12]})}
        files[kind] = deep
        code = main(["sweep", "--config", str(files["config"]),
                     "--sweep", str(files["sweep"])])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: {deep}: {message}")
        assert captured.out == ""

    @pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_integer_is_an_error(self, tmp_path, capsys, text):
        config = tmp_path / "config.json"
        config.write_text('{"iterations": %s}' % text, encoding="utf-8")
        code = main(["run", "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: config key 'iterations'")

    @pytest.mark.parametrize("bandwidth_hz", [1e-300, 1e-140])
    def test_non_finite_errors_are_an_error(self, tmp_path, capsys,
                                            bandwidth_hz):
        # c/B range noise this large overflows the squared ranges; the
        # run must fail instead of reporting n/a errors as successes.
        config = write_json(tmp_path / "config.json", {
            "grid_rows": 3, "grid_cols": 3, "iterations": 1,
            "bandwidth_hz": bandwidth_hz})
        with np.errstate(all="ignore"):
            code = main(["run", "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: non-finite localization error")
        assert captured.out == ""

    def test_non_finite_error_stops_at_first_chunk(self, tmp_path, capsys,
                                                   monkeypatch):
        # The 32 nodes fill the first trilateration chunk of 8192 rows at
        # period 256, before they drain near period 386; the run must fail
        # there instead of simulating all 1000 periods.
        calls = []
        run_iteration = sim.run_iteration

        def counting(*args):
            calls.append(None)
            return run_iteration(*args)

        monkeypatch.setattr(sim, "run_iteration", counting)
        config = write_json(tmp_path / "config.json", {
            "grid_rows": 6, "grid_cols": 6, "iterations": 1000,
            "bandwidth_hz": 1e-300})
        with np.errstate(all="ignore"):
            code = main(["run", "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: non-finite localization error")
        assert captured.out == ""
        assert 0 < len(calls) < 1000

    def test_out_of_memory_is_an_error(self, tmp_path, capsys, monkeypatch):
        # An oversized grid makes numpy raise MemoryError; raise it directly
        # so the test allocates nothing.
        def run_simulation(config):
            raise MemoryError("Unable to allocate 224. GiB")

        monkeypatch.setattr(cli, "run_simulation", run_simulation)
        code = main(["run", "--config", str(self.config_path(tmp_path))])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")


class TestModuleEntryPoint:
    def test_no_runpy_warning(self):
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "nanoloc.cli", "--help"],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0
        assert done.stderr == ""


class TestConfigMapping:
    def test_mapping_does_not_require_file(self):
        config = config_from_mapping({"workers": 2, "rng_seed": 5})
        assert config.workers == 2
        assert config.rng_seed == 5

    def test_float_for_int_key_rejected(self):
        with pytest.raises(ConfigurationError, match="grid_rows"):
            config_from_mapping({"grid_rows": 12.5})

    def test_infinite_int_key_rejected(self):
        with pytest.raises(ConfigurationError, match="iterations"):
            config_from_mapping({"iterations": math.inf})

    def test_bool_for_number_rejected(self):
        with pytest.raises(ConfigurationError, match="spacing_m"):
            config_from_mapping({"spacing_m": True})

    def test_config_keys_constant(self):
        assert sorted(CONFIG_DEFAULTS) == sorted((
            "grid_rows", "grid_cols", "spacing_m", "generator_voltage_v",
            "max_storage_pj", "charge_per_cycle_pc", "cycle_duration_s",
            "turn_off_threshold_pj", "turn_on_threshold_pj",
            "initial_energy_pj", "transmit_power_dbm", "frequency_hz",
            "bandwidth_hz", "receiver_sensitivity_dbm",
            "absorption_table_path", "energy_rx_pulse_pj",
            "energy_tx_pulse_pj", "packet_bits", "update_period_s",
            "iterations", "rng_seed", "mobility_resample", "workers"))

    def test_readme_table_matches_defaults(self):
        # Every row of the README config table gives a key (or a pair of
        # keys) and its default, which must be the one SimConfig() gives.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        table = readme.split("| key | default | meaning |", 1)[1]
        documented = {}
        for line in table.splitlines()[2:]:
            if not line.startswith("| `"):
                break
            keys, defaults = (cell.strip() for cell in line.split("|")[1:3])
            for key, value in zip(keys.split(", "), defaults.split(", ")):
                documented[key.strip("`")] = json.loads(value)
        assert sorted(documented) == sorted(CONFIG_DEFAULTS)
        for key, value in documented.items():
            assert value == CONFIG_DEFAULTS[key], key

    def test_result_fields_constant(self):
        assert RESULT_FIELDS == ("parameter_name", "parameter_value", "seed",
                                 "mean_error_m", "p90_error_m", "availability",
                                 "attempts", "successes")
