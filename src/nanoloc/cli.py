"""Configuration ingestion, single-run and sweep execution, results output.

Config files are flat JSON objects whose keys mirror the simulation
parameters in snake_case with unit suffixes; unspecified keys take the
shipped defaults.  Sweep specs are JSON objects
``{"parameter": ..., "values": [...], "seeds": [...]}``.  Results are
emitted as CSV (fixed header) or a JSON array, plus a summary table on
standard output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from nanoloc.channel import ChannelParams, load_absorption_table
from nanoloc.energy import HarvesterParams
from nanoloc.ranging import RadioParams
from nanoloc.sim import SimConfig, TrialReport, run_simulation

RESULT_FIELDS = ("parameter_name", "parameter_value", "seed", "mean_error_m",
                 "p90_error_m", "availability", "attempts", "successes")

SWEEPABLE_PARAMETERS = ("frequency_hz", "charge_per_cycle_pc",
                        "update_period_s", "bandwidth_hz", "spacing_m",
                        "sensitivity_dbm")

CONFIG_DEFAULTS: dict[str, Any] = {
    "grid_rows": 25,
    "grid_cols": 25,
    "spacing_m": 0.9e-3,
    "generator_voltage_v": 0.42,
    "max_storage_pj": 800.0,
    "charge_per_cycle_pc": 6.0,
    "cycle_duration_s": 0.02,
    "turn_off_threshold_pj": 10.0,
    "turn_on_threshold_pj": 0.0,
    "initial_energy_pj": None,
    "transmit_power_dbm": -20.0,
    "frequency_hz": 1e12,
    "bandwidth_hz": 1e12,
    "receiver_sensitivity_dbm": -100.0,
    "absorption_table_path": None,
    "energy_rx_pulse_pj": 0.1,
    "energy_tx_pulse_pj": 1.0,
    "packet_bits": 8,
    "update_period_s": 0.1,
    "iterations": 1000,
    "rng_seed": 0,
    "mobility_resample": False,
    "workers": 1,
}

_INT_KEYS = ("grid_rows", "grid_cols", "packet_bits", "iterations",
             "rng_seed", "workers")
_BOOL_KEYS = ("mobility_resample",)
_STRING_KEYS = ("absorption_table_path",)


class ConfigurationError(ValueError):
    """Invalid or unreadable configuration input."""


def _coerce(key: str, value: Any) -> Any:
    if key in _BOOL_KEYS:
        if not isinstance(value, bool):
            raise ConfigurationError(f"config key '{key}' must be a boolean")
        return value
    if key in _STRING_KEYS:
        if value is not None and not isinstance(value, str):
            raise ConfigurationError(f"config key '{key}' must be a string or null")
        return value
    if key == "initial_energy_pj" and value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"config key '{key}' must be a number")
    if key in _INT_KEYS:
        if not math.isfinite(value) or int(value) != value:
            raise ConfigurationError(f"config key '{key}' must be an integer")
        return int(value)
    return float(value)


def config_from_mapping(mapping: Mapping[str, Any],
                        base_dir: Path | None = None) -> SimConfig:
    """Build a SimConfig from a flat key-value mapping.

    Unknown keys are rejected; missing keys take the defaults.  A relative
    absorption table path is resolved against base_dir.
    """
    unknown = sorted(set(mapping) - set(CONFIG_DEFAULTS))
    if unknown:
        raise ConfigurationError(f"unknown config key '{unknown[0]}'")
    values = dict(CONFIG_DEFAULTS)
    for key, raw in mapping.items():
        values[key] = _coerce(key, raw)

    table_path = values.pop("absorption_table_path")
    table_kwargs = {}
    if table_path is not None:
        path = Path(table_path)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        try:
            table_kwargs["absorption_table"] = load_absorption_table(path)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"config key 'absorption_table_path': {exc}") from exc

    try:
        harvester = HarvesterParams(
            generator_voltage_v=values["generator_voltage_v"],
            max_storage_pj=values["max_storage_pj"],
            charge_per_cycle_pc=values["charge_per_cycle_pc"],
            cycle_duration_s=values["cycle_duration_s"],
            turn_off_threshold_pj=values["turn_off_threshold_pj"],
            turn_on_threshold_pj=values["turn_on_threshold_pj"],
        )
        channel = ChannelParams(
            transmit_power_dbm=values["transmit_power_dbm"],
            frequency_hz=values["frequency_hz"],
            bandwidth_hz=values["bandwidth_hz"],
            receiver_sensitivity_dbm=values["receiver_sensitivity_dbm"],
            **table_kwargs,
        )
        radio = RadioParams(
            energy_rx_pulse_pj=values["energy_rx_pulse_pj"],
            energy_tx_pulse_pj=values["energy_tx_pulse_pj"],
            packet_bits=values["packet_bits"],
        )
        return SimConfig(
            harvester=harvester,
            channel=channel,
            radio=radio,
            grid_rows=values["grid_rows"],
            grid_cols=values["grid_cols"],
            spacing_m=values["spacing_m"],
            update_period_s=values["update_period_s"],
            iterations=values["iterations"],
            rng_seed=values["rng_seed"],
            initial_energy_pj=values["initial_energy_pj"],
            mobility_resample=values["mobility_resample"],
            workers=values["workers"],
        )
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc


def load_config(path: str | Path) -> SimConfig:
    """Load a simulation config from a JSON file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from exc
    try:
        data = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: config must be a JSON object")
    return config_from_mapping(data, base_dir=path.parent)


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter, its values, and the seeds to average over."""

    parameter_name: str
    values: tuple[float, ...]
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.parameter_name not in SWEEPABLE_PARAMETERS:
            raise ConfigurationError(
                f"unknown sweep parameter '{self.parameter_name}'; expected "
                f"one of {', '.join(SWEEPABLE_PARAMETERS)}")
        if len(self.values) == 0:
            raise ConfigurationError("sweep values must not be empty")
        if list(self.values) != sorted(self.values):
            raise ConfigurationError("sweep values must be sorted ascending")
        if len(self.seeds) == 0:
            raise ConfigurationError("sweep seeds must not be empty")
        if not all(isinstance(s, int) and s >= 0 for s in self.seeds):
            raise ConfigurationError("sweep seeds must be non-negative integers")


def load_sweep(path: str | Path) -> SweepSpec:
    """Load a sweep spec from a JSON file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read sweep file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: sweep spec must be a JSON object")
    unknown = sorted(set(data) - {"parameter", "values", "seeds"})
    if unknown:
        raise ConfigurationError(f"{path}: unknown sweep key '{unknown[0]}'")
    if "parameter" not in data or "values" not in data:
        raise ConfigurationError(f"{path}: sweep spec needs 'parameter' and 'values'")
    values = data["values"]
    seeds = data.get("seeds", [0])
    if not isinstance(values, list) or not isinstance(seeds, list):
        raise ConfigurationError(f"{path}: 'values' and 'seeds' must be arrays")
    try:
        numeric = tuple(float(v) for v in values)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{path}: sweep values must be numbers") from None
    return SweepSpec(parameter_name=str(data["parameter"]),
                     values=numeric, seeds=tuple(seeds))


def apply_swept_parameter(config: SimConfig, name: str, value: float) -> SimConfig:
    """Clone config with one swept parameter replaced."""
    if name == "frequency_hz":
        return dataclasses.replace(
            config, channel=dataclasses.replace(config.channel, frequency_hz=value))
    if name == "bandwidth_hz":
        return dataclasses.replace(
            config, channel=dataclasses.replace(config.channel, bandwidth_hz=value))
    if name == "sensitivity_dbm":
        return dataclasses.replace(
            config, channel=dataclasses.replace(
                config.channel, receiver_sensitivity_dbm=value))
    if name == "charge_per_cycle_pc":
        return dataclasses.replace(
            config, harvester=dataclasses.replace(
                config.harvester, charge_per_cycle_pc=value))
    if name == "update_period_s":
        return dataclasses.replace(config, update_period_s=value)
    if name == "spacing_m":
        return dataclasses.replace(config, spacing_m=value)
    raise ConfigurationError(f"unknown sweep parameter '{name}'")


@dataclass(frozen=True)
class ResultRow:
    """One (swept value, seed) result."""

    parameter_name: str
    parameter_value: float
    seed: int
    mean_error_m: float
    p90_error_m: float
    availability: float
    attempts: int
    successes: int

    @classmethod
    def from_report(cls, parameter_name: str, parameter_value: float,
                    seed: int, report: TrialReport) -> "ResultRow":
        return cls(
            parameter_name=parameter_name,
            parameter_value=float(parameter_value),
            seed=seed,
            mean_error_m=report.mean_error_m,
            p90_error_m=report.p90_error_m,
            availability=report.availability,
            attempts=report.attempts,
            successes=report.successes,
        )

    def as_dict(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in RESULT_FIELDS}


def sweep_point_seed(master_seed: int | tuple[int, ...], parameter_index: int,
                     seed: int) -> tuple[int, ...]:
    """Derived rng_seed of one sweep point: independent randomness and a
    fresh topology per (value, seed) pair."""
    master = master_seed if isinstance(master_seed, tuple) else (master_seed,)
    return master + (parameter_index, seed)


def run_sweep(config: SimConfig, sweep: SweepSpec) -> list[ResultRow]:
    """Run the simulation at every (value, seed) pair of the sweep.

    Rows come back sorted by (value, seed) regardless of execution order.
    """
    rows = []
    for index, value in enumerate(sweep.values):
        for seed in sweep.seeds:
            point = apply_swept_parameter(config, sweep.parameter_name, value)
            point = dataclasses.replace(
                point, rng_seed=sweep_point_seed(config.rng_seed, index, seed))
            try:
                report = run_simulation(point)
            except Exception as exc:
                raise ConfigurationError(
                    f"sweep point {sweep.parameter_name}={value!r} "
                    f"seed={seed} failed: {exc}") from exc
            rows.append(ResultRow.from_report(
                sweep.parameter_name, value, seed, report))
    rows.sort(key=lambda row: (row.parameter_value, row.seed))
    return rows


def _format_cell(value: Any) -> str:
    # repr keeps the shortest lossless float representation.
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_summary(rows: Sequence[ResultRow]) -> str:
    """Human-readable fixed-width table of the result rows."""
    header = ("parameter", "value", "seed", "mean_err_mm", "p90_err_mm",
              "availability", "successes/attempts")
    body = []
    for row in rows:
        body.append((
            row.parameter_name,
            f"{row.parameter_value:.6g}",
            str(row.seed),
            f"{row.mean_error_m * 1e3:.4f}" if math.isfinite(row.mean_error_m) else "n/a",
            f"{row.p90_error_m * 1e3:.4f}" if math.isfinite(row.p90_error_m) else "n/a",
            f"{row.availability:.4f}" if math.isfinite(row.availability) else "n/a",
            f"{row.successes}/{row.attempts}",
        ))
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def emit_results(rows: Sequence[ResultRow], path: str | Path,
                 fmt: str = "csv") -> None:
    """Write rows to path as CSV or JSON and print a summary table."""
    if len(rows) == 0:
        raise ValueError("no result rows to emit")
    path = Path(path)
    if fmt == "csv":
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(RESULT_FIELDS)
            for row in rows:
                writer.writerow([_format_cell(getattr(row, name))
                                 for name in RESULT_FIELDS])
    elif fmt == "json":
        with path.open("w", encoding="utf-8") as fh:
            json.dump([row.as_dict() for row in rows], fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown output format '{fmt}'")
    print(format_summary(rows))


def parse_result_csv(path: str | Path) -> list[ResultRow]:
    """Read back a results CSV produced by emit_results."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"empty results file {path}")
        if tuple(header) != RESULT_FIELDS:
            raise ValueError(f"unexpected results header: {header!r}")
        rows = []
        for record in reader:
            rows.append(ResultRow(
                parameter_name=record[0],
                parameter_value=float(record[1]),
                seed=int(record[2]),
                mean_error_m=float(record[3]),
                p90_error_m=float(record[4]),
                availability=float(record[5]),
                attempts=int(record[6]),
                successes=int(record[7]),
            ))
    return rows


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nanoloc",
        description="Two-way time-of-flight localization simulator for "
                    "energy-harvesting nanonodes.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a single configuration")
    run_p.add_argument("--config", required=True, help="config JSON path")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config rng_seed")
    run_p.add_argument("--out", default=None, help="results file path")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv")

    sweep_p = sub.add_parser("sweep", help="run a parameter sweep")
    sweep_p.add_argument("--config", required=True, help="config JSON path")
    sweep_p.add_argument("--sweep", required=True, help="sweep spec JSON path")
    sweep_p.add_argument("--seed", type=int, default=None,
                         help="override the config rng_seed (sweep master seed)")
    sweep_p.add_argument("--out", default=None, help="results file path")
    sweep_p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigurationError("--seed must be non-negative")
            config = dataclasses.replace(config, rng_seed=args.seed)
        if args.command == "run":
            report = run_simulation(config)
            seed = config.rng_seed if isinstance(config.rng_seed, int) else 0
            rows = [ResultRow.from_report("none", 0.0, seed, report)]
        else:
            sweep = load_sweep(args.sweep)
            rows = run_sweep(config, sweep)
        if args.out is not None:
            emit_results(rows, args.out, args.format)
        else:
            print(format_summary(rows))
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
