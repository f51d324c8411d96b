"""Configuration ingestion, single-run and sweep execution, results output.

Config files are flat JSON objects whose keys mirror the simulation
parameters in snake_case with unit suffixes; an unspecified key takes its
parameter type's field default, as in SimConfig().  Sweep specs are JSON
objects ``{"parameter": ..., "values": [...], "seeds": [...]}``.  Results
are emitted as CSV (fixed header) or a JSON array, plus a summary table on
standard output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from nanoloc.channel import load_absorption_table
from nanoloc.sim import SimConfig, TrialReport, run_simulation

SWEEPABLE_PARAMETERS = ("frequency_hz", "charge_per_cycle_pc",
                        "update_period_s", "bandwidth_hz", "spacing_m",
                        "sensitivity_dbm")
# A sweep parameter whose config key has another name.
_SWEEP_ALIASES = {"sensitivity_dbm": "receiver_sensitivity_dbm"}

_DEFAULT_CONFIG = SimConfig()
# Field name -> the nested parameter object of SimConfig that holds it.
# Each is a flat config key, except the channel's absorption table, which
# a config gives as a path (absorption_table_path).
_SECTION_OF: dict[str, str] = {
    g.name: f.name for f in dataclasses.fields(SimConfig)
    if dataclasses.is_dataclass(getattr(_DEFAULT_CONFIG, f.name))
    for g in dataclasses.fields(getattr(_DEFAULT_CONFIG, f.name))
}
CONFIG_DEFAULTS: dict[str, Any] = {
    **{key: getattr(getattr(_DEFAULT_CONFIG, section), key)
       for key, section in _SECTION_OF.items() if key != "absorption_table"},
    "absorption_table_path": None,
    **{f.name: getattr(_DEFAULT_CONFIG, f.name)
       for f in dataclasses.fields(SimConfig)
       if f.name not in _SECTION_OF.values()},
}

# A key's value type is its default's type; None defaults are handled apart.
_INT_KEYS = tuple(k for k, v in CONFIG_DEFAULTS.items() if type(v) is int)
_BOOL_KEYS = tuple(k for k, v in CONFIG_DEFAULTS.items() if type(v) is bool)
_STRING_KEYS = ("absorption_table_path",)


class ConfigurationError(ValueError):
    """Invalid or unreadable configuration input."""


def _is_number(value: Any) -> bool:
    """A JSON number: int or float, but not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
    if not _is_number(value):
        raise ConfigurationError(f"config key '{key}' must be a number")
    if key in _INT_KEYS:
        if not math.isfinite(value) or int(value) != value:
            raise ConfigurationError(f"config key '{key}' must be an integer")
        return int(value)
    return float(value)


def _replace(config: SimConfig, values: Mapping[str, Any]) -> SimConfig:
    """Clone config with each field of values replaced in the nested
    parameter object that holds it, or in config itself."""
    sections: dict[str | None, dict[str, Any]] = {}
    for key, value in values.items():
        sections.setdefault(_SECTION_OF.get(key), {})[key] = value
    top = sections.pop(None, {})
    return dataclasses.replace(config, **top, **{
        section: dataclasses.replace(getattr(config, section), **fields)
        for section, fields in sections.items()})


def config_from_mapping(mapping: Mapping[str, Any],
                        base_dir: Path | None = None) -> SimConfig:
    """Build a SimConfig from a flat key-value mapping.

    Unknown keys are rejected; missing keys take the defaults of
    SimConfig().  A relative absorption table path is resolved against
    base_dir.
    """
    unknown = sorted(set(mapping) - set(CONFIG_DEFAULTS))
    if unknown:
        raise ConfigurationError(f"unknown config key '{unknown[0]}'")
    values = {key: _coerce(key, raw) for key, raw in mapping.items()}

    table_path = values.pop("absorption_table_path", None)
    if table_path is not None:
        path = Path(table_path)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        try:
            values["absorption_table"] = load_absorption_table(path)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"config key 'absorption_table_path': {exc}") from exc

    try:
        return _replace(_DEFAULT_CONFIG, values)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc


def _read_object(path: Path, what: str) -> dict[str, Any]:
    """The JSON object held by a config or sweep file; an empty file
    holds {}."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what} file: {exc}") from exc
    try:
        data = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: {what} must be a JSON object")
    return data


def load_config(path: str | Path) -> SimConfig:
    """Load a simulation config from a JSON file."""
    path = Path(path)
    return config_from_mapping(_read_object(path, "config"),
                               base_dir=path.parent)


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
        if not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0
                   for s in self.seeds):
            raise ConfigurationError("sweep seeds must be non-negative integers")


def load_sweep(path: str | Path) -> SweepSpec:
    """Load a sweep spec from a JSON file."""
    path = Path(path)
    data = _read_object(path, "sweep")
    unknown = sorted(set(data) - {"parameter", "values", "seeds"})
    if unknown:
        raise ConfigurationError(f"{path}: unknown sweep key '{unknown[0]}'")
    if "parameter" not in data or "values" not in data:
        raise ConfigurationError(f"{path}: sweep spec needs 'parameter' and 'values'")
    values = data["values"]
    seeds = data.get("seeds", [0])
    if not isinstance(values, list) or not isinstance(seeds, list):
        raise ConfigurationError(f"{path}: 'values' and 'seeds' must be arrays")
    if not all(_is_number(v) for v in values):
        raise ConfigurationError(f"{path}: sweep values must be numbers")
    return SweepSpec(parameter_name=str(data["parameter"]),
                     values=tuple(float(v) for v in values),
                     seeds=tuple(seeds))


def apply_swept_parameter(config: SimConfig, name: str, value: float) -> SimConfig:
    """Clone config with one swept parameter replaced."""
    if name not in SWEEPABLE_PARAMETERS:
        raise ConfigurationError(f"unknown sweep parameter '{name}'")
    return _replace(config, {_SWEEP_ALIASES.get(name, name): value})


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


RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(ResultRow))


def sweep_point_seed(master_seed: int | tuple[int, ...], parameter_index: int,
                     seed: int) -> tuple[int, ...]:
    """Derived rng_seed of one sweep point: independent randomness and a
    fresh topology per (value, seed) pair."""
    master = master_seed if isinstance(master_seed, tuple) else (master_seed,)
    return master + (parameter_index, seed)


def _run_point(config: SimConfig, name: str, value: float,
               seed: int) -> ResultRow:
    """Run one prepared sweep point; module level, so a worker process
    can run it under any start method."""
    try:
        report = run_simulation(config)
    except Exception as exc:
        raise ConfigurationError(
            f"sweep point {name}={value!r} seed={seed} failed: {exc}") from exc
    return ResultRow.from_report(name, value, seed, report)


def run_sweep(config: SimConfig, sweep: SweepSpec) -> list[ResultRow]:
    """Run the simulation at every (value, seed) pair of the sweep.

    Points run in a pool of min(workers, points, cores) processes, or in
    this process when that is 1.  Every point derives its own seed, so the
    rows do not depend on the pool size; they come back sorted by
    (value, seed).
    """
    tasks = []
    for index, value in enumerate(sweep.values):
        for seed in sweep.seeds:
            point = apply_swept_parameter(config, sweep.parameter_name, value)
            point = dataclasses.replace(
                point, rng_seed=sweep_point_seed(config.rng_seed, index, seed))
            tasks.append((point, sweep.parameter_name, value, seed))

    size = min(config.workers, len(tasks), os.cpu_count() or 1)
    if size == 1:
        rows = [_run_point(*task) for task in tasks]
    else:
        # Imported here: the pool modules would add to every start-up.
        # Spawned, not forked: a fork copies the parent's BLAS threads'
        # locks in whatever state they are in.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
                max_workers=size,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            rows = list(pool.map(_run_point, *zip(*tasks)))
    rows.sort(key=lambda row: (row.parameter_value, row.seed))
    return rows


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
            # csv writes a float as its repr, the shortest lossless form.
            writer = csv.writer(fh)
            writer.writerow(RESULT_FIELDS)
            writer.writerows(dataclasses.astuple(row) for row in rows)
    elif fmt == "json":
        with path.open("w", encoding="utf-8") as fh:
            json.dump([dataclasses.asdict(row) for row in rows], fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown output format '{fmt}'")
    print(format_summary(rows))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nanoloc",
        description="Two-way time-of-flight localization simulator for "
                    "energy-harvesting nanonodes.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="config JSON path")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config rng_seed (a sweep's "
                             "master seed)")
    common.add_argument("--out", default=None, help="results file path")
    common.add_argument("--format", choices=("csv", "json"), default="csv")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[common], help="run a single configuration")
    sweep_p = sub.add_parser("sweep", parents=[common],
                             help="run a parameter sweep")
    sweep_p.add_argument("--sweep", required=True, help="sweep spec JSON path")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = dataclasses.replace(config, rng_seed=args.seed)
        if args.command == "run":
            report = run_simulation(config)
            rows = [ResultRow.from_report("none", 0.0, config.rng_seed,
                                          report)]
        else:
            sweep = load_sweep(args.sweep)
            rows = run_sweep(config, sweep)
        if args.out is not None:
            emit_results(rows, args.out, args.format)
        else:
            print(format_summary(rows))
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
