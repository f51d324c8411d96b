"""Scalar references that the tests check the engine's kernels against.

EnergyState, harvest, consume and can_afford are the one-node form of the
energy rules: can_afford then consume is the reference for
energy.spend_batch, harvest a one-node energy.harvest_batch.
parse_result_csv reads back a results CSV written by cli.emit_results.
None of them is used by the simulator itself.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nanoloc.cli import RESULT_FIELDS, ResultRow
from nanoloc.energy import HarvesterParams, harvest_batch


@dataclass(frozen=True)
class EnergyState:
    """Stored energy plus the operational (hysteresis) flag.

    A small value type: all operations return new instances.
    """

    energy_pj: float
    operational: bool


def harvest(state: EnergyState, elapsed_s: float,
            params: HarvesterParams) -> EnergyState:
    """Advance the charging curve by the whole cycles within elapsed_s.

    Fractional cycle remainders are discarded.  Harvesting applies whether
    or not the node is operational; the flag turns back on once the energy
    reaches the effective turn-on threshold.  Zero whole cycles leave the
    state unchanged.  A one-node harvest_batch.
    """
    energy = np.array([state.energy_pj], dtype=np.float64)
    operational = np.array([state.operational], dtype=bool)
    harvest_batch(energy, operational, elapsed_s, params)
    return EnergyState(float(energy[0]), bool(operational[0]))


def consume(state: EnergyState, amount_pj: float,
            params: HarvesterParams) -> EnergyState:
    """Debit amount_pj, clamping at zero.

    Falling below the turn-off threshold trips the operational flag.
    Feasibility is the caller's job (can_afford); consume itself is total.
    """
    if amount_pj < 0:
        raise ValueError("amount_pj must be >= 0")
    energy = max(0.0, state.energy_pj - amount_pj)
    operational = state.operational and energy >= params.turn_off_threshold_pj
    return EnergyState(energy, operational)


def can_afford(state: EnergyState, amount_pj: float) -> bool:
    """True when the node is operational and holds at least amount_pj.

    No safety margin is applied: drawing the full stored energy is allowed
    and the turn-off threshold check happens after consumption.
    """
    if amount_pj < 0:
        raise ValueError("amount_pj must be >= 0")
    return state.operational and state.energy_pj >= amount_pj


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
