"""THz link budget: received power from spreading and absorption losses.

Received power in dBm over a line-of-sight distance d at frequency f:

    P_rx = P_tx - k(f) * d * 10*log10(e) - 20*log10(4 * pi * f * d / c)

where k(f) is the molecular absorption coefficient of the medium in 1/m,
interpolated from a frequency table.  A signal is received when P_rx is
at or above the receiver sensitivity.  The shipped default is a lossless
medium (k = 0 at all frequencies).

Also provides the raw ranging resolution c / B of a link of bandwidth B,
which doubles as the standard deviation of time-of-flight distance noise.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT_M_S = 2.99792458e8

# Converts an absorption exponent k*d (nepers) to decibels.
DB_PER_NEPER = 10.0 * math.log10(math.e)

#: (frequency_hz, k_per_m) pairs, strictly increasing in frequency.
AbsorptionTable = tuple[tuple[float, float], ...]


def _validate_table(table: AbsorptionTable) -> None:
    if len(table) == 0:
        raise ValueError("absorption table must not be empty")
    freqs = [f for f, _ in table]
    if not all(math.isfinite(f) for f in freqs):
        raise ValueError("absorption table frequencies must be finite")
    if any(f2 <= f1 for f1, f2 in zip(freqs, freqs[1:])):
        raise ValueError("absorption table frequencies must be strictly increasing")
    if any(k < 0 or not math.isfinite(k) for _, k in table):
        raise ValueError("absorption coefficients must be finite and >= 0")


@dataclass(frozen=True)
class ChannelParams:
    """Link-budget parameters shared by both directions of an exchange."""

    transmit_power_dbm: float = -20.0
    frequency_hz: float = 1e12
    bandwidth_hz: float = 1e12
    receiver_sensitivity_dbm: float = -100.0
    absorption_table: AbsorptionTable = ((1e12, 0.0),)    # lossless

    def __post_init__(self) -> None:
        if not (math.isfinite(self.frequency_hz) and self.frequency_hz > 0):
            raise ValueError("frequency_hz must be strictly positive")
        if not (math.isfinite(self.bandwidth_hz) and self.bandwidth_hz > 0):
            raise ValueError("bandwidth_hz must be strictly positive")
        if not math.isfinite(self.receiver_sensitivity_dbm):
            raise ValueError("receiver_sensitivity_dbm must be finite")
        if not math.isfinite(self.transmit_power_dbm):
            raise ValueError("transmit_power_dbm must be finite")
        object.__setattr__(self, "absorption_table",
                           tuple((float(f), float(k))
                                 for f, k in self.absorption_table))
        _validate_table(self.absorption_table)

    @cached_property
    def absorption_per_m(self) -> float:
        """k(f) at this channel's frequency, in 1/m; computed once.

        Piecewise-linear in frequency over the table, clamped to the
        nearest endpoint outside its range; a single-entry table acts as
        a constant.
        """
        freqs = [f for f, _ in self.absorption_table]
        ks = [k for _, k in self.absorption_table]
        return float(np.interp(self.frequency_hz, freqs, ks))


@dataclass(frozen=True)
class LinkBudgetResult:
    """Loss decomposition of one link direction at each distance; every
    field has the shape of the distances given."""

    received_power_dbm: np.ndarray
    spreading_loss_db: np.ndarray
    absorption_loss_db: np.ndarray
    received: np.ndarray


def received_power(params: ChannelParams,
                   distance_m: float | np.ndarray) -> LinkBudgetResult:
    """Link budget for one direction over one distance or an array of them.

    Reception is inclusive at the boundary: a signal exactly at the
    sensitivity counts as received.
    """
    d = np.asarray(distance_m, dtype=np.float64)
    if not np.all(d > 0):
        raise ValueError("distances must be strictly positive")
    spreading_db = 20.0 * np.log10(
        4.0 * math.pi * params.frequency_hz * d / SPEED_OF_LIGHT_M_S)
    absorption_db = params.absorption_per_m * d * DB_PER_NEPER
    rx_dbm = params.transmit_power_dbm - spreading_db - absorption_db
    return LinkBudgetResult(
        received_power_dbm=rx_dbm,
        spreading_loss_db=spreading_db,
        absorption_loss_db=absorption_db,
        received=rx_dbm >= params.receiver_sensitivity_dbm,
    )


def raw_resolution(bandwidth_hz: float) -> float:
    """Distance quantum c / B of a link sampled at bandwidth B, in meters."""
    if not bandwidth_hz > 0:
        raise ValueError("bandwidth_hz must be strictly positive")
    return SPEED_OF_LIGHT_M_S / bandwidth_hz


def load_absorption_table(path: str | Path) -> AbsorptionTable:
    """Read an absorption table CSV with header ``frequency_hz,k_per_m``.

    UTF-8, '.' decimal separator, one (frequency, coefficient) pair per
    row, frequencies strictly increasing.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            records = list(reader)
        except csv.Error as exc:        # e.g. a field over csv's size limit
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if not records:
        raise ValueError(f"{path}: absorption table is empty")
    header = records[0]
    if [col.strip() for col in header] != ["frequency_hz", "k_per_m"]:
        raise ValueError(
            f"{path}: expected header 'frequency_hz,k_per_m', got {header!r}")
    rows: list[tuple[float, float]] = []
    for lineno, row in enumerate(records[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ValueError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
        try:
            rows.append((float(row[0]), float(row[1])))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric value {row!r}") from None
    table = tuple(rows)
    try:
        _validate_table(table)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return table
