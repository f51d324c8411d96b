"""Battery-less harvest/consume lifecycle of a nanonode.

A node stores energy in a capacitor charged by a piezoelectric harvester.
Each compress-and-release cycle delivers a fixed charge toward the
generator voltage, so the stored energy after ``n`` whole cycles from
empty follows an exponential saturation curve

    E(n) = E_max * (1 - exp(-dQ * n / (V_g * C_cap)))^2

with ``C_cap = 2 * E_max / V_g^2``.  The curve is invertible, which lets
harvesting resume from an arbitrary energy level after consumption by
mapping the current energy back to its cycle position.

A node turns off when its energy falls below the turn-off threshold and
turns back on once it has recharged past the turn-on threshold
(hysteresis).  Energy bookkeeping is in picojoules; times in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerates a 1-ulp division error when converting elapsed time to cycles
# (e.g. 0.3 / 0.1 == 2.999...96 must still count as 3 whole cycles).
_CYCLE_COUNT_EPS = 1e-9

# Relative slack for snapping a cycle position to a whole cycle.  Float
# roundoff in the closed-form inverse reaches ~1e-6 cycles near n = 1e4; the
# snap maps a node on the harvest lattice, energy_at_cycle(k), back to k, so
# harvesting resumes from its own cycle instead of from k + 1.
_INDEX_SNAP_REL = 1e-9


@dataclass(frozen=True)
class HarvesterParams:
    """Harvester and storage parameters of one nanonode.

    The defaults describe air-vibration harvesting.  turn_on_threshold_pj
    below turn_off_threshold_pj collapses the hysteresis to a single
    operational floor at the turn-off value (see effective_turn_on_pj).
    """

    generator_voltage_v: float = 0.42
    max_storage_pj: float = 800.0
    charge_per_cycle_pc: float = 6.0
    cycle_duration_s: float = 0.02
    turn_off_threshold_pj: float = 10.0
    turn_on_threshold_pj: float = 0.0

    def __post_init__(self) -> None:
        for name in ("generator_voltage_v", "max_storage_pj",
                     "charge_per_cycle_pc", "cycle_duration_s",
                     "turn_off_threshold_pj"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be strictly positive")
        # The charging curve never exceeds max_storage_pj: a higher turn-on
        # level would keep a node off for good.
        if not 0 <= self.turn_on_threshold_pj <= self.max_storage_pj:
            raise ValueError(
                "turn_on_threshold_pj must lie in [0, max_storage_pj]")
        if not self.turn_off_threshold_pj < self.max_storage_pj:
            raise ValueError(
                "turn_off_threshold_pj must be below max_storage_pj")
        # The highest storable level bounds every cycle position that
        # harvest_batch inverts.  V_g ** 2 raises OverflowError, or
        # underflows to 0 and the division raises ZeroDivisionError.
        try:
            with np.errstate(all="ignore"):
                top = _cycle_positions(
                    np.nextafter(self.max_storage_pj, 0.0), self)
        except (ZeroDivisionError, OverflowError):
            top = math.nan
        if not 0 < top < math.inf:
            raise ValueError(
                "charge_per_cycle_pc, generator_voltage_v and max_storage_pj "
                "must give a capacitance_f and cycle_exponent whose charging "
                "curve inverts to a finite, positive cycle below full storage")

    @property
    def capacitance_f(self) -> float:
        """Storage capacitance C_cap = 2 * E_max / V_g^2, in farads."""
        return (2.0 * self.max_storage_pj * 1e-12
                / self.generator_voltage_v ** 2)

    @property
    def cycle_exponent(self) -> float:
        """Per-cycle decay rate dQ / (V_g * C_cap) of the charging curve."""
        return (self.charge_per_cycle_pc * 1e-12
                / (self.generator_voltage_v * self.capacitance_f))

    @property
    def effective_turn_on_pj(self) -> float:
        """Turn-on level actually applied; never below the turn-off level."""
        return max(self.turn_on_threshold_pj, self.turn_off_threshold_pj)


def _cycle_positions(energy_pj: np.ndarray,
                     params: HarvesterParams) -> np.ndarray:
    """Cycle index of each energy level in [0, max_storage_pj), as floats.

    Inverts the charging curve:

        n = ceil(-(V_g * C_cap / dQ) * ln(1 - sqrt(E / E_max)))

    Positions within float roundoff of a whole cycle snap to it, so this
    is an exact inverse of energy_at_cycle on the curve's own values.
    """
    x = (-np.log(1.0 - np.sqrt(energy_pj / params.max_storage_pj))
         / params.cycle_exponent)
    nearest = np.rint(x)
    snap = np.abs(x - nearest) <= _INDEX_SNAP_REL * np.maximum(1.0, np.abs(x))
    return np.where(snap, nearest, np.ceil(x))


def energy_at_cycle(n_cycle: int | np.ndarray,
                    params: HarvesterParams) -> float | np.ndarray:
    """Stored energy (pJ) after n whole harvesting cycles from empty, for
    one cycle count or an array of them: the curve harvest_batch charges.

    Strictly increasing in n and bounded above by max_storage_pj, which it
    approaches asymptotically.
    """
    if np.any(n_cycle < 0):
        raise ValueError("n_cycle must be >= 0")
    charged = 1.0 - np.exp(-params.cycle_exponent * n_cycle)
    return params.max_storage_pj * charged * charged


def may_pay(operational: np.ndarray, payers: np.ndarray) -> np.ndarray:
    """Nodes spend_batch may debit: the payers that are operational.  The
    others pay nothing, whatever the cost."""
    return payers & operational


def spend_batch(energy_pj: np.ndarray, operational: np.ndarray,
                cost_pj: float | np.ndarray, payers: np.ndarray,
                params: HarvesterParams) -> np.ndarray:
    """Debit cost_pj (a scalar or one cost per node) in place.

    A payer that is operational and holds at least cost_pj (the full store
    may be drawn) pays it; one left below the turn-off threshold turns off.
    Returns the mask of nodes that paid; the others are untouched.
    """
    paid = may_pay(operational, payers) & (energy_pj >= cost_pj)
    np.subtract(energy_pj, cost_pj, out=energy_pj, where=paid)
    operational[paid & (energy_pj < params.turn_off_threshold_pj)] = False
    return paid


def harvest_batch(energy_pj: np.ndarray, operational: np.ndarray,
                  elapsed_s: float, params: HarvesterParams) -> None:
    """Advance each node's charging curve, in place, by the whole cycles
    within elapsed_s; fractional remainders are discarded.

    Energies are non-negative, as spend_batch never debits below zero.
    Harvesting applies whether or not a node is operational; its flag
    turns back on at the effective turn-on threshold.
    """
    if elapsed_s < 0:
        raise ValueError("elapsed_s must be >= 0")
    cycles = int(math.floor(elapsed_s / params.cycle_duration_s
                            + _CYCLE_COUNT_EPS))
    if cycles == 0:
        return
    # A full node's curve runs from the highest storable level instead,
    # away from the log's pole at max_storage_pj.
    n = _cycle_positions(
        np.minimum(energy_pj, np.nextafter(params.max_storage_pj, 0.0)),
        params) + cycles
    # Harvesting never takes energy away: that keeps a full node full, as
    # its curve never exceeds max_storage_pj, and a node within about
    # 1e-12 pJ of full storage, which the inverse cancels and places below
    # its own level.
    np.maximum(energy_at_cycle(n, params), energy_pj, out=energy_pj)
    operational |= energy_pj >= params.effective_turn_on_pj
