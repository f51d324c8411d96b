"""Two-way time-of-flight ranging between controllers and nanonodes.

One exchange: a controller transmits a pulse; the node receives it
(spending reception energy), retransmits it (spending transmission
energy), and the controller derives the distance from the round-trip
time.  The resulting estimate carries zero-mean Gaussian noise with
standard deviation equal to the link's raw resolution c / B.

A node's round is one exchange per controller, in controller order.  An
exchange can fail because the node is out of energy or because the link
is infeasible at the separation distance.  The round ends at the node's
first failed exchange: later exchanges are not attempted and cost
nothing.  Energy is debited only for pulses actually received or
emitted, in protocol order: operational gate -> link -> reception debit
-> transmission debit.  Both directions share one link budget, so the
inbound check covers the reply.  Controllers are energy-unconstrained.

measure_batch runs the rounds of many nodes at once and is the only
implementation of the protocol; exchange and measure_all run it for one
node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from nanoloc.channel import ChannelParams, raw_resolution, received_power_batch
from nanoloc.energy import EnergyState, HarvesterParams, spend_batch

FAILURE_NODE_DEPLETED = "node_energy_depleted"
FAILURE_LINK_INFEASIBLE = "link_infeasible"

# Per-node outcome codes of measure_batch.
SUCCESS = 0
CODE_NODE_DEPLETED = 1
CODE_LINK_INFEASIBLE = 2
_FAILURE_REASONS = {CODE_NODE_DEPLETED: FAILURE_NODE_DEPLETED,
                    CODE_LINK_INFEASIBLE: FAILURE_LINK_INFEASIBLE}


@dataclass(frozen=True)
class RadioParams:
    """Per-pulse energy costs and the operational-phase packet length."""

    energy_rx_pulse_pj: float
    energy_tx_pulse_pj: float
    packet_bits: int = 8

    def __post_init__(self) -> None:
        if not (math.isfinite(self.energy_rx_pulse_pj)
                and self.energy_rx_pulse_pj > 0):
            raise ValueError("energy_rx_pulse_pj must be strictly positive")
        if not (math.isfinite(self.energy_tx_pulse_pj)
                and self.energy_tx_pulse_pj > 0):
            raise ValueError("energy_tx_pulse_pj must be strictly positive")
        if self.packet_bits < 1:
            raise ValueError("packet_bits must be >= 1")


@dataclass(frozen=True)
class RangeMeasurement:
    """Outcome of one controller-node exchange.

    estimated_distance_m is present exactly when failure_reason is None.
    Noise may drive estimates of small distances negative; the position
    solver clamps them.
    """

    controller_id: int
    estimated_distance_m: float | None
    failure_reason: str | None

    @property
    def succeeded(self) -> bool:
        return self.failure_reason is None


@dataclass(frozen=True)
class RangeMeasurementSet:
    """Ordered per-controller measurements for one node."""

    measurements: tuple[RangeMeasurement, ...]

    @property
    def all_succeeded(self) -> bool:
        return all(m.succeeded for m in self.measurements)

    @property
    def first_failure_reason(self) -> str | None:
        for m in self.measurements:
            if not m.succeeded:
                return m.failure_reason
        return None

    def distances(self) -> np.ndarray:
        """Estimated distances of the successful measurements, in order."""
        return np.array([m.estimated_distance_m for m in self.measurements
                         if m.succeeded], dtype=np.float64)


def measure_batch(distances_m: np.ndarray, feasible: np.ndarray,
                  noise: np.ndarray, energy_pj: np.ndarray,
                  operational: np.ndarray, channel: ChannelParams,
                  radio: RadioParams, harvester: HarvesterParams
                  ) -> tuple[np.ndarray, np.ndarray]:
    """One ranging round for each of n nodes against m controllers.

    distances_m, feasible (the link budget's verdict, from
    channel.received_power_batch) and noise (standard-normal draws) have
    shape (n, m).  energy_pj and operational, shape (n,), are debited in
    place.  Returns (measured, failure_code): measured holds the estimate
    d + (c / B) * noise of every exchange that succeeded and NaN
    elsewhere; failure_code is SUCCESS where all m exchanges succeeded,
    otherwise the code of the node's first failure.
    """
    n, m = distances_m.shape
    sigma = raw_resolution(channel.bandwidth_hz)
    failure_code = np.zeros(n, dtype=np.int8)
    measured = np.full((n, m), np.nan)
    active = np.ones(n, dtype=bool)
    for c in range(m):
        # A node leaves `active` at its first failure; each pulse is paid
        # through energy.spend_batch.
        failure_code[active & ~operational] = CODE_NODE_DEPLETED
        active &= operational
        failure_code[active & ~feasible[:, c]] = CODE_LINK_INFEASIBLE
        active &= feasible[:, c]
        for cost in (radio.energy_rx_pulse_pj, radio.energy_tx_pulse_pj):
            paid = spend_batch(energy_pj, operational, cost, active, harvester)
            failure_code[active & ~paid] = CODE_NODE_DEPLETED
            active = paid
        measured[active, c] = distances_m[active, c] + sigma * noise[active, c]
    return measured, failure_code


def _measure_node(distances_m: np.ndarray, channel: ChannelParams,
                  radio: RadioParams, state: EnergyState,
                  harvester: HarvesterParams, rng: np.random.Generator
                  ) -> tuple[list[RangeMeasurement], EnergyState]:
    """measure_batch for one node; the round's noise is drawn up front."""
    distances = np.asarray(distances_m, dtype=np.float64).reshape(1, -1)
    _, feasible = received_power_batch(channel, distances)
    noise = rng.standard_normal(distances.shape)
    energy = np.array([state.energy_pj], dtype=np.float64)
    operational = np.array([state.operational])
    measured, code = measure_batch(distances, feasible, noise, energy,
                                   operational, channel, radio, harvester)
    # Exchanges after the first failure report the round's failure.
    reason = _FAILURE_REASONS.get(int(code[0]))
    results = [RangeMeasurement(cid, None, reason) if math.isnan(estimate)
               else RangeMeasurement(cid, float(estimate), None)
               for cid, estimate in enumerate(measured[0])]
    return results, EnergyState(float(energy[0]), bool(operational[0]))


def exchange(true_distance_m: float, channel: ChannelParams,
             radio: RadioParams, state: EnergyState,
             harvester: HarvesterParams, rng: np.random.Generator,
             controller_id: int = 0) -> tuple[RangeMeasurement, EnergyState]:
    """Simulate one two-way exchange; returns the measurement and the
    node's energy state afterwards.

    One noise value is drawn from rng, whether or not the exchange
    succeeds.
    """
    (result,), state = _measure_node([true_distance_m], channel, radio,
                                     state, harvester, rng)
    return replace(result, controller_id=controller_id), state


def measure_all(node_position: np.ndarray,
                controller_positions: Sequence[np.ndarray] | np.ndarray,
                channel: ChannelParams, radio: RadioParams,
                state: EnergyState, harvester: HarvesterParams,
                rng: np.random.Generator
                ) -> tuple[RangeMeasurementSet, EnergyState]:
    """Run one node's round, one exchange per controller in controller-id
    order; one noise value per controller is drawn from rng up front."""
    controllers = np.asarray(controller_positions, dtype=np.float64)
    if controllers.ndim != 2 or controllers.shape[1] != 3:
        raise ValueError("controller_positions must have shape (m, 3)")
    if controllers.shape[0] < 4:
        raise ValueError("at least 4 controllers are required")
    node = np.asarray(node_position, dtype=np.float64)
    distances = np.linalg.norm(node[None, :] - controllers, axis=1)
    results, state = _measure_node(distances, channel, radio, state,
                                   harvester, rng)
    return RangeMeasurementSet(tuple(results)), state
