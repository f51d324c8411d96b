"""Two-way time-of-flight ranging between controllers and one nanonode.

One exchange: a controller transmits a pulse; the node receives it
(spending reception energy), retransmits it (spending transmission
energy), and the controller derives the distance from the round-trip
time.  The resulting estimate carries zero-mean Gaussian noise with
standard deviation equal to the link's raw resolution c / B.

An exchange can fail because the node is out of energy or because the
link is infeasible at the separation distance.  Energy is debited only
for pulses actually received or emitted, in protocol order:
operational gate -> link -> reception debit -> transmission debit.
Both directions share one link budget, so the inbound check covers the
reply.  Controllers are energy-unconstrained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from nanoloc.channel import ChannelParams, raw_resolution, received_power
from nanoloc.energy import EnergyState, HarvesterParams, can_afford, consume

FAILURE_NODE_DEPLETED = "node_energy_depleted"
FAILURE_LINK_INFEASIBLE = "link_infeasible"


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


def exchange(true_distance_m: float, channel: ChannelParams,
             radio: RadioParams, state: EnergyState,
             harvester: HarvesterParams, rng: np.random.Generator,
             controller_id: int = 0) -> tuple[RangeMeasurement, EnergyState]:
    """Simulate one two-way exchange; returns the measurement and the
    node's energy state afterwards.

    One noise value is drawn from rng per successful exchange.
    """
    if not true_distance_m > 0:
        raise ValueError("true_distance_m must be strictly positive")

    def fail(reason: str) -> RangeMeasurement:
        return RangeMeasurement(controller_id, None, reason)

    if not state.operational:
        return fail(FAILURE_NODE_DEPLETED), state
    if not received_power(channel, true_distance_m).received:
        return fail(FAILURE_LINK_INFEASIBLE), state
    if not can_afford(state, radio.energy_rx_pulse_pj):
        return fail(FAILURE_NODE_DEPLETED), state
    state = consume(state, radio.energy_rx_pulse_pj, harvester)
    if not can_afford(state, radio.energy_tx_pulse_pj):
        # Inbound pulse was received but the reply cannot be sent; the
        # reception energy stays spent.
        return fail(FAILURE_NODE_DEPLETED), state
    state = consume(state, radio.energy_tx_pulse_pj, harvester)

    sigma = raw_resolution(channel.bandwidth_hz)
    estimate = true_distance_m + sigma * rng.standard_normal()
    return RangeMeasurement(controller_id, float(estimate), None), state


def measure_all(node_position: np.ndarray,
                controller_positions: Sequence[np.ndarray] | np.ndarray,
                channel: ChannelParams, radio: RadioParams,
                state: EnergyState, harvester: HarvesterParams,
                rng: np.random.Generator
                ) -> tuple[RangeMeasurementSet, EnergyState]:
    """Run one exchange per controller in controller-id order, threading
    the node's energy state through."""
    controllers = np.asarray(controller_positions, dtype=np.float64)
    if controllers.ndim != 2 or controllers.shape[1] != 3:
        raise ValueError("controller_positions must have shape (m, 3)")
    if controllers.shape[0] < 4:
        raise ValueError("at least 4 controllers are required")
    node = np.asarray(node_position, dtype=np.float64)
    results = []
    for cid, cpos in enumerate(controllers):
        distance = float(np.linalg.norm(node - cpos))
        measurement, state = exchange(distance, channel, radio, state,
                                      harvester, rng, controller_id=cid)
        results.append(measurement)
    return RangeMeasurementSet(tuple(results)), state
