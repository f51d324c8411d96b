"""Two-way time-of-flight ranging between controllers and nanonodes.

One exchange: a controller transmits a pulse; the node receives it
(spending reception energy), retransmits it (spending transmission
energy), and the controller derives the distance from the round-trip
time.  The resulting estimate carries zero-mean Gaussian noise with
standard deviation equal to the link's raw resolution c / B
(range_estimates).

A node's round is one exchange per controller, in controller order.  An
exchange can fail because the node is out of energy or because the link
is infeasible at the separation distance.  The round ends at the node's
first failed exchange: later exchanges are not attempted and cost
nothing.  Energy is debited only for pulses actually received or
emitted, in protocol order: operational gate -> link -> reception debit
-> transmission debit.  Both directions share one link budget, so the
inbound check covers the reply.  Controllers are energy-unconstrained.

measure_batch runs the rounds of many nodes at once and is the only
implementation of the protocol; one node's round is a one-row call.  It
keeps the energy ledger alone: an outcome is an int8 code (SUCCESS,
CODE_NODE_DEPLETED or CODE_LINK_INFEASIBLE), and only the rounds that
succeeded are given range estimates, by range_estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nanoloc.channel import ChannelParams, raw_resolution
from nanoloc.energy import HarvesterParams, spend_batch

# Per-node outcome codes of measure_batch.
SUCCESS = 0
CODE_NODE_DEPLETED = 1
CODE_LINK_INFEASIBLE = 2


# Packet bits one draw holds at most: run_iteration draws a period's packets
# in row blocks under this budget (8 MiB of int64), and RadioParams rejects a
# longer packet, so packet_bits cannot size an allocation.
PACKET_BIT_BUDGET = 1 << 20


@dataclass(frozen=True)
class RadioParams:
    """Per-pulse energy costs and the operational-phase packet length."""

    energy_rx_pulse_pj: float = 0.1
    energy_tx_pulse_pj: float = 1.0
    packet_bits: int = 8

    def __post_init__(self) -> None:
        if not (math.isfinite(self.energy_rx_pulse_pj)
                and self.energy_rx_pulse_pj > 0):
            raise ValueError("energy_rx_pulse_pj must be strictly positive")
        if not (math.isfinite(self.energy_tx_pulse_pj)
                and self.energy_tx_pulse_pj > 0):
            raise ValueError("energy_tx_pulse_pj must be strictly positive")
        if not 1 <= self.packet_bits <= PACKET_BIT_BUDGET:
            raise ValueError(
                f"packet_bits must lie in [1, {PACKET_BIT_BUDGET}]")
        # A packet of all ones costs packet_bits receptions.
        if not math.isfinite(self.packet_bits * self.energy_rx_pulse_pj):
            raise ValueError("energy_rx_pulse_pj must give a finite cost "
                             "for a packet of packet_bits pulses")


def measure_batch(feasible: np.ndarray, energy_pj: np.ndarray,
                  operational: np.ndarray, radio: RadioParams,
                  harvester: HarvesterParams) -> np.ndarray:
    """One ranging round for each of n nodes against m controllers: the
    protocol's energy ledger.

    feasible, shape (n, m), is the link budget's verdict (the received
    field of channel.received_power over the distances).  energy_pj and
    operational, shape (n,), are debited in place.  Returns failure_code:
    SUCCESS where all m exchanges succeeded, otherwise the code of the
    node's first failure.  The round returns as soon as no node is still
    active.
    """
    n, m = feasible.shape
    failure_code = np.zeros(n, dtype=np.int8)
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
        if not active.any():
            break
    return failure_code


def range_estimates(distances_m: np.ndarray, noise: np.ndarray,
                    channel: ChannelParams) -> np.ndarray:
    """Range estimates d + (c / B) * noise of successful exchanges, from
    the true distances and standard-normal draws of the same shape."""
    return distances_m + raw_resolution(channel.bandwidth_hz) * noise
