"""Ranging module: exchange protocol order, energy ledger, noise model."""

import dataclasses

import numpy as np
import pytest

from nanoloc import ranging
from nanoloc.channel import ChannelParams, raw_resolution, received_power
from nanoloc.energy import HarvesterParams, spend_batch
from nanoloc.ranging import (CODE_LINK_INFEASIBLE, CODE_NODE_DEPLETED,
                             PACKET_BIT_BUDGET, SUCCESS, RadioParams,
                             measure_batch, range_estimates)
from oracles import EnergyState


def harvester(**overrides):
    return dataclasses.replace(HarvesterParams(), **overrides)


def channel(**overrides):
    return dataclasses.replace(ChannelParams(), **overrides)


RADIO = RadioParams(energy_rx_pulse_pj=0.1, energy_tx_pulse_pj=1.0, packet_bits=8)
SIGMA = raw_resolution(1e12)


def node_round(distances, state, chan=None, params=None):
    """One node's round as a one-row measure_batch call, one controller per
    distance; the link verdicts come from received_power.  Returns
    (failure code, state after)."""
    chan = chan or channel()
    d = np.asarray(distances, dtype=np.float64).reshape(1, -1)
    feasible = received_power(chan, d).received
    energy = np.array([state.energy_pj])
    operational = np.array([state.operational])
    code = measure_batch(feasible, energy, operational, RADIO,
                         params or harvester())
    return int(code[0]), EnergyState(float(energy[0]), bool(operational[0]))


class TestRadioParams:
    def test_packet_bits_within_the_draw_budget(self):
        # Checked when built: no packet is drawn, so nothing is allocated.
        assert RadioParams(packet_bits=PACKET_BIT_BUDGET).packet_bits == \
            PACKET_BIT_BUDGET
        for bits in (0, PACKET_BIT_BUDGET + 1, 10 ** 18):
            with pytest.raises(ValueError, match="packet_bits must lie in"):
                RadioParams(packet_bits=bits)


class TestExchange:
    """One-controller rounds: a single exchange."""

    def test_success_debits_both_pulses(self):
        state = EnergyState(800.0, True)
        code, after = node_round([10e-3], state)
        assert code == SUCCESS
        assert after.energy_pj == pytest.approx(798.9, abs=1e-12)
        assert after.operational
        # Estimate is the true distance plus one draw of N(0, sigma^2).
        rng = np.random.default_rng(0)
        (estimate,) = range_estimates(np.array([10e-3]),
                                      rng.standard_normal(1), channel())
        assert estimate != 10e-3
        assert abs(estimate - 10e-3) < 6 * SIGMA

    def test_depleted_gate_blocks_without_debit(self):
        state = EnergyState(800.0, False)
        code, after = node_round([10e-3], state)
        assert code == CODE_NODE_DEPLETED
        assert after == state

    def test_out_of_range_blocks_without_debit(self):
        state = EnergyState(800.0, True)
        code, after = node_round([10.0], state)
        assert code == CODE_LINK_INFEASIBLE
        assert after == state

    def test_reception_only_debit_when_reply_unaffordable(self):
        # Low operational floor so a node holding 1.05 pJ is still on: the
        # inbound pulse is paid for, the reply is not affordable.
        params = harvester(turn_off_threshold_pj=0.01)
        state = EnergyState(1.05, True)
        code, after = node_round([1e-3], state, params=params)
        assert code == CODE_NODE_DEPLETED
        assert after.energy_pj == pytest.approx(0.95, abs=1e-12)
        assert after.operational

    def test_rx_debit_tripping_threshold_blocks_reply(self):
        # 10.05 pJ: reception leaves 9.95 pJ, below the 10 pJ floor, so the
        # node turns off before it can afford the reply.
        state = EnergyState(10.05, True)
        code, after = node_round([1e-3], state)
        assert code == CODE_NODE_DEPLETED
        assert after.energy_pj == pytest.approx(9.95, abs=1e-12)
        assert not after.operational

    def test_depleted_reported_before_link(self):
        # An off node out of range reports the energy failure first.
        state = EnergyState(0.0, False)
        code, _ = node_round([10.0], state)
        assert code == CODE_NODE_DEPLETED

    def test_effectively_unbounded_sensitivity_always_succeeds(self):
        chan = channel(receiver_sensitivity_dbm=-1e9)
        for distance in [1e-6, 1e-3, 1.0, 1e3, 1e6]:
            state = EnergyState(800.0, True)
            code, after = node_round([distance], state, chan=chan)
            assert code == SUCCESS
            assert after.energy_pj == pytest.approx(798.9, abs=1e-12)


CONTROLLERS = np.array([
    [0.0, 0.0, 0.0],
    [21.6e-3, 0.0, 0.0],
    [0.0, 21.6e-3, 0.0],
    [21.6e-3, 21.6e-3, 0.0],
])


def distances_to(node, controllers=CONTROLLERS):
    return np.linalg.norm(np.asarray(node)[None, :] - controllers, axis=1)


class TestMeasureAll:
    """Four-controller rounds, in controller order."""

    def test_four_successes_debit(self):
        truth = distances_to([10e-3, 11e-3, 4e-3])
        code, after = node_round(truth, EnergyState(800.0, True))
        assert code == SUCCESS
        assert after.energy_pj == pytest.approx(800.0 - 4.4, abs=1e-12)
        rng = np.random.default_rng(7)
        measured = range_estimates(truth, rng.standard_normal(4), channel())
        assert measured.shape == (4,)
        assert np.all(np.abs(measured - truth) < 6 * SIGMA)

    def test_threshold_walkdown(self):
        # From 12 pJ: first exchange ends at 10.9, second at 9.8 and turns
        # the node off, so the third and fourth are energy failures: two
        # exchanges are paid.
        code, after = node_round(distances_to([10e-3, 11e-3, 4e-3]),
                                 EnergyState(12.0, True))
        assert code == CODE_NODE_DEPLETED
        assert after.energy_pj == pytest.approx(9.8, abs=1e-12)
        assert not after.operational

    def test_one_controller_out_of_range(self):
        controllers = np.array([
            [1e-3, 0.0, 0.0],
            [0.0, 1e-3, 0.0],
            [0.0, 0.0, 1e-3],
            [1.0, 0.0, 0.0],   # out of range at -100 dBm
        ])
        code, after = node_round(distances_to(np.zeros(3), controllers),
                                 EnergyState(800.0, True))
        assert code == CODE_LINK_INFEASIBLE
        # The infeasible inbound pulse is never received, so only three
        # exchanges are paid for.
        assert after.energy_pj == pytest.approx(800.0 - 3.3, abs=1e-12)

    def test_round_ends_at_link_failure(self):
        # Hand oracle: controller 1 is out of range, 2 and 3 are in range.
        # The round ends at controller 1, so only controller 0's exchange
        # is paid for (800 - 1.1 pJ) and the rest are not attempted.
        controllers = np.array([
            [1e-3, 0.0, 0.0],
            [1.0, 0.0, 0.0],   # out of range at -100 dBm
            [0.0, 1e-3, 0.0],
            [0.0, 0.0, 1e-3],
        ])
        code, after = node_round(distances_to(np.zeros(3), controllers),
                                 EnergyState(800.0, True))
        assert code == CODE_LINK_INFEASIBLE
        assert after.energy_pj == pytest.approx(798.9, abs=1e-12)

    def test_round_ends_at_unaffordable_reply(self):
        # Hand oracle: 1.05 pJ with a 0.01 pJ turn-off level.  The first
        # reception leaves 0.95 pJ, the node stays on but cannot afford the
        # reply, and the round ends there: one 0.1 pJ debit, not four
        # (which would leave 0.65 pJ).
        code, after = node_round(
            distances_to([10e-3, 11e-3, 4e-3]), EnergyState(1.05, True),
            params=harvester(turn_off_threshold_pj=0.01))
        assert code == CODE_NODE_DEPLETED
        assert after.energy_pj == pytest.approx(0.95, abs=1e-12)
        assert after.operational

    def test_noise_is_unbiased(self):
        # 100,000 one-exchange rounds in one batch call, then their range
        # estimates in one range_estimates call.
        rng = np.random.default_rng(10)
        true_d = 10e-3
        n = 100_000
        codes = measure_batch(np.ones((n, 1), dtype=bool), np.full(n, 800.0),
                              np.ones(n, dtype=bool), RADIO, harvester())
        assert np.all(codes == SUCCESS)
        measured = range_estimates(np.full((n, 1), true_d),
                                   rng.standard_normal((n, 1)), channel())
        errors = measured[:, 0] - true_d
        assert abs(errors.mean()) < 3 * SIGMA / np.sqrt(n)
        assert abs(errors.std() - SIGMA) < 0.02 * SIGMA

    @pytest.mark.parametrize("on, debit_calls", [(False, 2), (True, 8)])
    def test_round_returns_once_no_node_is_active(self, monkeypatch, on,
                                                  debit_calls):
        # Off nodes all fail at the first controller's gate, so the round
        # returns after its first exchange's two debit calls; on nodes pay
        # both pulses of all four exchanges.
        calls = []

        def counting(*args):
            calls.append(None)
            return spend_batch(*args)

        monkeypatch.setattr(ranging, "spend_batch", counting)
        n = 5
        codes = measure_batch(np.ones((n, 4), dtype=bool), np.full(n, 800.0),
                              np.full(n, on), RADIO, harvester())
        assert np.all(codes == (SUCCESS if on else CODE_NODE_DEPLETED))
        assert len(calls) == debit_calls
