"""Ranging module: exchange protocol order, energy ledger, noise model."""

import dataclasses

import numpy as np
import pytest

from nanoloc.channel import raw_resolution
from nanoloc.energy import EnergyState
from nanoloc.ranging import (FAILURE_LINK_INFEASIBLE, FAILURE_NODE_DEPLETED,
                             SUCCESS, RadioParams, exchange, measure_all,
                             measure_batch)
from nanoloc.sim import default_channel, default_harvester


def harvester(**overrides):
    return dataclasses.replace(default_harvester(), **overrides)


def channel(**overrides):
    return dataclasses.replace(default_channel(), **overrides)


RADIO = RadioParams(energy_rx_pulse_pj=0.1, energy_tx_pulse_pj=1.0, packet_bits=8)
SIGMA = raw_resolution(1e12)


class TestExchange:
    def test_success_debits_both_pulses(self):
        rng = np.random.default_rng(0)
        state = EnergyState(800.0, True)
        meas, after = exchange(10e-3, channel(), RADIO, state, harvester(), rng)
        assert meas.succeeded
        assert meas.failure_reason is None
        assert after.energy_pj == pytest.approx(798.9, abs=1e-12)
        assert after.operational
        # Estimate is the true distance plus one draw of N(0, sigma^2).
        assert meas.estimated_distance_m != 10e-3
        assert abs(meas.estimated_distance_m - 10e-3) < 6 * SIGMA

    def test_depleted_gate_blocks_without_debit(self):
        rng = np.random.default_rng(1)
        state = EnergyState(800.0, False)
        meas, after = exchange(10e-3, channel(), RADIO, state, harvester(), rng)
        assert meas.failure_reason == FAILURE_NODE_DEPLETED
        assert meas.estimated_distance_m is None
        assert after == state

    def test_out_of_range_blocks_without_debit(self):
        rng = np.random.default_rng(2)
        state = EnergyState(800.0, True)
        meas, after = exchange(10.0, channel(), RADIO, state, harvester(), rng)
        assert meas.failure_reason == FAILURE_LINK_INFEASIBLE
        assert after == state

    def test_reception_only_debit_when_reply_unaffordable(self):
        # Low operational floor so a node holding 1.05 pJ is still on: the
        # inbound pulse is paid for, the reply is not affordable.
        params = harvester(turn_off_threshold_pj=0.01)
        rng = np.random.default_rng(3)
        state = EnergyState(1.05, True)
        meas, after = exchange(1e-3, channel(), RADIO, state, params, rng)
        assert meas.failure_reason == FAILURE_NODE_DEPLETED
        assert after.energy_pj == pytest.approx(0.95, abs=1e-12)
        assert after.operational

    def test_rx_debit_tripping_threshold_blocks_reply(self):
        # 10.05 pJ: reception leaves 9.95 pJ, below the 10 pJ floor, so the
        # node turns off before it can afford the reply.
        rng = np.random.default_rng(4)
        state = EnergyState(10.05, True)
        meas, after = exchange(1e-3, channel(), RADIO, state, harvester(), rng)
        assert meas.failure_reason == FAILURE_NODE_DEPLETED
        assert after.energy_pj == pytest.approx(9.95, abs=1e-12)
        assert not after.operational

    def test_depleted_reported_before_link(self):
        # An off node out of range reports the energy failure first.
        rng = np.random.default_rng(5)
        state = EnergyState(0.0, False)
        meas, _ = exchange(10.0, channel(), RADIO, state, harvester(), rng)
        assert meas.failure_reason == FAILURE_NODE_DEPLETED

    def test_effectively_unbounded_sensitivity_always_succeeds(self):
        chan = channel(receiver_sensitivity_dbm=-1e9)
        rng = np.random.default_rng(6)
        for distance in [1e-6, 1e-3, 1.0, 1e3, 1e6]:
            state = EnergyState(800.0, True)
            meas, _ = exchange(distance, chan, RADIO, state, harvester(), rng)
            assert meas.succeeded

    def test_deterministic_for_fixed_seed(self):
        first, _ = exchange(5e-3, channel(), RADIO, EnergyState(800.0, True),
                            harvester(), np.random.default_rng(42))
        second, _ = exchange(5e-3, channel(), RADIO, EnergyState(800.0, True),
                             harvester(), np.random.default_rng(42))
        assert first.estimated_distance_m == second.estimated_distance_m

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            exchange(0.0, channel(), RADIO, EnergyState(1.0, True), harvester(),
                     np.random.default_rng(0))


CONTROLLERS = np.array([
    [0.0, 0.0, 0.0],
    [21.6e-3, 0.0, 0.0],
    [0.0, 21.6e-3, 0.0],
    [21.6e-3, 21.6e-3, 0.0],
])


class TestMeasureAll:
    def test_four_successes_debit(self):
        node = np.array([10e-3, 11e-3, 4e-3])
        rng = np.random.default_rng(7)
        result, after = measure_all(node, CONTROLLERS, channel(), RADIO,
                                    EnergyState(800.0, True), harvester(), rng)
        assert result.all_succeeded
        assert len(result.measurements) == 4
        assert after.energy_pj == pytest.approx(800.0 - 4.4, abs=1e-12)
        truth = np.linalg.norm(node[None, :] - CONTROLLERS, axis=1)
        assert np.all(np.abs(result.distances() - truth) < 6 * SIGMA)

    def test_threshold_walkdown(self):
        # From 12 pJ: first exchange ends at 10.9, second at 9.8 and turns
        # the node off, so the third and fourth are energy failures.
        node = np.array([10e-3, 11e-3, 4e-3])
        rng = np.random.default_rng(8)
        result, after = measure_all(node, CONTROLLERS, channel(), RADIO,
                                    EnergyState(12.0, True), harvester(), rng)
        reasons = [m.failure_reason for m in result.measurements]
        assert reasons == [None, None, FAILURE_NODE_DEPLETED,
                           FAILURE_NODE_DEPLETED]
        assert after.energy_pj == pytest.approx(9.8, abs=1e-12)
        assert not after.operational
        assert result.first_failure_reason == FAILURE_NODE_DEPLETED
        assert not result.all_succeeded

    def test_one_controller_out_of_range(self):
        controllers = np.array([
            [1e-3, 0.0, 0.0],
            [0.0, 1e-3, 0.0],
            [0.0, 0.0, 1e-3],
            [1.0, 0.0, 0.0],   # out of range at -100 dBm
        ])
        rng = np.random.default_rng(9)
        result, after = measure_all(np.zeros(3), controllers, channel(), RADIO,
                                    EnergyState(800.0, True), harvester(), rng)
        reasons = [m.failure_reason for m in result.measurements]
        assert reasons == [None, None, None, FAILURE_LINK_INFEASIBLE]
        # The infeasible inbound pulse is never received, so only three
        # exchanges are paid for.
        assert after.energy_pj == pytest.approx(800.0 - 3.3, abs=1e-12)

    def test_round_ends_at_link_failure(self):
        # Hand oracle: controller 1 is out of range, 2 and 3 are in range.
        # The round ends at controller 1, so only controller 0's exchange
        # is paid for (800 - 1.1 pJ) and the rest report the link failure.
        controllers = np.array([
            [1e-3, 0.0, 0.0],
            [1.0, 0.0, 0.0],   # out of range at -100 dBm
            [0.0, 1e-3, 0.0],
            [0.0, 0.0, 1e-3],
        ])
        rng = np.random.default_rng(11)
        result, after = measure_all(np.zeros(3), controllers, channel(), RADIO,
                                    EnergyState(800.0, True), harvester(), rng)
        reasons = [m.failure_reason for m in result.measurements]
        assert reasons == [None, FAILURE_LINK_INFEASIBLE,
                           FAILURE_LINK_INFEASIBLE, FAILURE_LINK_INFEASIBLE]
        assert after.energy_pj == pytest.approx(798.9, abs=1e-12)
        assert len(result.distances()) == 1

    def test_round_ends_at_unaffordable_reply(self):
        # Hand oracle: 1.05 pJ with a 0.01 pJ turn-off level.  The first
        # reception leaves 0.95 pJ, the node stays on but cannot afford the
        # reply, and the round ends there: one 0.1 pJ debit, not four
        # (which would leave 0.65 pJ).
        rng = np.random.default_rng(12)
        node = np.array([10e-3, 11e-3, 4e-3])
        result, after = measure_all(node, CONTROLLERS, channel(), RADIO,
                                    EnergyState(1.05, True),
                                    harvester(turn_off_threshold_pj=0.01), rng)
        assert [m.failure_reason for m in result.measurements] == [
            FAILURE_NODE_DEPLETED] * 4
        assert after.energy_pj == pytest.approx(0.95, abs=1e-12)
        assert after.operational

    def test_noise_is_unbiased(self):
        # 100,000 one-exchange rounds in one batch call: the same draws, in
        # the same order, as 100,000 calls of exchange.
        rng = np.random.default_rng(10)
        true_d = 10e-3
        n = 100_000
        measured, codes = measure_batch(
            np.full((n, 1), true_d), np.ones((n, 1), dtype=bool),
            rng.standard_normal((n, 1)), np.full(n, 800.0), np.ones(n, dtype=bool),
            channel(), RADIO, harvester())
        assert np.all(codes == SUCCESS)
        errors = measured[:, 0] - true_d
        assert abs(errors.mean()) < 3 * SIGMA / np.sqrt(n)
        assert abs(errors.std() - SIGMA) < 0.02 * SIGMA

    def test_deterministic_set(self):
        node = np.array([5e-3, 7e-3, 2e-3])
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            result, after = measure_all(node, CONTROLLERS, channel(), RADIO,
                                        EnergyState(20.0, True), harvester(), rng)
            runs.append((tuple(m.estimated_distance_m for m in result.measurements
                               if m.succeeded), after))
        assert runs[0] == runs[1]

    def test_requires_four_controllers(self):
        with pytest.raises(ValueError):
            measure_all(np.zeros(3), CONTROLLERS[:3], channel(), RADIO,
                        EnergyState(800.0, True), harvester(),
                        np.random.default_rng(0))
