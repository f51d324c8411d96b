"""Energy module: charging-curve closed forms, thresholds, hysteresis."""

import dataclasses
import math

import numpy as np
import pytest

from nanoloc.energy import (EnergySaturationError, HarvesterParams,
                            cycle_index, energy_at_cycle, harvest_batch,
                            spend_batch)
from oracles import EnergyState, can_afford, consume, harvest


def default_params(**overrides):
    return dataclasses.replace(HarvesterParams(), **overrides)


PARAMS = default_params()


class TestCapacitance:
    def test_default_value(self):
        # Oracle: 2 * 800e-12 / 0.42**2, evaluated independently.
        assert PARAMS.capacitance_f == pytest.approx(9.0702947845805e-09, rel=1e-12)
        assert abs(PARAMS.capacitance_f - 9.0703e-9) < 1e-13

    def test_algebraic_inverse(self):
        # Choosing E_max = C * V^2 / 2 must return exactly that C.
        for cap, volts in [(5e-9, 0.7), (1.2e-8, 0.3), (9.3e-10, 1.1)]:
            e_max_pj = 0.5 * cap * volts ** 2 * 1e12
            params = default_params(generator_voltage_v=volts,
                                    max_storage_pj=e_max_pj,
                                    turn_off_threshold_pj=e_max_pj / 100)
            assert params.capacitance_f == pytest.approx(cap, rel=1e-12)

    def test_linear_in_storage(self):
        half = default_params(max_storage_pj=400.0)
        assert half.capacitance_f == pytest.approx(4.53514739229025e-09, rel=1e-12)
        assert half.capacitance_f == pytest.approx(PARAMS.capacitance_f / 2, rel=1e-12)


class TestCycleIndex:
    def test_empty_storage(self):
        assert cycle_index(0.0, PARAMS) == 0

    def test_default_midpoint(self):
        # Independent oracle: direct evaluation of the closed-form inverse.
        expected = math.ceil(
            -(0.42 * 9.0702947845805e-09 / 6e-12)
            * math.log(1 - math.sqrt(400.0 / 800.0)))
        assert expected == 780
        assert cycle_index(400.0, PARAMS) == 780

    def test_round_trip_with_curve(self):
        for k in [1, 2, 3, 7, 50, 780, 9999, 10000]:
            assert cycle_index(energy_at_cycle(k, PARAMS), PARAMS) == k

    def test_round_trip_other_params(self):
        params = default_params(charge_per_cycle_pc=2.0, max_storage_pj=500.0,
                                generator_voltage_v=0.9)
        for k in [1, 13, 444, 6021]:
            assert cycle_index(energy_at_cycle(k, params), params) == k

    def test_saturation_raises(self):
        with pytest.raises(EnergySaturationError):
            cycle_index(800.0, PARAMS)
        with pytest.raises(EnergySaturationError):
            cycle_index(801.0, PARAMS)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            cycle_index(-1e-9, PARAMS)


class TestEnergyAtCycle:
    def test_zero_cycles(self):
        assert energy_at_cycle(0, PARAMS) == 0.0

    def test_first_cycle(self):
        # Frozen from an independent evaluation of the charging curve with
        # per-cycle exponent 6e-12 / (0.42 * 9.0703e-9) ~= 1.575e-3.
        assert PARAMS.cycle_exponent == pytest.approx(1.575e-3, rel=1e-12)
        assert energy_at_cycle(1, PARAMS) == 1.98137728219616e-3

    def test_asymptote_is_storage_capacity(self):
        assert abs(energy_at_cycle(10_000_000, PARAMS) - 800.0) < 1e-6 * 800.0

    def test_strictly_increasing_and_bounded(self):
        previous = -1.0
        for k in range(0, 5000, 37):
            value = energy_at_cycle(k, PARAMS)
            assert value > previous
            assert value < 800.0
            previous = value

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            energy_at_cycle(-1, PARAMS)

    def test_negative_in_array_raises(self):
        with pytest.raises(ValueError, match="n_cycle must be >= 0"):
            energy_at_cycle(np.array([3, -1, 7]), PARAMS)

    def test_array_matches_scalar(self):
        ks = np.arange(0, 200_001, 97)
        values = energy_at_cycle(ks, PARAMS)
        assert values.shape == ks.shape
        assert values.tolist() == [energy_at_cycle(int(k), PARAMS) for k in ks]

    def test_is_what_harvesting_stores(self):
        # k whole cycles from empty store exactly energy_at_cycle(k).  At
        # the first seven counts the curve evaluated with math.exp differs
        # from np.exp's in the last bit.
        for k in [5, 58, 70, 73, 74, 89, 101, *range(0, 200_001, 97)]:
            energy = np.zeros(1)
            harvest_batch(energy, np.zeros(1, dtype=bool),
                          k * PARAMS.cycle_duration_s, PARAMS)
            assert np.array_equal(energy, [energy_at_cycle(k, PARAMS)]), k


class TestHarvest:
    def test_zero_elapsed_is_identity(self):
        state = EnergyState(123.4, True)
        assert harvest(state, 0.0, PARAMS) == state
        assert harvest(state, 0.0199, PARAMS) == state  # sub-cycle remainder

    def test_full_storage_saturates(self):
        state = EnergyState(800.0, True)
        out = harvest(state, 12.34, PARAMS)
        assert out.energy_pj == 800.0
        assert out.operational

    def test_five_cycles_from_empty(self):
        out = harvest(EnergyState(0.0, False), 0.1, PARAMS)
        assert out.energy_pj == energy_at_cycle(5, PARAMS)
        assert out.energy_pj == pytest.approx(0.0492235902924877, rel=1e-12)

    def test_whole_cycle_division_is_robust(self):
        # 0.3 / 0.1 rounds below 3.0 in binary floats; three cycles must
        # still be credited.
        params = default_params(cycle_duration_s=0.1)
        out = harvest(EnergyState(0.0, False), 0.3, params)
        assert out.energy_pj == pytest.approx(energy_at_cycle(3, params), rel=1e-12)

    def test_turn_on_at_threshold(self):
        params = default_params(turn_on_threshold_pj=50.0)
        state = EnergyState(energy_at_cycle(100, params), False)
        out = harvest(state, 200 * params.cycle_duration_s, params)
        if out.energy_pj >= 50.0:
            assert out.operational

    def test_never_decreases_energy(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            energy = float(rng.uniform(0, 800))
            elapsed = float(rng.uniform(0, 1.0))
            out = harvest(EnergyState(energy, True), elapsed, PARAMS)
            assert out.energy_pj >= energy - 1e-12
            assert out.energy_pj <= 800.0

    def test_negative_elapsed_raises(self):
        with pytest.raises(ValueError):
            harvest(EnergyState(0.0, False), -0.1, PARAMS)


class TestConsume:
    def test_plain_debit(self):
        out = consume(EnergyState(100.0, True), 4.4, PARAMS)
        assert out.energy_pj == pytest.approx(95.6, abs=1e-12)
        assert out.operational

    def test_turn_off_threshold(self):
        out = consume(EnergyState(12.0, True), 4.4, PARAMS)
        assert out.energy_pj == pytest.approx(7.6, abs=1e-12)
        assert not out.operational

    def test_clamps_at_zero(self):
        out = consume(EnergyState(3.0, True), 5.0, PARAMS)
        assert out.energy_pj == 0.0
        assert not out.operational

    def test_boundary_is_strictly_below(self):
        out = consume(EnergyState(14.4, True), 4.4, PARAMS)
        assert out.energy_pj == pytest.approx(10.0, abs=1e-12)
        assert out.operational

    def test_never_increases_energy(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            energy = float(rng.uniform(0, 800))
            amount = float(rng.uniform(0, 20))
            out = consume(EnergyState(energy, True), amount, PARAMS)
            assert out.energy_pj <= energy
            assert out.energy_pj >= 0.0

    def test_negative_amount_raises(self):
        with pytest.raises(ValueError):
            consume(EnergyState(10.0, True), -1.0, PARAMS)


class TestCanAfford:
    def test_ample_energy(self):
        assert can_afford(EnergyState(800.0, True), 4.4)

    def test_not_operational(self):
        assert not can_afford(EnergyState(800.0, False), 0.1)

    def test_exact_amount_is_affordable(self):
        # Spending the full store is allowed; the threshold check comes
        # after consumption.
        assert can_afford(EnergyState(4.4, True), 4.4)

    def test_insufficient(self):
        assert not can_afford(EnergyState(4.3, True), 4.4)


def _spend_reference(energy, operational, cost, payers):
    """can_afford then consume, node by node: (energy, operational, paid)."""
    out = []
    for e, on, c, payer in zip(energy, operational,
                               np.broadcast_to(cost, energy.shape), payers):
        state = EnergyState(float(e), bool(on))
        paid = bool(payer) and can_afford(state, float(c))
        if paid:
            state = consume(state, float(c), PARAMS)
        out.append((state.energy_pj, state.operational, paid))
    energy_out, operational_out, paid_out = zip(*out)
    return np.array(energy_out), np.array(operational_out), np.array(paid_out)


class TestSpendBatch:
    # (energy, operational, cost, payer); binary fractions, so the
    # boundary debits land exactly.
    CASES = [
        (4.4, True, 4.4, True),      # E == cost: pays all of it, turns off
        (10.5, True, 0.5, True),     # lands exactly on the turn-off level
        (10.5, True, 0.75, True),    # lands just below it
        (4.3, True, 4.4, True),      # cannot afford
        (800.0, False, 0.1, True),   # non-operational payer
        (800.0, True, 1.0, False),   # non-payer that could afford
        (5.0, False, 1.0, False),    # non-payer, off
        (0.0, True, 0.0, True),      # free debit below the turn-off level
        (800.0, True, 0.8, True),
    ]

    def corpus(self):
        rng = np.random.default_rng(10)
        energy, operational, cost, payers = (np.array(col) for col in
                                             zip(*self.CASES))
        return (np.concatenate([energy, rng.uniform(0.0, 20.0, size=200)]),
                np.concatenate([operational, rng.random(200) < 0.8]),
                np.concatenate([cost, rng.uniform(0.0, 6.0, size=200)]),
                np.concatenate([payers, rng.random(200) < 0.8]))

    @pytest.mark.parametrize("scalar_cost", [None, 0.1, 1.0, 4.4])
    def test_matches_can_afford_then_consume(self, scalar_cost):
        energy, operational, cost, payers = self.corpus()
        if scalar_cost is not None:
            cost = scalar_cost
        expected = _spend_reference(energy, operational, cost, payers)
        paid = spend_batch(energy, operational, cost, payers, PARAMS)
        assert np.array_equal(energy, expected[0])
        assert np.array_equal(operational, expected[1])
        assert np.array_equal(paid, expected[2])

    def test_boundary_cases(self):
        energy, operational, cost, payers = (np.array(col) for col in
                                             zip(*self.CASES))
        before = energy.copy()
        paid = spend_batch(energy, operational, cost, payers, PARAMS)
        assert paid.tolist() == [True, True, True, False, False, False,
                                 False, True, True]
        assert energy[:3].tolist() == [0.0, 10.0, 9.75]
        assert operational[:3].tolist() == [False, True, False]
        # Nodes that did not pay keep their energy bit for bit.
        assert np.array_equal(energy[~paid], before[~paid])
        assert operational[5] and not operational[6]


class TestHysteresis:
    def test_off_until_turn_on(self):
        params = default_params(turn_on_threshold_pj=100.0)
        state = EnergyState(50.0, True)
        state = consume(state, 45.0, params)  # 5 pJ, below turn-off
        assert not state.operational
        # Recharge in steps; must stay off until reaching 100 pJ.
        while state.energy_pj < 100.0:
            state = harvest(state, params.cycle_duration_s * 10, params)
            if state.energy_pj < 100.0:
                assert not state.operational
        assert state.operational

    def test_collapsed_hysteresis_uses_turn_off_floor(self):
        # Default turn-on (0) below turn-off (10) collapses to a single
        # 10 pJ operational floor.
        assert PARAMS.effective_turn_on_pj == 10.0
        state = consume(EnergyState(12.0, True), 4.4, PARAMS)
        assert not state.operational
        state = harvest(state, 40 * PARAMS.cycle_duration_s, PARAMS)
        assert state.energy_pj >= 10.0
        assert state.operational

    def test_random_interleaving_respects_bounds(self):
        rng = np.random.default_rng(7)
        state = EnergyState(400.0, True)
        for _ in range(500):
            if rng.random() < 0.5:
                state = consume(state, float(rng.uniform(0, 10)), PARAMS)
            else:
                state = harvest(state, float(rng.uniform(0, 0.3)), PARAMS)
            assert 0.0 <= state.energy_pj <= 800.0
            if state.operational:
                assert state.energy_pj >= 0.0


class TestParamValidation:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            default_params(generator_voltage_v=0.0)
        with pytest.raises(ValueError):
            default_params(max_storage_pj=-1.0)
        with pytest.raises(ValueError):
            default_params(cycle_duration_s=0.0)

    def test_rejects_turn_off_at_capacity(self):
        with pytest.raises(ValueError):
            default_params(turn_off_threshold_pj=800.0)

    def test_rejects_negative_turn_on(self):
        with pytest.raises(ValueError):
            default_params(turn_on_threshold_pj=-1.0)

    def test_rejects_turn_on_above_capacity(self):
        # The charging curve never exceeds max_storage_pj, so such a node
        # would never turn on.
        for value in (np.nextafter(800.0, np.inf), 900.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="turn_on_threshold_pj"):
                default_params(turn_on_threshold_pj=value)
        # A full start is on, and the curve reaches max_storage_pj exactly.
        params = default_params(turn_on_threshold_pj=800.0)
        assert params.effective_turn_on_pj == 800.0
        assert energy_at_cycle(10**6, params) == 800.0

    @pytest.mark.parametrize("charge_pc", [1e-304, 1e-308])
    def test_rejects_curve_whose_inverse_overflows(self, charge_pc):
        # cycle_exponent is positive and finite, but the cycle position of
        # a level just below full storage divides to infinity.
        with pytest.raises(ValueError, match="cycle_exponent"):
            default_params(charge_per_cycle_pc=charge_pc)


def _curve_oracle(energy_pj, params):
    """Smallest whole k with energy_at_cycle(k) >= energy_pj, found by
    bisection on the forward curve alone."""
    high = 1
    while energy_at_cycle(high, params) < energy_pj:
        high *= 2
    low = 0
    while low < high:
        mid = (low + high) // 2
        if energy_at_cycle(mid, params) >= energy_pj:
            high = mid
        else:
            low = mid + 1
    return low


class TestHarvestBatch:
    def test_matches_scalar(self):
        rng = np.random.default_rng(8)
        energies = np.concatenate([
            rng.uniform(0, 800, size=120),
            np.array([0.0, 800.0, 9.99, 10.0]),
        ])
        self._check_against_curve(energies, rng.random(energies.size) < 0.5)

    def test_matches_scalar_all_charging(self):
        # No node at full storage.
        rng = np.random.default_rng(9)
        energies = np.concatenate([
            rng.uniform(0, 800, size=120),
            np.array([0.0, 9.99, 10.0, np.nextafter(800.0, 0.0)]),
        ])
        assert np.all(energies < 800.0)
        flags = rng.random(energies.size) < 0.5
        self._check_against_curve(energies, flags)
        # A full node in the batch leaves the others' bits as they are.
        with_full = np.append(energies, 800.0)
        harvest_batch(with_full, np.append(flags, True), 0.1, PARAMS)
        alone = energies.copy()
        harvest_batch(alone, flags.copy(), 0.1, PARAMS)
        assert np.array_equal(alone, with_full[:-1])

    @staticmethod
    def _check_against_curve(energies, flags):
        start = [None if e >= 800.0 else _curve_oracle(float(e), PARAMS)
                 for e in energies]
        # 0.37 s is 18.5 cycles of 20 ms: the remainder is discarded.
        for elapsed, cycles in [(0.0, 0), (0.02, 1), (0.1, 5), (0.37, 18)]:
            batch_e, batch_op = energies.copy(), flags.copy()
            harvest_batch(batch_e, batch_op, elapsed, PARAMS)
            for i in range(energies.size):
                if cycles == 0:
                    expected, on = energies[i], bool(flags[i])
                else:
                    expected = (800.0 if start[i] is None else
                                energy_at_cycle(start[i] + cycles, PARAMS))
                    on = bool(flags[i]) or expected >= 10.0
                assert batch_e[i] == pytest.approx(expected, abs=1e-9)
                assert bool(batch_op[i]) == on

    def test_never_takes_energy_near_full_storage(self):
        # Next to full storage the curve's inverse cancels and places a
        # node below its own level; harvesting must still not lower it.
        start = np.array([np.nextafter(800.0, 0.0), 800.0 - 1e-12,
                          800.0 - 1e-9])
        for elapsed in (0.02, 0.1, 0.37):
            energies = start.copy()
            harvest_batch(energies, np.ones(3, dtype=bool), elapsed, PARAMS)
            assert np.all(energies >= start)
            assert np.all(energies <= 800.0)

    def test_updates_in_place(self):
        energies = np.array([9.9, 700.0])
        flags = np.array([False, True])
        # 10 ms is no whole 20 ms cycle: nothing changes.
        assert harvest_batch(energies, flags, 0.01, PARAMS) is None
        assert energies.tolist() == [9.9, 700.0]
        assert flags.tolist() == [False, True]
        # 0.1 s is five cycles: the curve values land in the given arrays,
        # and the first node charges past its 10 pJ turn-on level.
        expected = [energy_at_cycle(_curve_oracle(e, PARAMS) + 5, PARAMS)
                    for e in (9.9, 700.0)]
        assert harvest_batch(energies, flags, 0.1, PARAMS) is None
        assert energies.tolist() == expected
        assert energies[0] >= 10.0 and energies[1] > 700.0
        assert flags.tolist() == [True, True]
