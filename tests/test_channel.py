"""Channel module: link budget, absorption lookup, raw resolution."""

import math

import numpy as np
import pytest

from nanoloc.channel import (SPEED_OF_LIGHT_M_S, ChannelParams,
                             load_absorption_table, raw_resolution,
                             received_power)


def params(**overrides):
    base = dict(
        transmit_power_dbm=-20.0,
        frequency_hz=1e12,
        bandwidth_hz=1e12,
        receiver_sensitivity_dbm=-100.0,
    )
    base.update(overrides)
    return ChannelParams(**base)


class TestAbsorptionCoefficient:
    # k(f) is ChannelParams.absorption_per_m, over the channel's own table.
    @staticmethod
    def k(frequency_hz, table):
        return ChannelParams(frequency_hz=frequency_hz,
                             absorption_table=table).absorption_per_m

    def test_single_entry_acts_as_constant(self):
        table = ((1e12, 0.1),)
        assert self.k(2e12, table) == 0.1
        assert self.k(1e9, table) == 0.1

    def test_midpoint_interpolation(self):
        table = ((1e12, 0.0), (2e12, 0.2))
        assert self.k(1.5e12, table) == pytest.approx(0.1, rel=1e-12)

    def test_clamped_outside_range(self):
        table = ((1e12, 0.0), (2e12, 0.2))
        assert self.k(0.5e12, table) == 0.0
        assert self.k(9e12, table) == 0.2

    def test_lossless_default(self):
        table = ChannelParams().absorption_table
        assert self.k(5e12, table) == 0.0

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            self.k(1e12, ())


class TestReceivedPower:
    def test_short_range_golden(self):
        # Oracle: hand evaluation of 20*log10(4*pi*f*d/c) at 1 THz, 0.9 mm.
        result = received_power(params(), 0.9e-3)
        assert result.spreading_loss_db == pytest.approx(31.53263341066987,
                                                         abs=1e-9)
        assert abs(result.spreading_loss_db - 31.53) < 0.01
        assert result.absorption_loss_db == 0.0
        assert result.received_power_dbm == pytest.approx(-51.53263341066987,
                                                          abs=1e-9)
        assert result.received

    def test_grid_edge_golden(self):
        # Same oracle at the 24-spacing edge length, 21.6 mm.
        result = received_power(params(), 21.6e-3)
        assert result.spreading_loss_db == pytest.approx(59.13685824490199,
                                                         abs=1e-9)
        assert abs(result.spreading_loss_db - 59.13) < 0.01
        assert result.received

    def test_boundary_is_received(self):
        # A signal exactly at the sensitivity counts as received.
        reference = received_power(params(), 5e-3)
        boundary = params(receiver_sensitivity_dbm=reference.received_power_dbm)
        assert received_power(boundary, 5e-3).received

    def test_decomposition_identity(self):
        chan = params(absorption_table=((5e11, 3.0), (2e12, 7.5)))
        result = received_power(chan, 1.3e-2)
        reconstructed = (chan.transmit_power_dbm - result.spreading_loss_db
                         - result.absorption_loss_db)
        assert abs(result.received_power_dbm - reconstructed) < 1e-12

    def test_absorption_term(self):
        chan = params(absorption_table=((1e12, 2.0),))
        d = 1e-2
        result = received_power(chan, d)
        assert result.absorption_loss_db == pytest.approx(
            2.0 * d * 10 * math.log10(math.e), rel=1e-12)

    def test_monotone_decreasing_in_distance(self):
        chan = params(absorption_table=((1e12, 1.0),))
        distances = np.geomspace(1e-4, 1.0, 40)
        powers = [received_power(chan, float(d)).received_power_dbm
                  for d in distances]
        assert all(a > b for a, b in zip(powers, powers[1:]))

    def test_spreading_increasing_in_frequency(self):
        losses = [received_power(params(frequency_hz=f), 1e-2).spreading_loss_db
                  for f in np.geomspace(1e11, 1e13, 20)]
        assert all(a < b for a, b in zip(losses, losses[1:]))

    def test_zero_distance_rejected(self):
        # Zero, negative and NaN distances, alone and as one entry of an
        # array, are rejected.
        for distance in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                received_power(params(), distance)
            with pytest.raises(ValueError):
                received_power(params(), np.array([1e-3, distance]))

    def test_batch_matches_scalar(self):
        # An array of distances gives, field by field and bit for bit, the
        # results of one call per distance, in the array's shape.
        chan = params(absorption_table=((5e11, 0.4), (2e12, 1.3)))
        distances = np.geomspace(1e-4, 0.5, 25).reshape(5, 5)
        batch = received_power(chan, distances)
        fields = ("received_power_dbm", "spreading_loss_db",
                  "absorption_loss_db", "received")
        for name in fields:
            assert getattr(batch, name).shape == distances.shape
        # The module-docstring formula, with k(1 THz) interpolated by hand
        # between the two table entries.
        k = 0.4 + (1.3 - 0.4) * (1e12 - 5e11) / (2e12 - 5e11)
        for index, d in np.ndenumerate(distances):
            single = received_power(chan, float(d))
            for name in fields:
                assert getattr(batch, name)[index] == getattr(single, name), name
            expected = (-20.0 - k * d * 10.0 * math.log10(math.e)
                        - 20.0 * math.log10(4.0 * math.pi * 1e12 * d
                                            / 2.99792458e8))
            assert single.received_power_dbm == pytest.approx(expected,
                                                              abs=1e-12)
            assert bool(single.received) == (expected >= -100.0)


class TestRawResolution:
    def test_terahertz_bandwidth(self):
        value = raw_resolution(1e12)
        assert value == pytest.approx(0.000299792458, rel=1e-12)
        assert value < 0.3e-3

    def test_ten_gigahertz(self):
        value = raw_resolution(1e10)
        assert value == pytest.approx(0.0299792458, rel=1e-12)
        assert value <= 0.03

    def test_uwb(self):
        assert raw_resolution(5e8) == pytest.approx(0.599584916, rel=1e-12)
        assert raw_resolution(5e8) < 0.6

    def test_halves_when_bandwidth_doubles(self):
        for bw in [1e9, 3.7e10, 1e12]:
            assert raw_resolution(2 * bw) == pytest.approx(raw_resolution(bw) / 2,
                                                           rel=1e-12)

    def test_strictly_decreasing(self):
        values = [raw_resolution(b) for b in np.geomspace(1e8, 1e13, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            raw_resolution(0.0)


class TestParamsValidation:
    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            params(frequency_hz=0.0)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            params(bandwidth_hz=-1e9)

    def test_rejects_infinite_sensitivity(self):
        with pytest.raises(ValueError):
            params(receiver_sensitivity_dbm=float("-inf"))

    def test_rejects_unsorted_table(self):
        with pytest.raises(ValueError):
            params(absorption_table=((2e12, 0.1), (1e12, 0.2)))

    def test_rejects_negative_coefficient(self):
        with pytest.raises(ValueError):
            params(absorption_table=((1e12, -0.1),))

    @pytest.mark.parametrize("frequency_hz", [math.nan, math.inf])
    def test_rejects_non_finite_frequency(self, frequency_hz):
        # NaN compares false, so it would pass the increasing-order check.
        with pytest.raises(ValueError, match="finite"):
            params(absorption_table=((1e12, 0.1), (frequency_hz, 0.5)))


class TestLoadAbsorptionTable:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("frequency_hz,k_per_m\n1.0e12,0.0\n2.0e12,0.25\n",
                        encoding="utf-8")
        assert load_absorption_table(path) == ((1e12, 0.0), (2e12, 0.25))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("freq,k\n1e12,0.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_absorption_table(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError):
            load_absorption_table(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("frequency_hz,k_per_m\n", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            load_absorption_table(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("frequency_hz,k_per_m\n1e12,abc\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-numeric"):
            load_absorption_table(path)

    def test_decreasing_frequencies(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("frequency_hz,k_per_m\n2e12,0.0\n1e12,0.1\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="increasing"):
            load_absorption_table(path)

    @pytest.mark.parametrize("row", ["nan,0.5", "inf,1.0"])
    def test_non_finite_frequency(self, tmp_path, row):
        path = tmp_path / "k.csv"
        path.write_text(f"frequency_hz,k_per_m\n1e12,0.0\n{row}\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="finite"):
            load_absorption_table(path)
