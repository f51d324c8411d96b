"""Sim module: topology, iteration engine, aggregation, determinism.

The vectorized per-iteration engine is cross-validated against a replay
built from the scalar energy and channel operations, with its own
ranging round (the engine's round lives in ranging.measure_batch).
"""

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

import oracles
from nanoloc import sim
from nanoloc.channel import ChannelParams, raw_resolution, received_power
from nanoloc.energy import harvest_batch
from nanoloc.locate import norm, trilaterate, trilaterate_batch
from nanoloc.sim import (_DRAW_FREE_CAP, _LOCATE_CHUNK_ROWS,
                         CODE_LINK_INFEASIBLE, CODE_NODE_DEPLETED, SUCCESS,
                         SimConfig, WorldState, build_topology, initial_world,
                         PointError, max_batch, nearest_rank_percentile,
                         run_iteration, run_simulation, run_simulations,
                         substream)


def small_config(**overrides):
    base = dict(grid_rows=4, grid_cols=4, iterations=20, rng_seed=3)
    base.update(overrides)
    return SimConfig(**base)


def count_harvests(monkeypatch) -> list:
    """Patch sim.harvest_batch to log each call; a replayed period makes
    none."""
    calls = []

    def counting(*args):
        calls.append(args)
        return harvest_batch(*args)

    monkeypatch.setattr(sim, "harvest_batch", counting)
    return calls


class TestBuildTopology:
    def test_default_grid(self):
        config = SimConfig()
        topo = build_topology(config)
        assert config.edge_length_m == pytest.approx(21.6e-3, rel=1e-12)
        assert topo.node_count == 621
        d = config.edge_length_m
        expected = np.array([[0, 0, 0], [d, 0, 0], [0, d, 0], [d, d, 0]])
        assert np.array_equal(topo.anchors.positions, expected)

    def test_positions_inside_box(self):
        config = SimConfig()
        pos = build_topology(config).node_true_positions
        d = config.edge_length_m
        assert np.all(pos >= 0.0)
        assert np.all(pos[:, 0] <= d)
        assert np.all(pos[:, 1] <= d)
        assert np.all(pos[:, 2] <= d / 2)

    def test_minimal_grid_has_no_mobile_nodes(self):
        topo = build_topology(SimConfig(grid_rows=2, grid_cols=2))
        assert topo.node_count == 0

    def test_seed_determinism(self):
        a = build_topology(SimConfig(rng_seed=9))
        b = build_topology(SimConfig(rng_seed=9))
        c = build_topology(SimConfig(rng_seed=10))
        assert np.array_equal(a.node_true_positions, b.node_true_positions)
        assert not np.array_equal(a.node_true_positions, c.node_true_positions)


class TestInitialWorld:
    def test_defaults_to_full_storage(self):
        world = initial_world(small_config())
        assert np.all(world.energy_pj == 800.0)
        assert np.all(world.operational)

    def test_explicit_initial_energy(self):
        world = initial_world(small_config(initial_energy_pj=0.0))
        assert np.all(world.energy_pj == 0.0)
        assert not np.any(world.operational)

    def test_rejects_out_of_range_initial_energy(self):
        with pytest.raises(ValueError):
            small_config(initial_energy_pj=900.0)


class TestRunIteration:
    def test_full_energy_node_accounting(self):
        config = small_config()
        world = initial_world(config)
        topology = world.topology
        result = run_iteration(world, config, 0)
        # A static run keeps its placement and links.
        assert world.topology is topology
        assert result.success.all()
        assert result.measured.shape == (topology.node_count, 4)
        assert np.all(np.isfinite(result.measured))
        # Energy after one period: full localization (4.4 pJ), packet '1'
        # bits at 0.1 pJ each, then five harvesting cycles.
        for i in range(world.topology.node_count):
            assert world.energy_pj[i] < 800.0
            spent = 800.0 - 4.4
            packet = spent - world.energy_pj[i]
            # Packet cost is a multiple of 0.1 pJ between 0 and 0.8, minus
            # whatever the five cycles harvested (tiny near full storage).
            assert -0.3 < packet < 0.9

    def test_depleted_node_fails_with_reason(self):
        config = small_config(initial_energy_pj=0.0)
        world = initial_world(config)
        result = run_iteration(world, config, 0)
        assert not result.success.any()
        assert np.all(result.failure_code == CODE_NODE_DEPLETED)
        assert result.measured.shape == (0, 4)
        # Nothing was paid: the period only harvested from empty.
        harvested = np.zeros(world.topology.node_count)
        harvest_batch(harvested, np.zeros(world.topology.node_count, bool),
                      config.update_period_s, config.harvester)
        assert np.array_equal(world.energy_pj, harvested)

    def test_out_of_range_node_fails_with_reason(self):
        config = small_config(spacing_m=0.5)  # 1.5 m edge, infeasible links
        world = initial_world(config)
        result = run_iteration(world, config, 0)
        assert not result.success.any()
        assert np.all(result.failure_code == CODE_LINK_INFEASIBLE)
        assert result.measured.shape == (0, 4)

    def test_mobility_resample_moves_nodes(self):
        config = small_config(mobility_resample=True)
        world = initial_world(config)
        before = world.topology.node_true_positions.copy()
        run_iteration(world, config, 0)
        after = world.topology.node_true_positions
        assert not np.array_equal(before, after)


class TestLazyDraws:
    """A period creates its substream only when it consumes a draw."""

    @pytest.mark.parametrize("overrides, seeded_periods", [
        # Static and drained: every round fails at its first or second
        # exchange and no node is on for its packet, so only the topology
        # is seeded.
        (dict(initial_energy_pj=10.0), 0),
        # Moving nodes draw their positions every period, drained or not.
        (dict(initial_energy_pj=10.0, mobility_resample=True), 20),
        # Full energy: every round succeeds and needs its noise.
        (dict(), 20),
    ], ids=["static_drained", "mobile_drained", "static_full"])
    def test_substreams_per_run(self, monkeypatch, overrides, seeded_periods):
        config = small_config(iterations=20, **overrides)
        keys = []

        def recording(seed, *key):
            keys.append(key)
            return substream(seed, *key)

        monkeypatch.setattr(sim, "substream", recording)
        report = run_simulation(config)
        assert keys[0] == (0,)
        assert len(keys) == 1 + seeded_periods
        if "initial_energy_pj" in overrides:
            assert report.successes == 0


def _node_round(distances, config: SimConfig, state: oracles.EnergyState):
    """Reference ranging round of one node built from the scalar energy
    and channel operations: each controller's exchange in order (gate,
    link, reception debit, transmission debit), ending at the first
    failure.  Returns (failure code, state)."""
    harvester = config.harvester
    rx_cost = config.radio.energy_rx_pulse_pj
    tx_cost = config.radio.energy_tx_pulse_pj
    for distance in distances:
        if not state.operational:
            return CODE_NODE_DEPLETED, state
        if not received_power(config.channel, distance).received:
            return CODE_LINK_INFEASIBLE, state
        if not oracles.can_afford(state, rx_cost):
            return CODE_NODE_DEPLETED, state
        state = oracles.consume(state, rx_cost, harvester)
        if not oracles.can_afford(state, tx_cost):
            # The inbound pulse was received but the reply cannot be sent;
            # the reception energy stays spent.
            return CODE_NODE_DEPLETED, state
        state = oracles.consume(state, tx_cost, harvester)
    return SUCCESS, state


def _scalar_replay(config: SimConfig, iterations: int):
    """Reference implementation of the iteration loop built from the
    scalar module operations, consuming the same random layout.  It draws
    every period's noise and bits whether or not they are consumed, and
    returns each period's codes, energies and range estimates of the
    successful rounds, then the final operational flags."""
    topology = build_topology(config)
    n = topology.node_count
    positions = topology.node_true_positions
    d = config.edge_length_m
    e0 = (config.harvester.max_storage_pj
          if config.initial_energy_pj is None else config.initial_energy_pj)
    states = [oracles.EnergyState(float(e0),
                                  e0 >= config.harvester.effective_turn_on_pj)
              for _ in range(n)]
    controllers = topology.anchors.positions
    sigma = raw_resolution(config.channel.bandwidth_hz)
    code_log = []
    energy_log = []
    measured_log = []
    for t in range(iterations):
        rng = substream(config.rng_seed, 1, t)
        if config.mobility_resample:
            # Every period redraws the nodes uniformly in the (d, d, d/2) box.
            positions = rng.uniform([0.0, 0.0, 0.0], [d, d, d / 2.0],
                                    size=(n, 3))
        noise = rng.standard_normal((n, 4))
        bits = rng.integers(0, 2, size=(n, config.radio.packet_bits))
        codes = np.zeros(n, dtype=np.int8)
        measured = []
        for i in range(n):
            node = positions[i]
            distances = np.linalg.norm(node - controllers, axis=-1)
            codes[i], states[i] = _node_round(distances, config, states[i])
            if codes[i] == SUCCESS:
                measured.append(distances + sigma * noise[i])
            # Operational packet from the nearest controller.
            cost = float(bits[i].sum()) * config.radio.energy_rx_pulse_pj
            if (oracles.can_afford(states[i], cost)
                    and received_power(config.channel, min(distances)).received):
                states[i] = oracles.consume(states[i], cost, config.harvester)
            states[i] = oracles.harvest(states[i], config.update_period_s,
                                        config.harvester)
        code_log.append(codes)
        energy_log.append(np.array([s.energy_pj for s in states]))
        measured_log.append(np.array(measured).reshape(-1, 4))
    return (code_log, energy_log, measured_log,
            [s.operational for s in states])


_MIXED_LINKS = dict(
    spacing_m=3e-3,
    channel=dataclasses.replace(SimConfig().channel,
                                receiver_sensitivity_dbm=-68.0),
    initial_energy_pj=30.0)


class TestEngineMatchesScalarOperations:
    @pytest.mark.parametrize("overrides", [
        # Abundant energy, everything succeeds.
        dict(),
        # Boundary energy: exercises threshold flips and partial debits.
        dict(initial_energy_pj=20.0),
        # Mixed link feasibility plus depletion: nodes with a feasible link
        # after an infeasible one.
        _MIXED_LINKS,
        # A low turn-off level keeps a node on after a reception-only
        # debit, so its round must stop there.
        dict(harvester=dataclasses.replace(SimConfig().harvester,
                                           turn_off_threshold_pj=0.01),
             initial_energy_pj=1.05),
        # Mixed links with the nodes moving: each period's links must follow
        # the new positions.
        dict(_MIXED_LINKS, mobility_resample=True),
    ])
    def test_trajectories_match(self, monkeypatch, overrides):
        config = small_config(grid_rows=4, grid_cols=3, iterations=25,
                              rng_seed=11, **overrides)
        (expected_code, expected_energy, expected_measured,
         expected_op) = _scalar_replay(config, config.iterations)

        harvests = count_harvests(monkeypatch)
        world = initial_world(config)
        for t in range(config.iterations):
            result = run_iteration(world, config, t)
            assert np.array_equal(result.failure_code, expected_code[t]), f"iter {t}"
            assert np.array_equal(result.success, expected_code[t] == SUCCESS)
            assert np.array_equal(result.measured, expected_measured[t]), \
                f"iter {t}"
            np.testing.assert_allclose(world.energy_pj, expected_energy[t],
                                       atol=1e-9)
        assert [bool(v) for v in world.operational] == expected_op
        # The boundary-energy case drains within its 25 periods and then
        # replays recurring draw-free periods, so the scalar reference
        # covers the replay path too.
        if overrides == dict(initial_energy_pj=20.0):
            assert len(harvests) < config.iterations

    def test_mixed_links_case_has_a_link_after_a_gap(self):
        config = small_config(grid_rows=4, grid_cols=3, rng_seed=11,
                              **_MIXED_LINKS)
        topology = build_topology(config)
        feasible = np.array([
            [received_power(config.channel,
                            float(np.linalg.norm(node - c))).received
             for c in topology.anchors.positions]
            for node in topology.node_true_positions])
        # A feasible link at some controller after an infeasible one (6 of
        # the 8 nodes at seed 11).
        gap_then_link = [any(not feasible[i, a] and feasible[i, b]
                             for a in range(4) for b in range(a + 1, 4))
                         for i in range(topology.node_count)]
        assert sum(gap_then_link) >= 1

    def test_estimates_match_trilaterate(self):
        # The engine's batched solve must agree with per-node trilateration
        # on the same measurements.
        config = small_config(grid_rows=3, grid_cols=3, iterations=1,
                              rng_seed=19)
        topology = build_topology(config)
        rng = substream(config.rng_seed, 1, 0)
        noise = rng.standard_normal((topology.node_count, 4))

        report = run_simulation(config)
        assert report.successes == topology.node_count

        sigma = 2.99792458e8 / config.channel.bandwidth_hz
        anchors = topology.anchors
        for i in range(topology.node_count):
            truth = topology.node_true_positions[i]
            distances = np.linalg.norm(
                truth[None, :] - topology.anchors.positions, axis=1)
            measured = distances + sigma * noise[i]
            est = trilaterate(anchors, np.maximum(measured, 0.0))
            expected_error = float(np.linalg.norm(est - truth))
            assert report.error_samples_m[i] == pytest.approx(expected_error,
                                                              abs=1e-12)


_HARVEST_2PC = dataclasses.replace(SimConfig().harvester,
                                   charge_per_cycle_pc=2.0)


def _drained_world(config: SimConfig) -> WorldState:
    """A world run through config.iterations periods: a drained one ends in
    a recurring draw-free state that its memo holds."""
    world = initial_world(config)
    for t in range(config.iterations):
        run_iteration(world, config, t)
    return world


class TestDrawFreeReplay:
    """Every draw-free period is memoized by its start state, whatever came
    before it; a period that starts in a memoized state under the same
    topology and config objects is replayed from the memo instead of
    simulated."""

    @pytest.mark.parametrize("overrides", [
        dict(initial_energy_pj=10.0),
        dict(harvester=_HARVEST_2PC),
        # At the default 6 pC a node whose first link is infeasible never
        # pays for ranging, stays on and pays its packet every period, so
        # every period draws.  At 2 pC every node of this placement drains,
        # 8 of its 32 links are infeasible and 5 of its 8 nodes have a
        # feasible link after an infeasible one.
        dict(_MIXED_LINKS, harvester=_HARVEST_2PC, grid_rows=4, grid_cols=3,
             rng_seed=31),
    ], ids=["drained", "charge_2pc", "mixed_links_2pc"])
    def test_replay_equals_simulation(self, monkeypatch, overrides):
        config = small_config(iterations=300, **overrides)
        replaying = initial_world(config)
        simulated = initial_world(config)
        harvests = count_harvests(monkeypatch)
        replayed = 0
        for t in range(config.iterations):
            before = len(harvests)
            got = run_iteration(replaying, config, t)
            replayed += len(harvests) == before
            simulated.draw_free.clear()
            want = run_iteration(simulated, config, t)
            assert np.array_equal(got.failure_code, want.failure_code), t
            assert np.array_equal(got.success, want.success), t
            assert np.array_equal(got.measured, want.measured), t
            assert np.array_equal(replaying.energy_pj, simulated.energy_pj), t
            assert np.array_equal(replaying.operational,
                                  simulated.operational), t
        assert replayed >= 1

    @pytest.mark.parametrize("change", ["topology", "config"])
    def test_no_replay_across_objects(self, monkeypatch, change):
        config = small_config(initial_energy_pj=10.0)
        world = _drained_world(config)
        # Sanity: with the same objects the next period is a replay.  The
        # copy shares the memo, and a replay leaves the memo as it is.
        harvests = count_harvests(monkeypatch)
        twin = dataclasses.replace(world, energy_pj=world.energy_pj.copy(),
                                   operational=world.operational.copy())
        run_iteration(twin, config, config.iterations)
        assert harvests == []

        if change == "topology":
            # Equal links, another object.
            world.topology = dataclasses.replace(world.topology)
        else:
            # A longer period harvests more than the recorded one did.
            config = dataclasses.replace(config, update_period_s=0.2)
        fresh = WorldState(world.topology, world.energy_pj.copy(),
                           world.operational.copy())
        got = run_iteration(world, config, config.iterations)
        assert len(harvests) == 1
        want = run_iteration(fresh, config, config.iterations)
        assert np.array_equal(got.failure_code, want.failure_code)
        assert np.array_equal(world.energy_pj, fresh.energy_pj)
        assert np.array_equal(world.operational, fresh.operational)

    def test_config_is_frozen(self):
        # The memo tells configs apart by identity, so a config must not
        # change after a period was memoized under it.
        config = small_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.update_period_s = 1.0

    def test_replay_survives_a_drawing_period(self, monkeypatch):
        config = small_config(initial_energy_pj=10.0)
        world = _drained_world(config)
        drained = world.energy_pj.copy(), world.operational.copy()
        harvests = count_harvests(monkeypatch)
        # From full storage the period ranges, so it draws.
        world.energy_pj[:] = config.harvester.max_storage_pj
        world.operational[:] = True
        assert run_iteration(world, config, config.iterations).success.any()
        assert len(harvests) == 1
        # Back in the drained state, the memoized period is replayed.
        world.energy_pj[:], world.operational[:] = drained
        run_iteration(world, config, config.iterations + 1)
        assert len(harvests) == 1

    def test_record_stays_within_its_cap(self):
        # 621 nodes with a 200 pJ turn-on level: long draw-free stretches
        # whose states never recur.
        config = SimConfig(harvester=dataclasses.replace(
            SimConfig().harvester, turn_on_threshold_pj=200.0))
        world = initial_world(config)
        sizes = []
        for t in range(config.iterations):
            run_iteration(world, config, t)
            sizes.append(len(world.draw_free))
        assert max(sizes) == _DRAW_FREE_CAP

    def test_replayed_result_is_read_only(self, monkeypatch):
        config = small_config(initial_energy_pj=10.0)
        world = _drained_world(config)
        harvests = count_harvests(monkeypatch)
        result = run_iteration(world, config, config.iterations)
        assert harvests == []
        for array in (result.success, result.failure_code, result.measured):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        # The end state was copied into the world's own arrays.
        world.energy_pj[0] = 1.0
        world.operational[0] = False


def _per_iteration_errors(config: SimConfig) -> np.ndarray:
    """Reference error samples: each period's successful rows solved by
    their own trilaterate_batch call, right after the period."""
    world = initial_world(config)
    samples = [np.empty(0)]
    for t in range(config.iterations):
        result = run_iteration(world, config, t)
        if result.success.any():
            estimates = trilaterate_batch(world.topology.anchors,
                                          np.maximum(result.measured, 0.0))
            truth = world.topology.node_true_positions[result.success]
            samples.append(norm(estimates - truth))
    return np.concatenate(samples)


# A square grid whose nodes (all but the four corner controllers) outnumber
# the rows of one trilateration chunk: 91x91 holds 8277 nodes for 8192 rows.
_OVER_CHUNK_SIDE = math.isqrt(_LOCATE_CHUNK_ROWS + 4) + 1


class TestDeferredLocalization:
    @pytest.mark.parametrize("overrides", [
        # Every period alone is longer than one chunk.
        dict(grid_rows=_OVER_CHUNK_SIDE, grid_cols=_OVER_CHUNK_SIDE,
             iterations=3),
        # Moving nodes; the periods' rows span several chunks.
        dict(grid_rows=12, grid_cols=12, iterations=120,
             mobility_resample=True),
    ])
    def test_errors_equal_per_iteration_solves(self, overrides):
        config = SimConfig(rng_seed=13, **overrides)
        expected = _per_iteration_errors(config)
        assert expected.size > 2 * _LOCATE_CHUNK_ROWS
        report = run_simulation(config)
        assert np.array_equal(report.error_samples_m, expected)

    def test_chunks_hold_the_row_cap(self, monkeypatch):
        calls = []

        def recording(anchors, distances):
            calls.append(len(distances))
            return trilaterate_batch(anchors, distances)

        monkeypatch.setattr(sim, "trilaterate_batch", recording)
        # Every period alone reaches the cap: calls of 8277, 8277 and 8277
        # rows.  Then 140 rows a period, so the backlog reaches the cap in
        # its 59th period: calls of 8260, 8260 and 280 rows.
        for overrides in (dict(grid_rows=_OVER_CHUNK_SIDE,
                               grid_cols=_OVER_CHUNK_SIDE, iterations=3),
                          dict(grid_rows=12, grid_cols=12, iterations=120,
                               mobility_resample=True)):
            config = SimConfig(rng_seed=13, **overrides)
            calls.clear()
            report = run_simulation(config)
            # Every node localizes every period, so the backlog grows by n
            # rows a period and is solved whole once it holds the cap's.
            n = config.grid_rows * config.grid_cols - 4
            assert report.successes == report.attempts
            periods = -(-_LOCATE_CHUNK_ROWS // n)
            full, last = divmod(config.iterations, periods)
            assert calls == [periods * n] * full + ([last * n] if last else [])
            assert all(_LOCATE_CHUNK_ROWS <= rows < _LOCATE_CHUNK_ROWS + n
                       for rows in calls[:-1])


class TestRunMemory:
    @pytest.mark.parametrize("mobile, side, points", [
        (False, 100, 1), (True, 100, 1), (False, 50, 4), (True, 50, 4)],
        ids=["static", "mobile", "batch_static", "batch_mobile"])
    def test_peak_heap_per_node(self, mobile, side, points):
        # 9996 nodes that all localize, so every period's backlog reaches
        # the solve cap.  Less the error slots (8 B per attempt), the peak is
        # a solve or a mobile placement.  Per node, both hold the placement's
        # positions, ranges and link verdicts (24 + 32 + 5 B) and energy and
        # flags (9).  A solve adds the backlog's ranges and true positions
        # (32 + 24) and estimates (24), 150 B, with the solver's window
        # (about 1.1 MB, 113 B per node here).  A placement adds the
        # start-state key (9), the new positions and anchor offsets
        # (24 + 96) and two (n, 4) arrays of the distance norm (64), 263 B.
        # Holding the last period's outcome (1 + 1 + 32), joining the
        # backlog's true positions before the solve, or keeping a second
        # copy of its ranges adds 24 B per node or more.  A batch of four
        # 50 x 50 grids (9984 nodes) counts per node of the batch.
        configs = [SimConfig(grid_rows=side, grid_cols=side, iterations=4,
                             mobility_resample=mobile, rng_seed=seed)
                   for seed in range(points)]
        # A process's first run imports modules (about 0.8 MB) that later
        # runs reuse.
        run_simulation(small_config(mobility_resample=mobile))
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            reports = run_simulations(configs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert all(r.successes == r.attempts for r in reports)
        n = points * configs[0].node_count
        attempts = sum(r.attempts for r in reports)
        assert (peak - 8 * attempts) / n < 275


def _sweep(config: SimConfig, channel_field: str, values, seeds=(0, 1)):
    """The points of a channel sweep: one config per (value, seed), each
    seeded (value index, seed) as cli.run_sweep seeds them."""
    return [dataclasses.replace(
        config, rng_seed=(index, seed),
        channel=dataclasses.replace(config.channel, **{channel_field: value}))
        for index, value in enumerate(values) for seed in seeds]


def _assert_reports_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in dataclasses.fields(sim.TrialReport):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(y, np.ndarray):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            else:
                # repr: equal NaNs, and a Python number stays one.
                assert repr(x) == repr(y), f.name


class TestLockstepBatch:
    """run_simulations advances points that differ only in rng_seed and
    channel in lockstep; every report is bit for bit its point's own run."""

    def test_mobile_sensitivity_cliff(self):
        configs = _sweep(SimConfig(grid_rows=10, grid_cols=10, iterations=30,
                                   mobility_resample=True),
                         "receiver_sensitivity_dbm",
                         (-100.0, -80.0, -75.0, -70.0, -65.0))
        reports = run_simulations(configs)
        _assert_reports_equal(reports, [run_simulation(c) for c in configs])
        # The cliff: every link is feasible at -100 dBm, few at -65 dBm.
        assert reports[0].availability == 1.0
        assert reports[-1].availability < 0.5

    def test_static_bandwidth_drain_replays(self, monkeypatch):
        configs = _sweep(small_config(iterations=300, initial_energy_pj=30.0),
                         "bandwidth_hz", (1e11, 1e12))
        want = [run_simulation(c) for c in configs]
        harvests = count_harvests(monkeypatch)
        reports = run_simulations(configs)
        _assert_reports_equal(reports, want)
        assert all(0 < r.successes < r.attempts for r in reports)
        # The drained batch recurs, and its memo replays.
        assert len(harvests) < 300

    def test_frequency_sweep(self):
        # The default 21.6 mm edge: 10 THz reaches about half the nodes.
        configs = _sweep(SimConfig(grid_rows=10, grid_cols=10, iterations=40,
                                   spacing_m=2.4e-3),
                         "frequency_hz", (1e12, 5e12, 1e13))
        reports = run_simulations(configs)
        _assert_reports_equal(reports, [run_simulation(c) for c in configs])
        assert reports[-1].availability < reports[0].availability

    @pytest.mark.parametrize("name, value", [
        ("grid_rows", 5), ("grid_cols", 5), ("spacing_m", 1e-3),
        ("update_period_s", 0.2), ("iterations", 21),
        ("initial_energy_pj", 50.0), ("mobility_resample", True),
        ("workers", 2),
        ("harvester", _HARVEST_2PC),
        ("radio", dataclasses.replace(SimConfig().radio, packet_bits=4)),
    ])
    def test_other_fields_must_match(self, name, value):
        config = small_config()
        assert getattr(config, name) != value
        with pytest.raises(ValueError, match=f"not in {name}"):
            run_simulations([config, dataclasses.replace(config, rng_seed=4,
                                                         **{name: value})])

    def test_batch_within_caps(self, monkeypatch):
        config = small_config()       # 12 nodes x 20 iterations
        monkeypatch.setattr(sim, "_MAX_NODES", 36)
        assert max_batch(config) == 3
        run_simulations([config] * 3)
        with pytest.raises(ValueError, match="summed nodes"):
            run_simulations([config] * 4)
        monkeypatch.setattr(sim, "_MAX_ATTEMPTS", 480)
        assert max_batch(config) == 2
        with pytest.raises(ValueError, match="summed nodes"):
            run_simulations([config] * 3)
        with pytest.raises(ValueError, match="at least one config"):
            run_simulations([])

    def test_non_finite_error_names_its_point(self):
        configs = _sweep(small_config(grid_rows=3, grid_cols=3, iterations=2),
                         "bandwidth_hz", (1e12, 1e-300), seeds=(0,))
        with np.errstate(all="ignore"), pytest.raises(
                PointError, match="non-finite localization error") as caught:
            run_simulations(configs)
        assert caught.value.point == 1


class TestPacketBitBlocks:
    @pytest.mark.parametrize("budget", [8, 40, 88])
    def test_blocks_keep_the_stream(self, monkeypatch, budget):
        # 12 nodes of 8-bit packets drawn one row, five rows or eleven rows
        # per block (the last two with a short final block) must pay what
        # one (12, 8) draw makes them pay.  Column blocks would not.
        config = small_config(iterations=3)
        whole, blocked = initial_world(config), initial_world(config)
        for t in range(config.iterations):
            expected = run_iteration(whole, config, t)
            with monkeypatch.context() as patch:
                patch.setattr(sim, "PACKET_BIT_BUDGET", budget)
                result = run_iteration(blocked, config, t)
            assert np.array_equal(result.failure_code, expected.failure_code)
            assert np.array_equal(blocked.energy_pj, whole.energy_pj)
            assert np.array_equal(blocked.operational, whole.operational)
        # The packets were paid: energies left full storage unevenly.
        assert np.unique(whole.energy_pj).size > 2


class TestRunSimulation:
    def test_attempt_bound(self):
        # A 3x3 grid has 5 nodes; its iterations may reach the bound.
        most = sim._MAX_ATTEMPTS // 5
        assert small_config(grid_rows=3, grid_cols=3,
                            iterations=most).iterations == most
        for iterations in (most + 1, 10 ** 18):
            with pytest.raises(ValueError, match="iterations must be at most"):
                small_config(grid_rows=3, grid_cols=3, iterations=iterations)
        # An empty grid's periods still run: it counts as one node.
        with pytest.raises(ValueError, match="iterations must be at most"):
            small_config(grid_rows=2, grid_cols=2,
                         iterations=sim._MAX_ATTEMPTS + 1)

    def test_attempt_accounting(self):
        config = small_config(iterations=30)
        report = run_simulation(config)
        assert report.attempts == 12 * 30
        assert 0 <= report.successes <= report.attempts
        assert report.availability == report.successes / report.attempts
        assert len(report.per_iteration_successes) == 30
        assert sum(report.per_iteration_successes) == report.successes
        # Python ints, as the field is typed; numpy scalars would change
        # the report's repr, which the benchmark's result hash reads.
        assert all(type(count) is int
                   for count in report.per_iteration_successes)
        assert report.error_samples_m.size == report.successes

    def test_determinism(self):
        config = small_config(grid_rows=6, grid_cols=5, iterations=40,
                              rng_seed=23)
        first = run_simulation(config)
        second = run_simulation(config)
        assert second.mean_error_m == first.mean_error_m
        assert second.p90_error_m == first.p90_error_m
        assert second.availability == first.availability
        assert second.per_iteration_successes == first.per_iteration_successes
        assert np.array_equal(second.error_samples_m, first.error_samples_m)

    def test_different_seeds_differ(self):
        a = run_simulation(small_config(rng_seed=1))
        b = run_simulation(small_config(rng_seed=2))
        assert a.mean_error_m != b.mean_error_m

    def test_spacing_bound(self):
        # The bound: 4.25 d**2 finite, d the 3x3 grid's edge, 2 spacings.
        bound = math.sqrt(sys.float_info.max / 4.25) / 2.0
        # Every link feasible, so trilateration runs at the largest spacing
        # allowed, and the suite turns any RuntimeWarning into an error.
        config = SimConfig(grid_rows=3, grid_cols=3, iterations=20,
                           spacing_m=bound * (1 - 1e-9),
                           channel=ChannelParams(receiver_sensitivity_dbm=-1e9))
        report = run_simulation(config)
        assert report.successes == report.attempts == 5 * 20
        assert math.isfinite(report.mean_error_m)
        with pytest.raises(ValueError, match="spacing_m"):
            dataclasses.replace(config, spacing_m=bound * (1 + 1e-9))

    def test_empty_grid(self):
        report = run_simulation(SimConfig(grid_rows=2, grid_cols=2,
                                          iterations=5))
        assert report.attempts == 0
        assert np.isnan(report.availability)
        assert np.isnan(report.mean_error_m)

    def test_accuracy_scales_with_raw_resolution(self):
        # Halving the bandwidth should double the mean error, within 15%.
        base = SimConfig(grid_rows=12, grid_cols=12, iterations=120,
                         rng_seed=5)
        full = run_simulation(base)
        half = run_simulation(dataclasses.replace(
            base, channel=dataclasses.replace(base.channel, bandwidth_hz=0.5e12)))
        ratio = half.mean_error_m / full.mean_error_m
        assert 2.0 * 0.85 < ratio < 2.0 * 1.15

    def test_frequency_does_not_change_results_when_links_feasible(self):
        reports = []
        for f in [1e12, 2e12, 5e12]:
            config = SimConfig(grid_rows=8, grid_cols=8, iterations=50,
                               rng_seed=6)
            config = dataclasses.replace(
                config, channel=dataclasses.replace(config.channel,
                                                    frequency_hz=f))
            reports.append(run_simulation(config))
        # All links stay feasible, and frequency enters nothing else, so
        # the runs are identical.
        assert reports[0].mean_error_m == reports[1].mean_error_m
        assert reports[1].mean_error_m == reports[2].mean_error_m
        assert (reports[0].per_iteration_successes
                == reports[2].per_iteration_successes)


class TestNearestRankPercentile:
    def test_small_sample(self):
        values = np.arange(1.0, 11.0)
        assert nearest_rank_percentile(values, 90.0) == 9.0
        assert nearest_rank_percentile(values, 100.0) == 10.0
        assert nearest_rank_percentile(values, 5.0) == 1.0

    def test_single_value(self):
        assert nearest_rank_percentile(np.array([3.5]), 90.0) == 3.5

    def test_empty(self):
        assert np.isnan(nearest_rank_percentile(np.array([]), 90.0))

    @pytest.mark.parametrize("q", [0.0, -10.0, 100.5, math.nan])
    def test_q_outside_range_rejected(self, q):
        with pytest.raises(ValueError, match=r"q must lie in \(0, 100\]"):
            nearest_rank_percentile(np.arange(1.0, 11.0), q)
