"""Experiment orchestration: topology, per-period node lifecycle, metrics.

A grid of nanonodes with the four grid corners acting as controllers
(anchors).  Node true positions are drawn uniformly in the box
(d, d, d/2) above the controller plane, d being the edge length between
corner controllers.  Each update period every node runs a localization
phase (one two-way exchange per controller, then trilateration), an
operational phase (reception of a control packet), and a harvesting
phase.  Accuracy is the Euclidean localization error; availability is
the fraction of (node, iteration) attempts that produce a position.

The per-iteration engine is vectorized across nodes.  All randomness for
an iteration is pre-generated node-major from a per-iteration substream,
so results are bit-identical regardless of how many worker threads are
used.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from nanoloc.channel import ChannelParams, raw_resolution, received_power_batch
from nanoloc.energy import HarvesterParams, harvest_batch
from nanoloc.locate import AnchorSet, trilaterate_batch
from nanoloc.ranging import RadioParams

# Substream tags under the master seed.
_TOPOLOGY_STREAM = 0
_ITERATION_STREAM = 1

# Failure codes used by the vectorized engine.
SUCCESS = 0
CODE_NODE_DEPLETED = 1
CODE_LINK_INFEASIBLE = 2

Seed = int | tuple[int, ...]


def substream(seed: Seed, *key: int) -> np.random.Generator:
    """Deterministically derived random stream for a simulation component."""
    entropy = seed if isinstance(seed, tuple) else (seed,)
    return np.random.default_rng(np.random.SeedSequence(entropy + key))


def default_harvester() -> HarvesterParams:
    """Default harvester parameterization (air-vibration harvesting)."""
    return HarvesterParams(
        generator_voltage_v=0.42,
        max_storage_pj=800.0,
        charge_per_cycle_pc=6.0,
        cycle_duration_s=0.02,
        turn_off_threshold_pj=10.0,
        turn_on_threshold_pj=0.0,
    )


def default_channel() -> ChannelParams:
    """Default THz link parameterization."""
    return ChannelParams(
        transmit_power_dbm=-20.0,
        frequency_hz=1e12,
        bandwidth_hz=1e12,
        receiver_sensitivity_dbm=-100.0,
    )


def default_radio() -> RadioParams:
    """Default pulse energies and packet size."""
    return RadioParams(
        energy_rx_pulse_pj=0.1,
        energy_tx_pulse_pj=1.0,
        packet_bits=8,
    )


@dataclass
class SimConfig:
    """Complete configuration of one simulation run."""

    harvester: HarvesterParams = field(default_factory=default_harvester)
    channel: ChannelParams = field(default_factory=default_channel)
    radio: RadioParams = field(default_factory=default_radio)
    grid_rows: int = 25
    grid_cols: int = 25
    spacing_m: float = 0.9e-3
    update_period_s: float = 0.1
    iterations: int = 1000
    rng_seed: Seed = 0
    # None starts every node at full storage.
    initial_energy_pj: float | None = None
    mobility_resample: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        if self.grid_rows < 2 or self.grid_cols < 2:
            raise ValueError("grid_rows and grid_cols must be >= 2")
        if not (math.isfinite(self.spacing_m) and self.spacing_m > 0):
            raise ValueError("spacing_m must be strictly positive")
        if not (math.isfinite(self.update_period_s) and self.update_period_s > 0):
            raise ValueError("update_period_s must be strictly positive")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        seed = self.rng_seed if isinstance(self.rng_seed, tuple) else (self.rng_seed,)
        if not all(isinstance(s, int) and s >= 0 for s in seed):
            raise ValueError("rng_seed must be a non-negative integer "
                             "(or tuple of them)")
        if self.initial_energy_pj is not None:
            if not (0.0 <= self.initial_energy_pj
                    <= self.harvester.max_storage_pj):
                raise ValueError("initial_energy_pj must lie in "
                                 "[0, max_storage_pj]")

    @property
    def edge_length_m(self) -> float:
        """Distance d between two corner controllers on the same edge."""
        return (self.grid_cols - 1) * self.spacing_m


def default_config(**overrides) -> SimConfig:
    """SimConfig with all defaults, selected fields overridden."""
    return replace(SimConfig(), **overrides) if overrides else SimConfig()


@dataclass
class Topology:
    """Controller (anchor) corners plus node true positions."""

    grid_rows: int
    grid_cols: int
    spacing_m: float
    controller_positions: np.ndarray      # (4, 3)
    node_true_positions: np.ndarray       # (n, 3)
    _anchor_set: AnchorSet | None = field(default=None, init=False,
                                          repr=False, compare=False)

    @property
    def edge_length_m(self) -> float:
        return (self.grid_cols - 1) * self.spacing_m

    @property
    def node_count(self) -> int:
        return self.node_true_positions.shape[0]

    def anchors(self) -> AnchorSet:
        """The controllers as an AnchorSet, built on first use."""
        if self._anchor_set is None:
            self._anchor_set = AnchorSet(positions=self.controller_positions)
        return self._anchor_set


def build_topology(config: SimConfig) -> Topology:
    """Grid corners as controllers; node positions uniform in the
    (d, d, d/2) box, drawn from the topology substream of the seed."""
    d = config.edge_length_m
    controllers = np.array([
        [0.0, 0.0, 0.0],
        [d, 0.0, 0.0],
        [0.0, d, 0.0],
        [d, d, 0.0],
    ])
    n_nodes = config.grid_rows * config.grid_cols - 4
    rng = substream(config.rng_seed, _TOPOLOGY_STREAM)
    positions = rng.uniform([0.0, 0.0, 0.0], [d, d, d / 2.0], size=(n_nodes, 3))
    return Topology(
        grid_rows=config.grid_rows,
        grid_cols=config.grid_cols,
        spacing_m=config.spacing_m,
        controller_positions=controllers,
        node_true_positions=positions,
    )


@dataclass
class WorldState:
    """Mutable per-node state threaded through the iterations."""

    topology: Topology
    energy_pj: np.ndarray        # (n,) float64
    operational: np.ndarray      # (n,) bool
    iteration: int = 0


def initial_world(config: SimConfig, topology: Topology | None = None) -> WorldState:
    if topology is None:
        topology = build_topology(config)
    e0 = (config.harvester.max_storage_pj
          if config.initial_energy_pj is None else config.initial_energy_pj)
    n = topology.node_count
    energy = np.full(n, float(e0))
    operational = np.full(n, e0 >= config.harvester.effective_turn_on_pj)
    return WorldState(topology=topology, energy_pj=energy,
                      operational=operational)


@dataclass
class IterationResult:
    """Per-node outcome of one update period."""

    success: np.ndarray          # (n,) bool
    failure_code: np.ndarray     # (n,) int8; SUCCESS where success
    error_m: np.ndarray          # (n,) float64; NaN where failed

    @property
    def success_count(self) -> int:
        return int(np.count_nonzero(self.success))


def _node_chunks(n: int, workers: int) -> list[slice]:
    bounds = np.linspace(0, n, min(workers, n) + 1).astype(int)
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def run_iteration(state: WorldState, config: SimConfig,
                  rng: np.random.Generator) -> IterationResult:
    """One update period: localization, operational packet, harvesting.

    Mutates state in place and returns the per-node outcomes.  All random
    draws happen up front: per-node positions (only when mobility
    resampling is on), ranging noise, packet bits.
    """
    topo = state.topology
    n = topo.node_count
    radio = config.radio
    chan = config.channel
    harvester = config.harvester

    if n == 0:
        state.iteration += 1
        return IterationResult(
            success=np.zeros(0, dtype=bool),
            failure_code=np.zeros(0, dtype=np.int8),
            error_m=np.zeros(0),
        )

    if config.mobility_resample:
        d = topo.edge_length_m
        topo.node_true_positions = rng.uniform(
            [0.0, 0.0, 0.0], [d, d, d / 2.0], size=(n, 3))

    noise = rng.standard_normal((n, 4))
    bits = rng.integers(0, 2, size=(n, radio.packet_bits))

    positions = topo.node_true_positions
    controllers = topo.controller_positions
    distances = np.linalg.norm(
        positions[:, None, :] - controllers[None, :, :], axis=2)

    # Link feasibility, computed once per iteration (same budget in both
    # directions of an exchange, so one inbound check covers the round).
    _, feasible = received_power_batch(chan, distances)

    sigma = raw_resolution(chan.bandwidth_hz)
    rx_cost = radio.energy_rx_pulse_pj
    tx_cost = radio.energy_tx_pulse_pj
    t_off = harvester.turn_off_threshold_pj

    energy = state.energy_pj
    operational = state.operational
    success = np.zeros(n, dtype=bool)
    failure_code = np.zeros(n, dtype=np.int8)
    error_m = np.full(n, np.nan)
    anchors = topo.anchors()

    nearest = np.argmin(distances, axis=1)
    feasible_nearest = feasible[np.arange(n), nearest]
    packet_ones = bits.sum(axis=1)

    def process(span: slice) -> None:
        e = energy[span]
        op = operational[span]
        feas = feasible[span]
        dist = distances[span]
        z = noise[span]
        m = e.shape[0]
        code = failure_code[span]

        measured = np.zeros((m, 4))
        active = np.ones(m, dtype=bool)
        for c in range(4):
            # Protocol order per exchange: operational gate, link,
            # reception debit, transmission debit.  The threshold
            # semantics mirror energy.consume / can_afford.
            blocked = active & ~op
            code[blocked] = CODE_NODE_DEPLETED
            active &= op

            blocked = active & ~feas[:, c]
            code[blocked] = CODE_LINK_INFEASIBLE
            active &= feas[:, c]

            blocked = active & (e < rx_cost)
            code[blocked] = CODE_NODE_DEPLETED
            active &= e >= rx_cost
            e[active] -= rx_cost
            op[active & (e < t_off)] = False

            blocked = active & (~op | (e < tx_cost))
            code[blocked] = CODE_NODE_DEPLETED
            active &= op & (e >= tx_cost)
            e[active] -= tx_cost
            op[active & (e < t_off)] = False

            # One noise draw per successful exchange, consumed in order: a
            # node still active here succeeded at all c earlier exchanges.
            measured[active, c] = dist[active, c] + sigma * z[active, c]

        success[span] = active
        if np.any(active):
            estimates = trilaterate_batch(
                anchors, np.maximum(measured[active], 0.0))
            truth = positions[span][active]
            error_m[span][active] = np.linalg.norm(estimates - truth, axis=1)

        # Operational phase: reception of one control packet from the
        # nearest controller; silence for '0' bits costs nothing.
        cost = packet_ones[span] * rx_cost
        receiving = op & (e >= cost) & feasible_nearest[span]
        e[receiving] -= cost[receiving]
        op[receiving & (e < t_off)] = False

        # Harvesting phase.
        e_new, op_new = harvest_batch(e, op, config.update_period_s, harvester)
        e[:] = e_new
        op[:] = op_new

    spans = _node_chunks(n, config.workers)
    if len(spans) <= 1:
        process(slice(0, n))
    else:
        with ThreadPoolExecutor(max_workers=len(spans)) as pool:
            list(pool.map(process, spans))

    state.iteration += 1
    return IterationResult(success=success, failure_code=failure_code,
                           error_m=error_m)


def nearest_rank_percentile(values: np.ndarray, q: float) -> float:
    """q-th percentile by the nearest-rank rule on the sorted sample."""
    if not 0 < q <= 100:
        raise ValueError("q must lie in (0, 100]")
    data = np.sort(np.asarray(values, dtype=np.float64))
    if data.size == 0:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * data.size))
    return float(data[rank - 1])


@dataclass
class TrialReport:
    """Aggregated accuracy and availability of one simulation run."""

    mean_error_m: float
    p90_error_m: float
    availability: float
    attempts: int
    successes: int
    per_iteration_successes: tuple[int, ...]
    error_samples_m: np.ndarray


def run_simulation(config: SimConfig) -> TrialReport:
    """Run the configured number of iterations over one fixed topology.

    Every (node, iteration) pair counts as one localization attempt,
    including nodes that are off.
    """
    topology = build_topology(config)
    world = initial_world(config, topology)
    n = topology.node_count

    per_iteration: list[int] = []
    samples: list[np.ndarray] = []
    for t in range(config.iterations):
        rng = substream(config.rng_seed, _ITERATION_STREAM, t)
        result = run_iteration(world, config, rng)
        per_iteration.append(result.success_count)
        if result.success_count:
            samples.append(result.error_m[result.success])

    errors = (np.concatenate(samples) if samples else np.empty(0))
    successes = int(sum(per_iteration))
    attempts = n * config.iterations
    return TrialReport(
        mean_error_m=float(errors.mean()) if errors.size else float("nan"),
        p90_error_m=(nearest_rank_percentile(errors, 90.0)
                     if errors.size else float("nan")),
        availability=(successes / attempts) if attempts else float("nan"),
        attempts=attempts,
        successes=successes,
        per_iteration_successes=tuple(per_iteration),
        error_samples_m=errors,
    )
