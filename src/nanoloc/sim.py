"""Experiment orchestration: topology, per-period node lifecycle, metrics.

A grid of nanonodes with the four grid corners acting as controllers
(anchors).  Node true positions are drawn uniformly in the box
(d, d, d/2) above the controller plane, d being the edge length between
corner controllers.  Each update period every node runs a localization
phase (one two-way exchange per controller), an operational phase
(reception of a control packet), and a harvesting phase.  Accuracy is the
error of the position trilaterated from a round's ranges; availability is
the fraction of (node, iteration) attempts that produce a position.

The engine runs a batch of points in lockstep: run_simulations takes
configs that differ only in POINT_FIELDS (rng_seed and channel), so every
point has the same grid, anchors, energy model and period count, and a
batch's summed nodes and attempts stay within _MAX_NODES and
_MAX_ATTEMPTS (max_batch).  One run is a batch of one: run_simulation is
run_simulations([config])[0].  The batch's per-node arrays are
point-major, one block of n rows per point, and each period is one
run_iteration call over all of them: its ranging round is
ranging.measure_batch, every pulse is paid via energy.spend_batch, and
harvest_batch charges every node at once.  Only the successful rounds get
range estimates (ranging.range_estimates).  An estimate feeds nothing
back, and the points share their anchors, so run_simulations defers
trilateration: it solves the batch's backlog of successful rows whole, in
one call, once it holds _LOCATE_CHUNK_ROWS (8192) rows and after the last
period, so a call holds fewer than 8192 + n rows for n nodes in the
batch, and writes each point's errors to that point's own slots in row
order.  A row's estimate does not depend on the other rows of its call,
so each point's report is bit for bit the one its own run gives.
A Topology's links are computed once per placement: a static run keeps
build_topology's, mobility resampling places the nodes anew each period.
Each point of an iteration draws node-major from its own substream, in a
fixed order (positions, ranging noise, packet bits) and only when a draw
is consumed: a point with nothing to draw in a period creates no
substream.  A skipped draw is never followed by a consumed one in the
same substream, so a point's results are a pure function of its config.
A period in which no point draws is then a function of the batch's start
state (energy and operational flags), topology and configs, whatever came
before it.  The state lives on the charging curve's lattice and so recurs
once a static network has drained: run_iteration memoizes every
draw-free period by its start state and replays a memoized one instead
of simulating it again, with the same outcome and end state.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from nanoloc.channel import ChannelParams, received_power
from nanoloc.energy import (HarvesterParams, harvest_batch, may_pay,
                            spend_batch)
from nanoloc.locate import AnchorSet, norm, trilaterate_batch
# The CODE_* values of IterationResult.failure_code are re-exported here.
from nanoloc.ranging import (CODE_LINK_INFEASIBLE, CODE_NODE_DEPLETED,
                             PACKET_BIT_BUDGET, SUCCESS, RadioParams,
                             measure_batch, range_estimates)

# Substream tags under the master seed.
_TOPOLOGY_STREAM = 0
_ITERATION_STREAM = 1

# Backlog rows that start a solve; a call holds fewer than this plus the
# batch's node count (a seed-0 default run: 28 calls, the largest of 8694
# rows).
_LOCATE_CHUNK_ROWS = 8192

# Draw-free periods one WorldState memoizes; bounds the memo's memory.  A
# drained static run recurs within 12 draw-free periods (criterion 4 at
# 2 pC); a longer draw-free stretch that never recurs fills and clears the
# memo without replaying.
_DRAW_FREE_CAP = 32

# Nodes one run, or one batch of them all told, may place.  Less its error
# samples, a run peaks at a solve or a mobile placement: the placement's
# positions, ranges and link verdicts (61 B per node) with energy and flags
# (9 B), then the backlog's ranges, true positions and estimates (80 B) with
# the solver's window (about 1.1 MB), or the start-state key and a new
# placement (193 B).  Static runs alone memoize: up to _DRAW_FREE_CAP
# draw-free periods add about 20 B each.  Per node, that is 215-265 B on
# 100 x 100 and 200 x 200 grids and on a batch of four 50 x 50 grids
# (tracemalloc, TestRunMemory in tests/test_sim.py); 2**18 nodes stay under
# 210 MB, a full memo included.
_MAX_NODES = 2 ** 18

# Localization attempts (nodes x iterations) one run, or one batch of them
# all told, may make; the error samples (8 B reserved per attempt, resident
# only as they fill) and the per-iteration series grow with them.  The
# longest shipped run makes 2.48 million.
_MAX_ATTEMPTS = 10 ** 8

# The SimConfig fields in which the points of one batch may differ.
POINT_FIELDS = ("rng_seed", "channel")

Seed = int | tuple[int, ...]


def substream(seed: Seed, *key: int) -> np.random.Generator:
    """Deterministically derived random stream for a simulation component."""
    entropy = seed if isinstance(seed, tuple) else (seed,)
    return np.random.default_rng(np.random.SeedSequence(entropy + key))


@dataclass(frozen=True)
class SimConfig:
    """Complete configuration of one simulation run; SimConfig() is the
    default setup.  Frozen like its parameter types, as run_iteration's
    memo tells configs apart by identity."""

    harvester: HarvesterParams = field(default_factory=HarvesterParams)
    channel: ChannelParams = field(default_factory=ChannelParams)
    radio: RadioParams = field(default_factory=RadioParams)
    grid_rows: int = 25
    grid_cols: int = 25
    spacing_m: float = 0.9e-3
    update_period_s: float = 0.1
    iterations: int = 1000
    rng_seed: Seed = 0
    # None starts every node at full storage.
    initial_energy_pj: float | None = None
    mobility_resample: bool = False
    # Processes for the points of a sweep (cli.run_sweep); one run is serial.
    workers: int = 1

    def __post_init__(self) -> None:
        if self.grid_rows < 2 or self.grid_cols < 2:
            raise ValueError("grid_rows and grid_cols must be >= 2")
        if self.node_count > _MAX_NODES:
            raise ValueError(f"grid_rows x grid_cols - 4 nodes must be at "
                             f"most {_MAX_NODES}")
        if not (math.isfinite(self.spacing_m) and self.spacing_m > 0):
            raise ValueError("spacing_m must be strictly positive")
        # The largest squared sum trilateration forms: a noiseless squared
        # range (at most 2.25 d**2) plus a squared anchor norm (at most
        # 2 d**2).  No margin for range noise: noise that overflows is
        # caught by run_simulations' non-finite error check.
        d = self.edge_length_m
        if not math.isfinite(4.25 * d * d):
            raise ValueError("spacing_m is too large: squared distances "
                             "across the grid overflow")
        # A placement's shortest nonzero distance exceeds d * 2**-55: its
        # smallest offset from a controller is rng.uniform's height step
        # (d / 2) * 2**-53, and squaring and rooting it lose less than a
        # factor 2.  The spreading argument 4*pi*f*d/c must not underflow
        # to 0 there, or its log10 divides by zero.
        with np.errstate(divide="ignore"):
            shortest = received_power(self.channel, d * 2.0 ** -55)
        if shortest.spreading_loss_db == -math.inf:
            raise ValueError("frequency_hz is too small: 4*pi*f*d/c "
                             "underflows to 0 at the shortest link")
        if not (math.isfinite(self.update_period_s) and self.update_period_s > 0):
            raise ValueError("update_period_s must be strictly positive")
        if not math.isfinite(self.update_period_s
                             / self.harvester.cycle_duration_s):
            raise ValueError("update_period_s must hold a finite number of "
                             "cycle_duration_s harvesting cycles")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        # An empty grid counts as one node: its periods still run.
        if max(1, self.node_count) * self.iterations > _MAX_ATTEMPTS:
            raise ValueError(f"grid_rows x grid_cols - 4 nodes (at least 1) "
                             f"times iterations must be at most "
                             f"{_MAX_ATTEMPTS}")
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
        """Side d = (grid_cols - 1) x spacing_m of the square the four corner
        controllers form; grid_rows sets only the node count."""
        return (self.grid_cols - 1) * self.spacing_m

    @property
    def node_count(self) -> int:
        """Nodes placed: the grid less its four corner controllers."""
        return self.grid_rows * self.grid_cols - 4


def max_batch(config: SimConfig) -> int:
    """Most points a run_simulations batch of config's grid and period
    count may hold, at least 1: their summed nodes and attempts stay within
    _MAX_NODES and _MAX_ATTEMPTS (an empty grid counts as one node)."""
    nodes = max(1, config.node_count)
    return min(_MAX_NODES // nodes, _MAX_ATTEMPTS // (nodes * config.iterations))


def _points(config: SimConfig | Sequence[SimConfig]) -> tuple[SimConfig, ...]:
    """The configs of a batch in point order; one config is a batch of one."""
    return (config,) if isinstance(config, SimConfig) else tuple(config)


@dataclass(frozen=True)
class Topology:
    """One node placement of each point of a batch, point-major, and its
    links to the corner controllers the points share, computed once per
    placement."""

    anchors: AnchorSet                    # the controllers, (4, 3)
    node_true_positions: np.ndarray       # (n, 3)
    distances_m: np.ndarray               # (n, 4)
    feasible: np.ndarray                  # (n, 4) bool
    packet_link: np.ndarray               # (n,) feasible to the nearest

    @property
    def node_count(self) -> int:
        return self.node_true_positions.shape[0]


def _place(configs: tuple[SimConfig, ...], anchors: AnchorSet,
           rngs: Sequence[np.random.Generator]) -> Topology:
    """Each point's node positions drawn from its rng uniformly in the
    (d, d, d/2) box, with their links to the anchors under its channel."""
    d = configs[0].edge_length_m
    n = configs[0].node_count
    positions = np.empty((len(configs) * n, 3))
    for p, rng in enumerate(rngs):
        positions[p * n:(p + 1) * n] = rng.uniform(
            [0.0, 0.0, 0.0], [d, d, d / 2.0], size=(n, 3))
    distances = norm(positions[:, None, :] - anchors.positions)
    feasible = np.empty(distances.shape, dtype=bool)
    for p, config in enumerate(configs):
        feasible[p * n:(p + 1) * n] = received_power(
            config.channel, distances[p * n:(p + 1) * n]).received
    nearest = np.argmin(distances, axis=1)
    return Topology(anchors=anchors, node_true_positions=positions,
                    distances_m=distances, feasible=feasible,
                    packet_link=feasible[np.arange(len(positions)), nearest])


def build_topology(config: SimConfig | Sequence[SimConfig]) -> Topology:
    """Grid corners as controllers; each point's node positions drawn from
    the topology substream of its seed.

    A batch's configs may differ only in POINT_FIELDS, and its summed nodes
    and attempts must stay within max_batch; otherwise ValueError.
    """
    configs = _points(config)
    if not configs:
        raise ValueError("a batch needs at least one config")
    for name in (f.name for f in dataclasses.fields(SimConfig)
                 if f.name not in POINT_FIELDS):
        if any(getattr(c, name) != getattr(configs[0], name) for c in configs):
            raise ValueError(f"the configs of a batch may differ only in "
                             f"{' and '.join(POINT_FIELDS)}, not in {name}")
    if len(configs) > max_batch(configs[0]):
        raise ValueError(f"a batch's summed nodes must be at most "
                         f"{_MAX_NODES} and its attempts at most "
                         f"{_MAX_ATTEMPTS}")
    d = configs[0].edge_length_m
    anchors = AnchorSet(positions=np.array([
        [0.0, 0.0, 0.0],
        [d, 0.0, 0.0],
        [0.0, d, 0.0],
        [d, d, 0.0],
    ]))
    return _place(configs, anchors, [substream(c.rng_seed, _TOPOLOGY_STREAM)
                                     for c in configs])


@dataclass
class WorldState:
    """Mutable per-node state threaded through the iterations."""

    topology: Topology
    energy_pj: np.ndarray        # (n,) float64
    operational: np.ndarray      # (n,) bool
    # Start-state bytes -> (topology, config, result, end energy, end
    # operational) of a period that drew nothing (see run_iteration).
    draw_free: dict[bytes, tuple] = field(default_factory=dict)


def initial_world(config: SimConfig | Sequence[SimConfig]) -> WorldState:
    """A new placement (build_topology) with every node at the configured
    initial energy."""
    topology = build_topology(config)
    first = _points(config)[0]
    harvester = first.harvester
    e0 = (harvester.max_storage_pj if first.initial_energy_pj is None
          else first.initial_energy_pj)
    n = topology.node_count
    energy = np.full(n, float(e0))
    operational = np.full(n, e0 >= harvester.effective_turn_on_pj)
    return WorldState(topology=topology, energy_pj=energy,
                      operational=operational)


@dataclass
class IterationResult:
    """Per-node outcome of one update period."""

    success: np.ndarray          # (n,) bool
    failure_code: np.ndarray     # (n,) int8; SUCCESS where success
    measured: np.ndarray         # (successes, 4) ranges, in node order


def run_iteration(state: WorldState, config: SimConfig | Sequence[SimConfig],
                  t: int) -> IterationResult:
    """Update period t of every point of the batch config (one config or
    the initial_world batch's configs, in point order): localization,
    operational packet, harvesting.

    Mutates state in place and returns the per-node outcomes.  A point's
    period substream is created only when the point consumes a draw, and
    its draws keep their order: per-node positions (every period when
    mobility resampling is on), the (n, 4) ranging noise (when one of its
    rounds succeeded or one of its packets is payable), packet bits (when
    one of its packets is payable).  Bits are the last draw, so a skipped
    one moves no value.

    A period that draws nothing is a function of its start state
    (energy_pj, operational), topology and configs, so state.draw_free
    memoizes every such period by its start state, up to _DRAW_FREE_CAP
    of them (a full memo is cleared).  A period whose start state is
    memoized under the same topology and config objects copies the
    memoized end state into the state's arrays and returns the memoized
    result, whose arrays are read-only from the period that stored it on.
    """
    key = state.energy_pj.tobytes() + state.operational.tobytes()
    memo = state.draw_free.get(key)
    if memo is not None and memo[0] is state.topology and memo[1] is config:
        result, state.energy_pj[:], state.operational[:] = memo[2:]
        return result

    configs = _points(config)
    radio = configs[0].radio
    harvester = configs[0].harvester
    rngs: list[np.random.Generator | None] = [None] * len(configs)
    if configs[0].mobility_resample:
        rngs = [substream(c.rng_seed, _ITERATION_STREAM, t) for c in configs]
        state.topology = _place(configs, state.topology.anchors, rngs)
    topo = state.topology
    n = topo.node_count // len(configs)

    energy = state.energy_pj
    operational = state.operational
    failure_code = measure_batch(topo.feasible, energy, operational, radio,
                                 harvester)
    success = failure_code == SUCCESS
    # A node off after ranging pays nothing, whatever its packet's bits.
    payable = may_pay(operational, topo.packet_link).reshape(
        len(configs), n).any(axis=1)
    ranged = success.reshape(len(configs), n).any(axis=1)
    measured, cost = [], None
    for p in np.flatnonzero(payable | ranged).tolist():
        block = slice(p * n, (p + 1) * n)
        if rngs[p] is None:
            rngs[p] = substream(configs[p].rng_seed, _ITERATION_STREAM, t)
        rng = rngs[p]
        noise = rng.standard_normal((n, 4))
        ok = success[block]
        measured.append(range_estimates(topo.distances_m[block][ok], noise[ok],
                                        configs[p].channel))
        if payable[p]:
            # Operational phase: reception of one control packet from the
            # nearest controller; silence for '0' bits costs nothing.  Row
            # blocks of at most PACKET_BIT_BUDGET bits keep the stream of
            # one (n, packet_bits) draw.
            rows = PACKET_BIT_BUDGET // radio.packet_bits
            ones = np.concatenate([
                rng.integers(0, 2, size=(min(rows, n - start),
                                         radio.packet_bits)).sum(axis=1)
                for start in range(0, n, rows)])
            if cost is None:
                cost = np.zeros(topo.node_count)
            cost[block] = ones * radio.energy_rx_pulse_pj
    if cost is not None:
        spend_batch(energy, operational, cost, topo.packet_link, harvester)

    # Harvesting phase.
    harvest_batch(energy, operational, configs[0].update_period_s, harvester)

    result = IterationResult(
        success=success, failure_code=failure_code,
        measured=np.concatenate(measured or [np.empty((0, 4))]))
    if all(rng is None for rng in rngs):
        if len(state.draw_free) == _DRAW_FREE_CAP:
            state.draw_free.clear()
        end_energy, end_operational = energy.copy(), operational.copy()
        for array in (success, failure_code, result.measured, end_energy,
                      end_operational):
            array.flags.writeable = False
        state.draw_free[key] = (topo, config, result, end_energy,
                                end_operational)
    return result


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


class PointError(ValueError):
    """A run_simulations failure of one point, the batch's point-th."""

    def __init__(self, message: str, point: int) -> None:
        super().__init__(message)
        self.point = point


def run_simulation(config: SimConfig) -> TrialReport:
    """Run the configured number of iterations over one fixed topology: a
    batch of one (run_simulations)."""
    return run_simulations((config,))[0]


def run_simulations(configs: Sequence[SimConfig]) -> list[TrialReport]:
    """Run a batch of points in lockstep; one TrialReport per config, in
    order, each the one the point's own run gives.

    The configs may differ only in POINT_FIELDS, and their summed nodes and
    attempts must stay within max_batch (ValueError otherwise).  Every
    (node, iteration) pair counts as one localization attempt, including
    nodes that are off.  A non-finite localization error raises PointError
    naming the point.
    """
    configs = tuple(configs)
    world = initial_world(configs)
    # Mobility moves the nodes, never the controllers or the node count.
    anchors = world.topology.anchors
    batch, iterations = len(configs), configs[0].iterations
    n = world.topology.node_count // batch

    attempts = n * iterations
    # Successes per (period, point).
    per_iteration = np.zeros((iterations, batch), dtype=np.int64)
    # One slot per attempt, as an attempt yields at most one error sample:
    # only the pages the samples fill become resident, and each report
    # keeps a view of its point's row, so the samples are never joined or
    # copied.
    errors = np.empty((batch, attempts))
    solved = [0] * batch                     # per point, successes solved
    measured, truth, counts, pending = [], [], [], 0  # rows not solved yet
    for t in range(iterations):
        result = run_iteration(world, configs, t)
        if result.success.any():
            count = per_iteration[t]
            np.sum(result.success.reshape(batch, n), axis=1, out=count)
            measured.append(result.measured)
            # Boolean indexing copies: a later placement cannot move it.
            truth.append(world.topology.node_true_positions[result.success])
            counts.append(count)
            pending += int(count.sum())
        del result      # its ranges die with the backlog, at the solve
        last = t == iterations - 1
        if pending >= _LOCATE_CHUNK_ROWS or (last and pending):
            rows, measured = np.concatenate(measured), []
            # Range noise that overflows the solve is caught just below.
            with np.errstate(over="ignore", invalid="ignore"):
                estimates = trilaterate_batch(anchors, rows)
                del rows
                estimates -= np.concatenate(truth)
                lengths = norm(estimates)
            del estimates
            # The backlog is period-major, each period point-major: a
            # stable sort by point puts each point's rows together, in
            # row order, for its next slots.
            cells = np.array(counts)
            owner = np.repeat(np.tile(np.arange(batch), len(cells)),
                              cells.ravel())
            lengths = lengths[np.argsort(owner, kind="stable")]
            start = 0
            for p, count in enumerate(cells.sum(axis=0).tolist()):
                mine = lengths[start:start + count]
                errors[p, solved[p]:solved[p] + count] = mine
                start, solved[p] = start + count, solved[p] + count
                if not np.all(np.isfinite(mine)):
                    raise PointError("non-finite localization error: "
                                     "c/B range noise overflows", p)
            del lengths, mine
            truth, counts, pending = [], [], 0

    reports = []
    for p, successes in enumerate(solved):
        samples = errors[p, :successes]
        reports.append(TrialReport(
            mean_error_m=(float(samples.mean()) if successes
                          else float("nan")),
            p90_error_m=nearest_rank_percentile(samples, 90.0),
            availability=(successes / attempts) if attempts else float("nan"),
            attempts=attempts,
            successes=successes,
            per_iteration_successes=tuple(per_iteration[:, p].tolist()),
            error_samples_m=samples,
        ))
    return reports
