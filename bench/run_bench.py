"""End-to-end benchmark of the nanoloc simulator.

Run from the repository root:

    python3 bench/run_bench.py --workload default_run --seed 0 --seconds 58 --trace 0

One process, one client, closed loop: the workload's entry point
(``nanoloc.sim.run_simulation`` or ``nanoloc.cli.main``) is called again
only after the previous call returned, with ``workers=1``, until
``--seconds`` have passed.  The workload inputs are generated from
``--seed`` and handed to the program as config files; the program is
imported from ``src/`` of this checkout.

Every execution is checked: its result hash must match the other
executions of the run and, at the reference seed, the hash recorded in
``bench/reference.json``; the result must satisfy the model invariants.
The untimed criterion-10 determinism sweep runs once per invocation and
is checked the same way.

With ``--trace 0`` the end-to-end metrics are measured with tracing off.
With ``--trace 1`` untraced and traced executions alternate and the
per-layer metrics come from the traced ones (see ``bench/layers.py`` and
``bench/METRICS.md``).  Human-readable lines go first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A report with the
environment record (and, when traced, the spans) is written under
``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_SEED = 0

# TrialReport fields covered by the result hash of a run workload.
REPORT_FIELDS = ("mean_error_m", "p90_error_m", "availability", "attempts",
                 "successes", "per_iteration_successes", "error_samples_m")
CSV_HEADER = ["parameter_name", "parameter_value", "seed", "mean_error_m",
              "p90_error_m", "availability", "attempts", "successes"]


@dataclass(frozen=True)
class Workload:
    """Config keys (besides rng_seed) and, for a sweep, the sweep spec."""

    config: dict[str, Any]
    sweep: dict[str, Any] | None = None


WORKLOADS = {
    "default_run": Workload(config={}),
    "drained_long": Workload(
        config={"initial_energy_pj": 10.0, "iterations": 4000}),
    "sweep_small": Workload(
        config={"grid_rows": 10, "grid_cols": 10, "iterations": 100,
                "mobility_resample": True},
        sweep={"parameter": "sensitivity_dbm",
               "values": [-100.0, -80.0, -75.0, -70.0], "seeds": [0, 1, 2]}),
}
# Acceptance criterion 10's determinism config, always at rng_seed 3.
DETERMINISM = Workload(
    config={"grid_rows": 10, "grid_cols": 10, "iterations": 100},
    sweep={"parameter": "bandwidth_hz", "values": [1e11, 1e12],
           "seeds": [0, 1]})
DETERMINISM_SEED = 3
# Fewest rounds a run makes, whatever --seconds says (by --trace value).
MIN_ROUNDS = {0: 3, 1: 2}

# Host-speed calibration.  On a shared 2-core VM the host switches between
# a fast and a slow state every few seconds (the kernel below runs about
# 1.5 times as fast in the first), on both cores at once and in wall and
# CPU time alike; over a one-minute run the share of time in each state,
# and with it every time measured, moves by 10-20%.  This fixed kernel,
# owned by the benchmark, is timed between the executions for
# CALIBRATION_SHARE of their time, and the reported times are scaled by
# CALIBRATION_NOMINAL_S over its middle-mean call time in the run: they
# read as on the host in its slow state.  Interleaved with slices of the
# workloads, its log time tracked theirs with slope 0.98-1.0 and
# correlation 0.74-0.85 over 3-second windows.
CALIBRATION_SHARE = 0.1
CALIBRATION_NOMINAL_S = 0.013
_CAL_RNG = np.random.default_rng(20121230)
_CAL_POINTS = _CAL_RNG.random((621, 3))
_CAL_ANCHORS = _CAL_RNG.random((8, 3))


def calibration_call() -> float:
    """Wall time of one call of the calibration kernel: an interpreter
    loop, small-array numpy calls and 621 x 8 distance batches, the three
    kinds of work the workloads are made of.  The batches take about half
    of the time: with less of them the kernel slowed more than the
    workloads when the host slowed."""
    t0 = time.perf_counter()
    totals: dict[int, float] = {}
    for i in range(12000):
        totals[i % 97] = totals.get(i % 97, 0.0) + math.sqrt(i * 0.5)
    for anchor in np.tile(_CAL_ANCHORS, (40, 1)):
        float(np.linalg.norm(_CAL_ANCHORS - anchor, axis=1).sum())
    for _ in range(20):
        dist = np.linalg.norm(_CAL_POINTS[:, None, :] - _CAL_ANCHORS[None],
                              axis=2)
        float(np.sort(dist, axis=1)[:, :4].sum())
    return time.perf_counter() - t0


def calibrate(seconds: float) -> list[float]:
    """Calibration call times for about ``seconds`` (at least one call)."""
    samples = [calibration_call()]
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        samples.append(calibration_call())
    return samples


class ResultError(Exception):
    """A workload result that breaks an invariant."""


@dataclass
class Inputs:
    """Generated input files of one workload and seed, and their sizes."""

    config_path: Path
    sweep_path: Path | None
    out_path: Path
    config: Any                   # nanoloc.sim.SimConfig
    points: int
    node_count: int

    @property
    def node_iterations(self) -> int:
        return self.points * self.node_count * self.config.iterations


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    digest: str | None = None
    model: list[dict[str, float]] = field(default_factory=list)
    error: str | None = None
    layers: dict[str, float] | None = None      # traced executions only


def make_inputs(workload: Workload, seed: int, work_dir: Path,
                tag: str) -> Inputs:
    from nanoloc.cli import load_config

    work_dir.mkdir(parents=True, exist_ok=True)
    config_path = work_dir / f"{tag}_config.json"
    config_path.write_text(json.dumps({**workload.config, "rng_seed": seed}),
                           encoding="utf-8")
    sweep_path = None
    points = 1
    if workload.sweep is not None:
        sweep_path = work_dir / f"{tag}_sweep.json"
        sweep_path.write_text(json.dumps(workload.sweep), encoding="utf-8")
        points = len(workload.sweep["values"]) * len(workload.sweep["seeds"])
    config = load_config(config_path)
    return Inputs(config_path=config_path, sweep_path=sweep_path,
                  out_path=work_dir / f"{tag}_result.csv", config=config,
                  points=points,
                  node_count=config.grid_rows * config.grid_cols - 4)


def report_digest(report: Any) -> str:
    h = hashlib.sha256()
    for name in REPORT_FIELDS:
        value = getattr(report, name)
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            h.update(value.dtype.str.encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ResultError(message)


def _check_row(successes: int, attempts: int, availability: float,
               errors: list[float], inputs: Inputs) -> None:
    expected = inputs.node_count * inputs.config.iterations
    _check(attempts == expected, f"attempts {attempts} != nodes x iterations {expected}")
    _check(0 <= successes <= attempts, f"successes {successes} outside [0, {attempts}]")
    _check(0.0 <= availability <= 1.0, f"availability {availability} outside [0, 1]")
    _check(math.isclose(availability, successes / attempts, rel_tol=1e-12),
           "availability != successes / attempts")
    if successes:
        _check(all(math.isfinite(e) and e >= 0.0 for e in errors),
               "error not finite and >= 0")


def check_report(report: Any, inputs: Inputs) -> list[dict[str, float]]:
    errors = np.asarray(report.error_samples_m, dtype=np.float64)
    _check_row(report.successes, report.attempts, report.availability,
               [report.mean_error_m, report.p90_error_m], inputs)
    _check(errors.size == report.successes, "error sample count != successes")
    _check(bool(np.all(np.isfinite(errors)) and np.all(errors >= 0.0)),
           "error samples not finite and >= 0")
    series = report.per_iteration_successes
    _check(len(series) == inputs.config.iterations
           and sum(series) == report.successes,
           "per-iteration successes do not add up")
    return [{"availability": report.availability,
             "mean_error_mm": report.mean_error_m * 1e3,
             "p90_error_mm": report.p90_error_m * 1e3}]


def check_csv(data: bytes, inputs: Inputs) -> list[dict[str, float]]:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    _check(rows[:1] == [CSV_HEADER], "unexpected CSV header")
    _check(len(rows) - 1 == inputs.points,
           f"{len(rows) - 1} CSV rows, expected {inputs.points}")
    model = []
    for row in rows[1:]:
        value, mean, p90, availability = (float(row[i]) for i in (1, 3, 4, 5))
        _check_row(int(row[7]), int(row[6]), availability, [mean, p90], inputs)
        model.append({"value": value, "seed": int(row[2]),
                      "availability": availability,
                      "mean_error_mm": mean * 1e3, "p90_error_mm": p90 * 1e3})
    return model


def execute(inputs: Inputs, tracer: Any = None) -> Outcome:
    """One call into the workload's entry point, checked and hashed."""
    import nanoloc.cli
    import nanoloc.sim

    sweep = inputs.sweep_path is not None
    root = "cli.main" if sweep else "sim.run_simulation"
    traced = (tracer.installed() if tracer is not None
              else contextlib.nullcontext())
    span = (tracer.span(root) if tracer is not None
            else contextlib.nullcontext())
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with traced, span, contextlib.redirect_stdout(io.StringIO()):
            if sweep:
                result = nanoloc.cli.main([
                    "sweep", "--config", str(inputs.config_path),
                    "--sweep", str(inputs.sweep_path),
                    "--out", str(inputs.out_path)])
            else:
                result = nanoloc.sim.run_simulation(inputs.config)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        outcome = Outcome(wall_s=wall, cpu_s=cpu)
        if sweep:
            _check(result == 0, f"nanoloc.cli.main returned {result}")
            data = inputs.out_path.read_bytes()
            outcome.model = check_csv(data, inputs)
            outcome.digest = hashlib.sha256(data).hexdigest()
        else:
            outcome.model = check_report(result, inputs)
            outcome.digest = report_digest(result)
    except Exception as exc:  # every failure of one execution is counted
        traceback.print_exc(file=sys.stderr)
        return Outcome(wall_s=time.perf_counter() - t0,
                       cpu_s=time.process_time() - c0,
                       error=f"{type(exc).__name__}: {exc}")
    return outcome


def middle_mean(values: list[float]) -> float:
    """Mean of the values left after dropping the lowest and the highest
    quarter.  The shared host switches between a fast and a slow state
    every few seconds; a median of a dozen samples jumps between the two,
    while this moves smoothly with the share of time spent in each and,
    unlike the plain mean, ignores a lone outlier."""
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.fmean(ordered[k:len(ordered) - k])


def setup_code(inputs: Inputs) -> str:
    """Program for a fresh interpreter that times `import nanoloc` plus
    loading the workload's config (and sweep) file and prints the time.

    numpy is imported before the clock starts: its import cost is outside
    the program's control and drifted by more than half between runs on a
    shared host, while the part nanoloc controls stayed steady.
    """
    load_sweep = (f"load_sweep({str(inputs.sweep_path)!r})"
                  if inputs.sweep_path is not None else "")
    code = (f"import sys, time\n"
            f"import numpy\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            f"t0 = time.perf_counter()\n"
            f"import nanoloc\n"
            f"from nanoloc.cli import load_config, load_sweep\n"
            f"load_config({str(inputs.config_path)!r})\n"
            f"{load_sweep}\n"
            f"print(time.perf_counter() - t0)\n")
    return code


def setup_time(code: str) -> float:
    """Run ``setup_code``'s program in a fresh interpreter; its time."""
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment() -> dict[str, Any]:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    return {"cores": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_commit": commit,
            "src_sha256": src.hexdigest(),
            "loadavg_1m": os.getloadavg()[0]}


def show(name: str, value: float, unit: str, detail: str = "") -> None:
    print(f"  {name:34s} {value:16.6f} {unit:8s} {detail}".rstrip())


def gate(plain: list[Outcome], traced: list[Outcome], checked: Outcome,
         reference: dict[str, Any], workload: str, seed: int) -> str | None:
    """Mark every execution whose result is not the expected one.

    All executions of a run must give one result hash: the recorded one at
    the reference seed, otherwise the most common one.  Traced executions
    must also repeat their per-layer counts exactly, and at the reference
    seed give the recorded ranging outcomes.  Returns the expected hash.
    """
    expected = reference["results"][workload] if seed == REFERENCE_SEED else None
    digests = Counter(o.digest for o in plain + traced if o.error is None)
    if expected is None and digests:
        expected = digests.most_common(1)[0][0]
    for outcome in plain + traced:
        if outcome.error is None and outcome.digest != expected:
            outcome.error = "result hash differs from the expected one"
    if checked.error is None and checked.digest != reference["determinism"]:
        checked.error = "determinism hash differs from the reference"

    counts = {k: traced[0].layers[k] for k in layers.COUNT_METRICS} if traced else {}
    if seed == REFERENCE_SEED and counts.get("sim.iterations"):
        counts.update(reference["ranging"][workload])
    for outcome in traced:
        if outcome.error is None and any(outcome.layers[k] != v
                                         for k, v in counts.items()):
            outcome.error = "per-layer counts differ from the expected ones"
    return expected


def per_layer(plain: list[Outcome], traced: list[Outcome],
              first_args: dict[str, tuple]) -> dict[str, float]:
    """Medians of the traced executions' layer times (counts repeat, see
    gate), the process CPU share, the paired tracing overhead and the
    isolated kernel timings."""
    metrics = {key: (traced[0].layers[key] if key in layers.COUNT_METRICS
                     else statistics.median(o.layers[key] for o in traced))
               for key in traced[0].layers}
    metrics["proc.cpu_per_wall"] = (sum(o.cpu_s for o in plain)
                                    / sum(o.wall_s for o in plain))
    # Each traced execution ran right after an untraced one.
    metrics["trace.overhead_frac"] = statistics.median(
        t.wall_s / p.wall_s - 1.0 for p, t in zip(plain, traced))
    metrics.update(layers.isolated_timings(first_args))
    return metrics


def write_spans(tracer: Any, path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for record in tracer.span_records():
            fh.write(json.dumps(record) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "nanoloc" / "__init__.py").is_file():
        print(f"error: no nanoloc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nanoloc
    if Path(nanoloc.__file__).resolve().parent != SRC / "nanoloc":
        print(f"error: imported nanoloc from {nanoloc.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    env = environment()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT_DIR / name
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    inputs = make_inputs(WORKLOADS[args.workload], args.seed, work_dir, "workload")
    determinism = make_inputs(DETERMINISM, DETERMINISM_SEED, work_dir,
                              "determinism")
    print(f"nanoloc benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env))
    print(f"size: {inputs.points} point(s) x {inputs.node_count} nodes x "
          f"{inputs.config.iterations} iterations; closed loop, 1 client, "
          f"workers={inputs.config.workers}")

    # Set-up is timed once per round, between the executions, so that it
    # samples the host over the whole run as wall_s does.  The first,
    # untimed interpreter writes the byte-code caches.
    setup: list[float] = []
    code = setup_code(inputs)
    if not args.trace:
        setup_time(code)
    # Warm-up on a tiny grid so lazy imports and first-call costs are paid
    # before timing.
    execute(make_inputs(Workload(config={**WORKLOADS[args.workload].config,
                                         "grid_rows": 3, "grid_cols": 3,
                                         "iterations": 3},
                                 sweep=WORKLOADS[args.workload].sweep),
                        args.seed, work_dir, "warmup"))

    plain: list[Outcome] = []
    traced: list[Outcome] = []
    first_args: dict[str, tuple] = {}
    start = time.perf_counter()
    calibration = [] if args.trace else calibrate(CALIBRATION_SHARE * 5.0)
    while True:
        plain.append(execute(inputs))
        if args.trace:
            tracer = layers.Tracer()
            traced.append(execute(inputs, tracer))
            traced[-1].layers = layers.layer_metrics(tracer)
            if not first_args:
                first_args = tracer.first_args
                write_spans(tracer, work_dir / "spans.jsonl")
        else:
            setup.append(setup_time(code))
            calibration += calibrate(CALIBRATION_SHARE * plain[-1].wall_s)
        elapsed = time.perf_counter() - start
        rounds = len(plain)
        # Stop before a further round would overrun --seconds.
        if rounds >= MIN_ROUNDS[args.trace] and \
                elapsed * (rounds + 1) / rounds > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked = execute(determinism)

    expected = gate(plain, traced, checked, reference, args.workload,
                    args.seed)
    executions = plain + traced + [checked]
    failed = sum(o.error is not None for o in executions)
    for label, outcomes in (("execution", plain), ("traced execution", traced)):
        for i, outcome in enumerate(outcomes, 1):
            print(f"{label} {i}: wall_s={outcome.wall_s:.4f} "
                  f"sha256={outcome.digest} {outcome.error or 'ok'}")
    print(f"result sha256: {expected} ("
          + ("recorded reference" if args.seed == REFERENCE_SEED
             else "no reference recorded for this seed; most common hash")
          + ")")
    print(f"determinism sha256: {checked.digest} "
          f"{checked.error or 'matches reference'}")
    model = next((o.model for o in plain if o.error is None), [])
    for row in model:
        print("model: " + " ".join(f"{k}={v:.6g}" for k, v in row.items()))

    walls = [o.wall_s for o in plain]
    if args.trace:
        metrics = per_layer(plain, traced, first_args)
        units = {key: layers.UNITS[key] for key in metrics}
        print(f"per-layer metrics ({len(traced)} traced executions):")
        for key, value in metrics.items():
            show(key, value, units[key])
    else:
        q1, median, q3 = statistics.quantiles(walls, n=4)
        speed = CALIBRATION_NOMINAL_S / middle_mean(calibration)
        wall_s = middle_mean(walls) * speed
        metrics = {"wall_s": wall_s,
                   "node_iters_per_s": inputs.node_iterations / wall_s,
                   "setup_s": middle_mean(setup) * speed,
                   "peak_rss_mb": peak_rss_mb}
        units = {"wall_s": "s", "node_iters_per_s": "1/s", "setup_s": "s",
                 "peak_rss_mb": "MB"}
        print(f"end-to-end metrics ({len(walls)} executions, tracing off; "
              f"times scaled by {speed:.4f} to the nominal host speed, from "
              f"{len(calibration)} calibration calls):")
        show("wall_s", wall_s, "s", f"middle mean of {len(walls)}, scaled; "
             f"unscaled {middle_mean(walls):.4f}, median "
             f"{median:.4f}, quartiles {q1:.4f} .. {q3:.4f}")
        show("node_iters_per_s", metrics["node_iters_per_s"], "1/s",
             f"{inputs.node_iterations} node-iterations per execution / wall_s")
        show("setup_s", metrics["setup_s"], "s",
             f"middle mean of {len(setup)} fresh interpreters, scaled; "
             f"unscaled {middle_mean(setup):.4f}")
        show("peak_rss_mb", peak_rss_mb, "MB", "peak resident set of this process")
    show("failed_frac", failed / len(executions), "ratio",
         f"{failed} of {len(executions)} executions failed")

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "walls_s": walls, "setup_s": setup,
              "calibration_s": calibration,
              "traced_walls_s": [o.wall_s for o in traced],
              "result_sha256": expected, "determinism_sha256": checked.digest,
              "errors": [o.error for o in executions if o.error], "model": model,
              "metrics": metrics}
    (work_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n",
                                          encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(executions), "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
