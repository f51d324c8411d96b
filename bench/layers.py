"""Outside-in layer tracing for the nanoloc benchmark.

A traced execution replaces selected module attributes of ``nanoloc.sim``
and ``nanoloc.cli`` with timing wrappers for its duration; nothing inside
the package changes.  Each call becomes a span (name, start, end, parent,
info) kept in memory.  A hook whose attribute no longer exists is skipped,
so its layer reports zero calls instead of failing.

Per-layer metrics are derived from the spans: a layer's self time is its
span durations minus the durations of its direct child spans.  The first
arguments seen at the kernel hooks are kept so that the same kernels can
be timed again in isolation on realistic inputs.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable

import numpy as np

# (module, attribute) pairs wrapped during a traced execution.  The span
# name is "<last module component>.<attribute>".
HOOKS = (
    ("nanoloc.sim", "run_iteration"),
    ("nanoloc.sim", "trilaterate_batch"),
    ("nanoloc.sim", "harvest_batch"),
    ("nanoloc.sim", "substream"),
    ("nanoloc.sim", "build_topology"),
    ("nanoloc.sim", "initial_world"),
    ("nanoloc.sim", "nearest_rank_percentile"),
    ("nanoloc.cli", "run_simulation"),
    ("nanoloc.cli", "load_config"),
    ("nanoloc.cli", "load_sweep"),
    ("nanoloc.cli", "apply_swept_parameter"),
    ("nanoloc.cli", "emit_results"),
)

# Per-layer metrics that are counts: they must repeat exactly between
# traced executions of one workload and seed.
COUNT_METRICS = (
    "locate.calls", "locate.rows", "sim.iterations", "energy.harvest_calls",
    "cli.points", "ranging.success", "ranging.fail_depleted",
    "ranging.fail_link", "ranging.drain_iteration",
)

UNITS = {
    "locate.calls": "count", "locate.rows": "count", "locate.s": "s",
    "locate.us_per_row": "us/row", "sim.iteration_self_s": "s",
    "sim.iteration_ms_p50": "ms", "sim.iteration_ms_p99": "ms",
    "sim.iterations": "count", "energy.harvest_calls": "count",
    "energy.harvest_s": "s", "sim.substream_s": "s", "sim.topology_s": "s",
    "sim.percentile_s": "s", "sim.run_self_s": "s", "cli.points": "count",
    "cli.overhead_s": "s", "ranging.success": "count",
    "ranging.fail_depleted": "count", "ranging.fail_link": "count",
    "ranging.success_frac": "ratio", "ranging.drain_iteration": "iteration",
    "proc.cpu_per_wall": "ratio", "trace.overhead_frac": "ratio",
    "locate.refined_us_per_row_iso": "us/row",
    "locate.linear_us_per_row_iso": "us/row", "energy.harvest_us_iso": "us",
    "sim.substream_us_iso": "us", "sim.percentile_us_iso": "us",
}

_NAME, _START, _END, _PARENT, _INFO = range(5)


def _copy(value: Any) -> Any:
    return value.copy() if isinstance(value, np.ndarray) else value


class Tracer:
    """In-memory span recorder for one traced execution."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.first_args: dict[str, tuple] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), 0.0, parent, None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[_END] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            if name not in self.first_args:
                self.first_args[name] = tuple(_copy(a) for a in args)
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                record[_INFO] = _span_info(name, args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every hook that exists; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr in HOOKS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
                setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def span_records(self) -> list[dict[str, Any]]:
        """Spans as JSON-ready records, times relative to the first span."""
        t0 = self.spans[0][_START] if self.spans else 0.0
        return [{"name": s[_NAME], "start_s": s[_START] - t0,
                 "end_s": s[_END] - t0, "parent": s[_PARENT],
                 "info": s[_INFO]} for s in self.spans]


def _span_info(name: str, args: tuple, result: Any) -> Any:
    if name == "sim.trilaterate_batch":
        return len(args[1])
    if name == "sim.run_iteration":
        from nanoloc import sim
        codes = result.failure_code
        return (int(np.count_nonzero(result.success)),
                int(np.count_nonzero(codes == sim.CODE_NODE_DEPLETED)),
                int(np.count_nonzero(codes == sim.CODE_LINK_INFEASIBLE)))
    return None


def _nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    data = sorted(values)
    return data[max(1, math.ceil(q / 100.0 * len(data))) - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times of one traced execution."""
    spans = tracer.spans
    duration = [s[_END] - s[_START] for s in spans]
    children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[_PARENT] >= 0:
            children[s[_PARENT]] += duration[i]
    calls: Counter[str] = Counter()
    total: defaultdict[str, float] = defaultdict(float)
    own: defaultdict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        calls[s[_NAME]] += 1
        total[s[_NAME]] += duration[i]
        own[s[_NAME]] += duration[i] - children[i]

    # A call that raised has no info and is left out of the counts.
    rows = sum(s[_INFO] or 0 for s in spans if s[_NAME] == "sim.trilaterate_batch")
    iterations = [i for i, s in enumerate(spans)
                  if s[_NAME] == "sim.run_iteration" and s[_INFO] is not None]
    outcomes = np.array([spans[i][_INFO] for i in iterations],
                        dtype=np.int64).reshape(-1, 3)
    # Successes per iteration, grouped by the simulation that ran them.
    per_run: defaultdict[int, list[int]] = defaultdict(list)
    for i in iterations:
        per_run[spans[i][_PARENT]].append(spans[i][_INFO][0])
    drain = max((max((t + 1 for t, ok in enumerate(series) if ok), default=0)
                 for series in per_run.values()), default=0)
    iteration_ms = [duration[i] * 1e3 for i in iterations]
    attempts = int(outcomes.sum())

    return {
        "locate.calls": calls["sim.trilaterate_batch"],
        "locate.rows": rows,
        "locate.s": total["sim.trilaterate_batch"],
        "locate.us_per_row": (total["sim.trilaterate_batch"] / rows * 1e6
                              if rows else 0.0),
        "sim.iteration_self_s": own["sim.run_iteration"],
        "sim.iteration_ms_p50": _nearest_rank(iteration_ms, 50.0),
        "sim.iteration_ms_p99": _nearest_rank(iteration_ms, 99.0),
        "sim.iterations": len(iterations),
        "energy.harvest_calls": calls["sim.harvest_batch"],
        "energy.harvest_s": total["sim.harvest_batch"],
        "sim.substream_s": total["sim.substream"],
        "sim.topology_s": own["sim.build_topology"] + own["sim.initial_world"],
        "sim.percentile_s": total["sim.nearest_rank_percentile"],
        "sim.run_self_s": own["sim.run_simulation"] + own["cli.run_simulation"],
        "cli.points": calls["cli.run_simulation"],
        "cli.overhead_s": total["cli.main"] - total["cli.run_simulation"],
        "ranging.success": int(outcomes[:, 0].sum()),
        "ranging.fail_depleted": int(outcomes[:, 1].sum()),
        "ranging.fail_link": int(outcomes[:, 2].sum()),
        "ranging.success_frac": (outcomes[:, 0].sum() / attempts
                                 if attempts else 0.0),
        "ranging.drain_iteration": drain,
    }


# Kernels timed alone: (metric, module, attribute, hook whose first
# arguments are reused, keyword arguments, report per distance row).
ISOLATED = (
    ("locate.refined_us_per_row_iso", "nanoloc.locate", "trilaterate_batch",
     "sim.trilaterate_batch", {"refine": True}, True),
    ("locate.linear_us_per_row_iso", "nanoloc.locate", "trilaterate_batch",
     "sim.trilaterate_batch", {"refine": False}, True),
    ("energy.harvest_us_iso", "nanoloc.energy", "harvest_batch",
     "sim.harvest_batch", {}, False),
    ("sim.substream_us_iso", "nanoloc.sim", "substream",
     "sim.substream", {}, False),
    ("sim.percentile_us_iso", "nanoloc.sim", "nearest_rank_percentile",
     "sim.nearest_rank_percentile", {}, False),
)


def _us_per_call(fn: Callable[[], Any], budget_s: float = 0.25) -> float:
    """Median per-call time in microseconds over batches of about 10 ms."""
    start = time.perf_counter()
    fn()
    calls = max(1, int(0.01 / max(time.perf_counter() - start, 1e-7)))
    batches = []
    start = time.perf_counter()
    while len(batches) < 5 or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        batches.append((time.perf_counter() - t0) / calls)
    return statistics.median(batches) * 1e6


def isolated_timings(first_args: dict[str, tuple]) -> dict[str, float]:
    """Time each kernel alone on the first arguments a traced run gave it.

    A kernel the traced run never called (or that no longer exists)
    reports 0.
    """
    out = {}
    for metric, module, attr, hook, kwargs, per_row in ISOLATED:
        kernel = getattr(importlib.import_module(module), attr, None)
        args = first_args.get(hook)
        if kernel is None or args is None:
            out[metric] = 0.0
            continue
        us = _us_per_call(lambda: kernel(*args, **kwargs))
        out[metric] = us / len(args[1]) if per_row else us
    return out
