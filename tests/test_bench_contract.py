"""Bench contract: the package names that bench/layers.py reaches.

The benchmark's layer tracer skips a hook whose attribute is gone, so a
renamed engine function would only make its layer report zero calls, and
a removed keyword of an isolated kernel would fail only in a traced bench
run.  These checks fail at once instead.  bench/layers.py is imported
from its file and not modified.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_exists(layers):
    missing = [f"{module}.{attr}" for module, attr in layers.HOOKS
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert not missing


def test_isolated_kernels_bind_their_kwargs(layers):
    for metric, module, attr, hook, kwargs, _ in layers.ISOLATED:
        kernel = getattr(importlib.import_module(module), attr, None)
        assert callable(kernel), metric
        inspect.signature(kernel).bind_partial(**kwargs)
        hook_module, hook_attr = hook.split(".")
        assert (f"nanoloc.{hook_module}", hook_attr) in layers.HOOKS, metric


def test_span_info_codes_exist():
    from nanoloc import sim
    assert isinstance(sim.CODE_NODE_DEPLETED, int)
    assert isinstance(sim.CODE_LINK_INFEASIBLE, int)
