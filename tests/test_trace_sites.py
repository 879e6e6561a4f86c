"""The benchmark's trace table still fits the package.

``bench/tracer.py`` wraps each layer where its caller looks it up, and
``Tracer.install`` raises LookupError when a call site has moved; these
tests find a moved site without a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look a class's module up here
    spec.loader.exec_module(module)
    return module


tracer = _bench_module("tracer")
workloads = _bench_module("workloads")


@pytest.mark.parametrize("layer", sorted(tracer.LAYERS))
def test_every_call_site_of_a_layer_is_a_callable(layer):
    sites, _ = tracer.LAYERS[layer]
    for module_name, attr in sites:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_traced_layer_of_a_workload_is_a_layer(workload):
    traced = workloads.WORKLOADS[workload].traced_layers
    assert [name for name in traced if name not in tracer.LAYERS] == []
