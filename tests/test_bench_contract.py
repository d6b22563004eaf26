"""The benchmark traces library functions by name: every per-layer
`*.calls` metric in BENCHMARK.json must name a function of delcodes, and
every layer a workload expects must still be called by its set-up and
units, so that a rename, a deletion or a cut call edge fails here, not
only in a traced bench run."""

import importlib
import json
import sys
import time
from array import array
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = [m["name"][:-len(".calls")] for m in SPEC["per_layer"]
          if m["name"].endswith(".calls")]


def test_every_traced_layer_is_a_library_function():
    assert len(LAYERS) >= 10
    for layer in LAYERS:
        module, function = layer.split(".")
        target = getattr(importlib.import_module(f"delcodes.{module}"),
                         function, None)
        assert callable(target), f"delcodes.{layer} is not a function"


@pytest.fixture(scope="module")
def bench():
    """The bench's own `tracing` and `workloads` modules, imported from
    bench/ as `bench/run.py` imports them."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        yield importlib.import_module("tracing"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(ROOT / "bench"))


# Sizes that keep one traced pass under a second: a shorter input pool
# (its first words are the full pool's) and VT_0(10) for VT_0(16).  Which
# layers call which does not depend on them.
SMALL = {"mc_desk": {"timed_words": 10}, "decode_paper": {"words": 100},
         "verify_vt": {"n": 10}}


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_expected_layer_is_called(bench, monkeypatch, name):
    # What `bench/run.py --trace 1` checks, in its order: a traced set-up,
    # an untraced unit, then traced units call each expected layer.  The
    # untraced unit sees to it that work cached at first use, and so not
    # done again in the traced units, cannot hide a layer.  The traced
    # pass stops once all have been called, which leaves its verdict
    # unchanged.
    tracing, workloads = bench
    workload = workloads.WORKLOADS[name]
    for key, value in SMALL[name].items():
        monkeypatch.setitem(workload.params, key, value)
    tracer = tracing.Tracer()
    tally = workloads.Tally(clock=time.perf_counter, decode_ms=[array("d")])
    with tracing.installed(tracer, LAYERS, workloads.OBSERVERS):
        state = workload.setup()
    inputs = workload.prepare(state, 1)
    untraced = workloads.Tally(clock=time.perf_counter, decode_ms=[array("d")])
    workload.unit(state, inputs, 0, untraced, True)

    def missing():
        return sorted(layer for layer in workload.expected_layers
                      if tracer.calls[layer] == 0)
    with tracing.installed(tracer, LAYERS, workloads.OBSERVERS):
        for k in range(workload.units(inputs)):
            if not missing():
                break
            workload.unit(state, inputs, k, tally, True)
    assert missing() == []
    assert tally.problems == untraced.problems == 0, tally.messages
