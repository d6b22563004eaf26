"""The benchmark traces library functions by name: every per-layer
`*.calls` metric in BENCHMARK.json must name a function of delcodes, so
that a rename or deletion fails here, not only in a traced bench run."""

import importlib
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_every_traced_layer_is_a_library_function():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    layers = [name[:-len(".calls")] for name in names if name.endswith(".calls")]
    assert len(layers) >= 10
    for layer in layers:
        module, function = layer.split(".")
        target = getattr(importlib.import_module(f"delcodes.{module}"),
                         function, None)
        assert callable(target), f"delcodes.{layer} is not a function"
