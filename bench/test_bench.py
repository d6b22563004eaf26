"""Tests of the benchmark's own helpers: python3 -m pytest bench"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import measure  # noqa: E402
import tracing  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8].
    tracer = tracing.Tracer(FakeClock([0, 1, 4, 5, 6, 8, 9, 10]))
    tracer.start("a")
    tracer.start("b")
    tracer.stop()
    tracer.start("c")
    tracer.start("d")
    tracer.stop()
    tracer.stop()
    tracer.stop()
    assert tracer.busy == {"a": 10, "b": 3, "c": 4, "d": 2}
    assert tracer.self_time == {"a": 3, "b": 3, "c": 2, "d": 2}


def test_repeated_calls_accumulate():
    # The same layer twice under one parent, and once at top level.
    tracer = tracing.Tracer(FakeClock([0, 1, 2, 3, 5, 6, 10, 11]))
    tracer.start("p")
    for _ in range(2):
        tracer.start("x")
        tracer.stop()
    tracer.stop()
    tracer.start("x")
    tracer.stop()
    assert tracer.calls == {"p": 1, "x": 3}
    assert tracer.busy["x"] == 1 + 2 + 1
    assert tracer.self_time["p"] == 6 - 3


def test_generator_layer_counts_one_call_and_every_resume():
    tracer = tracing.Tracer(FakeClock(range(100)))

    def gen():
        yield 1
        yield 2

    wrapped = tracer.wrap("g", gen)
    assert list(wrapped()) == [1, 2]
    assert tracer.calls["g"] == 1
    assert tracer.busy["g"] == 3  # three resumes of one tick each


def test_installed_wraps_every_binding_and_restores():
    from delcodes import far, verify, vt

    original = vt.vt_enumerate
    tracer = tracing.Tracer()
    with tracing.installed(tracer, ["far.far_params", "vt.vt_enumerate"]):
        assert far.vt_enumerate is vt.vt_enumerate is not original
        verify.make_code("far", n=12, P=3)
    assert far.vt_enumerate is vt.vt_enumerate is original
    assert tracer.calls["far.far_params"] == 1
    assert tracer.calls["vt.vt_enumerate"] > 0  # called through far's binding
    assert 0 < tracer.self_time["far.far_params"] < tracer.busy["far.far_params"]


def test_installed_refuses_a_missing_layer():
    with pytest.raises(tracing.LayerMissing):
        with tracing.installed(tracing.Tracer(), ["far.no_such_function"]):
            pass


def test_percentile_nearest_rank():
    samples = list(range(1, 1001))
    assert measure.percentile(samples, 50) == 500
    assert measure.percentile(samples, 99) == 990
    assert measure.percentile(list(reversed(samples)), 99) == 990


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError):
        measure.percentile(list(range(999)), 99)
    with pytest.raises(ValueError):
        measure.percentile(list(range(19)), 50)
    assert measure.percentile(list(range(20)), 50) == 9


def test_second_fastest_ignores_one_extreme_round_each_way():
    assert measure.second_fastest([5.0, 1.0, 9.0, 2.0, 3.0]) == 2.0
    assert measure.second_fastest([0.1, 4.0, 4.0]) == 4.0
    with pytest.raises(ValueError):
        measure.second_fastest([1.0, 2.0])
