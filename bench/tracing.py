"""Span tracing of delcodes layers from outside the library.

`Tracer` aggregates nested spans per layer name: call count, busy time
(sum of span durations) and self time (busy time minus the time covered
by wrapped child spans).  Spans are folded into these totals as they
close instead of being kept: an exhaustive VT audit opens about a million
of them, and holding each would dominate the traced run's memory.

`installed` replaces a library function by a timing wrapper at every
name a delcodes module binds it to (``far`` calls ``correct_deletion``
through its own import of it, ``verify`` calls ``far.far_decode`` through
the module), and restores the originals on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Optional

PACKAGE = "delcodes"


class LayerMissing(RuntimeError):
    """A layer named for tracing no longer exists in the library."""


class Tracer:
    """Per-layer calls, busy time and self time of nested spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: Counter = Counter()
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counters: Counter = Counter()
        self._stack: List[list] = []  # [name, start, time covered by children]

    def start(self, name: str, call: bool = True) -> None:
        if call:
            self.calls[name] += 1
        self._stack.append([name, self.clock(), 0.0])

    def stop(self) -> None:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.busy[name] += duration
        self.self_time[name] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """Timing wrapper; `observe(counters, args, kwargs, result)` runs
        after each call, with result None when the call raised."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = None
            self.start(name)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.stop()
                if observe is not None:
                    observe(self.counters, args, kwargs, result)
        return wrapper

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        # A generator does its work while it is iterated, so each resume is
        # a span of the layer; only the call itself counts as a call.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                self.start(name, call=False)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.stop()
                yield item
        return wrapper


def _package_modules() -> List[object]:
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]


@contextlib.contextmanager
def installed(tracer: Tracer, layers: Iterable[str],
              observers: Optional[Dict[str, Callable]] = None) -> Iterator[None]:
    """Wrap each layer ("module.function" under the package) while active.

    Raises LayerMissing when a layer's function does not exist, so that a
    rename cannot silently drop a layer from the trace.
    """
    observers = observers or {}
    patched = []
    try:
        for layer in layers:
            module_name, _, func_name = layer.rpartition(".")
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            original = getattr(module, func_name, None)
            if not callable(original):
                raise LayerMissing(f"{PACKAGE}.{layer} does not exist")
            wrapper = tracer.wrap(layer, original, observers.get(layer))
            for mod in _package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
        yield
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)
