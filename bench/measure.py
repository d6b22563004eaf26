"""Statistics and run-environment helpers for the benchmark."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import signal
import statistics
import time
from pathlib import Path
from typing import List, Sequence

MIN_BEYOND = 10  # samples a reported percentile must have above it
NOMINAL_KERNEL_S = 1e-3  # the calibration kernel's time at reference speed
CALIBRATE_EVERY_S = 0.1
_KERNEL_DATA = tuple((i * i) >> 3 & 1 for i in range(3024))
_KERNEL_BLOCKS = frozenset(_KERNEL_DATA[j:j + 14] for j in range(0, 600, 14))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile of the samples.

    Refuses a percentile with fewer than MIN_BEYOND samples above it, so
    that a tail figure always rests on at least that many observations.
    """
    if not 0 < q < 100:
        raise ValueError("need 0 < q < 100")
    n = len(samples)
    rank = math.ceil(q / 100 * n)
    if n - rank < MIN_BEYOND:
        raise ValueError(f"p{q:g} of {n} samples has {max(n - rank, 0)} "
                         f"beyond it, need {MIN_BEYOND}")
    return sorted(samples)[rank - 1]


def second_fastest(times: Sequence[float]) -> float:
    """The time a repeated item counts with.

    One disturbed round cannot make an item slower, and one over-corrected
    calibration (see RefClock) cannot make it faster.
    """
    if len(times) < 3:
        raise ValueError("need at least three rounds")
    return sorted(times)[1]


def calibration_kernel() -> int:
    """Fixed interpreter work of the kinds delcodes does: long-tuple slicing
    with set lookups, weighted checksums, comprehensions and dict stores
    (about 1 ms at 2 GHz)."""
    acc, seen = 0, {}
    for r in range(100):
        block = _KERNEL_DATA[r % 5:r % 5 + 60]
        acc += sum(i * b for i, b in enumerate(block, 1))
        seen[block[:8]] = r
        acc += len([b for b in block if b])
    for r in range(4):
        rotated = _KERNEL_DATA[r:] + _KERNEL_DATA[:r]
        acc += sum(1 for j in range(0, 3000, 14) if rotated[j:j + 14] in _KERNEL_BLOCKS)
    return acc + len(seen)


class RefClock:
    """A clock that reads reference seconds instead of wall seconds.

    On a shared host the speed of the same code drifts by up to 1.8x for
    seconds at a time, which no run length averages away.  A SIGALRM timer
    therefore times `calibration_kernel` every CALIBRATE_EVERY_S wall
    seconds, also in the middle of long calls, and wall time is scaled by
    NOMINAL_KERNEL_S over the kernel's recent time.  A reference second is
    thus the time of a thousand kernel runs at the speed of the moment.
    The time the calibration itself takes is left out.  Call `close` to
    stop the timer; only the main thread may create one.
    """

    def __init__(self):
        self.kernel_s: List[float] = []
        # (reference time, wall time, scale) at the last calibration, swapped
        # as one object so that `now` never sees a half-updated state.
        self._state = (0.0, time.perf_counter(), self._calibrate())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _calibrate(self) -> float:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            calibration_kernel()
            best = min(best, time.perf_counter() - t0)
        self.kernel_s.append(best)
        # The median of the last three calibrations follows a change of
        # speed within 0.2 s but ignores a single disturbed one.
        return NOMINAL_KERNEL_S / statistics.median(self.kernel_s[-3:])

    def _tick(self, signum, frame) -> None:
        ref = self.now()
        scale = self._calibrate()
        self._state = (ref, time.perf_counter(), scale)

    def now(self) -> float:
        ref, wall, scale = self._state
        return ref + (time.perf_counter() - wall) * scale


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_commit(root: Path) -> str:
    """Commit of a git checkout at root, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src: Path) -> str:
    """SHA-256 over the library's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }
