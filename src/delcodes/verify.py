"""Ground-truth verification: combinatorial audits, decoder round trips,
and a seeded Monte Carlo simulator.

The combinatorial check uses the defining property of a correcting code
directly: no two distinct codewords, corrupted by any patterns in the
family, may collide on the same received word.  Received words are
keyed by their bytes (symbols 0, 1 and ERASURE = 2), so differing lengths
or erasure positions make them distinct.

Round trips and Monte Carlo runs use every usable CPU once their work
(items x cases per item x n, the symbols decoded) reaches SPLIT_WORK per
part: forked children run the tail of the item range and pipe back their
totals, and the parent runs the head and merges the parts in item order,
so the report is byte-identical to a run in one process.  No option
selects this.  The combinatorial audit stays in one process, because its
first-owner index spans every codeword.
"""

from __future__ import annotations

import functools
import os
import random
import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import far, rep, vt
from .errors import DecodeFailure, check_budget, check_index
from .patterns import (ErrorPattern, PatternFamily, apply_pattern,
                       enumerate_family, family_size, sample_pattern)
from .words import Word, parse_codeword, word_to_str

_MASK64 = (1 << 64) - 1


def mix64(seed: int, i: int) -> int:
    """SplitMix64-style mixing of (seed, counter) into a 64-bit value."""
    z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class _Code:
    """What every adapter shares: its codewords, walked by index, and its
    description, which make_code records."""

    def codewords(self) -> Iterable[Word]:
        return map(self.codeword, range(self.codeword_count))

    def describe(self) -> dict:
        """The code as make_code was asked for it: kind and parameters."""
        return dict(self.description)


class VtCodeAdapter(_Code):
    """VT_a(n); the codebook is enumerated on first use, so decoding a
    single word costs no enumeration, and its size comes from the class
    sizes, so a verify refused by its budget lists no codeword."""

    def __init__(self, n: int, a: int):
        self.params = vt.VtParams(n, a)

    @functools.cached_property
    def _codewords(self) -> List[Word]:
        return vt.vt_enumerate(self.params)

    @functools.cached_property
    def codeword_count(self) -> int:
        vt.check_enumeration_budget(self.params.n)
        return vt.vt_class_sizes(self.params.n)[self.params.a]

    def codeword(self, index: int) -> Word:
        check_index(index, self.codeword_count)
        return self._codewords[index]

    def decode(self, received: Word) -> Tuple[Word, bool]:
        return vt.correct_single(self.params, received)

    def decode_diagnostics(self, received: Word) -> Tuple[Word, dict]:
        estimate, ambiguous = vt.correct_single(self.params, received)
        return estimate, {"ambiguous": ambiguous}


class RepCodeAdapter(_Code):
    def __init__(self, n: int, t: int):
        self.params = rep.RepParams(n, t)

    @property
    def codeword_count(self) -> int:
        return 2 ** self.params.m

    def codeword(self, index: int) -> Word:
        check_index(index, self.codeword_count)
        m = self.params.m
        info = tuple((index >> (m - 1 - i)) & 1 for i in range(m))
        return rep.rep_encode(self.params, info)

    def encode(self, info: str) -> Tuple[Word, dict]:
        """Encode an info word given as text; returns (codeword, its config)."""
        word = parse_codeword(info)
        return rep.rep_encode(self.params, word), {"info": word_to_str(word)}

    def decode(self, received: Word) -> Tuple[Word, bool]:
        info, tied = rep.rep_decode(self.params, received)
        return rep.rep_encode(self.params, info), tied

    def decode_diagnostics(self, received: Word) -> Tuple[Word, dict]:
        """The decoded info word (not the codeword) and the tie flag."""
        info, tied = rep.rep_decode(self.params, received)
        return info, {"majorityTie": tied}


class BurstCodeAdapter(RepCodeAdapter):
    """The repetition code that rep.burst_params sizes for spread <= b."""

    def __init__(self, n: int, b: int):
        self.params = rep.burst_params(n, b)


class FarCodeAdapter(_Code):
    def __init__(self, n: int, P: int):
        self.params = far.far_params(n, P)

    @property
    def codeword_count(self) -> int:
        return self.params.codeword_count

    def codeword(self, index: int) -> Word:
        return far.far_codeword(self.params, index)

    def encode(self, info: str) -> Tuple[Word, dict]:
        """Encode comma-separated block indices; returns (codeword, config)."""
        indices = [int(part) for part in info.split(",")]
        return far.far_encode(self.params, indices), {"indices": indices}

    def decode(self, received: Word) -> Tuple[Word, bool]:
        estimate, info = far.far_decode(self.params, received)
        return estimate, info.ambiguous_flips > 0

    def decode_diagnostics(self, received: Word) -> Tuple[Word, dict]:
        estimate, info = far.far_decode(self.params, received)
        return estimate, {"iterations": info.iterations,
                          "ambiguousFlips": info.ambiguous_flips}


# Each adapter's constructor arguments are the parameters its kind needs;
# the CLI reads them from the signature.  Adapters call the library through
# its modules (far.far_decode), so wrappers set on module attributes apply.
CODES = {
    "vt": VtCodeAdapter,
    "rep": RepCodeAdapter,
    "burst": BurstCodeAdapter,
    "far": FarCodeAdapter,
}


def make_code(kind: str, **params):
    """Build the adapter of a code kind from its named parameters, which its
    describe() reports as given; a length n over the budget is refused
    before sizes such as 2^m are computed."""
    if kind not in CODES:
        raise ValueError(f"unknown code kind {kind!r}")
    n = params.get("n", 0)
    check_budget(n, lambda: f"the {n} symbols of a codeword")
    code = CODES[kind](**params)
    code.description = {"code": kind, **params}
    return code


@dataclass
class VerifyReport:
    mode: str  # combinatorial | roundtrip | montecarlo
    codebook_size: int
    result: str  # pass | fail
    family_size: Optional[int] = None
    trial_count: Optional[int] = None
    cases: Optional[int] = None
    failures: int = 0
    ambiguity_count: int = 0
    seed: Optional[int] = None
    counterexample: Optional[dict] = None
    counterexamples: List[dict] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.result == "pass"

    def add_failure(self, witness: Callable[[], dict]) -> None:
        """Count a failure; `witness()` builds its witness only while
        fewer than ten are kept, so later failures cost no JSON."""
        self.result = "fail"
        self.failures += 1
        if len(self.counterexamples) < 10:
            self.counterexamples.append(witness())
            self.counterexample = self.counterexamples[0]

    def to_json_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "codebookSize": self.codebook_size,
            "result": self.result,
            "failures": self.failures,
            "ambiguityCount": self.ambiguity_count,
            "config": self.config,
        }
        if self.family_size is not None:
            out["familySize"] = self.family_size
        if self.trial_count is not None:
            out["trialCount"] = self.trial_count
        if self.cases is not None:
            out["cases"] = self.cases
        if self.seed is not None:
            out["seed"] = self.seed
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.counterexamples:
            out["counterexamples"] = self.counterexamples
        return out


def _collision_witness(x1: Word, g1: ErrorPattern,
                       x2: Word, g2: ErrorPattern, received: Word) -> dict:
    return {
        "x1": word_to_str(x1), "g1": g1.to_json_dict(),
        "x2": word_to_str(x2), "g2": g2.to_json_dict(),
        "received": word_to_str(received),
    }


def check_verify_budget(codeword_count: int, family: PatternFamily) -> int:
    """Refuse to verify codeword_count words under every pattern of the
    family beyond the budget; returns the family size."""
    fam_size = family_size(family)
    check_budget(codeword_count * fam_size,
                 lambda: f"{codeword_count} x {fam_size} evaluations")
    return fam_size


def _first_pattern(x: Word, patterns: Sequence[ErrorPattern],
                   received: Word) -> ErrorPattern:
    """The first pattern, in family order, that corrupts x into received."""
    return next(h for h in patterns if apply_pattern(x, h) == received)


def verify_combinatorial(codebook: Sequence[Word],
                         family: PatternFamily) -> VerifyReport:
    """Check that corrupted-output sets are disjoint across codewords.

    The index maps each received word's bytes to the index of the first
    codeword that produced it, about 70 bytes a case (exact, as
    `apply_pattern` refuses 1.0).  The pattern that produced it is found
    again only for a kept witness."""
    fam_size = check_verify_budget(len(codebook), family)
    patterns = list(enumerate_family(family))
    seen: Dict[bytes, int] = {}
    owner = seen.setdefault
    report = VerifyReport(
        mode="combinatorial", codebook_size=len(codebook),
        family_size=fam_size, result="pass",
        config={"family": family.describe()})
    for ci, x in enumerate(codebook):
        for g in patterns:
            received = apply_pattern(x, g)
            prior = owner(bytes(received), ci)
            if prior != ci:
                x1 = codebook[prior]
                report.add_failure(lambda: _collision_witness(
                    x1, _first_pattern(x1, patterns, received), x, g, received))
    return report


def _roundtrip_case(report: VerifyReport, code, x: Word, g: ErrorPattern,
                    trial: Optional[int] = None) -> None:
    """Decode x corrupted by g into the report; a wrong estimate or a
    decode failure counts as a failure (simulate's witnesses name the
    trial)."""
    estimate, error = None, None
    try:
        estimate, flagged = code.decode(apply_pattern(x, g))
        report.ambiguity_count += int(flagged)
    except DecodeFailure as exc:
        error = str(exc)
    if estimate == x:
        return

    def witness() -> dict:
        out = {"x": word_to_str(x), "g": g.to_json_dict(), "estimate": None}
        if estimate is not None:
            out["estimate"] = word_to_str(estimate)
        if error is not None:
            out["error"] = error
        if trial is not None:
            out["trial"] = trial
        return out
    report.add_failure(witness)


# Symbols decoded that each process must get for a split to pay.  On a
# 2-CPU x86-64 host with CPython 3.11, a fork and reap took 3.5-8.6 ms
# (median 4.3-5.2 ms) at 61-69 MB RSS, and 2^20 symbols took 0.16 s of
# far(3024,14) simulate, 0.47 s of VT_0(16) round trip and 1.3 s of
# far(60,6) simulate: one fork costs at most about 3% of the work it
# moves.  A 20-trial simulate of far(60,6) (1,200 symbols) stays in one
# process; the VT_0(16) round trip under at most one error (3.0M) splits.
SPLIT_WORK = 2 ** 20


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_items(report: VerifyReport, run, count: int, work: int) -> VerifyReport:
    """Run items 0..count-1 into report by `run(report, start, stop)`.

    With work // SPLIT_WORK >= 2, more than one usable CPU and more than
    one item, and where a fork is safe (os.fork exists and no other thread
    runs), the items are split into one contiguous range per CPU; see
    _split.  Otherwise they run here, in order.
    """
    parts = min(_usable_cpus(), count, work // SPLIT_WORK)
    if parts >= 2 and hasattr(os, "fork") and threading.active_count() == 1:
        _split(report, run, count, parts)
    else:
        run(report, 0, count)
    return report


def _split(report: VerifyReport, run, count: int, parts: int) -> None:
    """Run the head range here and each tail range in a forked child.

    Item 0 runs before the forks, so the lazy state every item reads (a VT
    codebook, a family's pattern weights, a far code's tables) is built
    once.  The parent reads each pipe to EOF before reaping its child; it
    kills and reaps every child before any exception, an interrupt
    included, leaves.  The earliest range's exception is raised, as a run
    in one process would raise it.
    """
    import pickle
    import signal
    bounds = [count * k // parts for k in range(parts + 1)]
    blank = replace(report, counterexamples=[])
    run(report, 0, 1)
    children: Dict[int, int] = {}  # pid -> read end of its pipe
    outcomes = []
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _child(run, blank, start, stop, write_fd)
            except BaseException:
                os.close(read_fd)
                raise
            finally:
                os.close(write_fd)
            children[pid] = read_fd
        run(report, 1, bounds[1])
        for pid in list(children):
            with open(children[pid], "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            os.close(children.pop(pid))
            outcomes.append((pid, data, status))
    finally:
        for pid, read_fd in children.items():
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for pid, data, status in outcomes:
        if status != 0:
            raise ChildProcessError(
                f"verification process {pid} ended with wait status {status}")
        error, totals = pickle.loads(data)
        if error is not None:
            raise error
        _merge(report, *totals)


def _child(run, part: VerifyReport, start: int, stop: int, write_fd: int) -> None:
    """In a forked child: run items start..stop-1 into part, write its
    totals or its exception to the pipe and exit.  Never returns, so a
    child cannot unwind into the caller's stack."""
    import pickle
    status = 1
    try:
        try:
            run(part, start, stop)
            result = (None, (part.cases, part.failures, part.ambiguity_count,
                             part.counterexamples))
        except Exception as exc:
            result = (exc, None)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(result))
        status = 0
    finally:
        os._exit(status)


def _merge(report: VerifyReport, cases: Optional[int], failures: int,
           ambiguity_count: int, witnesses: List[dict]) -> None:
    """Add a later range's totals and first witnesses to the report."""
    if cases is not None:
        report.cases += cases
    report.ambiguity_count += ambiguity_count
    for witness in witnesses:
        report.add_failure(lambda: witness)
    report.failures += failures - len(witnesses)


def verify_roundtrip(code, family: PatternFamily) -> VerifyReport:
    """Decode every (codeword, pattern) corruption and compare exactly.

    Codewords are walked by index, so above SPLIT_WORK symbols the index
    range is split over the usable CPUs (see _run_items), with the same
    report as one process gives.
    """
    count = code.codeword_count
    fam_size = check_verify_budget(count, family)
    patterns = list(enumerate_family(family))
    report = VerifyReport(
        mode="roundtrip", codebook_size=count,
        family_size=fam_size, result="pass", cases=0,
        config={"family": family.describe(), **code.describe()})

    def run(part: VerifyReport, start: int, stop: int) -> None:
        for i in range(start, stop):
            x = code.codeword(i)
            for g in patterns:
                part.cases += 1
                _roundtrip_case(part, code, x, g)
    return _run_items(report, run, count, count * fam_size * family.n)


def simulate(code, family: PatternFamily, trials: int,
             seed: int) -> VerifyReport:
    """Monte Carlo round trips with one generator per trial.

    Trial i draws its codeword index, then its pattern, from one
    random.Random(mix64(seed, i)), so the report is byte-identical for a
    given seed and trial count, and a run of k trials reports the same
    witnesses as a longer run restricted to trials below k.  Because trial
    i depends on (seed, i) alone, above SPLIT_WORK symbols the trials are
    split over the usable CPUs (see _run_items) with the same report.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    count = code.codeword_count
    report = VerifyReport(
        mode="montecarlo", codebook_size=count,
        trial_count=trials, seed=seed, result="pass",
        config={"family": family.describe(), **code.describe()})

    def run(part: VerifyReport, start: int, stop: int) -> None:
        for i in range(start, stop):
            rng = random.Random(mix64(seed, i))
            x = code.codeword(rng.randrange(count))
            _roundtrip_case(part, code, x, sample_pattern(family, rng), trial=i)
    return _run_items(report, run, trials, trials * family.n)
