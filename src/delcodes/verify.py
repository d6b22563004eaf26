"""Ground-truth verification: combinatorial audits, decoder round trips,
and a seeded Monte Carlo simulator.

The combinatorial check uses the defining property of a correcting code
directly: no two distinct codewords, corrupted by any patterns in the
family, may collide on the same received word.  Received words are
keyed by their bytes (symbols 0, 1 and ERASURE = 2), so differing lengths
or erasure positions make them distinct.

The audit walks one output class at a time: the deletion count and the
erasure positions in received coordinates, which a pattern fixes and its
received word shows (its length is n minus the deletions, and codewords
hold no erasure).  Words of different classes never collide, so each
class has its own index of first owners, freed before the next, and the
failing cases are those of one index over the whole family.

Audits, round trips and Monte Carlo runs use every usable CPU once their
work (cases x n, the symbols corrupted) reaches SPLIT_WORK per part:
forked children run their share of the items (codeword or trial ranges;
the audit's classes, dealt by size) and send back their part of the
report, and the parent runs its own share, merges the parts and keeps
the ten smallest case keys, so the report is byte-identical to a run in
one process.  No option selects this.
"""

from __future__ import annotations

import bisect
import functools
import os
import random
import threading
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import far, rep, vt
from .errors import DecodeFailure, check_budget, check_index
from .patterns import (ErrorPattern, PatternFamily, apply_pattern,
                       enumerate_family, family_size, sample_pattern)
from .words import Symbols, Word, codeword_bytes, parse_codeword, word_to_str

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
    """VT_a(n), held as its class (`vt.vt_enumerate`), built on first
    use, so decoding a single word builds none; its size comes from the
    class sizes, so a verify refused by its budget builds no class."""

    def __init__(self, n: int, a: int):
        self.params = vt.VtParams(n, a)

    @functools.cached_property
    def words(self) -> Sequence[Word]:
        return vt.vt_enumerate(self.params)

    @functools.cached_property
    def codeword_count(self) -> int:
        return vt.vt_class_sizes(self.params.n)[self.params.a]

    def codewords(self) -> Iterable[Word]:
        return iter(self.words)

    def codeword(self, index: int) -> Word:
        return self.words[index]

    def decode(self, received: Symbols) -> Tuple[Symbols, bool]:
        return vt.correct_single(self.params, received)

    def decode_diagnostics(self, received: Symbols) -> Tuple[Symbols, dict]:
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
        info = bytes((index >> (m - 1 - i)) & 1 for i in range(m))
        return rep.rep_encode(self.params, info)

    def encode(self, info: str) -> Tuple[Word, dict]:
        """Encode an info word given as text; returns (codeword, its config)."""
        word = parse_codeword(info)
        return rep.rep_encode(self.params, word), {"info": word_to_str(word)}

    def decode(self, received: Symbols) -> Tuple[Symbols, bool]:
        info, tied = rep.rep_decode(self.params, received)
        return rep.rep_encode(self.params, info), tied

    def decode_diagnostics(self, received: Symbols) -> Tuple[Symbols, dict]:
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

    def decode(self, received: Symbols) -> Tuple[Symbols, bool]:
        estimate, info = far.far_decode(self.params, received)
        return estimate, info.ambiguous_flips > 0

    def decode_diagnostics(self, received: Symbols) -> Tuple[Symbols, dict]:
        estimate, info = far.far_decode(self.params, received)
        return estimate, _json_fields(info)


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


def _camel(name: str) -> str:
    """The JSON name of a field: trial_count becomes trialCount."""
    head, *rest = name.split("_")
    return head + "".join(map(str.capitalize, rest))


def _json_fields(obj, skip: Sequence[str] = ()) -> dict:
    """The dataclass fields of obj, but those named in skip, that are
    neither None nor an empty list, under their camelCase names."""
    return {_camel(f.name): getattr(obj, f.name) for f in fields(obj)
            if f.name not in skip and getattr(obj, f.name) not in (None, [])}


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
    counterexamples: List[dict] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    # The case key of each kept counterexample, in the same order.
    case_keys: list = field(default_factory=list, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.result == "pass"

    @property
    def counterexample(self) -> Optional[dict]:
        return self.counterexamples[0] if self.counterexamples else None

    def add_failure(self, witness: Callable[[], dict], key=0) -> None:
        """Count the failure of the case with this key (its place in a run
        in one process).  The witnesses of the ten smallest keys are kept,
        equal keys in arrival order; `witness()` is called only when its
        key enters them, so most failures cost no JSON."""
        self.result = "fail"
        self.failures += 1
        at = bisect.bisect(self.case_keys, key)
        if at < 10:
            self.case_keys.insert(at, key)
            self.counterexamples.insert(at, witness())
            del self.case_keys[10:], self.counterexamples[10:]

    def to_json_dict(self) -> dict:
        """The fields but case_keys (see _json_fields), and counterexample.

        Its exact counts may have more than 4300 digits (codebook_size of
        far(30000, 12) has over 6000), which Python 3.11+ refuses to turn
        into text: dump it inside `errors.exact_integers()`, as the CLI
        does."""
        out = _json_fields(self, skip=("case_keys",))
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def check_verify_budget(codeword_count: int, family: PatternFamily) -> int:
    """Refuse to verify codeword_count words under every pattern of the
    family beyond the budget; returns the family size."""
    fam_size = family_size(family)
    check_budget(codeword_count * fam_size,
                 lambda: f"{codeword_count} x {fam_size} evaluations")
    return fam_size


def _output_class(g: ErrorPattern) -> Tuple[int, Tuple[int, ...]]:
    """The deletion count of g and its erasure positions in received
    coordinates (position minus the deletions before it): what the word
    received through g shows of g."""
    deleted, erased = 0, []
    for pos, kind in g.errors:
        if kind == "D":
            deleted += 1
        elif kind == "E":
            erased.append(pos - deleted)
    return deleted, tuple(erased)


def _collision_witness(words: Sequence[bytes], patterns: Sequence[ErrorPattern],
                       key: Tuple[int, int], prior: int) -> dict:
    """The witness of case key = (codeword index, pattern index), whose
    received word codeword x1 = `prior` produced first, by g1, the first
    pattern in family order that corrupts x1 into it."""
    ci, pi = key
    x1, x2, g2 = words[prior], words[ci], patterns[pi]
    received = apply_pattern(x2, g2)
    g1 = next(h for h in patterns if apply_pattern(x1, h) == received)
    return {
        "x1": word_to_str(x1), "g1": g1.to_json_dict(),
        "x2": word_to_str(x2), "g2": g2.to_json_dict(),
        "received": word_to_str(received),
    }


def verify_combinatorial(codebook: Sequence[Symbols],
                         family: PatternFamily) -> VerifyReport:
    """Check that corrupted-output sets are disjoint across codewords.

    Each output class (see the module docstring) is walked codeword-major,
    each codeword read into bytes once, with an index that maps the bytes
    `apply_pattern` returns to the index of the first codeword that
    produced them (exact, as `codeword_bytes` refuses 1.0).  A case whose
    owner is another codeword fails.  The classes are the items that
    _run_items deals, largest first, over the usable CPUs.
    A part keeps the owner of each kept failure as its witness; the
    collision witnesses are built here once the parts are merged.
    """
    fam_size = check_verify_budget(len(codebook), family)
    patterns = list(enumerate_family(family))
    words = list(map(codeword_bytes, codebook))
    grouped: Dict[Tuple[int, Tuple[int, ...]], list] = {}
    for pi, g in enumerate(patterns):
        grouped.setdefault(_output_class(g), []).append((pi, g))
    classes = list(grouped.values())
    report = VerifyReport(
        mode="combinatorial", codebook_size=len(codebook),
        family_size=fam_size, result="pass",
        config={"family": family.describe()})

    def run(part: VerifyReport, items: Iterable[int]) -> None:
        for c in items:
            members = classes[c]
            owner = {}.setdefault
            for ci, x in enumerate(words):
                for pi, g in members:
                    prior = owner(apply_pattern(x, g), ci)
                    if prior != ci:
                        part.add_failure(lambda: prior, (ci, pi))
    _run_items(report, run, len(classes), len(codebook) * fam_size * family.n,
               [len(members) for members in classes])
    report.counterexamples = [
        _collision_witness(words, patterns, key, prior)
        for key, prior in zip(report.case_keys, report.counterexamples)]
    return report


def _roundtrip_case(report: VerifyReport, code, key: int, x: bytes,
                    g: ErrorPattern, trial: Optional[int] = None) -> None:
    """Decode x corrupted by g into the report; a wrong estimate or a
    decode failure counts as a failure of case `key`, the item index
    (simulate's witnesses name the trial)."""
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
    report.add_failure(witness, key)


# Symbols corrupted that each process must get for a split to pay: set
# so that one fork and reap costs a few percent at most of the work it
# moves (CHANGES.md has the measurements).  A 20-trial simulate of
# far(60,6) (1,200 symbols) stays in one process; the VT_0(16) round
# trip and audit under at most one error (3.0M each) split.
SPLIT_WORK = 2 ** 20


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_items(report: VerifyReport, run, count: int, work: int,
               sizes: Optional[Sequence[int]] = None) -> VerifyReport:
    """Run items 0..count-1 into report by `run(report, items)`.

    With work // SPLIT_WORK >= 2, more than one usable CPU and more than
    one item, and where a fork is safe (os.fork exists and no other thread
    runs), the items are dealt into one share per CPU (see _deal) and run
    by _split.  Otherwise they run here, in order.
    """
    parts = min(_usable_cpus(), count, work // SPLIT_WORK)
    if parts >= 2 and hasattr(os, "fork") and threading.active_count() == 1:
        _split(report, run, _deal(count, parts, sizes))
    else:
        run(report, range(count))
    return report


def _deal(count: int, parts: int,
          sizes: Optional[Sequence[int]]) -> List[Sequence[int]]:
    """One nonempty share of items 0..count-1 per part.  Items of equal
    work (sizes None) go as contiguous ranges.  Sized items are dealt
    largest first, each to the part with the least work so far, and each
    part runs its items smallest first, so the item that the parent runs
    before it forks is its smallest."""
    if sizes is None:
        bounds = [count * k // parts for k in range(parts + 1)]
        return [range(a, b) for a, b in zip(bounds, bounds[1:])]
    shares: List[List[int]] = [[] for _ in range(parts)]
    loads = [0] * parts
    for i in sorted(range(count), key=sizes.__getitem__, reverse=True):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += sizes[i]
    return [share[::-1] for share in shares]


def _split(report: VerifyReport, run, shares: List[Sequence[int]]) -> None:
    """Run the first share here and each other share in a forked child.

    The first share's first item runs before the forks, so the lazy state
    every item reads (a VT codebook, a family's pattern weights, a far
    code's tables) is built once.  The parent reads each pipe to EOF
    before reaping its child; it kills and reaps every child before any
    exception, an interrupt included, leaves.  The first share's exception
    is raised, else the earliest child's: for ranges in order, the one a
    run in one process raises; an audit meets a faulty codeword in every
    class, so each of its shares raises the same one.
    """
    import pickle
    import signal
    blank = replace(report, counterexamples=[], case_keys=[])
    head = shares[0]
    run(report, head[:1])
    children: Dict[int, int] = {}  # pid -> read end of its pipe
    outcomes = []
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _child(run, blank, share, write_fd)
            except BaseException:
                os.close(read_fd)
                raise
            finally:
                os.close(write_fd)
            children[pid] = read_fd
        run(report, head[1:])
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
        error, part = pickle.loads(data)
        if error is not None:
            raise error
        _merge(report, part)


def _child(run, part: VerifyReport, items: Sequence[int], write_fd: int) -> None:
    """In a forked child: run the items into part, write it or its
    exception to the pipe and exit.  Never returns, so a child cannot
    unwind into the caller's stack."""
    import pickle
    status = 1
    try:
        try:
            run(part, items)
            result = (None, part)
        except Exception as exc:
            result = (exc, None)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(result))
        status = 0
    finally:
        os._exit(status)


def _merge(report: VerifyReport, part: VerifyReport) -> None:
    """Add a part to the report, which keeps the witnesses of the ten
    smallest case keys; a part holds the first ten of its own."""
    if part.cases is not None:
        report.cases += part.cases
    report.ambiguity_count += part.ambiguity_count
    for key, witness in zip(part.case_keys, part.counterexamples):
        report.add_failure(lambda: witness, key)
    report.failures += part.failures - len(part.counterexamples)


def verify_roundtrip(code, family: PatternFamily) -> VerifyReport:
    """Decode every (codeword, pattern) corruption and compare exactly.

    Codewords are walked by index, each read into bytes once for
    `apply_pattern` and the decoder; above SPLIT_WORK symbols the index
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

    def run(part: VerifyReport, items: Iterable[int]) -> None:
        for i in items:
            x = codeword_bytes(code.codeword(i))
            for g in patterns:
                part.cases += 1
                _roundtrip_case(part, code, i, x, g)
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

    def run(part: VerifyReport, items: Iterable[int]) -> None:
        for i in items:
            rng = random.Random(mix64(seed, i))
            x = codeword_bytes(code.codeword(rng.randrange(count)))
            _roundtrip_case(part, code, i, x, sample_pattern(family, rng),
                            trial=i)
    return _run_items(report, run, trials, trials * family.n)
