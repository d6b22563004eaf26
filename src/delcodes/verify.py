"""Ground-truth verification: combinatorial audits, decoder round trips,
and a seeded Monte Carlo simulator.

The combinatorial check uses the defining property of a correcting code
directly: no two distinct codewords, corrupted by any patterns in the
family, may collide on the same received word.  Received words are
keyed by their bytes (symbols 0, 1 and ERASURE = 2), so differing lengths
or erasure positions make them distinct.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import far, rep, vt
from .errors import DecodeFailure, check_budget
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


class VtCodeAdapter:
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
        return self._codewords[index]

    def codewords(self) -> Iterable[Word]:
        return iter(self._codewords)

    def decode(self, received: Word) -> Tuple[Word, bool]:
        return vt.correct_single(self.params, received)

    def decode_diagnostics(self, received: Word) -> Tuple[Word, dict]:
        estimate, ambiguous = vt.correct_single(self.params, received)
        return estimate, {"ambiguous": ambiguous}

    def describe(self) -> dict:
        return {"code": "vt", "n": self.params.n, "a": self.params.a}


class RepCodeAdapter:
    def __init__(self, n: int, t: int):
        self.params = rep.RepParams(n, t)

    @property
    def codeword_count(self) -> int:
        return 2 ** self.params.m

    def codeword(self, index: int) -> Word:
        m = self.params.m
        info = tuple((index >> (m - 1 - i)) & 1 for i in range(m))
        return rep.rep_encode(self.params, info)

    def codewords(self) -> Iterable[Word]:
        return (self.codeword(i) for i in range(self.codeword_count))

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

    def describe(self) -> dict:
        return {"code": "rep", "n": self.params.n, "t": self.params.t}


class BurstCodeAdapter(RepCodeAdapter):
    """The repetition code that rep.burst_params sizes for spread <= b."""

    def __init__(self, n: int, b: int):
        self.params = rep.burst_params(n, b)


class FarCodeAdapter:
    def __init__(self, n: int, P: int):
        self.params = far.far_params(n, P)

    @property
    def codeword_count(self) -> int:
        return self.params.codeword_count

    def codeword(self, index: int) -> Word:
        return far.far_codeword(self.params, index)

    def codewords(self) -> Iterable[Word]:
        return (self.codeword(i) for i in range(self.codeword_count))

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

    def describe(self) -> dict:
        return {"code": "far", "n": self.params.n, "P": self.params.P}


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
    """Build the adapter of a code kind from its named parameters; a length
    n over the budget is refused before sizes such as 2^m are computed."""
    if kind not in CODES:
        raise ValueError(f"unknown code kind {kind!r}")
    n = params.get("n", 0)
    check_budget(n, lambda: f"the {n} symbols of a codeword")
    return CODES[kind](**params)


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


def verify_roundtrip(code, family: PatternFamily) -> VerifyReport:
    """Decode every (codeword, pattern) corruption and compare exactly."""
    fam_size = check_verify_budget(code.codeword_count, family)
    patterns = list(enumerate_family(family))
    report = VerifyReport(
        mode="roundtrip", codebook_size=code.codeword_count,
        family_size=fam_size, result="pass", cases=0,
        config={"family": family.describe(), **code.describe()})
    for x in code.codewords():
        for g in patterns:
            report.cases += 1
            _roundtrip_case(report, code, x, g)
    return report


def simulate(code, family: PatternFamily, trials: int,
             seed: int) -> VerifyReport:
    """Monte Carlo round trips with one generator per trial.

    Trial i draws its codeword index, then its pattern, from one
    random.Random(mix64(seed, i)), so the report is byte-identical for a
    given seed and trial count, and a run of k trials reports the same
    witnesses as a longer run restricted to trials below k.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    count = code.codeword_count
    report = VerifyReport(
        mode="montecarlo", codebook_size=count,
        trial_count=trials, seed=seed, result="pass",
        config={"family": family.describe(), **code.describe()})
    for i in range(trials):
        rng = random.Random(mix64(seed, i))
        x = code.codeword(rng.randrange(count))
        _roundtrip_case(report, code, x, sample_pattern(family, rng), trial=i)
    return report
