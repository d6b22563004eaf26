"""The benchmark's workloads, driving delcodes through its public API.

A workload's work is fixed by the seed and the run length alone: a set of
units (simulate calls, decodes, verification passes) and a set of
individually timed decodes, both repeated for several rounds.  Each unit
and each decoded word counts with its second-fastest round; fail_frac, the
outcome counts and the report digest come from the first round only.

Measured calls go through module attributes (``far.far_decode``) so that
tracing wrappers see them; input generation and output checks use the
references captured below, which never count as layer calls.
"""

from __future__ import annotations

import hashlib
import json
import random
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from delcodes import far, patterns, verify, vt
from delcodes.errors import DecodeFailure
from delcodes.patterns import ErrorPattern, PatternFamily
from delcodes.words import parse_word, word_to_str

_apply_pattern = patterns.apply_pattern
_enumerate_family = patterns.enumerate_family
_family_size = patterns.family_size
_is_member = patterns.is_member
_sample_pattern = patterns.sample_pattern
_far_codeword = far.far_codeword
_far_contains = far.far_contains
_far_decode = far.far_decode
_vt_contains = vt.vt_contains

MAX_PROBLEM_MESSAGES = 20


@dataclass
class Tally:
    """Outputs of one run's work, and the output checks that failed."""

    clock: Callable[[], float]  # times every measured call
    cases: int = 0              # every case processed, in every round
    decodes: int = 0            # first-round decodes (fail_frac base)
    failures: int = 0           # wrong estimates + DecodeFailures among them
    decode_ms: List[array] = field(default_factory=list)  # per round, per word
    outcomes: Counter = field(default_factory=Counter)  # first round
    problems: int = 0
    messages: List[str] = field(default_factory=list)
    digest: object = field(default_factory=hashlib.sha256)
    kept: list = field(default_factory=list)  # outputs for the checks in finish

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems += 1
            if len(self.messages) < MAX_PROBLEM_MESSAGES:
                self.messages.append(message)

    def record(self, obj) -> None:
        self.digest.update(json.dumps(obj, sort_keys=True).encode())


def _timed_decode(tally: Tally, decode: Callable, params, received, sent,
                  flag_of: Callable, contains: Callable, first: bool):
    """Time one decoder call; in the first round, classify its output.

    Outcomes: ok, flagged (wrong estimate with the ambiguity flag set),
    unflagged (wrong estimate without it: a check failure) and
    decode_failure.  `any_flag` counts flagged results, right or wrong.
    Returns (ms, outcome, estimate); outcome is None after the first round.
    """
    t0 = tally.clock()
    try:
        result = decode(params, received)
    except DecodeFailure:
        result = None
    ms = (tally.clock() - t0) * 1e3
    tally.cases += 1
    tally.decode_ms[-1].append(ms)
    if not first:
        return ms, None, None
    if result is None:
        outcome, estimate = "decode_failure", None
    else:
        estimate = result[0]
        flagged = flag_of(result)
        tally.outcomes["any_flag"] += int(flagged)
        tally.check(contains(params, estimate), "estimate is not a codeword")
        outcome = "ok" if estimate == sent else "flagged" if flagged else "unflagged"
        tally.check(outcome != "unflagged", "wrong estimate without the ambiguity flag")
    tally.outcomes[outcome] += 1
    return ms, outcome, estimate


def _far_flag(result) -> bool:
    return result[1].ambiguous_flips > 0


def _vt_flag(result) -> bool:
    return result[1]


def observe_far_decode(counters: Counter, args, kwargs, result) -> None:
    """Counters of each traced far_decode call (iterations only on return)."""
    counters["far.far_decode.symbols"] += len(args[1])  # far_decode(p, y)
    if result is not None:
        counters["far.far_decode.ok"] += 1
        counters["far.far_decode.iterations"] += result[1].iterations
        counters["far.far_decode.ambiguous_flips"] += result[1].ambiguous_flips


OBSERVERS = {"far.far_decode": observe_far_decode}

_FAR_DECODE_LAYERS = {"far.far_decode", "far.far_contains", "vt.correct_deletion",
                      "vt.correct_erasure", "vt.flip_candidates"}


class McDesk:
    """Monte Carlo round trips of far(60,6) under pFar(18), kinds DEF."""

    name = "mc_desk"
    params = {"code": "far", "n": 60, "P": 6, "family": "p_far", "family_P": 18,
              "kinds": "DEF", "trials_per_call": 20, "calls": 800,
              "timed_words": 8000}
    expected_layers = _FAR_DECODE_LAYERS | {
        "verify.make_code", "far.far_params", "vt.vt_enumerate", "verify.simulate",
        "patterns.sample_pattern", "far.far_codeword", "patterns.apply_pattern"}

    def setup(self):
        p = self.params
        code = verify.make_code("far", n=p["n"], P=p["P"])
        family = PatternFamily.p_far(p["n"], p["family_P"], kinds=p["kinds"])
        return code, family

    def prepare(self, state, seed: int):
        code, family = state
        rng = random.Random(seed)
        words = []
        for _ in range(self.params["timed_words"]):
            x = _far_codeword(code.params, rng.randrange(code.codeword_count))
            g = _sample_pattern(family, rng.getrandbits(63))
            words.append((x, _apply_pattern(x, g)))
        return {"seed": seed, "words": words}

    def decode_round(self, state, inputs, tally: Tally, first: bool) -> None:
        code, _ = state
        decode = far.far_decode
        for x, y in inputs["words"]:
            _timed_decode(tally, decode, code.params, y, x,
                          _far_flag, _far_contains, first)

    def units(self, inputs) -> int:
        return self.params["calls"]

    def unit(self, state, inputs, k: int, tally: Tally, first: bool) -> Tuple[int, float]:
        code, family = state
        trials = self.params["trials_per_call"]
        t0 = tally.clock()
        report = verify.simulate(code, family, trials=trials,
                                 seed=inputs["seed"] * 1_000_003 + k)
        seconds = tally.clock() - t0
        tally.cases += trials
        tally.check(report.trial_count == trials and 0 <= report.failures <= trials,
                    "simulate report counts are inconsistent")
        tally.check(len(report.counterexamples) == min(report.failures, 10),
                    "simulate report lists the wrong number of witnesses")
        if first:
            tally.decodes += trials
            tally.failures += report.failures
            tally.record(report.to_json_dict())
            tally.kept.extend(report.counterexamples)
        return trials, seconds

    def finish(self, state, inputs, tally: Tally) -> None:
        """Re-decode every first-round witness: each failure must reproduce
        and be either a DecodeFailure or a flagged estimate."""
        code, family = state
        for w in tally.kept:
            x = parse_word(w["x"])
            g = ErrorPattern.from_json_dict(w["g"])
            tally.check(_is_member(g, family), "witness pattern outside the family")
            try:
                estimate, info = _far_decode(code.params, _apply_pattern(x, g))
            except DecodeFailure as exc:
                tally.check(w["estimate"] is None and w.get("error") == str(exc),
                            "witness decode failure does not reproduce")
                continue
            tally.check(w["estimate"] == word_to_str(estimate) and "error" not in w,
                        "witness estimate does not reproduce")
            tally.check(estimate != x, "witness estimate is the sent codeword")
            tally.check(_far_contains(code.params, estimate),
                        "witness estimate is not a codeword")
            tally.check(info.ambiguous_flips > 0,
                        "simulate trial failed without the ambiguity flag")


class DecodePaper:
    """Single-word far decoding at the paper's operating point."""

    name = "decode_paper"
    # P = floor(n / (t^2 * omega)) with t = 3 and omega = 24.
    params = {"code": "far", "n": 3024, "P": 14, "family": "p_far", "family_P": 42,
              "family_t": 3, "kinds": "DEF", "words": 3000}
    expected_layers = _FAR_DECODE_LAYERS | {"far.far_params", "vt.vt_enumerate"}

    def setup(self):
        p = self.params
        fp = far.far_params(p["n"], p["P"])
        family = PatternFamily.p_far(p["n"], p["family_P"], t=p["family_t"],
                                     kinds=p["kinds"])
        return fp, family

    def prepare(self, state, seed: int):
        fp, family = state
        rng = random.Random(seed)
        pool = []
        for _ in range(self.params["words"]):
            x = _far_codeword(fp, rng.randrange(fp.codeword_count))
            g = _sample_pattern(family, rng.getrandbits(63))
            # bytes keep the pool at 6 KB per word instead of 48 KB of tuples
            pool.append((bytes(x), bytes(_apply_pattern(x, g))))
        return pool

    def decode_round(self, state, inputs, tally: Tally, first: bool) -> None:
        pass  # the units are the decodes

    def units(self, pool) -> int:
        return len(pool)

    def unit(self, state, pool, k: int, tally: Tally, first: bool) -> Tuple[int, float]:
        fp, _ = state
        x, y = (tuple(w) for w in pool[k])
        ms, outcome, estimate = _timed_decode(tally, far.far_decode, fp, y, x,
                                              _far_flag, _far_contains, first)
        if first:
            tally.decodes += 1
            tally.failures += outcome != "ok"
            tally.record([k, outcome, None if estimate is None
                          else hashlib.sha256(bytes(estimate)).hexdigest()])
        return 1, ms / 1e3

    def finish(self, state, inputs, tally: Tally) -> None:
        pass


class VerifyVt:
    """Exhaustive round trip and combinatorial audit of VT_0(16), at most 1 error."""

    name = "verify_vt"
    params = {"code": "vt", "n": 16, "a": 0, "family": "at_most", "family_t": 1,
              "kinds": "DEF"}
    expected_layers = {
        "verify.make_code", "vt.vt_enumerate", "verify.verify_roundtrip",
        "verify.verify_combinatorial", "patterns.enumerate_family",
        "patterns.apply_pattern", "vt.correct_single", "vt.correct_deletion",
        "vt.correct_erasure", "vt.flip_candidates"}

    def setup(self):
        p = self.params
        code = verify.make_code("vt", n=p["n"], a=p["a"])
        codebook = list(code.codewords())
        family = PatternFamily.at_most(p["n"], p["family_t"], kinds=p["kinds"])
        return code, codebook, family

    def prepare(self, state, seed: int):
        # Exhaustive: the inputs are the same for every seed.
        _, _, family = state
        return list(_enumerate_family(family))

    def decode_round(self, state, pats, tally: Tally, first: bool) -> None:
        """Decode every case individually: its outcomes must add up to the
        round trip's totals, which list only ten witnesses."""
        code, codebook, _ = state
        decode = vt.correct_single
        for x in codebook:
            for g in pats:
                _timed_decode(tally, decode, code.params, _apply_pattern(x, g),
                              x, _vt_flag, _vt_contains, first)

    def units(self, pats) -> int:
        return 2

    def unit(self, state, pats, k: int, tally: Tally, first: bool) -> Tuple[int, float]:
        """Unit 0 is the round trip, unit 1 the combinatorial audit."""
        code, codebook, family = state
        cases = len(codebook) * _family_size(family)
        tally.cases += cases
        t0 = tally.clock()
        if k == 0:
            report = verify.verify_roundtrip(code, family)
            seconds = tally.clock() - t0
            tally.check(report.cases == cases, "round trip skipped cases")
            tally.check(report.result == "fail" and report.ambiguity_count > 0,
                        "round trip reports no flagged flip ambiguities")
            if first:
                tally.decodes += report.cases
                tally.failures += report.failures
                tally.kept.append(report)
        else:
            report = verify.verify_combinatorial(codebook, family)
            seconds = tally.clock() - t0
            tally.check(report.result == "fail" and report.counterexample is not None,
                        "audit found no collision, but single flips collide in VT codes")
            if report.counterexample is not None:
                self._check_witness(code, family, report.counterexample, tally)
        if first:
            tally.record(report.to_json_dict())
        return cases, seconds

    @staticmethod
    def _check_witness(code, family, w: dict, tally: Tally) -> None:
        """The audit's collision must re-validate through apply_pattern."""
        x1, x2 = parse_word(w["x1"]), parse_word(w["x2"])
        g1 = ErrorPattern.from_json_dict(w["g1"])
        g2 = ErrorPattern.from_json_dict(w["g2"])
        received = parse_word(w["received"])
        tally.check(x1 != x2 and _vt_contains(code.params, x1)
                    and _vt_contains(code.params, x2),
                    "collision witness codewords are not two distinct codewords")
        tally.check(_is_member(g1, family) and _is_member(g2, family),
                    "collision witness pattern outside the family")
        tally.check(_apply_pattern(x1, g1) == received == _apply_pattern(x2, g2),
                    "collision witness does not re-validate")

    def finish(self, state, pats, tally: Tally) -> None:
        """The round trip's totals must match the individually decoded cases."""
        roundtrip, seen = tally.kept[0], tally.outcomes
        wrong = seen["decode_failure"] + seen["flagged"] + seen["unflagged"]
        tally.check(roundtrip.failures == wrong,
                    "round trip failures differ from individual decodes")
        tally.check(roundtrip.ambiguity_count == seen["any_flag"],
                    "round trip ambiguity count differs from individual decodes")


WORKLOADS = {w.name: w for w in (McDesk(), DecodePaper(), VerifyVt())}
