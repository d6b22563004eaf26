import hashlib
import json
import random
import re
import sys
import tracemalloc

import pytest

from delcodes import far, patterns, verify, vt
from delcodes.errors import BudgetExceeded, check_budget, exact_integers
from delcodes.patterns import (ErrorPattern, PatternFamily, apply_pattern,
                               sample_pattern)
from delcodes.verify import (VerifyReport, make_code, mix64, simulate,
                             verify_combinatorial, verify_roundtrip)
from delcodes.vt import VtParams, vt_enumerate
from delcodes.words import ERASURE, parse_word, word_to_str


def test_mix64_is_deterministic_and_spread():
    assert mix64(42, 0) == mix64(42, 0)
    outputs = {mix64(42, i) for i in range(1000)}
    assert len(outputs) == 1000
    assert all(0 <= v < 2 ** 64 for v in outputs)


def test_make_code():
    assert make_code("vt", n=4, a=0).codeword_count == 4
    assert make_code("rep", n=9, t=1).codeword_count == 8
    assert make_code("far", n=12, P=3).codeword_count == 16
    burst = make_code("burst", n=9, b=1)
    assert burst.describe() == {"code": "burst", "n": 9, "b": 1}
    with pytest.raises(ValueError):
        make_code("hamming", n=7)


def test_code_adapters_enumerate_codewords():
    code = make_code("rep", n=9, t=1)
    words = list(code.codewords())
    assert len(words) == 8 and len(set(words)) == 8
    assert words[5] == code.codeword(5)
    code = make_code("far", n=12, P=3)
    assert len(set(code.codewords())) == 16


@pytest.mark.parametrize("kind, params", [
    ("vt", {"n": 9, "a": 0}), ("rep", {"n": 9, "t": 1}),
    ("burst", {"n": 9, "b": 1}), ("far", {"n": 12, "P": 3})])
def test_codeword_index_is_refused_outside_the_codebook(kind, params):
    # No kind wraps an index: -1 is not the last codeword, and count is
    # not codeword 0.
    code = make_code(kind, **params)
    count = code.codeword_count
    words = list(code.codewords())
    assert len(words) == count
    assert (code.codeword(0), code.codeword(count - 1)) == (words[0], words[-1])
    for index in (-1, count):
        with pytest.raises(ValueError, match="^index out of range$"):
            code.codeword(index)


def test_combinatorial_pass_on_deletions():
    codebook = vt_enumerate(VtParams(4, 0))
    fam = PatternFamily.at_most(4, 1, kinds="D")
    report = verify_combinatorial(codebook, fam)
    assert report.passed and report.failures == 0
    assert report.codebook_size == 4 and report.family_size == 5


def test_combinatorial_fail_on_flips_with_witness():
    codebook = vt_enumerate(VtParams(4, 0))
    fam = PatternFamily.at_most(4, 1, kinds="F")
    report = verify_combinatorial(codebook, fam)
    assert not report.passed
    w = report.counterexample
    x1, g1 = parse_word(w["x1"]), ErrorPattern.from_json_dict(w["g1"])
    x2, g2 = parse_word(w["x2"]), ErrorPattern.from_json_dict(w["g2"])
    assert x1 != x2
    assert apply_pattern(x1, g1) == apply_pattern(x2, g2) == parse_word(w["received"])


def test_combinatorial_budget(monkeypatch):
    codebook = vt_enumerate(VtParams(4, 0))
    fam = PatternFamily.at_most(4, 2)
    monkeypatch.setenv("DELCODE_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        verify_combinatorial(codebook, fam)


@pytest.mark.parametrize("value", ["1e6", "-1", "ten", "0x10"])
def test_budget_variable_must_be_a_non_negative_integer(monkeypatch, value):
    monkeypatch.setenv("DELCODE_BUDGET", value)
    with pytest.raises(ValueError, match="^DELCODE_BUDGET must be a non-negative "
                                         f"integer, got {re.escape(repr(value))}$"):
        check_budget(1, lambda: "one item")


def test_budget_variable_zero_refuses_every_item(monkeypatch):
    monkeypatch.setenv("DELCODE_BUDGET", "0")
    check_budget(0, lambda: "no item")
    with pytest.raises(BudgetExceeded, match="^one item exceed the budget of 0$"):
        check_budget(1, lambda: "one item")


def test_roundtrip_budget_names_sizes_past_4300_digits():
    # Outside the CLI the digit limit is in force: the refusal must still
    # be a BudgetExceeded naming the 6,500-digit codebook size.
    code = make_code("far", n=30002, P=14)
    with pytest.raises(BudgetExceeded) as exc:
        verify_roundtrip(code, PatternFamily.p_far(30002, 42, t=3))
    with exact_integers():
        assert str(exc.value).startswith(f"{code.codeword_count} x ")


def test_roundtrip_pass():
    code = make_code("vt", n=6, a=0)
    fam = PatternFamily.at_most(6, 1, kinds="DE")
    report = verify_roundtrip(code, fam)
    assert report.passed
    assert report.cases == code.codeword_count * report.family_size
    assert report.ambiguity_count == 0


def test_roundtrip_fail_produces_witness():
    code = make_code("rep", n=9, t=1)
    fam = PatternFamily.at_most(9, 2, kinds="F")  # beyond the design budget
    report = verify_roundtrip(code, fam)
    assert not report.passed
    w = report.counterexample
    x = parse_word(w["x"])
    g = ErrorPattern.from_json_dict(w["g"])
    estimate, _ = code.decode(apply_pattern(x, g))
    assert estimate != x


def test_roundtrip_json_shape():
    code = make_code("vt", n=4, a=0)
    fam = PatternFamily.at_most(4, 1, kinds="D")
    obj = verify_roundtrip(code, fam).to_json_dict()
    for key in ("mode", "codebookSize", "familySize", "cases", "result",
                "failures", "ambiguityCount", "config"):
        assert key in obj
    json.dumps(obj)  # must be serializable


def test_simulate_pass_and_determinism():
    code = make_code("rep", n=9, t=1)
    fam = PatternFamily.at_most(9, 1)
    r1 = simulate(code, fam, trials=300, seed=7)
    r2 = simulate(code, fam, trials=300, seed=7)
    assert r1.passed
    assert json.dumps(r1.to_json_dict(), sort_keys=True) == \
        json.dumps(r2.to_json_dict(), sort_keys=True)


def test_simulate_seed_changes_trials():
    code = make_code("rep", n=9, t=1)
    fam = PatternFamily.at_most(9, 1)
    r1 = simulate(code, fam, trials=50, seed=1)
    r2 = simulate(code, fam, trials=50, seed=2)
    assert r1.seed != r2.seed
    assert r1.passed and r2.passed


def test_simulate_failure_witness_revalidates():
    code = make_code("rep", n=9, t=1)
    fam = PatternFamily.at_most(9, 3)  # over budget: some trials must fail
    report = simulate(code, fam, trials=500, seed=11)
    assert not report.passed
    w = report.counterexample
    x = parse_word(w["x"])
    g = ErrorPattern.from_json_dict(w["g"])
    try:
        estimate, _ = code.decode(apply_pattern(x, g))
    except Exception:
        estimate = None
    assert estimate != x
    assert 0 <= w["trial"] < 500


@pytest.mark.parametrize("code, family", [
    (make_code("far", n=60, P=6), PatternFamily.p_far(60, 18)),
    (make_code("vt", n=10, a=0), PatternFamily.at_most(10, 2)),
])
def test_simulate_trial_is_rebuilt_from_its_generator_alone(code, family):
    # Trial i draws the codeword index, then the pattern, from
    # random.Random(mix64(seed, i)) and from nothing else.
    report = simulate(code, family, trials=200, seed=31)
    assert len(report.counterexamples) == 10
    for w in report.counterexamples:
        rng = random.Random(mix64(31, w["trial"]))
        x = code.codeword(rng.randrange(code.codeword_count))
        assert word_to_str(x) == w["x"]
        assert sample_pattern(family, rng).to_json_dict() == w["g"]


def test_simulate_seeds_one_generator_per_trial(monkeypatch):
    seeds = []
    seed = random.Random.seed

    def counted(self, *args, **kwargs):
        seeds.append(args)
        return seed(self, *args, **kwargs)
    monkeypatch.setattr(random.Random, "seed", counted)
    simulate(make_code("far", n=60, P=6), PatternFamily.p_far(60, 18),
             trials=50, seed=3)
    assert len(seeds) == 50


def _digest(report):
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_report_digests_golden():
    # Pinned reports: a faster per-case path must not change a byte of them.
    code = make_code("vt", n=10, a=0)
    fam = PatternFamily.at_most(10, 1, kinds="DEF")
    assert _digest(verify_roundtrip(code, fam)) == (
        "d20e2c69d3700de8f216a276d4ae981576fadb6c95f226a056c8cefcb7f0a6be")
    assert _digest(verify_combinatorial(list(code.codewords()), fam)) == (
        "6301fd6b7eca2887cd06cbf67ae9a406330edd234aaf4a62a01094da649c8363")
    report = simulate(make_code("far", n=60, P=6), PatternFamily.p_far(60, 18),
                      500, 2024)
    assert _digest(report) == (
        "b0e27da48095fb3b29dc50804068f9e4e595f5721ac4194c144ece809f45b8a8")


@pytest.mark.parametrize("kind, params, family, digests", [
    ("vt", {"n": 8, "a": 0}, PatternFamily.at_most(8, 1), (
        "6a559537d055675710fed9ff354f06d3eb5ee49599e40a62125437c270e4d756",
        "0ee3efba706198b83d76569132bd9f9632df80011ace407d88462186902ba33f",
        "fe1b33e51cd517ca35bd41ca1c2234fd7d36faa0f1f29f00d4c251f47c2d1bcd")),
    ("rep", {"n": 9, "t": 1}, PatternFamily.at_most(9, 2), (
        "185fcbded9859ddea61a94c255b904b05dd0738c086928dd787adf8fb3b16154",
        "a2de54c6debe162c4709616c7bcd54a2a8b25dbb0963b356c0feba4db610ad71",
        "bca52181471dcfbcb87194c370b3afffc1a8a9713fc4049d8ba7b46fe7d18cec")),
    ("burst", {"n": 9, "b": 1}, PatternFamily.burst(9, 2), (
        "60b18e3f15a1d8f45c3f3883f857324a0cf54aec2adea13af137c77a25468f20",
        "16f5b02cfc8402526d2fc702678b120ac9298997bf587e10520d076503ee67b2",
        "30f9e440bd10f7bbc174b59f9b087388606f5b3143062956325aa3a07d7e7610")),
    ("far", {"n": 12, "P": 3}, PatternFamily.p_far(12, 6), (
        "ef4275586f149597e55e2384d2d7b579488a1150df0aa42136d2570416392dbf",
        "ed82f59c010491c0dc78ac3c16cc42cb319131830845a8453a0126fe5089f4db",
        "fcea52b5e6caca61f5de5a46d0814b4d66e71828dbc337820ae7c9f23001fc87"))])
def test_report_digests_golden_per_code(kind, params, family, digests):
    # Round trip, audit and Monte Carlo of every code kind, each beyond
    # what the code corrects so that counts, witnesses and error messages
    # all enter the digest: a change of word type inside the library must
    # not change a byte of them.
    code = make_code(kind, **params)
    reports = (verify_roundtrip(code, family),
               verify_combinatorial(list(code.codewords()), family),
               simulate(code, family, 300, 7))
    assert all(report.failures for report in reports)
    assert tuple(map(_digest, reports)) == digests


def test_verification_reads_each_codeword_once_into_bytes(monkeypatch):
    # apply_pattern reads its word through patterns.codeword_bytes: inside
    # the round trip, the audit (witnesses included) and simulate it gets
    # the bytes each codeword was read into once, never a tuple again.
    seen = []
    read = patterns.codeword_bytes
    monkeypatch.setattr(patterns, "codeword_bytes",
                        lambda x: seen.append(type(x)) or read(x))
    for kind, params, family in (
            ("vt", {"n": 8, "a": 0}, PatternFamily.at_most(8, 1)),
            ("rep", {"n": 9, "t": 1}, PatternFamily.at_most(9, 2)),
            ("far", {"n": 12, "P": 3}, PatternFamily.p_far(12, 6))):
        code = make_code(kind, **params)
        reports = (verify_roundtrip(code, family),
                   verify_combinatorial(list(code.codewords()), family),
                   simulate(code, family, 100, 1))
        assert all(report.counterexamples for report in reports)
    assert seen and tuple not in seen, set(seen)


def test_report_builds_at_most_ten_witnesses():
    report = VerifyReport(mode="roundtrip", codebook_size=1, result="pass")
    built = []
    for i in range(25):
        report.add_failure(lambda i=i: built.append(i) or {"case": i})
    assert report.failures == 25 and built == list(range(10))
    assert report.counterexample == {"case": 0}
    assert report.counterexamples == [{"case": i} for i in range(10)]


def test_audit_builds_at_most_ten_collision_witnesses(monkeypatch):
    built = []
    original = verify._collision_witness
    monkeypatch.setattr(verify, "_collision_witness",
                        lambda *args: built.append(args) or original(*args))
    code = make_code("vt", n=10, a=0)
    report = verify_combinatorial(list(code.codewords()),
                                  PatternFamily.at_most(10, 1, kinds="DEF"))
    assert report.failures == 260 and len(built) == 10


def _bind_counter(monkeypatch, module, name, calls):
    """Count calls of module.name at every name a delcodes module binds it to."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    for key, mod in list(sys.modules.items()):
        if mod is not None and key.split(".")[0] == "delcodes":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)


def test_roundtrip_reaches_the_traced_layers(monkeypatch):
    # The benchmark's trace expects these layers to be called by the
    # round trip; an inlining that bypasses one must fail here first.
    calls = dict.fromkeys(["apply_pattern", "correct_deletion",
                           "correct_erasure", "flip_candidates"], 0)
    _bind_counter(monkeypatch, patterns, "apply_pattern", calls)
    for name in ("correct_deletion", "correct_erasure", "flip_candidates"):
        _bind_counter(monkeypatch, vt, name, calls)
    verify_roundtrip(make_code("vt", n=8, a=0),
                     PatternFamily.at_most(8, 1, kinds="DEF"))
    assert all(calls.values()), calls
    # The far workloads of the benchmark add these layers.
    calls.update(dict.fromkeys(calls, 0), far_contains=0, vt_enumerate=0)
    _bind_counter(monkeypatch, far, "far_contains", calls)
    _bind_counter(monkeypatch, vt, "vt_enumerate", calls)
    code = make_code("far", n=12, P=3)
    assert calls["vt_enumerate"]
    verify_roundtrip(code, PatternFamily.p_far(12, 9, kinds="DEF"))
    assert all(calls.values()), calls


def reference_verify_combinatorial(codebook, family):
    """The audit as it stood with a tuple-keyed index holding (index,
    pattern) for each received word: the oracle for the compact index."""
    fam_size = verify.check_verify_budget(len(codebook), family)
    pats = list(patterns.enumerate_family(family))
    seen = {}
    report = VerifyReport(
        mode="combinatorial", codebook_size=len(codebook),
        family_size=fam_size, result="pass",
        config={"family": family.describe()})
    for ci, x in enumerate(codebook):
        for g in pats:
            received = apply_pattern(x, g)
            prior = seen.get(received)
            if prior is None:
                seen[received] = (ci, g)
            elif prior[0] != ci:
                report.add_failure(lambda: {
                    "x1": word_to_str(codebook[prior[0]]),
                    "g1": prior[1].to_json_dict(),
                    "x2": word_to_str(x), "g2": g.to_json_dict(),
                    "received": word_to_str(received)})
    return report


def _assert_same_audit(codebook, family):
    expected = reference_verify_combinatorial(codebook, family).to_json_dict()
    assert verify_combinatorial(codebook, family).to_json_dict() == expected


@pytest.mark.parametrize("n", range(1, 11))
def test_audit_matches_reference_on_vt_codes(n):
    for a in range(n + 1):
        codebook = vt_enumerate(VtParams(n, a))
        for t in range(1, min(n, 2) + 1):
            _assert_same_audit(codebook, PatternFamily.at_most(n, t, kinds="DEF"))


@pytest.mark.parametrize("n", [12, 15])
def test_audit_matches_reference_on_far_codes(n):
    codebook = list(make_code("far", n=n, P=3).codewords())
    _assert_same_audit(codebook, PatternFamily.p_far(n, 9))


@pytest.mark.parametrize("kind, n, arg, b", [
    ("rep", 9, {"t": 1}, 2), ("rep", 8, {"t": 1}, 3), ("burst", 9, {"b": 1}, 1),
    ("burst", 12, {"b": 2}, 2)])
def test_audit_matches_reference_on_repetition_codes(kind, n, arg, b):
    codebook = list(make_code(kind, n=n, **arg).codewords())
    _assert_same_audit(codebook, PatternFamily.burst(n, b))


def test_audit_matches_reference_with_a_duplicate_codeword():
    codebook = list(vt_enumerate(VtParams(6, 0)))
    codebook.insert(3, codebook[1])
    _assert_same_audit(codebook, PatternFamily.at_most(6, 1, kinds="DEF"))
    # VT codes correct one deletion: the copies are the only collisions.
    family = PatternFamily.at_most(6, 1, kinds="D")
    _assert_same_audit(codebook, family)
    report = verify_combinatorial(codebook, family)
    assert report.failures == report.family_size
    assert {(w["x1"], w["x2"]) for w in report.counterexamples} == \
        {(word_to_str(codebook[1]),) * 2}


@pytest.mark.parametrize("symbol", [1.0, 0.0, 2, "1", None])
def test_audit_refuses_a_codeword_symbol_other_than_int_bits(symbol):
    # Tuple equality audited (1.0, ...) as (1, ...); the audit names it.
    codebook = list(vt_enumerate(VtParams(6, 0)))
    codebook[2] = tuple(codebook[2][:3]) + (symbol,) + tuple(codebook[2][4:])
    with pytest.raises(ValueError, match=f"got symbol {re.escape(repr(symbol))}$"):
        verify_combinatorial(codebook, PatternFamily.at_most(6, 1))


def test_audit_index_memory_per_case():
    # Each output class has its own index, freed before the next: the
    # bytes of each received word and the int index of its codeword, for
    # the largest class only.  Here that is the 15 patterns of at most one
    # flip out of 43, about 30 traced bytes a case; one index over the
    # whole family took about 64.
    codebook = vt_enumerate(VtParams(14, 0))
    family = PatternFamily.at_most(14, 1, kinds="DEF")
    tracemalloc.start()
    try:
        report = verify_combinatorial(codebook, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cases = report.codebook_size * report.family_size
    assert cases == 47128
    assert peak / cases <= 45, peak / cases


def test_audit_calls_apply_pattern_once_per_case(monkeypatch):
    # The benchmark traces patterns.apply_pattern inside the audit: each
    # case is one call, and a kept witness may search the family once.
    calls = {"apply_pattern": 0}
    _bind_counter(monkeypatch, patterns, "apply_pattern", calls)
    for kinds, passed in (("D", True), ("DEF", False)):
        calls["apply_pattern"] = 0
        family = PatternFamily.at_most(10, 1, kinds=kinds)
        report = verify_combinatorial(vt_enumerate(VtParams(10, 0)), family)
        assert report.passed == passed
        cases = report.codebook_size * report.family_size
        witnesses = len(report.counterexamples)
        assert witnesses == (0 if passed else 10)
        assert cases <= calls["apply_pattern"] \
            <= cases + witnesses * report.family_size


@pytest.mark.parametrize("family", [
    PatternFamily.at_most(9, 3, kinds="DEF"), PatternFamily.at_most(9, 2, kinds="DE"),
    PatternFamily.p_far(10, 3, kinds="D"), PatternFamily.p_far(11, 2, kinds="DEF"),
    PatternFamily.burst(9, 3, kinds="E"), PatternFamily.burst(10, 2, kinds="DEF"),
    PatternFamily.at_most(8, 3, kinds="F")],
    # Ids name kind, n and kinds first, whatever order describe() keeps.
    ids=lambda f: json.dumps({"kind": f.kind, "n": f.n, "kinds": f.kinds,
                              **f.describe()}))
def test_output_class_is_what_the_received_word_shows(family):
    # The audit indexes each class apart, which is exact only because a
    # received word shows the class of its pattern: its length and, as
    # codewords hold no erasure, where its erasures sit.
    rng = random.Random(family.n)
    words = [tuple(rng.randrange(2) for _ in range(family.n)) for _ in range(4)]
    for g in patterns.enumerate_family(family):
        for x in words:
            y = apply_pattern(x, g)
            erased = tuple(i for i, s in enumerate(y, 1) if s == ERASURE)
            assert verify._output_class(g) == (family.n - len(y), erased), g


def test_report_of_a_large_far_code_dumps_inside_exact_integers():
    # codebookSize of far(30000, 12) has over 6000 digits: past the limit
    # Python 3.11+ puts on int-to-text conversion, which the caller lifts.
    code = make_code("far", n=30000, P=12)
    report = simulate(code, PatternFamily.at_most(30000, 1, kinds="D"),
                      trials=2, seed=1)
    assert report.passed and report.codebook_size == code.codeword_count
    if hasattr(sys, "set_int_max_str_digits"):
        with pytest.raises(ValueError, match="Exceeds the limit"):
            json.dumps(report.to_json_dict())
    with exact_integers():
        text = json.dumps(report.to_json_dict())
        assert len(str(code.codeword_count)) > 6000
        assert json.loads(text)["codebookSize"] == code.codeword_count
