import hashlib
import json
import sys

import pytest

from delcodes import far, patterns, verify, vt
from delcodes.errors import BudgetExceeded, exact_integers
from delcodes.patterns import ErrorPattern, PatternFamily, apply_pattern
from delcodes.verify import (VerifyReport, make_code, mix64, simulate,
                             verify_combinatorial, verify_roundtrip)
from delcodes.vt import VtParams, vt_enumerate
from delcodes.words import parse_word


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
    assert burst.describe() == {"code": "rep", "n": 9, "t": 2}
    with pytest.raises(ValueError):
        make_code("hamming", n=7)


def test_code_adapters_enumerate_codewords():
    code = make_code("rep", n=9, t=1)
    words = list(code.codewords())
    assert len(words) == 8 and len(set(words)) == 8
    assert words[5] == code.codeword(5)
    code = make_code("far", n=12, P=3)
    assert len(set(code.codewords())) == 16


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
        "769b5b9701cb22ddbb64e2af5971658cc202517e36598143fdb8abaad83475ce")


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
