import json

import pytest

from delcodes.errors import BudgetExceeded, exact_integers
from delcodes.patterns import ErrorPattern, PatternFamily, apply_pattern
from delcodes.verify import (make_code, mix64, simulate, verify_combinatorial,
                             verify_roundtrip)
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
