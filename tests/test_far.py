import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delcodes import far, verify
from delcodes.errors import DecodeFailure
from delcodes.far import (FarParams, far_codeword, far_contains, far_decode,
                          far_encode, far_params)
from delcodes.patterns import (ErrorPattern, PatternFamily, apply_pattern,
                               enumerate_family, sample_pattern)
from delcodes.vt import vt_syndrome
from delcodes.words import parse_word


def test_params_12_3():
    p = far_params(12, 3)
    assert (p.t, p.s, p.a1, p.a2) == (4, 0, 1, 1)
    assert p.inner_alphabet == (parse_word("011"), parse_word("100"))
    assert p.final_alphabet == (parse_word("011"), parse_word("100"))
    assert p.codeword_count == 16


def test_params_11_3():
    p = far_params(11, 3)
    assert (p.t, p.s) == (3, 2)
    assert all(len(w) == 5 for w in p.final_alphabet)


def test_params_validation():
    with pytest.raises(ValueError):
        far_params(12, 2)  # inner alphabet would be empty
    with pytest.raises(ValueError):
        far_params(5, 3)  # fewer than two blocks


def test_params_json_roundtrip():
    p = far_params(12, 3)
    assert FarParams.from_json_dict(p.to_json_dict()) == p
    bad = dict(p.to_json_dict(), a1=0)
    with pytest.raises(ValueError):
        FarParams.from_json_dict(bad)


@pytest.mark.parametrize("obj", [{}, {"n": 12}, [], {"n": None, "P": 3}])
def test_params_json_rejects_malformed_input(obj):
    with pytest.raises(ValueError):
        FarParams.from_json_dict(obj)


def test_encode_golden():
    p = far_params(12, 3)
    assert far_encode(p, (0, 0, 1, 1)) == parse_word("011011100100")
    assert far_encode(p, (0, 0, 0, 0)) == parse_word("011011011011")
    with pytest.raises(ValueError):
        far_encode(p, (0, 0, 1))


@pytest.mark.parametrize("indices, block", [((-1, 0, 0, 0), 1),
                                            ((0, 0, 99, 1), 3),
                                            ((0, 0, 0, 2), 4)])
def test_encode_rejects_out_of_range_index(indices, block):
    p = far_params(12, 3)
    with pytest.raises(ValueError, match=f"block {block}: .* outside 0..1"):
        far_encode(p, indices)


def test_codewords_distinct_and_members():
    p = far_params(12, 3)
    words = {far_codeword(p, i) for i in range(p.codeword_count)}
    assert len(words) == 16
    assert all(far_contains(p, w) for w in words)
    assert not far_contains(p, parse_word("000000000000"))


def test_decode_identity():
    p = far_params(12, 3)
    x = parse_word("011011100100")
    estimate, info = far_decode(p, x)
    assert estimate == x
    assert info.iterations == 1


def test_decode_single_deletion_every_position():
    p = far_params(12, 3)
    x = parse_word("011011100100")
    for k in range(12):
        estimate, _ = far_decode(p, x[:k] + x[k + 1:])
        assert estimate == x, f"deletion at position {k + 1}"


def test_decode_flip_and_erasure_9_far():
    p = far_params(12, 3)
    x = parse_word("011011100100")
    g = ErrorPattern.from_dict(12, {2: "F", 11: "E"})
    estimate, _ = far_decode(p, apply_pattern(x, g))
    assert estimate == x


def test_decode_exhaustive_p_far():
    p = far_params(12, 3)
    fam = PatternFamily.p_far(12, 3 * p.P)
    patterns = list(enumerate_family(fam))
    for i in range(p.codeword_count):
        x = far_codeword(p, i)
        for g in patterns:
            estimate, _ = far_decode(p, apply_pattern(x, g))
            assert estimate == x, (x, g)


def test_decode_out_of_model_fails():
    p = far_params(12, 3)
    with pytest.raises(DecodeFailure):
        far_decode(p, parse_word("0110"))
    with pytest.raises(DecodeFailure):
        far_decode(p, parse_word("eeeeeeeeeeee"))


def test_larger_parameters_roundtrip():
    # A flip can be ambiguous: the received block may be one flip away
    # from two alphabet words (e.g. 100010 vs 110010/100000 in VT_1(6)).
    # Such decodes must carry the ambiguity flag; unflagged decodes must
    # be exact.
    p = far_params(22, 4)  # t = 5, s = 2
    x = far_codeword(p, 7)
    fam = PatternFamily.p_far(22, 3 * p.P, t=1)
    for g in enumerate_family(fam):
        estimate, info = far_decode(p, apply_pattern(x, g))
        if info.ambiguous_flips:
            assert far_contains(p, estimate), g
        else:
            assert estimate == x, g


def test_decode_pins_iterations_across_kinds():
    # One correction per flip or deletion; the erasure is filled in
    # during the scan and does not count.
    p = far_params(600, 6)
    x = far_codeword(p, 12345)
    g = ErrorPattern.from_dict(600, {5: "F", 100: "D", 300: "E", 500: "F"})
    estimate, info = far_decode(p, apply_pattern(x, g))
    assert estimate == x
    assert (info.iterations, info.ambiguous_flips) == (4, 0)


@pytest.mark.parametrize("n", [21, 24])
@pytest.mark.parametrize("kinds", ["D", "E"])
def test_decode_exhaustive_where_audit_passes(n, kinds):
    # With P + s or more deletions the received word is shorter than the
    # t-1 inner blocks; the decoder must still recover every codeword the
    # combinatorial audit shows to be uniquely decodable.
    code = verify.make_code("far", n=n, P=3)
    family = PatternFamily.p_far(n, 9, kinds=kinds)
    assert verify.verify_combinatorial(list(code.codewords()), family).passed
    report = verify.verify_roundtrip(code, family)
    assert report.cases == code.codeword_count * report.family_size
    assert report.failures == 0


@functools.lru_cache(maxsize=None)
def _far_1000_8() -> FarParams:
    return far_params(1000, 8)


@pytest.mark.parametrize("kinds", ["D", "E", "DE"])
@given(index=st.integers(min_value=0), seed=st.integers(0, 2 ** 63 - 1))
@settings(max_examples=40, deadline=None)
def test_decode_recovers_paper_scale_words(kinds, index, seed):
    # far(1000,8) under pFar(24): patterns carry about 30 errors, so a
    # word with deletions loses more symbols than one block holds.
    p = _far_1000_8()
    x = far_codeword(p, index % p.codeword_count)
    g = sample_pattern(PatternFamily.p_far(p.n, 3 * p.P, kinds=kinds), seed)
    estimate, _ = far_decode(p, apply_pattern(x, g))
    assert estimate == x


def test_decode_checksum_work_is_linear(monkeypatch):
    # One scan checks each of the t blocks and, per correction, the block
    # after it and the corrected block again; rescanning from block 1
    # after every correction would cost about t checks per correction.
    p = far_params(12000, 6)
    x = far_codeword(p, random.Random(0).randrange(p.codeword_count))
    g = sample_pattern(PatternFamily.p_far(p.n, 3 * p.P, kinds="F"), 0)
    k = g.weight
    calls = []

    def counted(*args):
        calls.append(args)
        return vt_syndrome(*args)

    monkeypatch.setattr(far, "vt_syndrome", counted)
    _, info = far_decode(p, apply_pattern(x, g))
    assert k > 400 and info.iterations == k + 1
    assert len(calls) <= p.t + 3 * k
