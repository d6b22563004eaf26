import pytest

from delcodes.errors import DecodeFailure
from delcodes.patterns import (ErrorPattern, PatternFamily, apply_pattern,
                               enumerate_family)
from delcodes.rep import RepParams, burst_params, rep_decode, rep_encode
from delcodes.words import parse_word


def test_params():
    p = RepParams(9, 1)
    assert (p.block, p.m, p.pad) == (3, 3, 0)
    p = RepParams(11, 1)
    assert (p.block, p.m, p.pad) == (3, 3, 2)
    p = RepParams(15, 2)
    assert (p.block, p.m, p.pad) == (5, 3, 0)
    with pytest.raises(ValueError):
        RepParams(4, 2)  # block 5 > n
    with pytest.raises(ValueError):
        RepParams(4, -1)


def test_encode_golden():
    assert rep_encode(RepParams(9, 1), parse_word("101")) == parse_word("111000111")
    assert rep_encode(RepParams(11, 1), parse_word("101")) == parse_word("11100011100")


def test_encode_rejects_bad_info():
    with pytest.raises(ValueError):
        rep_encode(RepParams(9, 1), parse_word("10"))
    with pytest.raises(ValueError):
        rep_encode(RepParams(9, 1), parse_word("1e1"))


def test_decode_identity():
    p = RepParams(11, 1)
    for info in (parse_word("000"), parse_word("101"), parse_word("111")):
        assert rep_decode(p, rep_encode(p, info)) == (info, False)


@pytest.mark.parametrize("n,t", [(9, 1), (10, 1), (11, 1), (15, 2)])
def test_decode_all_single_kind_errors(n, t):
    p = RepParams(n, t)
    fam = PatternFamily.at_most(n, t)
    patterns = list(enumerate_family(fam))
    for idx in range(2 ** p.m):
        info = tuple((idx >> (p.m - 1 - i)) & 1 for i in range(p.m))
        x = rep_encode(p, info)
        for g in patterns:
            decoded, _ = rep_decode(p, apply_pattern(x, g))
            assert decoded == info


def test_tie_is_flagged():
    # A block reduced to one 0 and one 1 has no majority: decode 0, flag.
    info, tied = rep_decode(RepParams(3, 1), parse_word("1e0"))
    assert info == (0,) and tied


def test_out_of_model_length_fails():
    p = RepParams(9, 1)
    with pytest.raises(DecodeFailure):
        rep_decode(p, parse_word("11100"))


@pytest.mark.parametrize("word, symbol", [((5,) * 9, 5),
                                          ((1, 1, 1, 7, 7, 7, 0, 0, 0), 7),
                                          ((1, 1, 1, 0, 0, 0, 0, 0, 1.0), 1.0),
                                          ((2, 2, 2, 0, 0, 0, 1, 1, "1"), "1")])
def test_decode_names_a_foreign_symbol(word, symbol):
    # Erasures (2) count as neither value; any other symbol fails.
    with pytest.raises(DecodeFailure) as exc:
        rep_decode(RepParams(9, 1), word)
    assert str(exc.value) == f"symbol {symbol!r} is not 0, 1 or e"


def test_pad_debris_is_dropped():
    # A flipped pad bit keeps the word long while a deletion elsewhere in
    # the pad shortens it: the excess past m*(2t+1) must be ignored.
    p = RepParams(9, 2)  # block 5, m = 1, pad 4
    x = rep_encode(p, parse_word("1"))
    g = ErrorPattern.from_dict(9, {8: "F", 9: "D"})
    assert rep_decode(p, apply_pattern(x, g)) == (parse_word("1"), False)


def test_burst_params_roundtrip():
    bp = burst_params(9, 1)
    assert (bp.n, bp.t) == (9, 2)
    fam = PatternFamily.burst(9, 1)
    patterns = list(enumerate_family(fam))
    for info in (parse_word("0"), parse_word("1")):
        x = rep_encode(bp, info)
        for g in patterns:
            assert rep_decode(bp, apply_pattern(x, g))[0] == info, g
