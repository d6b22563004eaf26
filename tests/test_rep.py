import itertools
import random

import pytest

from delcodes.errors import DecodeFailure
from delcodes.patterns import (ErrorPattern, PatternFamily, apply_pattern,
                               enumerate_family)
from delcodes.rep import RepParams, burst_params, rep_decode, rep_encode
from delcodes.words import ERASURE, parse_word


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


@pytest.mark.parametrize("symbol", [1.0, 0.0, 2, "1", ERASURE, None])
@pytest.mark.parametrize("position", [0, 2])
def test_encode_refuses_a_symbol_other_than_int_bits(symbol, position):
    # 1.0 == 1, but a codeword holding it is one rep_decode refuses.
    info = [1, 0, 1]
    info[position] = symbol
    with pytest.raises(ValueError) as exc:
        rep_encode(RepParams(9, 1), tuple(info))
    assert str(exc.value) == ("codeword must be erasure-free bits, "
                              f"got symbol {symbol!r}")


@pytest.mark.parametrize("bit", [1, True])
def test_encode_holds_int_bits_only(bit):
    x = rep_encode(RepParams(3, 1), (bit,))
    assert x == (1, 1, 1) and all(type(s) is int for s in x)
    assert rep_decode(RepParams(3, 1), x) == ((1,), False)


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
    assert info == b"\0" and tied


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
    with pytest.raises(ValueError, match="^need b >= 0$"):
        burst_params(9, -1)
    fam = PatternFamily.burst(9, 1)
    patterns = list(enumerate_family(fam))
    for info in (parse_word("0"), parse_word("1")):
        x = rep_encode(bp, info)
        for g in patterns:
            assert rep_decode(bp, apply_pattern(x, g))[0] == info, g


def reference_rep_decode(p, z):
    """The per-symbol decoder rep_decode replaced, kept as its reference."""
    for s in z:
        if not (isinstance(s, int) and s in (0, 1, ERASURE)):
            raise DecodeFailure(f"symbol {s!r} is not 0, 1 or e")
    trailing = 0
    for s in reversed(z):
        if s != 0:
            break
        trailing += 1
    y = z[:len(z) - min(trailing, p.pad)] if p.pad else z
    y = y[:p.m * p.block]
    blocks = [y[i:i + p.block] for i in range(0, len(y), p.block)]
    if len(blocks) < p.m:
        raise DecodeFailure(
            f"got {len(blocks)} blocks, expected {p.m}",
            {"received_length": len(z)})
    info = []
    tied = False
    for block in blocks:
        ones = sum(1 for s in block if s == 1)
        zeros = sum(1 for s in block if s == 0)
        info.append(1 if ones > zeros else 0)
        tied = tied or ones == zeros
    return tuple(info), tied


def _outcome(decode, p, word):
    try:
        return decode(p, word)
    except DecodeFailure as exc:
        return str(exc), exc.diagnostic


def _words(length, limit, rng):
    """Every word over {0, 1, e} of the length if there are at most
    `limit`, else `limit` seeded draws."""
    if 3 ** length <= limit:
        return itertools.product((0, 1, ERASURE), repeat=length)
    return (tuple(rng.choices((0, 1, ERASURE), k=length)) for _ in range(limit))


@pytest.mark.parametrize("n, t", [(3, 1), (9, 1), (11, 1), (9, 2), (15, 2)])
def test_decode_matches_per_symbol_reference(n, t):
    # Exhaustive up to length 8; 3^8 seeded draws per longer length (all
    # words of length up to n + 2 would be 1.9e8 at n = 15).
    p = RepParams(n, t)
    rng = random.Random(100 * n + t)
    for length in range(n + 3):
        for word in _words(length, 3 ** 8, rng):
            assert (_outcome(rep_decode, p, word)
                    == _outcome(reference_rep_decode, p, word)), word


@pytest.mark.parametrize("n, t", [(9, 1), (11, 1), (15, 2)])
@pytest.mark.parametrize("symbol", [3, 255, 256, -1, 1.0, "1", None, b"\0"])
def test_foreign_symbol_matches_per_symbol_reference(n, t, symbol):
    # The first foreign symbol is named, wherever it sits.
    p = RepParams(n, t)
    x = rep_encode(p, (1,) * p.m)
    for pos in (0, n // 2, n - 1):
        for word in (x[:pos] + (symbol,) + x[pos + 1:],
                     x[:pos] + (symbol,) + x[pos + 1:-1] + (7,)):
            expect = _outcome(reference_rep_decode, p, word)
            assert _outcome(rep_decode, p, word) == expect
            assert expect[0].startswith(f"symbol {symbol!r} ")


def test_decode_refuses_an_int():
    # bytearray(9) is nine zero bytes; an int is no word.
    with pytest.raises(TypeError):
        rep_decode(RepParams(9, 1), 9)
