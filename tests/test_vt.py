import itertools

import pytest

from delcodes.errors import BudgetExceeded, DecodeFailure
from delcodes.vt import (VtParams, correct_deletion, correct_erasure,
                         correct_flip, correct_single, vt_best_residue,
                         vt_checksum, vt_class_sizes, vt_contains,
                         vt_enumerate, vt_syndrome)
from delcodes.words import ERASURE, parse_word


def test_checksum_examples():
    assert vt_checksum(parse_word("0110")) == 5
    assert vt_checksum(parse_word("0000")) == 0
    assert vt_checksum(parse_word("1111")) == 10


def test_vt_syndrome():
    assert vt_syndrome(parse_word("011"), 1, 4) == 0
    assert vt_syndrome(parse_word("111"), 1, 4) == 1
    with pytest.raises(ValueError):
        vt_syndrome((0, ERASURE, 1), 1, 4)


def test_vt04_golden():
    codebook = vt_enumerate(VtParams(4, 0))
    assert [parse_word(w) for w in ("0000", "0110", "1001", "1111")] == codebook


def test_class_sizes_partition_and_pigeonhole():
    for n in range(1, 11):
        sizes = vt_class_sizes(n)
        assert sum(sizes) == 2 ** n
        assert max(sizes) * (n + 1) >= 2 ** n


def test_best_residue():
    a, size = vt_best_residue(4)
    assert (a, size) == (0, 4)


def test_enumerate_cap():
    with pytest.raises(BudgetExceeded):
        vt_enumerate(VtParams(30, 0))


def test_params_validation():
    with pytest.raises(ValueError):
        VtParams(4, 5)
    with pytest.raises(ValueError):
        VtParams(0, 0)


@pytest.mark.parametrize("n", range(2, 9))
def test_erasure_exhaustive(n):
    for bits in itertools.product((0, 1), repeat=n):
        a = vt_checksum(bits) % (n + 1)
        p = VtParams(n, a)
        for k in range(n):
            y = bits[:k] + (ERASURE,) + bits[k + 1:]
            assert correct_erasure(p, y) == bits


@pytest.mark.parametrize("n", range(2, 9))
def test_deletion_exhaustive(n):
    for bits in itertools.product((0, 1), repeat=n):
        a = vt_checksum(bits) % (n + 1)
        p = VtParams(n, a)
        for k in range(n):
            y = bits[:k] + bits[k + 1:]
            assert correct_deletion(p, y) == bits


@pytest.mark.parametrize("n", range(2, 9))
def test_flip_exhaustive(n):
    # A flip may be ambiguous; the decoder must flag ambiguity and return
    # one of the consistent readings, which includes the true codeword.
    for bits in itertools.product((0, 1), repeat=n):
        a = vt_checksum(bits) % (n + 1)
        p = VtParams(n, a)
        for k in range(n):
            y = bits[:k] + (1 - bits[k],) + bits[k + 1:]
            estimate, ambiguous = correct_flip(p, y)
            if not ambiguous:
                assert estimate == bits
            else:
                assert estimate == bits or vt_contains(p, estimate)


def test_flip_ambiguity_is_flagged():
    # 0111 arises from 0110 (flip at 4) and from 1111 (flip at 1); both
    # readings are VT_0(4) codewords so the decoder must flag the tie.
    estimate, ambiguous = correct_flip(VtParams(4, 0), parse_word("0111"))
    assert ambiguous
    assert estimate in (parse_word("0110"), parse_word("1111"))


def test_flip_on_codeword_fails():
    with pytest.raises(DecodeFailure):
        correct_flip(VtParams(4, 0), parse_word("0110"))


def test_erasure_requires_exactly_one():
    p = VtParams(4, 0)
    with pytest.raises(ValueError):
        correct_erasure(p, parse_word("0110"))
    with pytest.raises(ValueError):
        correct_erasure(p, parse_word("0ee0"))


def test_correct_single_dispatch():
    p = VtParams(4, 0)
    x = parse_word("0110")
    assert correct_single(p, x) == (x, False)
    assert correct_single(p, parse_word("010")) == (x, False)
    assert correct_single(p, parse_word("0e10")) == (x, False)
    # 0100 reads as 0000 (flip up at 2) or 0110 (flip down at 3); the
    # first reading is returned and the tie is flagged.
    assert correct_single(p, parse_word("0100")) == (parse_word("0000"), True)
    with pytest.raises(DecodeFailure):
        correct_single(p, parse_word("01"))
    with pytest.raises(DecodeFailure):
        correct_single(p, parse_word("ee10"))
