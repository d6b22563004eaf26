"""The word-type rule: a word function returns the word type it was given.
A tuple in gives tuples out; bytes or a bytearray in gives bytes out, with
the same values, and a foreign symbol is refused with the same exception
whatever type holds it.  A word made from no word is bytes."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delcodes.errors import DecodeFailure
from delcodes.far import far_codeword, far_decode, far_encode
from delcodes.patterns import (ErrorPattern, PatternFamily, apply_pattern,
                               enumerate_family)
from delcodes.rep import RepParams, rep_decode, rep_encode
from delcodes.verify import make_code
from delcodes.vt import (correct_deletion, correct_erasure, correct_single,
                         flip_candidates, vt_enumerate)
from delcodes.words import (ERASURE, codeword_bytes, parse_codeword,
                            parse_word, received_bytes, weight, word_to_str)

CODES = {"vt": make_code("vt", n=8, a=0), "rep": make_code("rep", n=9, t=1),
         "burst": make_code("burst", n=9, b=1), "far": make_code("far", n=12, P=3)}
VT = CODES["vt"].params
FLIP_ERASE_DELETE = ErrorPattern(8, ((2, "F"), (4, "E"), (7, "D")))

# Each word function, the code whose corrupted codewords it is fed (with
# random words of about its length), and the function.
FUNCTIONS = {
    "apply_pattern": ("vt", lambda w: apply_pattern(w, FLIP_ERASE_DELETE)),
    "correct_single": ("vt", lambda w: correct_single(VT, w)),
    "correct_erasure": ("vt", lambda w: correct_erasure(VT, w)),
    "correct_deletion": ("vt", lambda w: correct_deletion(VT, w)),
    "flip_candidates": ("vt", lambda w: flip_candidates(VT, w)),
    "far_decode": ("far", lambda w: far_decode(CODES["far"].params, w)),
    # Each word is the info of a repetition code with blocks of three.
    "rep_encode": ("rep", lambda w: rep_encode(RepParams(3 * len(w), 1), w)),
    "rep_decode": ("rep", lambda w: rep_decode(CODES["rep"].params, w)),
    **{f"{kind}.decode": (kind, code.decode) for kind, code in CODES.items()},
}


def _corrupted(code):
    family = PatternFamily.at_most(code.params.n, 1)
    return [apply_pattern(x, g) for x in code.codewords()
            for g in enumerate_family(family)]


POOLS = {kind: list(map(tuple, _corrupted(code))) for kind, code in CODES.items()}


def _is_word(obj) -> bool:
    return isinstance(obj, (bytes, bytearray)) or (
        type(obj) is tuple and all(type(s) is int for s in obj))


def _split(out):
    """The words in a result, and the result with each word as a tuple."""
    if _is_word(out):
        return [out], tuple(out)
    if isinstance(out, (tuple, list)):
        parts = [_split(o) for o in out]
        return ([w for words, _ in parts for w in words],
                type(out)(plain for _, plain in parts))
    return [], out


def _outcome(function, word):
    """(result with tuple words, word types out), or the exception raised."""
    try:
        out = function(word)
    except (ValueError, TypeError, DecodeFailure) as exc:
        return type(exc), str(exc)
    words, plain = _split(out)
    return plain, {type(w) for w in words}


@st.composite
def cases(draw, symbols=(None, 3, ERASURE)):
    name = draw(st.sampled_from(sorted(FUNCTIONS)))
    kind, _ = FUNCTIONS[name]
    n = CODES[kind].params.n
    word = draw(st.one_of(
        st.sampled_from(POOLS[kind]),
        st.lists(st.sampled_from((0, 1, 0, 1, ERASURE)),
                 min_size=n - 1, max_size=n + 1).map(tuple)))
    symbol = draw(st.sampled_from(symbols))
    if symbol is not None and word:
        i = draw(st.integers(0, len(word) - 1))
        word = word[:i] + (symbol,) + word[i + 1:]
    return name, word


@settings(max_examples=400, deadline=None)
@given(cases())
def test_word_type_in_is_word_type_out(case):
    name, word = case
    function = FUNCTIONS[name][1]
    expected = _outcome(function, word)
    if isinstance(expected[0], type):  # refused: the same way for bytes
        assert all(_outcome(function, form(word)) == expected
                   for form in (bytes, bytearray))
        return
    plain, types = expected
    assert types <= {tuple}
    for form in (bytes, bytearray):
        assert _outcome(function, form(word)) == (plain, types and {bytes})


@settings(max_examples=100, deadline=None)
@given(cases(symbols=(None,)))
def test_a_float_symbol_is_refused_as_a_foreign_byte_is(case):
    # 1.0 and 3 take the same path (neither is a bit, both read as true),
    # so 1.0 in a tuple is refused as 3 in bytes is, naming 1.0.
    name, word = case
    function = FUNCTIONS[name][1]
    if not word:
        return
    for i in {0, len(word) // 2, len(word) - 1}:
        tuple_out = _outcome(function, word[:i] + (1.0,) + word[i + 1:])
        bytes_out = _outcome(function, bytes(word[:i] + (3,) + word[i + 1:]))
        if isinstance(bytes_out[0], type) and "symbol 3" in bytes_out[1]:
            assert tuple_out == (bytes_out[0], re.sub(
                "symbol 3", "symbol 1.0", bytes_out[1]))


FAR = CODES["far"].params
# Each function that makes words from no word, and the words it makes.
PRODUCERS = {
    "parse_word": lambda: [parse_word("01e1")],
    "parse_codeword": lambda: [parse_codeword("0110")],
    "vt_enumerate": lambda: vt_enumerate(VT),
    "far_encode": lambda: [far_encode(FAR, [1] * FAR.t)],
    "far_codeword": lambda: [far_codeword(FAR, FAR.codeword_count - 1)],
    "far alphabets": lambda: [*FAR.inner_alphabet, *FAR.final_alphabet],
    **{f"{kind}.codeword": lambda code=code: [code.codeword(code.codeword_count - 1)]
       for kind, code in CODES.items()},
    **{f"{kind}.codewords": lambda code=code: list(code.codewords())
       for kind, code in CODES.items()},
}


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_every_producer_returns_bytes(name):
    words = PRODUCERS[name]()
    assert words and all(type(w) is bytes for w in words)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_an_int_is_no_word(name):
    with pytest.raises(TypeError):
        FUNCTIONS[name][1](9)


# Each function that reads a word, the exception it refuses a symbol with,
# and what it says.
READERS = {
    "codeword_bytes": (codeword_bytes, ValueError,
                       "codeword must be erasure-free bits, got symbol 7"),
    "weight": (weight, ValueError,
               "codeword must be erasure-free bits, got symbol 7"),
    "received_bytes": (received_bytes, DecodeFailure, "symbol 7 is not 0, 1 or e"),
    "word_to_str": (word_to_str, ValueError, "symbol 7 is not 0, 1 or e"),
    "rep_decode": (lambda w: rep_decode(CODES["rep"].params, w),
                   DecodeFailure, "symbol 7 is not 0, 1 or e"),
    "far_decode": (lambda w: far_decode(CODES["far"].params, w), DecodeFailure,
                   "symbol 7 is not 0, 1 or e"),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_a_one_shot_word_is_read_once(name):
    # The foreign symbol is named from the symbols read, not from the
    # spent generator, which would end the search with StopIteration.
    read, error, message = READERS[name]
    with pytest.raises(error) as exc:
        read(s for s in [0, 1, 7, 1])
    assert type(exc.value) is error and str(exc.value) == message
