"""Binary words with an erasure symbol, held as tuples or as bytes.

A codeword holds the ints 0 and 1 (True reads as 1, 1.0 does not), read
by `codeword_bytes`; a received word may also hold the erasure ERASURE,
read by `received_bytes`.  Text form uses '0', '1' and 'e'.  A word
function returns the word type it was given (`like`): bytes for bytes or
a bytearray, else a tuple.  New words are made as tuples.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from .errors import DecodeFailure

Word = Tuple[int, ...]
Symbols = Union[Word, bytes, bytearray]

ERASURE = 2
_BITS = bytes((0, 1))
_SYMBOLS = bytes((0, 1, ERASURE))
# The word of the one symbol s in each word type: UNITS[type][s].
UNITS = {bytes: tuple(_SYMBOLS[s:s + 1] for s in _SYMBOLS),
         tuple: tuple((s,) for s in _SYMBOLS)}

_CHAR_TO_SYM = {"0": 0, "1": 1, "e": ERASURE}
_TO_TEXT = bytes.maketrans(_SYMBOLS, b"01e")


def parse_word(text: str) -> Word:
    """Parse a word from its text form over {0, 1, e}."""
    try:
        return tuple(_CHAR_TO_SYM[c] for c in text)
    except KeyError as exc:
        raise ValueError(f"bad symbol {exc.args[0]!r} in word {text!r}") from None


def parse_codeword(text: str) -> Word:
    """Parse an erasure-free word from text; an 'e' is named as typed."""
    word = parse_word(text)
    if ERASURE in word:
        raise ValueError("codeword must be erasure-free bits, got symbol 'e'")
    return word


def word_to_str(word: Symbols) -> str:
    """Text form of a word; a symbol other than 0, 1, e raises ValueError."""
    z = symbol_bytes(word, _SYMBOLS)
    if z is None:
        raise ValueError(f"symbol {_foreign(word, _SYMBOLS)!r} is not 0, 1 or e")
    return z.translate(_TO_TEXT).decode()


def weight(word: Word) -> int:
    """Number of ones; erasures must be absent."""
    return codeword_bytes(word).count(1)


def symbol_bytes(x: Symbols, allowed: bytes) -> Optional[bytearray]:
    """x as a bytearray, or None when a symbol is not one of `allowed`.
    `iter` raises TypeError on an int, which `bytearray(k)` would read
    as k zero bytes, and hands `bytearray` a str's characters."""
    if isinstance(x, (int, str)):
        x = iter(x)
    try:
        z = bytearray(x)
    except (TypeError, ValueError):  # a symbol that is no byte
        return None
    return None if z.translate(None, allowed) else z


def _foreign(x: Symbols, allowed: bytes) -> object:
    """The first symbol of x that the byte test of `allowed` refuses."""
    return next(s for s in x if symbol_bytes((s,), allowed) is None)


def codeword_bytes(x: Symbols) -> bytes:
    """An erasure-free word as bytes of 0s and 1s (x itself when bytes,
    checked by one translate); a symbol other than the ints 0 and 1 raises
    ValueError naming the first one.  The test is `symbol_bytes`', inline
    for speed: `tuple` refuses an int and splits a str, as its guard does."""
    z = x
    if type(x) is not bytes:
        if type(x) is not tuple and not isinstance(x, (bytes, bytearray)):
            x = tuple(x)
        try:
            z = bytes(x)
        except (TypeError, ValueError):  # a symbol that is no byte
            z = _SYMBOLS  # refused below
    if not z.translate(None, _BITS):
        return z
    raise ValueError("codeword must be erasure-free bits, got symbol %r"
                     % (_foreign(x, _BITS),))


def like(word: Symbols, z: Symbols) -> Symbols:
    """The word z in word's type: bytes for bytes or a bytearray, else a tuple."""
    if type(word) is tuple or not isinstance(word, (bytes, bytearray)):
        return tuple(z)
    return z if type(z) is bytes else bytes(z)


def received_bytes(y: Symbols) -> bytearray:
    """A received word as a mutable byte string; a symbol other than 0,
    1 and e raises DecodeFailure naming the first one."""
    z = symbol_bytes(y, _SYMBOLS)
    if z is None:
        raise DecodeFailure(f"symbol {_foreign(y, _SYMBOLS)!r} is not 0, 1 or e")
    return z
