"""Binary words with an erasure symbol: tuples, or bytes for decoders.

A codeword holds the ints 0 and 1 (True reads as 1, 1.0 does not), read
by `codeword_bytes`; a received word may also hold the erasure ERASURE,
read by `received_bytes`.  Text form uses '0', '1' and 'e'.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from .errors import DecodeFailure

Word = Tuple[int, ...]
Symbols = Union[Word, bytes, bytearray]

ERASURE = 2
_BITS = bytes((0, 1))
_SYMBOLS = bytes((0, 1, ERASURE))

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


def codeword_bytes(x: Symbols) -> bytearray:
    """An erasure-free word as a bytearray of 0s and 1s; a symbol other than
    the ints 0 and 1 raises ValueError naming the first one.  The test is
    `symbol_bytes`', inline for speed; `tuple` costs nothing on a tuple
    and, like its guard, refuses an int and splits a str."""
    x = tuple(x)
    try:
        z = bytearray(x)
        if not z.translate(None, _BITS):
            return z
    except (TypeError, ValueError):  # a symbol that is no byte
        pass
    raise ValueError("codeword must be erasure-free bits, got symbol %r"
                     % (_foreign(x, _BITS),))


def received_bytes(y: Symbols) -> bytearray:
    """A received word as a mutable byte string; a symbol other than 0,
    1 and e raises DecodeFailure naming the first one."""
    z = symbol_bytes(y, _SYMBOLS)
    if z is None:
        raise DecodeFailure(f"symbol {_foreign(y, _SYMBOLS)!r} is not 0, 1 or e")
    return z
