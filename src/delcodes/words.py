"""Binary words with an erasure symbol.

A word is an immutable tuple of symbols: the ints 0 and 1 and the
erasure marker ERASURE.  Decoders also take a received word as bytes.
Text form uses '0', '1' and 'e'.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from .errors import DecodeFailure

Word = Tuple[int, ...]
Symbols = Union[Word, bytes, bytearray]

ERASURE = 2
_SYMBOLS = bytes((0, 1, ERASURE))

_CHAR_TO_SYM = {"0": 0, "1": 1, "e": ERASURE}
_SYM_TO_CHAR = {0: "0", 1: "1", ERASURE: "e"}


def parse_word(text: str) -> Word:
    """Parse a word from its text form over {0, 1, e}."""
    try:
        return tuple(_CHAR_TO_SYM[c] for c in text)
    except KeyError as exc:
        raise ValueError(f"bad symbol {exc.args[0]!r} in word {text!r}") from None


def word_to_str(word: Word) -> str:
    return "".join(_SYM_TO_CHAR[s] for s in word)


def check_codeword(word: Word) -> None:
    """Raise if the word is not a valid erasure-free bit sequence."""
    if word.count(0) + word.count(1) != len(word):
        bad = next(s for s in word if s not in (0, 1))
        raise ValueError("codeword must be erasure-free bits, got symbol %r" % (bad,))


def weight(word: Word) -> int:
    """Number of ones; erasures must be absent."""
    check_codeword(word)
    return sum(word)


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


def received_bytes(y: Symbols) -> bytearray:
    """A received word as a mutable byte string; a symbol other than 0,
    1 and e raises DecodeFailure naming the first one."""
    z = symbol_bytes(y, _SYMBOLS)
    if z is None:
        bad = next(s for s in y if not (isinstance(s, int) and s in (0, 1, ERASURE)))
        raise DecodeFailure(f"symbol {bad!r} is not 0, 1 or e")
    return z
