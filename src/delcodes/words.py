"""Binary words with an erasure symbol, held as bytes.

A codeword holds the symbols 0 and 1 (True reads as 1, 1.0 does not),
read by `codeword_bytes`; a received word may also hold the erasure
ERASURE, read by `received_bytes`.  Both, and `word_to_str`, read through
the one symbol test in `symbol_bytes`.  Text form uses '0', '1' and 'e'.
Every word the library makes is bytes; `like` alone hands a tuple back,
to a caller that passed a tuple in.
"""

from __future__ import annotations

from typing import Optional, Tuple, Type, Union

from .errors import DecodeFailure

Word = bytes  # what every producer returns
Symbols = Union[bytes, bytearray, Tuple[int, ...]]  # what every reader takes

ERASURE = 2
_BITS = bytes((0, 1))
_SYMBOLS = bytes((0, 1, ERASURE))
UNITS = tuple(_SYMBOLS[s:s + 1] for s in _SYMBOLS)  # UNITS[s]: the word s

_CHAR_TO_SYM = {"0": 0, "1": 1, "e": ERASURE}
_TO_TEXT = bytes.maketrans(_SYMBOLS, b"01e")
# What a refusal says, by the symbols allowed.
_REFUSALS = {_BITS: "codeword must be erasure-free bits, got symbol %r",
             _SYMBOLS: "symbol %r is not 0, 1 or e"}


def parse_word(text: str) -> Word:
    """Parse a word from its text form over {0, 1, e}."""
    try:
        return bytes(map(_CHAR_TO_SYM.__getitem__, text))
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
    return symbol_bytes(word, _SYMBOLS, ValueError).translate(_TO_TEXT).decode()


def weight(word: Symbols) -> int:
    """Number of ones; erasures must be absent."""
    return codeword_bytes(word).count(1)


def symbol_bytes(x: Symbols, allowed: bytes,
                 error: Optional[Type[Exception]] = None) -> Optional[bytes]:
    """x as bytes when every symbol is one of `allowed` (_BITS or
    _SYMBOLS).  Otherwise None, or, given an `error` class, that error
    naming the first symbol that is not.  Bytes come back as they are
    after one translate, and a tuple or bytearray is converted to bytes.
    Any other iterable is first read once into a tuple, where a refused
    symbol is then found: `tuple` raises TypeError on an int, which
    `bytes(k)` would read as k zero bytes, and splits a str."""
    z = x
    if type(x) is not bytes:
        if type(x) is not tuple and not isinstance(x, (bytes, bytearray)):
            x = tuple(x)
        try:  # from a tuple, bytearray reads a symbol in half the time
            # bytes takes; a buffer is copied once
            z = bytes(bytearray(x)) if type(x) is tuple else bytes(x)
        except (TypeError, ValueError):  # a symbol that is no byte
            z = b"\xff"  # no symbol: refused below
    if not z.translate(None, allowed):
        return z
    if error is None:
        return None
    for s in x:  # a generator would make `allowed` a cell, paid on every call
        if symbol_bytes((s,), allowed) is None:
            raise error(_REFUSALS[allowed] % (s,))


def codeword_bytes(x: Symbols) -> bytes:
    """An erasure-free word as bytes of 0s and 1s (`symbol_bytes`); a
    symbol other than the ints 0 and 1 raises ValueError naming the first
    one.  True reads as 1, 1.0 does not."""
    return symbol_bytes(x, _BITS, ValueError)


def like(word: Symbols, z: Symbols) -> Symbols:
    """The word z in word's type: a tuple for a tuple (or any iterable that
    is no bytes or bytearray), else bytes.  No other function hands a
    word back as a tuple."""
    if type(word) is tuple or not isinstance(word, (bytes, bytearray)):
        return tuple(z)
    return z if type(z) is bytes else bytes(z)


def received_bytes(y: Symbols) -> bytes:
    """A received word as bytes (`symbol_bytes`); a symbol other than 0,
    1 and e raises DecodeFailure naming the first one."""
    return symbol_bytes(y, _SYMBOLS, DecodeFailure)
