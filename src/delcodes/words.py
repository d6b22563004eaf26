"""Binary words with an erasure symbol.

A word is an immutable tuple of symbols.  Symbols are the ints 0 and 1
plus the erasure marker ERASURE.  Text form uses '0', '1' and 'e'.
"""

from __future__ import annotations

from typing import Tuple

Word = Tuple[int, ...]

ERASURE = 2

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
