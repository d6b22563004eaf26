"""Varshamov-Tenengolts codes and single deletable-error correction.

VT_a(n) is the set of length-n binary words whose weighted checksum
sum(i * x_i) is congruent to a mod M, the one modulus `_modulus(n)`.  A
single deletion, erasure or flip is corrected from the discrepancy alone.

Class sizes and codebooks come from one counting table over (suffix
start, checksum residue), built with O(n^2) additions, instead of a walk
over all 2^n words: its first row is |VT_a(n)| for every a, and
enumeration descends only into prefixes that some codeword completes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress, count
from operator import add
from typing import Iterator, List, Sequence, Tuple

from .errors import DecodeFailure, check_budget
from .words import ERASURE, Word, codeword_bytes


def _modulus(n: int) -> int:
    """The VT modulus M of length n, n+1 as in the paper."""
    return n + 1


@dataclass(frozen=True)
class VtParams:
    """VT_a(n): the words whose checksum is a mod M = `_modulus(n)`."""

    n: int
    a: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")
        if not 0 <= self.a < self.modulus:
            raise ValueError(f"need 0 <= a < {self.modulus}")

    @property
    def modulus(self) -> int:
        return _modulus(self.n)


def vt_checksum(x: Word) -> int:
    """Unreduced weighted checksum sum(i * x_i), 1-based."""
    return sum(compress(count(1), codeword_bytes(x)))


def vt_syndrome(word: Sequence[int], a: int, modulus: int) -> int:
    """(sum i*x_i - a) mod modulus; zero means the checksum matches.

    Any symbol but 0 and the erasure counts as 1: check outside words first.
    """
    if ERASURE in word:
        raise ValueError("checksum undefined with erasures present")
    return (sum(compress(count(1), word)) - a) % modulus


def vt_contains(p: VtParams, x: Word) -> bool:
    if len(x) != p.n:
        raise ValueError(f"word length {len(x)} != n = {p.n}")
    return vt_syndrome(codeword_bytes(x), p.a, p.modulus) == 0


def _suffix_rows(n: int) -> Iterator[List[int]]:
    """Rows n, n-1, ..., 0 of the counting table: row i holds, for each r,
    the number of bit strings over positions i+1..n whose weighted sum
    sum(k * x_k) is r mod M; row n is the empty string alone.

    Each row is the one before plus its copy rotated by the weight, so the
    rows of M entries take O(n*M) additions of integers below 2^n.
    """
    row = [1] + [0] * (_modulus(n) - 1)
    yield row
    for k in range(n, 0, -1):  # row k-1 adds position k, rotating by k < M
        row = list(map(add, row, row[-k:] + row[:-k]))
        yield row


def check_enumeration_budget(n: int) -> None:
    """Refuse to enumerate a VT class of length n over the budget.

    About 2^n/M words are returned, so the budget counts the 2^n words
    (n is clamped at 64 so an absurd n is refused without building 2^n).
    """
    check_budget(2 ** min(n, 64), lambda: f"the 2^{n} words of length {n}")


def vt_enumerate(p: VtParams) -> List[Word]:
    """All codewords of VT_a(n) in lexicographic order.

    Prefixes grow one position at a time, 0 before 1, and a prefix is
    kept only while the counting table says some suffix completes it, so
    it takes O(n) steps per codeword returned.
    """
    check_enumeration_budget(p.n)
    counts = list(_suffix_rows(p.n))[::-1]
    m = p.modulus
    level: List[Tuple[Word, int]] = [((), p.a)]  # (prefix, residue still needed)
    for k in range(1, p.n + 1):
        rest = counts[k]
        grown = []
        for prefix, need in level:
            if rest[need]:
                grown.append((prefix + (0,), need))
            need_one = (need - k) % m
            if rest[need_one]:
                grown.append((prefix + (1,), need_one))
        level = grown
    return [word for word, _ in level]


def vt_class_sizes(n: int) -> List[int]:
    """Sizes of VT_a(n) for a = 0..M-1: the counting table's first row.

    Only the latest row is kept, so memory is O(M) integers of at most n
    bits.  The budget counts the M^2 additions of n-bit integers as
    M^2 * n bit operations, so n up to 255 fits the default.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    check_budget(_modulus(n) ** 2 * n,
                 lambda: f"the {_modulus(n)}^2 * {n} bit operations of the "
                         f"counting table for n = {n}")
    return deque(_suffix_rows(n), maxlen=1).pop()


def vt_best_residue(n: int) -> Tuple[int, int]:
    """Residue a maximizing |VT_a(n)| (smallest a on ties), with the size."""
    sizes = vt_class_sizes(n)
    best = max(sizes)
    return sizes.index(best), best


def correct_erasure(p: VtParams, y: Word) -> Word:
    """Fill in the single erased bit of y using the checksum discrepancy."""
    if len(y) != p.n:
        raise ValueError(f"word length {len(y)} != n = {p.n}")
    erased = y.count(ERASURE)
    if erased != 1:
        raise ValueError(f"expected exactly one erasure, found {erased}")
    k = y.index(ERASURE) + 1
    x = y[:k - 1] + (0,) + y[k:]
    if vt_syndrome(codeword_bytes(x), p.a, p.modulus) != 0:
        x = y[:k - 1] + (1,) + y[k:]
        if vt_syndrome(x, p.a, p.modulus) != 0:
            raise DecodeFailure("erasure correction left a non-codeword",
                                {"position": k})
    return x


def flip_candidates(p: VtParams, y: Word) -> List[Word]:
    """Codewords reachable from y by undoing one flip, in a fixed order.

    The checksum residue r = (CS(y) - a) mod M admits two readings, kept
    where the position lies in 1..n: a one at position r that was flipped
    up (restore to 0), or a zero at position q = M-r that was flipped down
    (restore to 1).  Both may hold: under the paper's modulus, VT classes
    contain pairs differing exactly at positions p and M-p, so single
    flips are not uniquely decodable in general.
    """
    if len(y) != p.n:
        raise ValueError(f"word length {len(y)} != n = {p.n}")
    r = vt_syndrome(codeword_bytes(y), p.a, p.modulus)
    if r == 0:
        raise DecodeFailure("word is already a codeword, no flip to correct")
    out: List[Word] = []
    if r <= p.n and y[r - 1] == 1:  # restore position r to 0
        out.append(y[:r - 1] + (0,) + y[r:])
    q = p.modulus - r
    if q <= p.n and y[q - 1] == 0:  # restore position q to 1
        out.append(y[:q - 1] + (1,) + y[q:])
    return out


def correct_flip(p: VtParams, y: Word) -> Tuple[Word, bool]:
    """Correct a single flipped bit; returns (word, ambiguous).

    When both flip readings are consistent (see flip_candidates) the
    flip-up reading is returned and the ambiguity flag is set.
    """
    candidates = flip_candidates(p, y)
    if not candidates:
        raise DecodeFailure("no single flip reaches a codeword")
    return candidates[0], len(candidates) > 1


def _nth(z: bytes, symbol: int, k: int) -> int:
    """Index of the k-th occurrence of symbol in z (k >= 1), -1 for k = 0."""
    i = -1
    for _ in range(k):
        i = z.index(symbol, i + 1)
    return i


def correct_deletion(p: VtParams, y: Word) -> Word:
    """Reinsert the single deleted bit of y (length n-1).

    With w ones in y and checksum discrepancy d = (a - CS(y)) mod M,
    a deleted 0 goes just left of the d-th one from the right (the
    (w-d+1)-th from the left; at the end when d = 0) if d <= w, and a
    deleted 1 otherwise goes just right of the (d-w-1)-th zero.  Index
    scans find both points, one bytes.index call per passed occurrence.
    The result is always a codeword (Levenshtein 1966): the 0, with d ones
    right of it, adds d to the checksum, and the 1, with L ones left of
    it, adds (d-w-1) + L + 1 + (w-L) = d."""
    if len(y) != p.n - 1:
        raise ValueError(f"word length {len(y)} != n-1 = {p.n - 1}")
    z = codeword_bytes(y)
    w = z.count(1)
    disc = -vt_syndrome(z, p.a, p.modulus) % p.modulus
    if disc <= w:
        bit, i = 0, (_nth(z, 1, w - disc + 1) if disc else len(z))
    else:
        bit, i = 1, _nth(z, 0, disc - w - 1) + 1
    return y[:i] + (bit,) + y[i:]


def correct_single(p: VtParams, y: Word) -> Tuple[Word, bool]:
    """Correct at most one deletable error; returns (word, ambiguous).

    Each word is validated once: by the corrector it is passed to, or
    here when its checksum already matches.
    """
    m = len(y)
    erasures = y.count(ERASURE)
    if erasures > 1:
        raise DecodeFailure(f"{erasures} erasures, at most one supported")
    if erasures == 1:
        if m != p.n:
            raise DecodeFailure("erasure present but length is not n")
        return correct_erasure(p, y), False
    if m == p.n - 1:
        return correct_deletion(p, y), False
    if m == p.n:
        if vt_syndrome(y, p.a, p.modulus) != 0:
            return correct_flip(p, y)
        codeword_bytes(y)
        return y, False
    raise DecodeFailure(f"received length {m} outside {{n-1, n}}")
