"""Varshamov-Tenengolts codes and single deletable-error correction.

VT_a(n) is the set of length-n binary words whose weighted checksum
sum(i * x_i) is congruent to a mod M, the one modulus `_modulus(n)`.  A
single deletion, erasure or flip is corrected from the discrepancy alone.

A class is a sequence of its words in lexicographic order (`VtClass`),
held as the rows of one counting table over (suffix start, checksum
residue), built in one loop of O(n^2) additions: the first row is
|VT_a(n)| for every a, and the rows unrank a word from its index.
Listing a codebook joins two half-tables, each half of the positions'
words with their residues (Horowitz and Sahni's two-list split).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress, islice
from operator import add
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import BudgetExceeded, DecodeFailure, check_budget, check_index
from .words import ERASURE, UNITS, Symbols, Word, codeword_bytes, like

_POSITIONS = range(1, 1 << 62)  # 1-based; reused, it costs less than count(1)


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

    @cached_property
    def modulus(self) -> int:
        return _modulus(self.n)


def vt_checksum(x: Symbols) -> int:
    """Unreduced weighted checksum sum(i * x_i), 1-based."""
    return sum(compress(_POSITIONS, codeword_bytes(x)))


def vt_syndrome(word: Sequence[int], a: int, modulus: int) -> int:
    """(sum i*x_i - a) mod modulus; zero means the checksum matches.

    Any symbol but 0 and the erasure counts as 1: check outside words first.
    """
    if ERASURE in word:
        raise ValueError("checksum undefined with erasures present")
    return (sum(compress(_POSITIONS, word)) - a) % modulus


def vt_contains(p: VtParams, x: Symbols) -> bool:
    if len(x) != p.n:
        raise ValueError(f"word length {len(x)} != n = {p.n}")
    return vt_syndrome(codeword_bytes(x), p.a, p.modulus) == 0


def check_enumeration_budget(n: int) -> None:
    """Refuse to enumerate a VT class of length n over the budget.

    About 2^n/M words are returned, so the budget counts the 2^n words
    (n is clamped at 64 so an absurd n is refused without building 2^n).
    """
    check_budget(2 ** min(n, 64), lambda: f"the 2^{n} words of length {n}")


def _half_table(positions: range, m: int) -> List[Tuple[Word, int]]:
    """The 0/1 words over `positions` in lexicographic order, each with
    its weighted sum mod m, grown a position at a time, 0 before 1."""
    table: List[Tuple[Word, int]] = [(b"", 0)]
    for k in positions:
        table = [(w + UNITS[b], (r + b * k) % m) for w, r in table for b in (0, 1)]
    return table


Rows = Tuple[Tuple[int, ...], ...]


def _counting_table(n: int, m: int) -> Rows:
    """Rows 0..n of the counting table mod m: row k counts, for each r,
    the bit strings over positions k+1..n whose weighted sum is r mod m.

    The budget counts the m^2 additions of n-bit integers as m^2 * n bit
    operations, so n up to 255 fits the default under the paper's
    modulus.  It is checked on every call, the table built once per
    (n, m) for the last eight: a far code's set-up reads the class sizes
    and then enumerates the same classes.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    check_budget(m ** 2 * n, lambda: f"the {m}^2 * {n} bit operations of "
                                     f"the counting table for n = {n}")
    return _build_rows(n, m)


@lru_cache(maxsize=8)
def _build_rows(n: int, m: int) -> Rows:
    """Row n is the empty string alone.  One loop builds rows n-1, ..., 0,
    each the row before plus its copy rotated by the weight: O(m) integers
    of at most n bits per row.  Tuples, as the cache shares them."""
    rows = [(1,) + (0,) * (m - 1)]
    for k in range(n, 0, -1):  # row k-1 adds position k, rotating by k < m
        row = rows[-1]
        rows.append(tuple(map(add, row, row[-k:] + row[:-k])))
    rows.reverse()
    return tuple(rows)


class VtClass(Sequence):
    """The words of VT_a(n) in lexicographic order, as a sequence of bytes.

    `cls[i]` unranks word i from the rows of the counting table: at
    position k it takes 0 when row k still counts more than i completions
    of the checksum, else subtracts them and takes 1.  While the class
    fits the enumeration budget it keeps each word it unranks, as a tuple
    of the class would, so a word drawn again costs one dict lookup;
    above the budget it keeps none.  Iteration is the half-table join
    (Horowitz and Sahni's two-list split), under the enumeration budget.
    `cls[a:b]` is a view of the same rows; a slice with a step is
    refused.  An index outside 0..size-1 is refused, with no wrap-around.
    `size` is the number of words, which len() gives only below 2^63, as
    for a range.
    """

    def __init__(self, p: VtParams, rows: Rows, ranks: range):
        self.params = p
        self._rows = rows  # rows 1..n of the counting table
        self._ranks = ranks  # the class ranks of this sequence's words, step 1
        self.size = max(0, ranks.stop - ranks.start)
        try:
            check_enumeration_budget(p.n)
            self._kept: Optional[Dict[int, Word]] = {}
        except BudgetExceeded:
            self._kept = None

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i):
        if type(i) is int:
            try:
                return self._kept[i]
            except (KeyError, TypeError):  # not kept yet, or none is kept
                pass
        elif isinstance(i, slice):
            if i.step not in (None, 1):
                raise ValueError("a class view takes no step")
            return VtClass(self.params, self._rows, self._ranks[i])
        check_index(i, self.size)
        rank, need, m = self._ranks[i], self.params.a, self.params.modulus
        bits = bytearray(self.params.n)
        for k, row in enumerate(self._rows, 1):
            if rank >= row[need]:
                rank -= row[need]
                bits[k - 1] = 1
                need = (need - k) % m
        word = bytes(bits)
        if self._kept is not None:
            self._kept[i] = word
        return word

    def __iter__(self) -> Iterator[Word]:
        check_enumeration_budget(self.params.n)
        m, n, h = self.params.modulus, self.params.n, self.params.n // 2
        rights: List[List[Word]] = [[] for _ in range(m)]
        for w, r in _half_table(range(h + 1, n + 1), m):
            rights[r].append(w)
        words = (w + v for w, r in _half_table(range(1, h + 1), m)
                 for v in rights[(self.params.a - r) % m])
        return islice(words, self._ranks.start, self._ranks.stop)


def vt_enumerate(p: VtParams) -> VtClass:
    """VT_a(n) as a `VtClass`, the sequence of its codewords in
    lexicographic order, each bytes; not a list.  It holds the rows of
    the counting table, under the table's budget, and no word: a word is
    unranked when it is indexed, and the codebook is listed when the
    class is iterated, under the enumeration budget."""
    rows = _counting_table(p.n, p.modulus)
    return VtClass(p, rows[1:], range(rows[0][p.a]))


def vt_class_sizes(n: int) -> List[int]:
    """Sizes of VT_a(n) for a = 0..M-1: the counting table's row 0."""
    return list(_counting_table(n, _modulus(n))[0])


def vt_best_residue(n: int) -> Tuple[int, int]:
    """Residue a maximizing |VT_a(n)| (smallest a on ties), with the size."""
    sizes = vt_class_sizes(n)
    best = max(sizes)
    return sizes.index(best), best


def correct_erasure(p: VtParams, y: Symbols) -> Symbols:
    """Fill in the single erased bit of y, at position k, from one checksum:
    with the erasure read as 0 and syndrome r, the fill is 0 when r = 0 and
    1 when r + k is 0 mod M, as a 1 at position k adds k to the checksum."""
    if len(y) != p.n:
        raise ValueError(f"word length {len(y)} != n = {p.n}")
    erased = y.count(ERASURE)
    if erased != 1:
        raise ValueError(f"expected exactly one erasure, found {erased}")
    k = y.index(ERASURE) + 1
    left, right = codeword_bytes(y[:k - 1]), codeword_bytes(y[k:])
    r = vt_syndrome(left + b"\0" + right, p.a, p.modulus)
    if r and (r + k) % p.modulus:
        raise DecodeFailure("erasure correction left a non-codeword",
                            {"position": k})
    return like(y, left + (b"\1" if r else b"\0") + right)


def flip_candidates(p: VtParams, y: Symbols) -> List[Symbols]:
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
    z = codeword_bytes(y)
    r = vt_syndrome(z, p.a, p.modulus)
    if r == 0:
        raise DecodeFailure("word is already a codeword, no flip to correct")
    out: List[Symbols] = []
    if r <= p.n and z[r - 1]:  # restore position r to 0
        out.append(like(y, z[:r - 1] + b"\0" + z[r:]))
    q = p.modulus - r
    if q <= p.n and not z[q - 1]:  # restore position q to 1
        out.append(like(y, z[:q - 1] + b"\1" + z[q:]))
    return out


def correct_deletion(p: VtParams, y: Symbols) -> Symbols:
    """Reinsert the single deleted bit of y (length n-1).

    With w ones in y and checksum discrepancy d = (a - CS(y)) mod M,
    a deleted 0 goes just left of the d-th one from the right (the
    (w-d+1)-th from the left; at the end when d = 0) if d <= w, and a
    deleted 1 otherwise goes just right of the (d-w-1)-th zero.  One
    bytes.rsplit or split finds either point, wherever it lies.
    The result is always a codeword (Levenshtein 1966): the 0, with d ones
    right of it, adds d to the checksum, and the 1, with L ones left of
    it, adds (d-w-1) + L + 1 + (w-L) = d."""
    if len(y) != p.n - 1:
        raise ValueError(f"word length {len(y)} != n-1 = {p.n - 1}")
    z = codeword_bytes(y)
    w = z.count(1)
    disc = -vt_syndrome(z, p.a, p.modulus) % p.modulus
    if disc <= w:
        bit, i = b"\0", len(z.rsplit(b"\1", disc)[0])
    else:
        bit, i = b"\1", len(z) - len(z.split(b"\0", disc - w - 1)[-1])
    return like(y, z[:i] + bit + z[i:])


def correct_single(p: VtParams, y: Symbols) -> Tuple[Symbols, bool]:
    """Correct at most one deletable error; returns (word, ambiguous).

    A flip is undone by the first of `flip_candidates`; when both flip
    readings are consistent, that is the flip-up one and the ambiguity
    flag is set.  Each word is validated once: by the corrector it is
    passed to, or here when its checksum already matches.
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
        if vt_syndrome(y, p.a, p.modulus) == 0:  # codeword_bytes refuses
            return like(y, codeword_bytes(y)), False  # a symbol but 0 and 1
        candidates = flip_candidates(p, y)
        if not candidates:
            raise DecodeFailure("no single flip reaches a codeword")
        return candidates[0], len(candidates) > 1
    raise DecodeFailure(f"received length {m} outside {{n-1, n}}")
