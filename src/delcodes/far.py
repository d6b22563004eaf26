"""Concatenated VT code for far-apart deletable errors.

Codewords are t-1 inner blocks from VT_a1(P) with the constant words
removed, followed by a final block from VT_a2(P+s) where n = t*P + s.
When the errors hitting a codeword are pairwise at least 3P apart, each
inner block suffers at most one error and the blocks around it stay
clean.  The decoder therefore reads the received word once from the
left and builds the estimate forward: it copies clean blocks, corrects
each error at the first block it upsets, appends the fixed block and
goes on at the next block, never reading a symbol behind its cursor
again.  The error is always in that block, never in the block before
it: VT_a(P) corrects one deletion, so the only codeword c' with c'[:-1]
a deletion of a codeword c is c itself.  A deletion in block j-1 that
leaves block j-1's checksum consistent therefore leaves block j-1 as
sent: the deleted bit ends a run that goes on into block j, and the
received word is the same word with the first bit of block j deleted.
Since blocks are sliced only when the scan reaches them, words shortened
by any number of far-apart deletions are accepted: a block pushed past
the end of the word reads as a deletion still pending.

Every final block, and any block holding an erasure, goes to
`vt.correct_single`, which corrects it from its length and erasure
count.  The decoder keeps only the decision that rule cannot make:
whether an inner block without an erasure suffered a flip or a
deletion, which the next block's checksum tells.

The scan does not visit clean blocks one by one.  `window_sums` gives the
weighted checksum of every length-P window of the received word from one
big-integer product, and the scan jumps from one suspect block to the
next, or to the first erasure that one `find` meets in the stretch it
copies; only there does the per-block correction code run.  The product
takes O(n*P) digit operations, linear in n at fixed P, and pays while P
is small: against per-block `sum(compress(...))` it took 0.004 ms vs
0.13-0.18 ms at n = 3024, P = 14, 0.8-0.9 ms vs 1.0-1.4 ms at n = 10^5,
P = 231, and 25-28 ms vs 26-28 ms at n = 10^6, P = 1157 (Python 3.11,
2-CPU Xeon).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, List, Sequence, Tuple, Union

from .errors import DecodeFailure, check_index
from .vt import (VtParams, check_enumeration_budget, correct_deletion,
                 correct_single, flip_candidates, vt_class_sizes,
                 vt_enumerate, vt_syndrome)
from .words import ERASURE, Symbols, Word, received_bytes, symbol_bytes


def _best_residue_without_constants(m: int) -> int:
    """Residue maximizing |VT_a(m)| after dropping the constant words.

    The all-zero word has residue 0 and the all-one word m(m+1)/2 mod M,
    the number of residues; ties go to the smallest residue.
    """
    sizes = vt_class_sizes(m)
    sizes[0] -= 1
    sizes[m * (m + 1) // 2 % len(sizes)] -= 1
    return sizes.index(max(sizes))


@dataclass(frozen=True)
class FarParams:
    n: int
    P: int
    t: int
    s: int
    a1: int
    a2: int
    inner_alphabet: Tuple[Word, ...] = field(repr=False)
    final_alphabet: Tuple[Word, ...] = field(repr=False)

    @cached_property
    def inner_code(self) -> VtParams:
        return VtParams(self.P, self.a1)

    @cached_property
    def final_code(self) -> VtParams:
        return VtParams(self.P + self.s, self.a2)

    @cached_property
    def _sum_tables(self) -> Tuple[bytes, bytes]:
        """Tables indexed by an inner window sum v, at least 256 long:
        1 where v passes the checksum (v is a1 mod the inner modulus M),
        then 1 where it also is no constant word's sum, 0 or P(P+1)/2."""
        top = self.P * (self.P + 1) // 2
        m = self.inner_code.modulus
        passes = bytes(v % m == self.a1 for v in range(max(256, top + 1)))
        member = bytearray(passes)
        member[0] = member[top] = 0
        return passes, bytes(member)

    @cached_property
    def codeword_count(self) -> int:
        return len(self.inner_alphabet) ** (self.t - 1) * len(self.final_alphabet)


def far_params(n: int, P: int) -> FarParams:
    """Construct parameters: t - 1 inner blocks of length P and a final
    block of length P + s, where n = t*P + s.

    The inner alphabet is the non-constant words of VT_a1(P), a1 chosen
    to make it largest; for P >= 3 it is never empty, as the 2^P - 2
    non-constant words fall into at most 2P residues.  The final alphabet
    is all of VT_a2(P + s), constants included, but a2 is chosen as if
    they were dropped: under the paper's modulus it has one word fewer
    than the largest class at P + s in {4, 6, 8, 10, 12, 16, 18, 22, 24}
    (9 words, not 10, for far(60, 6)).
    """
    if P < 3:
        raise ValueError("need P >= 3 so the inner alphabet is non-empty")
    if n < 2 * P:
        raise ValueError("need n >= 2P (at least two blocks)")
    t, s = divmod(n, P)
    # The final block's enumeration is the largest walk: refuse it before
    # building any counting table.
    check_enumeration_budget(P + s)
    a1 = _best_residue_without_constants(P)
    inner = tuple(w for w in vt_enumerate(VtParams(P, a1)) if 0 < sum(w) < P)
    a2 = _best_residue_without_constants(P + s)
    final = tuple(vt_enumerate(VtParams(P + s, a2)))
    return FarParams(n, P, t, s, a1, a2, inner, final)


def far_encode(p: FarParams, indices: Sequence[int]) -> Word:
    """Concatenate the alphabet words selected by the index tuple."""
    if len(indices) != p.t:
        raise ValueError(f"need {p.t} indices, got {len(indices)}")
    out: List[int] = []
    for j, i in enumerate(indices, start=1):
        alphabet = p.inner_alphabet if j < p.t else p.final_alphabet
        if not 0 <= i < len(alphabet):
            raise ValueError(f"block {j}: index {i} outside "
                             f"0..{len(alphabet) - 1}")
        out.extend(alphabet[i])
    return tuple(out)


def far_codeword(p: FarParams, index: int) -> Word:
    """Codeword number `index`: its block indices are the mixed-radix
    digits of the index, the final block's the least significant."""
    check_index(index, p.codeword_count)
    index, i = divmod(index, len(p.final_alphabet))
    digits = [i]
    for _ in range(p.t - 1):
        index, i = divmod(index, len(p.inner_alphabet))
        digits.append(i)
    return far_encode(p, digits[::-1])


@lru_cache(maxsize=None)
def _ramp(P: int) -> Tuple[str, int, int]:
    """(struct format, digit width in bytes, ramp) for windows of length
    P: the ramp's little-endian digits are P, P-1, ..., 1, each wide
    enough to hold a window sum, at most P(P+1)/2, without a carry."""
    top = P * (P + 1) // 2
    fmt = next(f for f in "BHIQ" if top < 256 ** struct.calcsize("<" + f))
    width = struct.calcsize("<" + fmt)
    ramp = int.from_bytes(b"".join(v.to_bytes(width, "little")
                                   for v in range(P, 0, -1)), "little")
    return fmt, width, ramp


def window_sums(z: Union[bytes, bytearray], P: int) -> Sequence[int]:
    """Weighted checksum sum((i+1) * z[q+i]) of every length-P window of
    the 0/1 word z, by offset q = 0 .. len(z) - P.

    Read as little-endian digits, z times the ramp P, P-1, ..., 1 holds
    the sum of the window at q as digit q + P - 1, so one big-integer
    product gives them all.  Digits are one byte while P(P+1)/2 <= 255
    and the result is bytes; wider digits give a tuple of ints.
    """
    fmt, width, ramp = _ramp(P)
    n = len(z)
    if width > 1:
        spread = bytearray(width * n)
        spread[::width] = z
        z = spread
    product = int.from_bytes(z, "little") * ramp
    windows = max(n - P + 1, 0)
    first = width * (P - 1)
    digits = product.to_bytes(width * (n + P), "little")[first:first + width * windows]
    return digits if width == 1 else struct.unpack(f"<{windows}{fmt}", digits)


def _passing(sums: Sequence[int], table: bytes) -> bytes:
    """table[v] for each window sum v: one of `FarParams._sum_tables`."""
    if isinstance(sums, bytes):
        return sums.translate(table)
    return bytes(map(table.__getitem__, sums))


_ERASED = bytes([ERASURE])


def far_contains(p: FarParams, x: Symbols) -> bool:
    """Whether x (a tuple, bytes or bytearray) is a codeword.  A word of
    the wrong length or with a symbol other than 0 and 1 is not one.

    An inner block is an alphabet word iff its checksum passes and is no
    constant word's (`FarParams._sum_tables`); the final alphabet is all
    of VT_a2(P+s).
    """
    z = symbol_bytes(x, b"\0\1") if len(x) == p.n else None
    if z is None:
        return False
    head = (p.t - 1) * p.P
    return (0 not in _passing(window_sums(z, p.P)[:head:p.P], p._sum_tables[1])
            and vt_syndrome(z[head:], p.a2, p.final_code.modulus) == 0)


@dataclass
class FarDecodeInfo:
    iterations: int = 0
    ambiguous_flips: int = 0


def far_decode(p: FarParams, y: Symbols) -> Tuple[Word, FarDecodeInfo]:
    """Sequentially correct a far-apart deletable error pattern.

    One scan reads y once from the left and writes the estimate once,
    block by block.  A cursor r marks the first received symbol not yet
    read; the estimate holds blocks 1 .. j-1 when block j starts at r.
    The scan hands every final block, and any block holding an erasure,
    to `vt.correct_single`, and checks the checksum of any other block.
    At a mismatch in inner block j it corrects exactly one error, in
    block j itself (the module docstring says why), telling a deletion
    from a flip by the next block's checksum; the fixed block stands for
    P received symbols after a flip and P-1 after a deletion.  Nothing
    left of the cursor is read again.  A block is sliced when the scan
    reaches it: an inner block shorter than P mismatches, and a short
    block after the one being corrected means a deletion is pending.
    Terminates when the scan passes the final block; iterations counts
    the corrections plus one, where a block the estimate holds as
    received, or with only its erasure filled in, is no correction.
    Every DecodeFailure comes from a rule, none from another exception;
    one raised while handling block j carries diagnostic["block"] = j,
    and the final check that the estimate is a codeword names no block.

    The scan copies every block that is an inner codeword as received
    and goes straight to the next suspect one: a window of y failing its
    checksum, holding an erasure or running past the end of y, or the
    final block.  An inner suspect without an erasure goes to
    correction.  The scan takes the window sums of y once, erasures read
    as 0, and reads them through one view per residue mod P of the
    cursor, built when first needed: a flag per window of that residue,
    0 where the window fails its checksum.  One `find` over the stretch
    up to the next such window cuts it at the block holding the first
    erasure.
    """
    info = FarDecodeInfo(iterations=1)
    max_iterations = math.ceil(p.n / (3 * p.P)) + 1
    P, t = p.P, p.t
    y = received_bytes(y)
    sums = window_sums(y.replace(_ERASED, b"\0"), P)  # erasures read as 0
    views: Dict[int, bytes] = {}
    out = bytearray()  # the estimate of the blocks before block j
    r = 0  # block j starts at y[r]
    j = 1
    try:
        while j <= t:
            if j < t:
                i, residue = divmod(r, P)
                view = views.get(residue)
                if view is None:  # flags of the windows at residue + k*P
                    view = views[residue] = _passing(sums[residue::P],
                                                     p._sum_tables[0])
                suspect = view.find(0, i)
                if suspect < 0:  # every window from r on that fits passes
                    suspect = max(len(view), i)
                if j + suspect - i > t:  # the final block has its own length
                    suspect = i + t - j
                e = y.find(ERASURE, r, suspect * P + residue)
                if e >= 0:  # the first erasure ends the clean stretch
                    suspect = (e - residue) // P
                out += y[r:suspect * P + residue]  # the clean blocks
                j, r = j + suspect - i, suspect * P + residue
            blk = tuple(y[r:r + P] if j < t else y[r:])
            if j == t or ERASURE in blk:
                # The final alphabet is all of its VT class.
                fixed, ambiguous = correct_single(_block_code(p, j), blk)
                used = len(blk)
            else:
                # The next block follows blk; the final block runs to the end.
                nxt = y[r + P:r + 2 * P if j + 1 < t else len(y)]
                fixed, ambiguous, used = _correct_one(p, j, blk, nxt)
            info.ambiguous_flips += ambiguous
            out.extend(fixed)
            r += used
            if fixed != blk and ERASURE not in blk:  # a correction, not a fill
                if info.iterations > max_iterations:  # = corrections made
                    raise DecodeFailure("iteration cap exceeded",
                                        {"cap": max_iterations,
                                         "length": len(out) + len(y) - r})
                info.iterations += 1
            j += 1
    except DecodeFailure as exc:
        exc.diagnostic.setdefault("block", j)
        raise
    if not far_contains(p, out):
        raise DecodeFailure("estimate is not a codeword",
                            {"estimate_length": len(out)})
    return tuple(out), info


def _block_code(p: FarParams, j: int) -> VtParams:
    return p.inner_code if j < p.t else p.final_code


def _pick_flip(code: VtParams, blk: Word) -> Tuple[Word, bool]:
    """Undo one flip in an inner block, keeping only alphabet words.

    Flip candidates are codewords of the inner VT class; the constant
    words among them are dropped.  Both flip readings can be alphabet
    words (VT classes contain pairs at Hamming distance two); the flip-up
    reading is then chosen.  Returns (word, ambiguous), as
    `vt.correct_single` does, ambiguous telling whether both were.
    """
    candidates = [c for c in flip_candidates(code, blk) if 0 < sum(c) < code.n]
    if not candidates:
        raise DecodeFailure("no single flip reaches an alphabet word")
    return candidates[0], len(candidates) > 1


def _correct_one(p: FarParams, j: int, blk: Word,
                 nxt: Symbols) -> Tuple[Word, bool, int]:
    """Fix the single error behind the checksum mismatch at inner block j.

    blk is block j as received: P symbols, fewer where the word ends
    early, and no erasure; every final block goes to `vt.correct_single`
    instead.  nxt is the next block as received, the symbols that follow
    blk.  Returns a codeword of the inner VT class, whether it is an
    ambiguous flip (a deletion gives False) and the received symbols it
    stands for: P after a flip, P-1 after a deletion.  A full next block
    holding an erasure has no checksum to tell them by, and is refused.
    """
    if len(blk) < p.P:  # the word ends inside block j
        raise DecodeFailure("received word ends inside an inner block",
                            {"length": (j - 1) * p.P + len(blk)})
    # The next block's checksum tells a flip (clean neighbour) from a
    # deletion (neighbour shifted left, or cut short: deletions pending).
    code = _block_code(p, j + 1)
    if len(nxt) == code.n and ERASURE in nxt:
        raise DecodeFailure("checksum undefined with erasures present")
    if len(nxt) == code.n and vt_syndrome(nxt, code.a, code.modulus) == 0:
        return (*_pick_flip(p.inner_code, blk), p.P)
    return correct_deletion(p.inner_code, blk[:-1]), False, p.P - 1
