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

from .errors import DecodeFailure
from .vt import (VtParams, check_enumeration_budget, correct_deletion,
                 correct_erasure, flip_candidates, vt_class_sizes,
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
    """Construct parameters with residues chosen for maximal alphabets."""
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
    if not inner:
        raise ValueError(f"inner alphabet empty for P = {P}")
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
    if not 0 <= index < p.codeword_count:
        raise ValueError("index out of range")
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
    The scan fills in a block's erasure, which leaves a codeword of the
    block's VT class, and checks the checksum of any other block.  At a
    mismatch in block j it corrects exactly one error, in block j itself
    (the module docstring says why), telling a deletion from a flip by
    the next block's checksum; the fixed block stands for P received
    symbols after a flip and P-1 after a deletion.  Nothing left of the
    cursor is read again.  A block is sliced when the scan reaches it:
    an inner block shorter than P mismatches, and a short block after
    the one being corrected means a deletion is pending.  Terminates
    when the scan passes the final block; iterations counts the
    corrections plus one.

    The scan copies every block that is an inner codeword as received
    and goes straight to the next suspect one: a window of y failing its
    checksum, holding an erasure or running past the end of y, or the
    final block.  Only the final block's checksum is checked again; an
    inner suspect without an erasure goes to correction.  The scan takes
    the window sums of y once, erasures read as 0, and reads them
    through one view per residue mod P of the cursor, built when first
    needed: a flag per window of that residue, 0 where the window fails
    its checksum.  One `find` over the stretch up to the next such
    window cuts it at the block holding the first erasure.
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
            code = _block_code(p, j)
            blk = y[r:r + P] if j < t else y[r:]
            if ERASURE in blk:
                # A filled-in block is a codeword of its VT class.
                out.extend(_fix_erasure(p, j, tuple(blk)))
                r += len(blk)
            elif (j == t and len(blk) == code.n
                    and vt_syndrome(blk, code.a, code.modulus) == 0):
                out += blk
                r += len(blk)
            else:
                # The next block follows blk; none follows the final block.
                nxt = y[r + len(blk):r + 2 * P if j + 1 < t else len(y)]
                fixed, used = _correct_one(p, j, blk, nxt, info)
                out.extend(fixed)
                r += used
                if info.iterations > max_iterations:  # = corrections made
                    raise DecodeFailure("iteration cap exceeded",
                                        {"cap": max_iterations,
                                         "length": len(out) + len(y) - r})
                info.iterations += 1
            j += 1
        if not far_contains(p, out):
            raise DecodeFailure("estimate is not a codeword",
                                {"estimate_length": len(out)})
    except ValueError as exc:  # erasures or lengths outside the model
        raise DecodeFailure(str(exc)) from exc
    return tuple(out), info


def _block_code(p: FarParams, j: int) -> VtParams:
    return p.inner_code if j < p.t else p.final_code


def _fix_erasure(p: FarParams, j: int, blk: Word) -> Word:
    if blk.count(ERASURE) != 1:
        raise DecodeFailure("multiple erasures in one block", {"block": j})
    code = _block_code(p, j)
    if len(blk) != code.n:
        where = "inner" if j < p.t else "final"
        raise DecodeFailure(f"erasure in a short {where} block", {"block": j})
    return correct_erasure(code, blk)


def _pick_flip(code: VtParams, blk: Word, inner: bool,
               info: FarDecodeInfo) -> Word:
    """Undo one flip, keeping only candidates from the block alphabet.

    Flip candidates are codewords of the block's VT class, which is the
    final alphabet; an inner block also drops the constant words.  Both
    flip readings can be alphabet words (VT classes contain pairs at
    Hamming distance two); the flip-up reading is then chosen and the
    ambiguity counter incremented.
    """
    candidates = [c for c in flip_candidates(code, blk)
                  if not inner or 0 < sum(c) < code.n]
    if not candidates:
        raise DecodeFailure("no single flip reaches an alphabet word",
                            {"block_length": len(blk)})
    if len(candidates) > 1:
        info.ambiguous_flips += 1
    return candidates[0]


def _correct_one(p: FarParams, j: int, blk: Symbols, nxt: Symbols,
                 info: FarDecodeInfo) -> Tuple[Word, int]:
    """Fix the single error behind the checksum mismatch at block j.

    blk is block j as received: P symbols, or the rest of the word for
    the final block, fewer where the word ends early.  nxt is the next
    block as received, the symbols that follow blk.  Returns a codeword
    of block j's VT class and the number of received symbols it stands
    for: P after a flip, P-1 after a deletion, len(blk) in the final
    block.
    """
    blk = tuple(blk)
    if j == p.t:
        code = p.final_code
        if len(blk) == code.n:
            return _pick_flip(code, blk, False, info), len(blk)
        if len(blk) == code.n - 1:
            return correct_deletion(code, blk), len(blk)
        raise DecodeFailure("final block length outside the error model",
                            {"block": j, "length": len(blk)})
    if len(blk) < p.P:  # the word ends inside block j
        raise DecodeFailure("received word ends inside an inner block",
                            {"block": j, "length": (j - 1) * p.P + len(blk)})
    # Error sits in block j; the next block's checksum tells a flip
    # (clean neighbour) from a deletion (neighbour shifted left, or cut
    # short because more deletions are pending).
    code = _block_code(p, j + 1)
    if len(nxt) == code.n and vt_syndrome(nxt, code.a, code.modulus) == 0:
        return _pick_flip(p.inner_code, blk, True, info), p.P
    return correct_deletion(p.inner_code, blk[:-1]), p.P - 1
