"""Concatenated VT code for far-apart deletable errors.

Codewords are t-1 inner blocks from VT_a1(P) with the constant words
removed, followed by a final block from VT_a2(P+s) where n = t*P + s.
When the errors hitting a codeword are pairwise at least 3P apart, each
inner block suffers at most one error and the blocks around it stay
clean.  The decoder therefore makes one left-to-right scan of the block
checksums over a mutable copy of the received word and corrects each
error in place at the first block it upsets, resuming the scan there.
Since blocks are sliced only when the scan reaches them, words shortened
by any number of far-apart deletions are accepted: a block pushed past
the end of the word reads as a deletion still pending.

The scan does not visit clean blocks one by one.  `window_sums` gives the
weighted checksum of every length-P window of the received word from one
big-integer product, and the scan jumps from one suspect block to the
next; only there does the per-block correction code run.  The product
takes O(n*P) digit operations, linear in n at fixed P, and pays while P
is small: against per-block `sum(compress(...))` it took 0.004 ms vs
0.13-0.18 ms at n = 3024, P = 14, 0.8-0.9 ms vs 1.0-1.4 ms at n = 10^5,
P = 231, and 25-28 ms vs 26-28 ms at n = 10^6, P = 1157 (Python 3.11,
2-CPU Xeon).
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import DecodeFailure
from .vt import (VtParams, check_enumeration_budget, correct_deletion,
                 correct_erasure, flip_candidates, vt_class_sizes,
                 vt_enumerate, vt_syndrome)
from .words import ERASURE, Word

Symbols = Union[Word, bytes, bytearray]


def _constant_words(m: int) -> Tuple[Word, Word]:
    return tuple([0] * m), tuple([1] * m)


def _best_residue_without_constants(m: int) -> int:
    """Residue maximizing |VT_a(m)| after dropping the constant words.

    The all-zero word has residue 0 and the all-one word m(m+1)/2 mod
    m+1; ties go to the smallest residue.
    """
    sizes = vt_class_sizes(m)
    sizes[0] -= 1
    sizes[m * (m + 1) // 2 % (m + 1)] -= 1
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
    def _inner_sum_tables(self) -> Tuple[bytes, bytes]:
        """Translate tables over one-byte inner window sums: `_inner_sum_ok`
        for a scanned window, then for an alphabet member."""
        return tuple(bytes(_inner_sum_ok(self, v, member) for v in range(256))
                     for member in (False, True))

    @property
    def codeword_count(self) -> int:
        return len(self.inner_alphabet) ** (self.t - 1) * len(self.final_alphabet)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "P": self.P, "t": self.t, "s": self.s,
                "a1": self.a1, "a2": self.a2}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FarParams":
        try:
            p = far_params(int(obj["n"]), int(obj["P"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed far parameters: {exc!r}") from exc
        for key in ("t", "s", "a1", "a2"):
            if key in obj and int(obj[key]) != getattr(p, key):
                raise ValueError(f"inconsistent serialized field {key!r}")
        return p


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
    zero, one = _constant_words(P)
    a1 = _best_residue_without_constants(P)
    inner = tuple(w for w in vt_enumerate(VtParams(P, a1)) if w not in (zero, one))
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


def far_index_to_indices(p: FarParams, index: int) -> Tuple[int, ...]:
    """Mixed-radix bijection from a flat index to a block-index tuple."""
    if not 0 <= index < p.codeword_count:
        raise ValueError("index out of range")
    final_idx = index % len(p.final_alphabet)
    index //= len(p.final_alphabet)
    inner: List[int] = []
    for _ in range(p.t - 1):
        inner.append(index % len(p.inner_alphabet))
        index //= len(p.inner_alphabet)
    return tuple(reversed(inner)) + (final_idx,)


def far_codeword(p: FarParams, index: int) -> Word:
    return far_encode(p, far_index_to_indices(p, index))


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


def _inner_sum_ok(p: FarParams, v: int, member: bool) -> bool:
    """Whether an inner window with weighted sum v passes the checksum
    (v is a1 mod P+1) and, for a member, is no constant word: the
    all-zero and all-one words have sums 0 and P(P+1)/2."""
    return v % (p.P + 1) == p.a1 and not (member and v in (0, p.P * (p.P + 1) // 2))


def _passing(p: FarParams, sums: Sequence[int], member: bool) -> bytes:
    """1 where an inner window sum passes `_inner_sum_ok`, else 0."""
    if isinstance(sums, bytes):
        return sums.translate(p._inner_sum_tables[member])
    return bytes(_inner_sum_ok(p, v, member) for v in sums)


def far_contains(p: FarParams, x: Symbols) -> bool:
    """Whether x (a tuple, bytes or bytearray) is a codeword.  A word of
    the wrong length or with a symbol other than 0 and 1 is not one.

    An inner block is an alphabet word iff its checksum is a1 mod P+1 and
    neither 0 nor P(P+1)/2, the checksums of the constant words; the final
    alphabet is all of VT_a2(P+s).
    """
    if len(x) != p.n:
        return False
    try:
        z = x if isinstance(x, (bytes, bytearray)) else bytearray(x)
    except (TypeError, ValueError):  # a symbol that is no byte
        return False
    if z.translate(None, b"\0\1"):
        return False
    head = (p.t - 1) * p.P
    return (0 not in _passing(p, window_sums(z, p.P)[:head:p.P], True)
            and vt_syndrome(z[head:], p.a2, p.P + p.s + 1) == 0)


@dataclass
class FarDecodeInfo:
    iterations: int = 0
    ambiguous_flips: int = 0


_ERASED = bytes([ERASURE])
_SYMBOLS = b"\0\1" + _ERASED


def _received(y: Symbols) -> bytearray:
    """y as a mutable byte string; a symbol other than 0, 1 and e fails."""
    try:
        work = bytearray(y)
    except (TypeError, ValueError):  # a symbol that is no byte
        work = None
    if work is None or work.translate(None, _SYMBOLS):
        bad = next(s for s in y
                   if not (isinstance(s, int) and s in (0, 1, ERASURE)))
        raise DecodeFailure(f"symbol {bad!r} is not 0, 1 or e")
    return work


def _erasures(y: bytearray) -> List[int]:
    """Positions of the erasures in y, in increasing order."""
    out: List[int] = []
    e = y.find(ERASURE)
    while e >= 0:
        out.append(e)
        e = y.find(ERASURE, e + 1)
    return out


def far_decode(p: FarParams, y: Symbols) -> Tuple[Word, FarDecodeInfo]:
    """Sequentially correct a far-apart deletable error pattern.

    One scan walks the blocks of a mutable copy of y from the left.  It
    fills in a block's erasure, which leaves a codeword of the block's VT
    class, and checks the checksum of any other block.  At a
    mismatch in block j it corrects exactly one error in place (a
    deletion vs flip is told apart via the next block's checksum) and
    goes on at block j+1, or checks block j again when the error was a
    deletion in block j-1.  Blocks left of j need no second look: a
    correction leaves them untouched, except that a deletion found in
    block j-1 rewrites that block to a VT codeword.  A block is sliced
    when the scan reaches it: an inner block shorter than P mismatches,
    and a short block after the one being corrected means a deletion is
    pending.  Terminates when the scan passes the final block;
    iterations counts the corrections plus one.

    Corrections only insert symbols, so past the last block the scan
    rewrote, the working word is y shifted right by the symbols inserted
    so far.  There the scan skips every block that is an inner codeword
    as received and goes straight to the next suspect one: a window of y
    failing its checksum, holding an erasure or running past the end of
    y, or the final block.  A suspect whose window fails its checksum
    goes to correction without a second checksum.  The scan takes the
    window sums of y once and tests them through one strided view per
    residue mod P of the offset, built when first needed, and finds the
    next erasure by bisection.
    """
    info = FarDecodeInfo(iterations=1)
    max_iterations = math.ceil(p.n / (3 * p.P)) + 1
    P, t = p.P, p.t
    inner = (P, p.a1, P + 1)  # block length, residue, modulus
    final = (P + p.s, p.a2, P + p.s + 1)
    work = _received(y)
    received = len(work)
    erasures = _erasures(work)
    z = work.replace(_ERASED, b"\0") if erasures else work
    sums = window_sums(z, P)
    views: Dict[int, bytes] = {}
    rewritten = 0  # work[rewritten:] is y shifted by len(work) - received
    j = 1
    try:
        while j <= t:
            start = (j - 1) * P
            failing = False  # block j is known to fail its checksum
            if j < t and start >= rewritten:
                q = start - len(work) + received
                i, residue = divmod(q, P)
                view = views.get(residue)
                if view is None:
                    view = views[residue] = _passing(p, sums[residue::P], False)
                suspect = view.find(0, i)
                failing = suspect >= 0
                if not failing:  # every window from q on that fits is clean
                    suspect = len(view) if len(view) > i else i
                if erasures:
                    k = bisect_left(erasures, q)
                    if k < len(erasures):
                        suspect = min(suspect, i + (erasures[k] - q) // P)
                j += suspect - i
                if j >= t:  # the final block has its own length and residue
                    j, failing = t, False
                start = (j - 1) * P
            if j < t:
                length, a, modulus = inner
                blk = work[start:start + P]
            else:
                length, a, modulus = final
                blk = work[start:]
            if ERASURE in blk:
                # A filled-in block is a codeword of its VT class.
                work[start:start + length] = _fix_erasure(p, j, tuple(blk))
                rewritten = max(rewritten, j * P)
                j += 1
                continue
            if (not failing and len(blk) == length
                    and vt_syndrome(blk, a, modulus) == 0):
                j += 1
                continue
            before = len(work)
            resume = _correct_one(p, work, j, info)
            # A correction at block j rewrites symbols up to block j's end
            # at most and shifts whatever was clean after them.
            rewritten = max(j * P, rewritten + len(work) - before)
            if info.iterations > max_iterations:  # = corrections made
                raise DecodeFailure("iteration cap exceeded",
                                    {"cap": max_iterations, "length": len(work)})
            info.iterations += 1
            j = resume
        if not far_contains(p, work):
            raise DecodeFailure("estimate is not a codeword",
                                {"estimate_length": len(work)})
    except ValueError as exc:  # erasures or lengths outside the model
        raise DecodeFailure(str(exc)) from exc
    return tuple(work), info


def _block_code(p: FarParams, j: int) -> VtParams:
    return p.inner_code if j < p.t else p.final_code


def _block(p: FarParams, work: bytearray, j: int) -> Word:
    """Block j of the working word: P symbols, or the rest for the final
    block; fewer where the word ends early."""
    start = (j - 1) * p.P
    return tuple(work[start:start + p.P] if j < p.t else work[start:])


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


def _try_deletion_in_block(p: FarParams, blk: Word) -> Optional[Word]:
    """Correct blk-minus-last-bit as a one-deletion word, or None."""
    try:
        return correct_deletion(p.inner_code, blk[:-1])
    except DecodeFailure:
        return None


def _correct_one(p: FarParams, work: bytearray, j: int,
                 info: FarDecodeInfo) -> int:
    """Fix the single error behind the checksum mismatch at block j and
    return the block the scan checks next.

    A deletion fix writes the P-1 symbols it read back as P, so the
    inserted symbol shifts the rest of the word right by one.  A fix in
    block j leaves a codeword of its VT class there, so the scan goes on
    at block j+1; a fix in block j-1 shifts block j, which is checked
    again.
    """
    if j > 1:
        # A mismatch at j can stem from a deletion in block j-1 that left
        # its own checksum consistent; a flip there would have mismatched
        # earlier, so only the deletion reading needs testing.
        prev = _block(p, work, j - 1)
        fixed = _try_deletion_in_block(p, prev)
        if fixed is not None and fixed != prev:
            start = (j - 2) * p.P
            work[start:start + p.P - 1] = fixed
            return j
    start = (j - 1) * p.P
    blk = _block(p, work, j)
    if j == p.t:
        final_len = p.P + p.s
        if len(blk) == final_len:
            work[start:] = _pick_flip(p.final_code, blk, False, info)
        elif len(blk) == final_len - 1:
            work[start:] = correct_deletion(p.final_code, blk)
        else:
            raise DecodeFailure("final block length outside the error model",
                                {"block": j, "length": len(blk)})
        return j + 1
    if len(blk) < p.P:
        raise DecodeFailure("received word ends inside an inner block",
                            {"block": j, "length": len(work)})
    # Error sits in block j; the next block's checksum tells a flip
    # (clean neighbour) from a deletion (neighbour shifted left, or cut
    # short because more deletions are pending).
    nxt = _block(p, work, j + 1)
    code = _block_code(p, j + 1)
    if len(nxt) == code.n:
        next_diff = vt_syndrome(nxt, code.a, code.modulus)
    else:
        next_diff = 1
    if next_diff == 0:
        work[start:start + p.P] = _pick_flip(p.inner_code, blk, True, info)
    else:
        work[start:start + p.P - 1] = correct_deletion(p.inner_code, blk[:-1])
    return j + 1
