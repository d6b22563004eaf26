"""Concatenated VT code for far-apart deletable errors.

Codewords are t-1 inner blocks from VT_a1(P) with the constant words
removed, followed by a final block from VT_a2(P+s) where n = t*P + s.
When the errors hitting a codeword are pairwise at least 3P apart, each
inner block suffers at most one error and the blocks around it stay
clean.  The decoder therefore makes one left-to-right scan of the block
checksums over a mutable copy of the received word and corrects each
error in place at the first block it upsets, resuming the scan there.
Its work is linear in n, and since blocks are sliced only when the scan
reaches them, words shortened by any number of far-apart deletions are
accepted: a block pushed past the end of the word reads as a deletion
still pending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .errors import DecodeFailure
from .vt import (VtParams, check_enumeration_budget, correct_deletion,
                 correct_erasure, flip_candidates, vt_class_sizes,
                 vt_enumerate, vt_syndrome)
from .words import ERASURE, Word


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
    def inner_set(self) -> FrozenSet[Word]:
        return frozenset(self.inner_alphabet)

    @cached_property
    def final_set(self) -> FrozenSet[Word]:
        return frozenset(self.final_alphabet)

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


def far_contains(p: FarParams, x: Word) -> bool:
    if len(x) != p.n:
        return False
    head = (p.t - 1) * p.P
    inner = p.inner_set
    for start in range(0, head, p.P):
        if x[start:start + p.P] not in inner:
            return False
    return x[head:] in p.final_set


@dataclass
class FarDecodeInfo:
    iterations: int = 0
    ambiguous_flips: int = 0


def far_decode(p: FarParams, y: Word) -> Tuple[Word, FarDecodeInfo]:
    """Sequentially correct a far-apart deletable error pattern.

    One scan walks the blocks of a mutable copy of y from the left,
    filling in a block's erasure before checking its checksum.  At a
    mismatch in block j it corrects exactly one error in place (a
    deletion vs flip is told apart via the next block's checksum) and
    checks block j again.  Blocks left of j need no second look: a
    correction leaves them untouched, except that a deletion found in
    block j-1 rewrites that block to a VT codeword.  A block is sliced
    when the scan reaches it: an inner block shorter than P mismatches,
    and a short block after the one being corrected means a deletion is
    pending.  Terminates when the scan passes the final block;
    iterations counts the corrections plus one.
    """
    info = FarDecodeInfo(iterations=1)
    max_iterations = math.ceil(p.n / (3 * p.P)) + 1
    P, t = p.P, p.t
    inner = (P, p.a1, P + 1)  # block length, residue, modulus
    final = (P + p.s, p.a2, P + p.s + 1)
    j = 1
    try:
        work = bytearray(y)  # C-speed slices and erasure tests; grows in place
        while j <= t:
            start = (j - 1) * P
            if j < t:
                length, a, modulus = inner
                blk = work[start:start + P]
            else:
                length, a, modulus = final
                blk = work[start:]
            if ERASURE in blk:
                blk = _fix_erasure(p, j, tuple(blk))
                work[start:start + length] = blk
            if len(blk) == length and vt_syndrome(blk, a, modulus) == 0:
                j += 1
                continue
            _correct_one(p, work, j, info)
            if info.iterations > max_iterations:  # = corrections made
                raise DecodeFailure("iteration cap exceeded",
                                    {"cap": max_iterations, "length": len(work)})
            info.iterations += 1
        estimate = tuple(work)
        if not far_contains(p, estimate):
            raise DecodeFailure("estimate is not a codeword",
                                {"estimate_length": len(estimate)})
    except ValueError as exc:  # erasures or lengths outside the model
        raise DecodeFailure(str(exc)) from exc
    return estimate, info


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


def _pick_flip(code: VtParams, blk: Word, alphabet: FrozenSet[Word],
               info: FarDecodeInfo) -> Word:
    """Undo one flip, keeping only candidates from the block alphabet.

    Both flip readings can be alphabet words (VT classes contain pairs at
    Hamming distance two); the flip-up reading is then chosen and the
    ambiguity counter incremented.
    """
    candidates = [c for c in flip_candidates(code, blk) if c in alphabet]
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
                 info: FarDecodeInfo) -> None:
    """Fix the single error behind the checksum mismatch at block j.

    A deletion fix writes the P-1 symbols it read back as P, so the
    inserted symbol shifts the rest of the word right by one.
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
            return
    start = (j - 1) * p.P
    blk = _block(p, work, j)
    if j == p.t:
        final_len = p.P + p.s
        if len(blk) == final_len:
            work[start:] = _pick_flip(p.final_code, blk, p.final_set, info)
        elif len(blk) == final_len - 1:
            work[start:] = correct_deletion(p.final_code, blk)
        else:
            raise DecodeFailure("final block length outside the error model",
                                {"block": j, "length": len(blk)})
        return
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
        work[start:start + p.P] = _pick_flip(p.inner_code, blk, p.inner_set, info)
    else:
        work[start:start + p.P - 1] = correct_deletion(p.inner_code, blk[:-1])
