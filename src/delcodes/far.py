"""Concatenated VT code for far-apart deletable errors.

Codewords are t-1 inner blocks from VT_a1(P) with the constant words
removed, followed by a final block from VT_a2(P+s) where n = t*P + s.
When the errors hitting a codeword are pairwise at least 3P apart, each
inner block suffers at most one error and the blocks around it stay
clean, so errors can be located by scanning block checksums left to
right and corrected one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .errors import DecodeFailure
from .vt import (VtParams, correct_deletion, correct_erasure, flip_candidates,
                 vt_enumerate)
from .words import ERASURE, Word


def _constant_words(m: int) -> Tuple[Word, Word]:
    return tuple([0] * m), tuple([1] * m)


def _best_residue_without_constants(m: int) -> int:
    """Residue maximizing |VT_a(m)| after dropping the constant words."""
    zero, one = _constant_words(m)
    best_a, best_size = 0, -1
    for a in range(m + 1):
        codewords = vt_enumerate(VtParams(m, a))
        size = sum(1 for w in codewords if w not in (zero, one))
        if size > best_size:
            best_a, best_size = a, size
    return best_a


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

    @property
    def inner_code(self) -> VtParams:
        return VtParams(self.P, self.a1)

    @property
    def final_code(self) -> VtParams:
        return VtParams(self.P + self.s, self.a2)

    @property
    def codeword_count(self) -> int:
        return len(self.inner_alphabet) ** (self.t - 1) * len(self.final_alphabet)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "P": self.P, "t": self.t, "s": self.s,
                "a1": self.a1, "a2": self.a2}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FarParams":
        p = far_params(int(obj["n"]), int(obj["P"]))
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
    inner_set = set(p.inner_alphabet)
    for j in range(p.t - 1):
        if x[j * p.P:(j + 1) * p.P] not in inner_set:
            return False
    return x[(p.t - 1) * p.P:] in set(p.final_alphabet)


def checksum_difference(block: Word, a: int, modulus: int) -> int:
    """(sum i*b_i - a) mod modulus; zero means the checksum matches."""
    if ERASURE in block:
        raise ValueError("checksum undefined with erasures present")
    cs = sum(i * bit for i, bit in enumerate(block, start=1))
    return (cs - a) % modulus


@dataclass
class FarDecodeInfo:
    iterations: int = 0
    ambiguous_flips: int = 0


def _split_blocks(p: FarParams, work: Word) -> List[Word]:
    """Split into t blocks: t-1 of length P, the final one the remainder."""
    head = (p.t - 1) * p.P
    if len(work) <= head:
        raise DecodeFailure("received word too short to block-split",
                            {"length": len(work)})
    blocks = [work[j * p.P:(j + 1) * p.P] for j in range(p.t - 1)]
    blocks.append(work[head:])
    return blocks


def far_decode(p: FarParams, y: Word) -> Tuple[Word, FarDecodeInfo]:
    """Sequentially correct a far-apart deletable error pattern.

    Each outer iteration rescans the block checksums from the left,
    locates the first inconsistency and corrects exactly one error
    (erasure in place; deletion vs flip told apart via the next block's
    checksum), then restarts.  Terminates when every checksum matches.
    """
    info = FarDecodeInfo()
    final_len = p.P + p.s
    max_iterations = math.ceil(p.n / (3 * p.P)) + 1
    work = tuple(y)

    for _ in range(max_iterations + 1):
        info.iterations += 1
        try:
            blocks = _split_blocks(p, work)
            mismatch_j: Optional[int] = None
            for j in range(1, p.t + 1):
                blk = blocks[j - 1]
                if ERASURE in blk:
                    blk = _fix_erasure(p, j, blk, final_len)
                    blocks[j - 1] = blk
                if j < p.t:
                    diff = checksum_difference(blk, p.a1, p.P + 1)
                elif len(blk) == final_len:
                    diff = checksum_difference(blk, p.a2, final_len + 1)
                else:
                    diff = -1  # final block has the wrong length
                if diff != 0:
                    mismatch_j = j
                    break
            if mismatch_j is None:
                estimate = tuple(s for blk in blocks for s in blk)
                if not far_contains(p, estimate):
                    raise DecodeFailure("estimate is not a codeword",
                                        {"estimate_length": len(estimate)})
                return estimate, info
            _correct_one(p, blocks, mismatch_j, final_len, info)
        except ValueError as exc:  # erasures or lengths outside the model
            raise DecodeFailure(str(exc)) from exc
        work = tuple(s for blk in blocks for s in blk)

    raise DecodeFailure("iteration cap exceeded",
                        {"cap": max_iterations, "length": len(work)})


def _fix_erasure(p: FarParams, j: int, blk: Word, final_len: int) -> Word:
    if sum(1 for s in blk if s == ERASURE) != 1:
        raise DecodeFailure("multiple erasures in one block", {"block": j})
    if j < p.t:
        return correct_erasure(p.inner_code, blk)
    if len(blk) != final_len:
        raise DecodeFailure("erasure in a short final block", {"block": j})
    return correct_erasure(p.final_code, blk)


def _pick_flip(code: VtParams, blk: Word, alphabet, info: "FarDecodeInfo") -> Word:
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


def _correct_one(p: FarParams, blocks: List[Word], j: int,
                 final_len: int, info: FarDecodeInfo) -> None:
    """Fix the single error behind the checksum mismatch at block j."""
    if j > 1:
        # A mismatch at j can stem from a deletion in block j-1 that left
        # its own checksum consistent; a flip there would have mismatched
        # earlier, so only the deletion reading needs testing.
        prev = blocks[j - 2]
        fixed = _try_deletion_in_block(p, prev)
        if fixed is not None and fixed != prev:
            blocks[j - 2] = fixed + (prev[-1],)
            return
    blk = blocks[j - 1]
    if j == p.t:
        if len(blk) == final_len:
            repaired = _pick_flip(p.final_code, blk, set(p.final_alphabet), info)
        elif len(blk) == final_len - 1:
            repaired = correct_deletion(p.final_code, blk)
        else:
            raise DecodeFailure("final block length outside the error model",
                                {"block": j, "length": len(blk)})
        blocks[j - 1] = repaired
        return
    # Error sits in block j; the next block's checksum tells a flip
    # (clean neighbour) from a deletion (neighbour shifted left).
    nxt = blocks[j]
    if j + 1 < p.t:
        next_diff = checksum_difference(nxt, p.a1, p.P + 1)
    elif len(nxt) == final_len:
        next_diff = checksum_difference(nxt, p.a2, final_len + 1)
    else:
        next_diff = 1  # short final block: a deletion is pending
    if next_diff == 0:
        blocks[j - 1] = _pick_flip(p.inner_code, blk, set(p.inner_alphabet), info)
    else:
        repaired = correct_deletion(p.inner_code, blk[:-1])
        blocks[j - 1] = repaired + (blk[-1],)
