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
deletion, which the next block's checksum tells.  A deletion then goes
to `vt.correct_single` too; a flip goes to `_pick_flip`, far's one rule
of its own, as the constant words are not in the inner alphabet.

The scan does not visit clean blocks one by one.  `window_sums` gives the
weighted checksum of every length-P window of the received word at once,
and the scan jumps from one suspect block to the next, or to the first
erasure that one `find` meets in the stretch it copies; only there does
the per-block correction code run.  Read as digits in base X = 256^w, w
bytes wide enough for a window sum, the word times the ramp P, P-1, ...,
1 holds every window sum as one digit.  While the sums fit in a byte
(P <= 22) that is one product by a ramp of at most 22 bytes; wider
digits take the ramp's closed form, one shift, one product by a small
int and one exact division by (X-1)^2, so the kernel is linear in n at
every P.
The sums are read as one buffer, never unpacked into ints one by one.
The flag that tells a flip from a deletion at block j, whether block
j+1 passes its checksum, is the flag of the window P past block j,
which the scan has already read; only a final block j+1, of its own
length and residue, has its checksum taken on its own.

A block code of length at most TABLE_MAX_LENGTH is decoded by table
lookup (standard-array decoding of a short code, as in MacWilliams and
Sloane, ch. 1).  `FarParams` maps each received block one deletion,
erasure or flip away from a word of the class, and each word as
received, to the answer the decoder's corrector gives for it, from one
call of that corrector; blocks whose answer is a DecodeFailure are left
out; `patterns.apply_pattern` makes the blocks, by the patterns of the
at-most-one family.  The entries for final blocks, and for inner blocks
with an erasure or a deletion, are `vt.correct_single`'s answers, so at
s = 0 the inner and final codes share one table; inner flips have their
own table, of `_pick_flip`'s answers.  The decoder looks a block up first
and calls the corrector only on a miss, so its answers, failures and the
faults it propagates are the corrector's.  Every block that far-apart
errors deliver is in a table: at far(60, 6) a correction costs one dict
lookup instead of two to four corrector calls.  An entry costs one
corrector call and a hit saves one to four, so a table pays for itself
within about as many corrections as it has entries, but the build
doubles with each symbol of block length.  The bound, 8, keeps the build
within a few milliseconds, a small part of a process's import and
set-up; longer codes, the paper's P = 14 among them, keep empty tables
and the correctors alone.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import DecodeFailure, check_index
from .patterns import KINDS, PatternFamily, apply_pattern, enumerate_family
from .vt import (VtClass, VtParams, correct_single, flip_candidates,
                 vt_class_sizes, vt_enumerate, vt_syndrome)
from .words import ERASURE, UNITS, Symbols, Word, like, received_bytes, symbol_bytes

TABLE_MAX_LENGTH = 8  # longest block code decoded by table lookup: see above
LEAF_DIGITS = 32  # longest digit run far_codeword peels one by one: see there

Answer = Tuple[Word, bool]  # a block's correction and its ambiguity flag


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
    """far(n, P): t - 1 inner blocks of length P and a final block of
    length P + s, where n = t*P + s.  Every other field follows from n
    and P and is set here, once, so none can be out of step with them.

    The alphabets are views of the classes `vt_enumerate` returns:
    sequences of bytes in lexicographic order that list no word, so the
    budget is that of the counting tables at P and P + s.  The encoder,
    the draw and the count read their `size`, exact past 2^63.  The inner
    alphabet is the non-constant words of VT_a1(P), a1 chosen to make it
    largest; for P >= 3 it is never empty, as the 2^P - 2 non-constant
    words fall into at most 2P residues.  The final alphabet is all of
    VT_a2(P + s), constants included, but a2 is chosen as if they were
    dropped: under the paper's modulus it has one word fewer than the
    largest class at P + s in {4, 6, 8, 10, 12, 16, 18, 22, 24} (9
    words, not 10, for far(60, 6)).  The decoding tables (`_block_table`)
    are vt.correct_single's answers for inner and for final blocks, one
    table when s = 0, and _pick_flip's for inner flips; each block code
    of length at most TABLE_MAX_LENGTH gets its table here, not at first
    use, so a decode never pays for it, and an empty table leaves its
    blocks to the corrector.
    """

    n: int
    P: int
    t: int = field(init=False, compare=False)
    s: int = field(init=False, compare=False)
    a1: int = field(init=False, compare=False)
    a2: int = field(init=False, compare=False)
    inner_code: VtParams = field(init=False, repr=False, compare=False)
    final_code: VtParams = field(init=False, repr=False, compare=False)
    inner_alphabet: VtClass = field(init=False, repr=False, compare=False)
    final_alphabet: VtClass = field(init=False, repr=False, compare=False)
    inner_table: Dict[bytes, Answer] = field(init=False, repr=False, compare=False)
    flip_table: Dict[bytes, Answer] = field(init=False, repr=False, compare=False)
    final_table: Dict[bytes, Answer] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, P = self.n, self.P
        if P < 3:
            raise ValueError("need P >= 3 so the inner alphabet is non-empty")
        if n < 2 * P:
            raise ValueError("need n >= 2P (at least two blocks)")
        t, s = divmod(n, P)
        a1 = _best_residue_without_constants(P)
        a2 = _best_residue_without_constants(P + s) if s else a1
        inner_code, final_code = VtParams(P, a1), VtParams(P + s, a2)
        final = vt_enumerate(final_code)
        inner = vt_enumerate(inner_code) if s else final  # s = 0: one class
        # In lexicographic order 0^P, of checksum 0, is first if present
        # and 1^P, of checksum P(P+1)/2, last.
        ones = P * (P + 1) // 2 % inner_code.modulus == a1
        final_table = _block_table(final_code, final, KINDS, correct_single)
        derived = dict(
            t=t, s=s, a1=a1, a2=a2, inner_code=inner_code, final_code=final_code,
            inner_alphabet=inner[(a1 == 0):inner.size - ones], final_alphabet=final,
            inner_table=(_block_table(inner_code, inner, "DE", correct_single)
                         if s else final_table),
            flip_table=_block_table(inner_code, inner, "F", _pick_flip),
            final_table=final_table)
        for name, value in derived.items():
            object.__setattr__(self, name, value)  # frozen: set once, here

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
    def _inner_powers(self) -> Dict[int, int]:
        """R^h by h, R the inner alphabet size, for far_codeword's splits,
        filled as they are first made."""
        return {}

    @cached_property
    def codeword_count(self) -> int:
        return self.inner_alphabet.size ** (self.t - 1) * self.final_alphabet.size


def far_params(n: int, P: int) -> FarParams:
    """The far code far(n, P), built with its alphabets and tables: see
    `FarParams`."""
    return FarParams(n, P)


def _block_table(code: VtParams, words: Sequence[Word], kinds: str,
                 answer: Callable[[VtParams, bytes], Answer]) -> Dict[bytes, Answer]:
    """answer(code, key) for every key that `apply_pattern` makes from one
    of `words`, the class of `code`, by a pattern of at most one error of
    `kinds`; the empty pattern keeps the word.  A key whose answer is a
    DecodeFailure is left out.  Empty for a code longer than
    TABLE_MAX_LENGTH."""
    if code.n > TABLE_MAX_LENGTH:
        return {}
    family = list(enumerate_family(PatternFamily.at_most(code.n, 1, kinds=kinds)))
    table = {}
    for key in {apply_pattern(w, g) for w in words for g in family}:
        try:
            table[key] = answer(code, key)
        except DecodeFailure:
            pass
    return table


def far_encode(p: FarParams, indices: Sequence[int]) -> Word:
    """Concatenate the alphabet words selected by the index tuple."""
    if len(indices) != p.t:
        raise ValueError(f"need {p.t} indices, got {len(indices)}")
    out: List[Word] = []
    for j, i in enumerate(indices, start=1):
        alphabet = p.inner_alphabet if j < p.t else p.final_alphabet
        if not 0 <= i < alphabet.size:
            raise ValueError(f"block {j}: index {i} outside "
                             f"0..{alphabet.size - 1}")
        out.append(alphabet[i])
    return b"".join(out)


def far_codeword(p: FarParams, index: int) -> Word:
    """Codeword number `index`: its block indices are the mixed-radix
    digits of the index, the final block's the least significant.

    The block words are taken from the alphabets as the index is split,
    without `far_encode`'s checks, which these digits always pass.  The
    t-1 inner digits, base R = p.inner_alphabet.size, are split by divide
    and conquer: a run of m digits is cut by one divmod by R^h, h = m//2,
    into its top m-h and bottom h digits, and each part is split in turn;
    a run of at most LEAF_DIGITS digits is peeled one divmod by R at a
    time.  The powers of R are kept per code.  Peeling all t digits one
    by one divides an index of about n bits t times, quadratic in n; the
    split divides each bit about once per level.  CPython 3.11's long
    division is itself quadratic, so the split still is, with a far
    smaller constant; at far(60, 6) one leaf does it all.  Leaves of 32
    to 48 digits drew fastest at far(3024, 14), far(10^4, 12) and
    far(10^5, 12): shorter ones make more small divisions and calls,
    longer ones peel longer numbers.
    """
    check_index(index, p.codeword_count)
    index, i = divmod(index, p.final_alphabet.size)
    blocks = [p.final_alphabet[i]]
    _unrank_inner(p, index, p.t - 1, blocks)
    blocks.reverse()
    return b"".join(blocks)


def _unrank_inner(p: FarParams, index: int, m: int, blocks: List[Word]) -> None:
    """Append to `blocks`, least significant first, the m inner blocks
    whose base-R digits spell `index` < R^m."""
    if m > LEAF_DIGITS:
        h = m // 2
        powers = p._inner_powers
        power = powers.get(h)
        if power is None:
            power = powers[h] = p.inner_alphabet.size ** h
        high, low = divmod(index, power)
        _unrank_inner(p, low, h, blocks)
        _unrank_inner(p, high, m - h, blocks)
        return
    alphabet = p.inner_alphabet
    radix = alphabet.size
    for _ in range(m):
        index, i = divmod(index, radix)
        blocks.append(alphabet[i])


@lru_cache(maxsize=None)
def _digits(P: int) -> Tuple[str, int, int]:
    """(buffer format, digit width w in bytes, factor) for windows of
    length P.  w is the narrowest of 1, 2, 4 and 8 that holds a window
    sum, at most P(P+1)/2, without a carry.  For w = 1 the factor is the
    ramp, whose little-endian digits are P, P-1, ..., 1; for wider digits
    it is (X-1)^2, X = 256^w, the divisor of the ramp's closed form."""
    top = P * (P + 1) // 2
    fmt = next(f for f in "BHIQ" if top.bit_length() <= 8 * struct.calcsize(f))
    width = struct.calcsize(fmt)
    if width == 1:
        return fmt, width, int.from_bytes(bytes(range(P, 0, -1)), "little")
    return fmt, width, ((1 << 8 * width) - 1) ** 2


def window_sums(z: Union[bytes, bytearray], P: int) -> Sequence[int]:
    """Weighted checksum sum((i+1) * z[q+i]) of every length-P window of
    the 0/1 word z, by offset q = 0 .. len(z) - P.

    Read as little-endian digits in base X = 256^w (`_digits`), z times
    the ramp P, P-1, ..., 1 holds the sum of the window at q as digit
    q + P - 1, so one big-integer product gives them all.  One-byte
    digits (P <= 22) multiply by the ramp, at most 22 bytes long, and
    the result is bytes.  Wider digits (P >= 23) take the ramp's closed
    form, sum((P-k) * X^k for k < P) = (X^(P+1) - ((P+1)*X - P)) / (X-1)^2:
    one shift, one product by a small int and one exact division by a
    divisor of at most 16 bytes.  Either way the work is linear in
    len(z) at every P.  Wide digits come back as one buffer of ints, a
    memoryview read in the host's byte order.
    """
    fmt, width, factor = _digits(P)
    n = len(z)
    windows = max(n - P + 1, 0)
    if width == 1:
        product = int.from_bytes(z, "little") * factor
        return product.to_bytes(n + P, "little")[P - 1:P - 1 + windows]
    spread = bytearray(width * n)
    spread[::width] = z
    x = int.from_bytes(spread, "little")
    shift = 8 * width  # X = 2^shift
    product = ((x << shift * (P + 1)) - x * ((P + 1 << shift) - P)) // factor
    # Written in the host's byte order, each digit reads as one native
    # int; a big-endian host holds the digits last first.
    digits = memoryview(product.to_bytes(width * (n + P), sys.byteorder)).cast(fmt)
    if sys.byteorder == "big":
        digits = digits[::-1]
    return digits[P - 1:P - 1 + windows]


def _passing(sums: Sequence[int], table: bytes) -> bytes:
    """table[v] for each window sum v: one of `FarParams._sum_tables`."""
    if isinstance(sums, bytes):
        return sums.translate(table)
    return bytes(map(table.__getitem__, sums))


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
    """What one far_decode call did: `iterations` is the number of
    corrections it made plus one, and `ambiguous_flips` the number of
    flips it fixed by picking one of two or more candidate fixes, so a
    wrong estimate with it above zero is flagged."""

    iterations: int = 0
    ambiguous_flips: int = 0


def far_decode(p: FarParams, y: Symbols) -> Tuple[Symbols, FarDecodeInfo]:
    """Sequentially correct a far-apart deletable error pattern.

    One scan reads y once from the left and writes the estimate once,
    block by block.  A cursor r marks the first received symbol not yet
    read; the estimate holds blocks 1 .. j-1 when block j starts at r.
    The scan hands every final block, and any block holding an erasure,
    to `vt.correct_single`, and checks the checksum of any other block;
    every correction is looked up in the block code's table first.
    At a mismatch in inner block j it corrects exactly one error, in
    block j itself (the module docstring says why), telling a deletion
    from a flip by whether the next block passes its checksum, which for
    an inner next block is the flag of its window in the view the scan
    just read, and for the final block its own checksum; the fixed block
    stands for P received symbols after a flip and P-1 after a deletion.
    Nothing left of the cursor is read again.  A block is sliced when
    the scan reaches it: an inner block shorter than P mismatches, and a
    short block after the one being corrected means a deletion is
    pending.  Terminates when the scan passes the final block;
    iterations counts the corrections plus one, where a block the
    estimate holds as received, or with only its erasure filled in, is
    no correction.
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
    received, y = y, received_bytes(y)
    sums = window_sums(y.replace(UNITS[ERASURE], b"\0"), P)  # erasures as 0
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
            blk = y[r:r + P] if j < t else y[r:]
            if j == t or ERASURE in blk:
                # The final alphabet is all of its VT class.
                table = p.final_table if j == t else p.inner_table
                fixed, ambiguous = (table.get(blk)
                                    or correct_single(_block_code(p, j), blk))
                used = len(blk)
            else:
                # The next block follows blk; the final block runs to the end.
                if j + 1 < t:  # its flag is the view's next, where it fits
                    nxt = y[r + P:r + 2 * P]
                    verdict = view[suspect + 1:suspect + 2] == b"\1"
                else:
                    nxt, verdict = y[r + P:], None
                fixed, ambiguous, used = _correct_one(p, j, blk, nxt, verdict)
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
    estimate = bytes(out)
    if not far_contains(p, estimate):
        raise DecodeFailure("estimate is not a codeword",
                            {"estimate_length": len(estimate)})
    return like(received, estimate), info


def _block_code(p: FarParams, j: int) -> VtParams:
    return p.inner_code if j < p.t else p.final_code


def _pick_flip(code: VtParams, blk: bytes) -> Answer:
    """Undo one flip in an inner block, keeping only alphabet words.

    Flip candidates are codewords of the inner VT class; the constant
    words among them are dropped.  Both flip readings can be alphabet
    words (VT classes contain pairs at Hamming distance two); the flip-up
    reading is then chosen.  Returns (word, ambiguous), as
    `vt.correct_single` does, ambiguous telling whether both were.
    """
    candidates = [c for c in flip_candidates(code, blk) if 0 < c.count(1) < code.n]
    if not candidates:
        raise DecodeFailure("no single flip reaches an alphabet word")
    return candidates[0], len(candidates) > 1


def _correct_one(p: FarParams, j: int, blk: bytes, nxt: bytes,
                 verdict: Optional[bool]) -> Tuple[bytes, bool, int]:
    """Fix the single error behind the checksum mismatch at inner block j.

    blk is block j as received: P symbols, fewer where the word ends
    early, and no erasure; every final block goes to `vt.correct_single`
    instead.  nxt is the next block as received, the symbols that follow
    blk.  verdict is whether nxt passes its checksum when nxt is an inner
    block, as the scan read it from the flag of its window (False where
    nxt is cut short, and read only where nxt holds no erasure), and None
    when nxt is the final block, whose checksum is taken here.  Returns a
    codeword of the inner VT class, whether it is an ambiguous flip (a
    deletion gives False) and the received symbols it stands for: P after
    a flip, P-1 after a deletion.  A full next block holding an erasure
    has no checksum to tell them by, and is refused.  Each correction is
    looked up in `p.flip_table` or `p.inner_table` first.
    """
    if len(blk) < p.P:  # the word ends inside block j
        raise DecodeFailure("received word ends inside an inner block",
                            {"length": (j - 1) * p.P + len(blk)})
    # The next block's checksum tells a flip (clean neighbour) from a
    # deletion (neighbour shifted left, or cut short: deletions pending).
    code = _block_code(p, j + 1)
    if len(nxt) == code.n and ERASURE in nxt:
        raise DecodeFailure("checksum undefined with erasures present")
    if verdict is None:
        verdict = len(nxt) == code.n and vt_syndrome(nxt, code.a, code.modulus) == 0
    if verdict:
        return (*(p.flip_table.get(blk) or _pick_flip(p.inner_code, blk)), p.P)
    d = blk[:-1]
    return (*(p.inner_table.get(d) or correct_single(p.inner_code, d)), p.P - 1)
