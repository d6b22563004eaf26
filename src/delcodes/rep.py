"""Repetition code with majority decoding.

Each information bit is repeated 2t+1 times and the codeword is padded
with zeros up to length n.  Up to t deletable errors leave every block
with a clean majority, so the decoder removes the pad, re-blocks and
takes per-block majorities.  The same construction with t = b corrects
any burst of deletable errors of spread at most b.  `rep_encode` and
`rep_decode` return the word type they were given (`words.like`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import DecodeFailure
from .words import Symbols, codeword_bytes, like, received_bytes


@dataclass(frozen=True)
class RepParams:
    n: int
    t: int

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("need t >= 0")
        if 2 * self.t + 1 > self.n:
            raise ValueError(f"block length {2 * self.t + 1} exceeds n = {self.n}")

    @property
    def block(self) -> int:
        return 2 * self.t + 1

    @property
    def m(self) -> int:
        """Information length: largest m with m * (2t+1) <= n."""
        return self.n // self.block

    @property
    def pad(self) -> int:
        return self.n - self.m * self.block


def burst_params(n: int, b: int) -> RepParams:
    """Repetition parameters correcting any burst of support spread <= b.

    A burst of spread b marks at most b+1 positions, so the error budget
    is b+1 (a budget of b admits codeword collisions already at n = 9,
    b = 1: two adjacent flips of one codeword can match a single flip of
    another).
    """
    if b < 0:
        raise ValueError("need b >= 0")
    return RepParams(n, b + 1)


def rep_encode(p: RepParams, info: Symbols) -> Symbols:
    """Repeat each bit of info 2t+1 times and pad with zeros, in info's
    word type (`like`).  The codeword holds the ints 0 and 1 only: info
    with any other symbol, 1.0 among them, is refused."""
    bits = codeword_bytes(info)
    if len(bits) != p.m:
        raise ValueError(f"info length {len(bits)} != m = {p.m}")
    blocks = (bytes(p.block), b"\1" * p.block)
    return like(info, b"".join(map(blocks.__getitem__, bits)) + bytes(p.pad))


def rep_decode(p: RepParams, z: Symbols) -> Tuple[Symbols, bool]:
    """Decode a (possibly corrupted) codeword; returns (info, tie_flagged).

    Preprocessing removes up to ``pad`` trailing zeros.  A flipped pad bit
    can block that removal while a deletion shortens the word, leaving pad
    debris past position m*(2t+1); since deletions only shift symbols left,
    the information content always lies in the first m*(2t+1) symbols, so
    any excess is dropped.  A word that splits into fewer than m blocks is
    outside the <= t error contract and raises DecodeFailure, as does a
    symbol other than 0, 1 and e.  Ties decode 0 and are flagged.  The
    info comes back in z's word type (`like`).
    """
    y = received_bytes(z)
    kept = min(max(len(y.rstrip(b"\0")), len(y) - p.pad), p.m * p.block)
    if kept <= (p.m - 1) * p.block:
        raise DecodeFailure(
            f"got {-(-kept // p.block)} blocks, expected {p.m}",
            {"received_length": len(y)})
    y = y[:kept]
    info = bytearray()
    tied = False
    for i in range(0, kept, p.block):
        ones, zeros = y.count(1, i, i + p.block), y.count(0, i, i + p.block)
        info.append(int(ones > zeros))
        tied = tied or ones == zeros
    return like(z, info), tied
