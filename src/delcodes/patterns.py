"""Deletable-error patterns, corruption, and pattern families.

An error pattern marks positions (1-based) of a length-n word with one of
three error kinds: 'D' (deletion), 'E' (erasure), 'F' (flip).  Pattern
families group patterns by a structural predicate:

* ``at_most(t)``  -- at most t errors anywhere;
* ``p_far(P)``    -- marked positions pairwise at distance >= P;
* ``burst(b)``    -- all marked positions inside a window of spread <= b.

Families may optionally restrict the allowed error kinds, which is useful
for single-kind audits (e.g. deletions only).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from .errors import BudgetExceeded
from .words import ERASURE, Word, check_codeword

KINDS = "DEF"

DEFAULT_ENUM_CAP = 1_000_000


def _comb(x: int, k: int) -> int:
    return math.comb(x, k) if x >= k >= 0 else 0


@dataclass(frozen=True)
class ErrorPattern:
    """Sparse error pattern: support positions with a kind per position."""

    n: int
    errors: Tuple[Tuple[int, str], ...]  # ((pos, kind), ...) sorted by pos

    def __post_init__(self):
        positions = [p for p, _ in self.errors]
        if positions != sorted(set(positions)):
            raise ValueError("positions must be strictly increasing and distinct")
        for pos, kind in self.errors:
            if not 1 <= pos <= self.n:
                raise ValueError(f"position {pos} outside 1..{self.n}")
            if len(kind) != 1 or kind not in KINDS:
                raise ValueError(f"unknown error kind {kind!r}")

    @classmethod
    def from_dict(cls, n: int, errors: Dict[int, str]) -> "ErrorPattern":
        return cls(n, tuple(sorted(errors.items())))

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(p for p, _ in self.errors)

    @property
    def weight(self) -> int:
        return len(self.errors)

    @property
    def deletion_count(self) -> int:
        return sum(1 for _, k in self.errors if k == "D")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "errors": [{"pos": p, "kind": k} for p, k in self.errors],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ErrorPattern":
        """Inverse of to_json_dict; malformed input raises ValueError."""
        try:
            errors = tuple((e["pos"], e["kind"]) for e in obj["errors"])
            if any(type(pos) is not int for pos, _ in errors):
                raise ValueError("error positions must be integers")
            return cls(int(obj["n"]), errors)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed error pattern: {exc!r}") from exc


@dataclass(frozen=True)
class PatternFamily:
    """Descriptor of an enumerable family of error patterns."""

    kind: str  # "at_most" | "p_far" | "burst"
    n: int
    t: Optional[int] = None  # error budget (at_most; optional cap for p_far)
    P: Optional[int] = None  # minimum pairwise distance (p_far)
    b: Optional[int] = None  # maximum support spread (burst)
    kinds: str = KINDS

    def __post_init__(self):
        if self.kind not in ("at_most", "p_far", "burst"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if any(k not in KINDS for k in self.kinds):
            raise ValueError(f"bad kinds {self.kinds!r}")
        if self.kinds != "".join(sorted(set(self.kinds))):
            object.__setattr__(self, "kinds", "".join(sorted(set(self.kinds))))

    @classmethod
    def at_most(cls, n: int, t: int, kinds: str = KINDS) -> "PatternFamily":
        if not 0 <= t <= n:
            raise ValueError("need 0 <= t <= n")
        return cls("at_most", n, t=t, kinds=kinds)

    @classmethod
    def p_far(cls, n: int, P: int, t: Optional[int] = None,
              kinds: str = KINDS) -> "PatternFamily":
        if P < 2:
            raise ValueError("need P >= 2")
        return cls("p_far", n, P=P, t=t, kinds=kinds)

    @classmethod
    def burst(cls, n: int, b: int, kinds: str = KINDS) -> "PatternFamily":
        if not 0 <= b < n:
            raise ValueError("need 0 <= b < n")
        return cls("burst", n, b=b, kinds=kinds)

    def max_weight(self) -> int:
        if self.kind == "at_most":
            return self.t
        if self.kind == "p_far":
            cap = 1 + (self.n - 1) // self.P
            return cap if self.t is None else min(cap, self.t)
        return min(self.b + 1, self.n)

    def describe(self) -> dict:
        out = {"kind": self.kind, "n": self.n, "kinds": self.kinds}
        for name in ("t", "P", "b"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


def apply_pattern(x: Word, g: ErrorPattern) -> Word:
    """Corrupt the word x by the pattern g.

    Flips invert the bit, erasures emit the erasure symbol, deletions emit
    nothing; unmarked positions are copied.
    """
    check_codeword(x)
    if len(x) != g.n:
        raise ValueError(f"word length {len(x)} != pattern length {g.n}")
    marked = dict(g.errors)
    out = []
    for i, bit in enumerate(x, start=1):
        kind = marked.get(i)
        if kind is None:
            out.append(bit)
        elif kind == "F":
            out.append(1 - bit)
        elif kind == "E":
            out.append(ERASURE)
        # 'D': nothing emitted
    return tuple(out)


def _support_count(f: PatternFamily, k: int) -> int:
    """Number of valid supports of size k for the family."""
    n = f.n
    if k == 0:
        return 1
    if f.kind == "at_most":
        return _comb(n, k)
    if f.kind == "p_far":
        return _comb(n - (k - 1) * (f.P - 1), k)
    # burst
    if k == 1:
        return n
    return sum((n - d) * _comb(d - 1, k - 2) for d in range(k - 1, f.b + 1))


def family_size(f: PatternFamily) -> int:
    """Exact number of patterns in the family."""
    base = len(f.kinds)
    return sum(_support_count(f, k) * base ** k for k in range(f.max_weight() + 1))


def _iter_supports(f: PatternFamily, k: int) -> Iterator[Tuple[int, ...]]:
    """Yield size-k supports in lexicographic order."""
    n = f.n
    if k == 0:
        yield ()
        return
    if f.kind == "at_most":
        yield from itertools.combinations(range(1, n + 1), k)
    elif f.kind == "p_far":
        shrink = (k - 1) * (f.P - 1)
        for combo in itertools.combinations(range(1, n - shrink + 1), k):
            yield tuple(p + i * (f.P - 1) for i, p in enumerate(combo))
    else:  # burst
        if k == 1:
            for p in range(1, n + 1):
                yield (p,)
            return
        for first in range(1, n - k + 2):
            last_max = min(first + f.b, n)
            for rest in itertools.combinations(range(first + 1, last_max + 1), k - 1):
                yield (first,) + rest


def enumerate_family(f: PatternFamily,
                     max_patterns: int = DEFAULT_ENUM_CAP) -> Iterator[ErrorPattern]:
    """Yield every member of the family exactly once.

    Order: weight ascending, then support lexicographic, then kinds
    lexicographic with D < E < F.  Refuses families larger than the cap.
    """
    size = family_size(f)
    if size > max_patterns:
        raise BudgetExceeded(f"family has {size} patterns, cap is {max_patterns}")
    kinds = f.kinds
    for k in range(f.max_weight() + 1):
        for support in _iter_supports(f, k):
            for assignment in itertools.product(kinds, repeat=k):
                yield ErrorPattern(f.n, tuple(zip(support, assignment)))


def is_member(g: ErrorPattern, f: PatternFamily) -> bool:
    """Check whether the pattern satisfies the family predicate."""
    if g.n != f.n:
        raise ValueError("pattern and family lengths differ")
    if any(kind not in f.kinds for _, kind in g.errors):
        return False
    support = g.support
    if f.kind == "at_most":
        return len(support) <= f.t
    if f.kind == "p_far":
        if f.t is not None and len(support) > f.t:
            return False
        return all(b - a >= f.P for a, b in zip(support, support[1:]))
    if len(support) <= 1:
        return True
    return support[-1] - support[0] <= f.b


def _sample_support(f: PatternFamily, k: int, rng: random.Random) -> Tuple[int, ...]:
    n = f.n
    if k == 0:
        return ()
    if f.kind == "at_most":
        return tuple(sorted(rng.sample(range(1, n + 1), k)))
    if f.kind == "p_far":
        shrink = (k - 1) * (f.P - 1)
        combo = sorted(rng.sample(range(1, n - shrink + 1), k))
        return tuple(p + i * (f.P - 1) for i, p in enumerate(combo))
    # burst
    if k == 1:
        return (rng.randrange(1, n + 1),)
    weights = [(d, (n - d) * _comb(d - 1, k - 2)) for d in range(k - 1, f.b + 1)]
    total = sum(w for _, w in weights)
    pick = rng.randrange(total)
    for d, w in weights:
        if pick < w:
            break
        pick -= w
    first = rng.randrange(1, n - d + 1)
    interior = sorted(rng.sample(range(first + 1, first + d), k - 2))
    return (first, *interior, first + d)


def sample_pattern(f: PatternFamily, seed: int) -> ErrorPattern:
    """Deterministically sample a member of the family (uniform)."""
    rng = random.Random(seed & 0xFFFFFFFFFFFFFFFF)
    base = len(f.kinds)
    counts = [_support_count(f, k) * base ** k for k in range(f.max_weight() + 1)]
    total = sum(counts)
    if total == 0:
        raise ValueError("family is empty")
    pick = rng.randrange(total)
    for k, c in enumerate(counts):
        if pick < c:
            break
        pick -= c
    support = _sample_support(f, k, rng)
    assignment = tuple(f.kinds[rng.randrange(base)] for _ in range(k))
    return ErrorPattern(f.n, tuple(zip(support, assignment)))
