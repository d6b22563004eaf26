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

import bisect
import itertools
import math
import random
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import check_budget
from .words import ERASURE, UNITS, Symbols, codeword_bytes, like

KINDS = "DEF"
_KIND_SYMBOLS = tuple(KINDS)  # a kind is one of these strings


@dataclass(frozen=True)
class ErrorPattern:
    """Sparse error pattern: support positions with a kind per position."""

    n: int
    errors: Tuple[Tuple[int, str], ...]  # ((pos, kind), ...) sorted by pos

    def __post_init__(self):
        """Check the pattern in one pass: a position that is no int is
        refused at once, positions out of order before any other fault."""
        n, last, ordered, fault = self.n, -math.inf, True, None
        for pos, kind in self.errors:
            if type(pos) is not int:  # bool too
                raise ValueError("error positions must be integers")
            if pos <= last:
                ordered = False
            last = pos
            if fault is None:
                if not 1 <= pos <= n:
                    fault = f"position {pos} outside 1..{n}"
                elif kind not in _KIND_SYMBOLS:
                    fault = f"unknown error kind {kind!r}"
        if not ordered:
            raise ValueError("positions must be strictly increasing and distinct")
        if fault is not None:
            raise ValueError(fault)

    @classmethod
    def from_dict(cls, n: int, errors: Dict[int, str]) -> "ErrorPattern":
        return cls(n, tuple(sorted(errors.items())))

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(p for p, _ in self.errors)

    @property
    def weight(self) -> int:
        return len(self.errors)

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
            if type(obj["n"]) is not int:
                raise ValueError("pattern length n must be an integer")
            return cls(obj["n"], errors)
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
        if self.n < 0:
            raise ValueError("need n >= 0")
        for name, takers in (("t", ("at_most", "p_far")), ("P", ("p_far",)),
                             ("b", ("burst",))):
            if getattr(self, name) is not None and self.kind not in takers:
                raise ValueError(f"{self.kind} families take no {name}")
        if not self.kinds or any(k not in KINDS for k in self.kinds):
            raise ValueError(f"bad kinds {self.kinds!r}")
        if self.kinds != "".join(sorted(set(self.kinds))):
            object.__setattr__(self, "kinds", "".join(sorted(set(self.kinds))))
        if self.kind == "p_far" and not (self.P is not None and self.P >= 1):
            raise ValueError("need P >= 1")
        if self.kind == "burst" and not (self.b is not None and 0 <= self.b < self.n):
            raise ValueError("need 0 <= b < n")
        if (self.t is not None or self.kind == "at_most") and not (
                self.t is not None and 0 <= self.t <= self.n):
            raise ValueError("need 0 <= t <= n")

    @classmethod
    def at_most(cls, n: int, t: int, kinds: str = KINDS) -> "PatternFamily":
        return cls("at_most", n, t=t, kinds=kinds)

    @classmethod
    def p_far(cls, n: int, P: int, t: Optional[int] = None,
              kinds: str = KINDS) -> "PatternFamily":
        return cls("p_far", n, P=P, t=t, kinds=kinds)

    @classmethod
    def burst(cls, n: int, b: int, kinds: str = KINDS) -> "PatternFamily":
        return cls("burst", n, b=b, kinds=kinds)

    @property
    def spacing(self) -> int:
        """Minimum distance between marked positions: P for a P-far
        family, else 1 (at most t errors is the 1-far family capped at t;
        a burst's spread binds only supports of two or more positions)."""
        return self.P if self.kind == "p_far" else 1

    def max_weight(self) -> int:
        if self.kind == "burst":
            return min(self.b + 1, self.n)
        cap = 1 + (self.n - 1) // self.spacing
        return cap if self.t is None else min(cap, self.t)

    @cached_property
    def cumulative_weights(self) -> Tuple[int, ...]:
        """Number of patterns of weight at most k, for k = 0..max_weight,
        counted once per family: the last is the family size, and
        sample_pattern bisects them on every call."""
        return tuple(itertools.accumulate(_weight_counts(self)))

    def describe(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}


def apply_pattern(x: Symbols, g: ErrorPattern) -> Symbols:
    """Corrupt the word x by the pattern g, in x's word type (see `words`).

    The clean run before each marked position, and the rest after the
    last, is copied from x's bytes as one slice: the Python work is per
    error, not per symbol.  A flip emits the inverted bit, an erasure the
    erasure symbol and a deletion nothing.
    """
    z = codeword_bytes(x)
    if len(z) != g.n:
        raise ValueError(f"word length {len(z)} != pattern length {g.n}")
    out = []
    start = 0
    for pos, kind in g.errors:
        out.append(z[start:pos - 1])
        if kind != "D":
            out.append(UNITS[1 - z[pos - 1] if kind == "F" else ERASURE])
        start = pos
    out.append(z[start:])
    return like(x, b"".join(out))


def _burst_spreads(f: PatternFamily, k: int) -> List[Tuple[int, int]]:
    """(spread d, number of size-k burst supports of spread d), k >= 2."""
    return [(d, (f.n - d) * math.comb(d - 1, k - 2))
            for d in range(k - 1, f.b + 1)]


def _spaced(f: PatternFamily, k: int) -> bool:
    """Whether size-k supports of f are exactly those with gaps >= spacing."""
    return f.kind != "burst" or k < 2


def _weight_counts(f: PatternFamily) -> Iterator[int]:
    """Yield the number of patterns of each weight k = 0..max_weight: the
    supports of size k times base^k kind assignments, base = len(kinds).
    Only the latest count is held, so a caller that sums them keeps two
    integers, not the table of max_weight + 1.

    Spaced support sizes are C(x, k) with x = n - (k-1)*gap, gap =
    spacing - 1.  Each weight's count is built from the one before,
    C(x-gap, k+1) * base^(k+1)
        = C(x, k) * base^k * base * perm(x-k, gap+1) / (perm(x, gap) * (k+1)),
    with one big-by-small product and quotient per weight, where
    math.comb from scratch and a product of each binomial by base^k would
    each cost a big-by-big operation per weight.  While k < gap the ratio
    is perm(x-gap, k+1) / perm(x, k), of k+1 factors, not gap+1, so a
    count does not grow with P where P >= n leaves weights 0 and 1 only.
    """
    base = len(f.kinds)
    gap = f.spacing - 1
    x = f.n + gap
    count = 1
    yield count
    for k in range(f.max_weight()):
        if not _spaced(f, k + 1):
            supports = sum(c for _, c in _burst_spreads(f, k + 1))
            yield supports * base ** (k + 1)
            continue
        up, down = ((math.perm(x - gap, k + 1), math.perm(x, k)) if k < gap
                    else (math.perm(x - k, gap + 1), math.perm(x, gap)))
        count = count * base * up // (down * (k + 1))
        yield count
        x -= gap


def family_size(f: PatternFamily) -> int:
    """Exact number of patterns in the family, summed as the weight
    counts are made rather than from the sampler's cumulative table."""
    return sum(_weight_counts(f))


def _iter_supports(f: PatternFamily, k: int) -> Iterator[Tuple[int, ...]]:
    """Yield size-k supports in lexicographic order."""
    n = f.n
    if _spaced(f, k):
        gap = f.spacing - 1
        for combo in itertools.combinations(range(1, n - (k - 1) * gap + 1), k):
            yield tuple(p + i * gap for i, p in enumerate(combo))
        return
    for first in range(1, n - k + 2):
        last_max = min(first + f.b, n)
        for rest in itertools.combinations(range(first + 1, last_max + 1), k - 1):
            yield (first,) + rest


def enumerate_family(f: PatternFamily) -> Iterator[ErrorPattern]:
    """Yield every member of the family exactly once.

    Order: weight ascending, then support lexicographic, then kinds
    lexicographic with D < E < F.  Refuses families over the budget.
    """
    size = family_size(f)
    check_budget(size, lambda: f"the {size} patterns of the family")
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
    if f.t is not None and len(support) > f.t:
        return False
    if not _spaced(f, len(support)):
        return support[-1] - support[0] <= f.b
    return all(b - a >= f.spacing for a, b in zip(support, support[1:]))


def _pick(cumulative: Sequence[int], rng: random.Random) -> int:
    """Index drawn with probability proportional to the counts whose
    running totals are given: the first total above a draw below the last."""
    return bisect.bisect_right(cumulative, rng.randrange(cumulative[-1]))


def _sample_support(f: PatternFamily, k: int, rng: random.Random) -> Tuple[int, ...]:
    n = f.n
    if _spaced(f, k):
        gap = f.spacing - 1
        combo = sorted(rng.sample(range(1, n - (k - 1) * gap + 1), k))
        return tuple(p + i * gap for i, p in enumerate(combo))
    spreads = _burst_spreads(f, k)
    totals = list(itertools.accumulate(count for _, count in spreads))
    d = spreads[_pick(totals, rng)][0]
    first = rng.randrange(1, n - d + 1)
    interior = sorted(rng.sample(range(first + 1, first + d), k - 2))
    return (first, *interior, first + d)


def sample_pattern(f: PatternFamily, seed: int | random.Random) -> ErrorPattern:
    """Sample a member of the family uniformly with a generator, which the
    draws advance, or with an int, whose low 64 bits seed a new one."""
    rng = (seed if isinstance(seed, random.Random)
           else random.Random(seed & 0xFFFFFFFFFFFFFFFF))
    k = _pick(f.cumulative_weights, rng)
    kinds, randrange = f.kinds, rng.randrange
    base = len(kinds)
    # The whole support is drawn first, then one kind per position in order.
    return ErrorPattern(f.n, tuple([(pos, kinds[randrange(base)])
                                    for pos in _sample_support(f, k, rng)]))
