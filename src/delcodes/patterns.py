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
from typing import Dict, Iterator, Optional, Sequence, Tuple

from .errors import check_budget
from .words import ERASURE, UNITS, Symbols, codeword_bytes, like

KINDS = "DEF"
_KIND_SYMBOLS = tuple(KINDS)  # a kind is one of these strings

# A budget unit of exact counting: 2^12 bit operations, about what one
# enumerated pattern costs (1-2 us on a 2-CPU x86-64 host), so the same
# budget bounds an exact count's time as it bounds an enumeration's.
COUNT_UNIT = 2 ** 12


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
            return self.b + 1
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


def _spaced(f: PatternFamily, k: int) -> bool:
    """Whether size-k supports of f are exactly those with gaps >= spacing."""
    return f.kind != "burst" or k < 2


def _times(count: int, bits: float) -> int:
    """count * bits rounded up, in integers, so count may pass any float."""
    return (count * math.ceil(bits * 2 ** 32) + 2 ** 32 - 1) >> 32


def _size_bits(f: PatternFamily) -> int:
    """An upper bound on the bit length of the family's size.

    Uncapped, the patterns of spacing s on n positions number a(n) =
    a(n-1) + base*a(n-s) (position n clean, or marked with s-1 clean
    positions before it), at most L^(n+s-1) for any L > 1 with
    L^s >= L^(s-1) + base; capped at K errors, they number at most
    (K+1) * (n*base)^K.  L is found by bisection, with s - 1 cut to 2^53
    for the float arithmetic, which can only raise it.
    """
    base, s, cap = len(f.kinds), f.spacing, f.max_weight()
    lo, hi = 0.0, float(base)  # L - 1
    clean, target = min(s - 1, 2 ** 53), math.log(base)
    for _ in range(40):
        mid = (lo + hi) / 2
        if clean * math.log1p(mid) + math.log(mid) < target:
            lo = mid
        else:
            hi = mid
    return 1 + min(_times(f.n + s - 1, math.log2(1 + hi)),
                   _times(cap, math.log2(max(f.n * base, 2)))
                   + (cap + 1).bit_length())


def check_count_budget(f: PatternFamily) -> None:
    """Refuse an exact count whose work exceeds the budget, in units of
    COUNT_UNIT bit operations, before any of it is done.

    Each of the max_weight steps of `_weight_counts` multiplies and
    divides a count of at most `_size_bits` bits by products of at most
    min(spacing - 1, max_weight) + 1 factors below n + spacing.
    """
    steps = f.max_weight()
    factor_bits = ((min(f.spacing - 1, steps) + 1)
                   * (f.n + f.spacing).bit_length())
    work = steps * (_size_bits(f) + factor_bits) * (1 + factor_bits // 64)
    units = -(-work // COUNT_UNIT)
    check_budget(units, lambda: f"the {units} x {COUNT_UNIT} bit operations "
                                "of the family's exact count")


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

    A burst's size-k supports, k >= 2, summed over spreads d as
    (n-d) * C(d-1, k-2), number n*C(b, k-1) - (k-1)*C(b+1, k) (the
    hockey stick), so its count is lead * (n*k - (k-1)*(b+1)) / k with
    lead = base^k * C(b, k-1), again one small ratio from the last.

    Refuses a count over the budget (`check_count_budget`) first.
    """
    check_count_budget(f)
    base = len(f.kinds)
    gap = f.spacing - 1
    x = f.n + gap
    count, lead = 1, base  # lead of weight 1: base * C(b, 0)
    yield count
    for k in range(f.max_weight()):
        if not _spaced(f, k + 1):
            lead = lead * base * (f.b - k + 1) // k
            yield lead * (f.n * (k + 1) - k * (f.b + 1)) // (k + 1)
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


def _spaced_pool(f: PatternFamily, k: int) -> range:
    """Size-k supports with gaps >= spacing are the k-subsets of this pool,
    1..n-(k-1)*(spacing-1), `_spread` out; at weight 0 it is empty."""
    return range(1, f.n - (k - 1) * (f.spacing - 1) + 1) if k else range(0)


def _spread(f: PatternFamily, combo: Sequence[int]) -> Tuple[int, ...]:
    """The support of a k-subset of `_spaced_pool`: i-th up by i*(spacing-1)."""
    gap = f.spacing - 1
    return tuple([p + i * gap for i, p in enumerate(combo)])


def _iter_supports(f: PatternFamily, k: int) -> Iterator[Tuple[int, ...]]:
    """The size-k supports in lexicographic order."""
    if _spaced(f, k):
        pool = _spaced_pool(f, k)
        return (_spread(f, combo) for combo in itertools.combinations(pool, k))
    return ((first, *rest) for first in range(1, f.n - k + 2)
            for rest in itertools.combinations(
                range(first + 1, min(first + f.b, f.n) + 1), k - 1))


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


def _pick(totals: Sequence[int], rng: random.Random, key=None) -> int:
    """Index drawn in proportion to the counts whose running totals, or
    their key(entry), are given: the first total above a draw below the last."""
    last = totals[-1] if key is None else key(totals[-1])
    return bisect.bisect_right(totals, rng.randrange(last), key=key)


def _sample_support(f: PatternFamily, k: int, rng: random.Random) -> Tuple[int, ...]:
    """A uniform size-k support.  A burst's supports of spread at most d
    number n*C(d, k-1) - (k-1)*C(d+1, k), as `_weight_counts` counts them."""
    if _spaced(f, k):
        return _spread(f, sorted(rng.sample(_spaced_pool(f, k), k)))
    spreads = range(k - 1, f.b + 1)
    d = spreads[_pick(spreads, rng, lambda d: f.n * math.comb(d, k - 1)
                      - (k - 1) * math.comb(d + 1, k))]
    first = rng.randrange(1, f.n - d + 1)
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
