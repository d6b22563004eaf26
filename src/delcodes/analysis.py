"""Exact pattern counting and redundancy-bound evaluators.

Counting is exact big-integer arithmetic; ratios are rounded once, at
report time.  Lower bounds that hold only asymptotically carry an
applicability note and are never asserted against desk-scale codes.
Domain guards are written as `not (in domain)`, so NaN fails them, and
test a divisor before dividing by it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Tuple

from .errors import FormulaDomainError
from .patterns import PatternFamily, family_size


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: the evaluator's `name`, the `inputs` it was
    given, its `value` (a float, or [lower, upper] for a two-sided bound)
    and `applicability`, the range of parameters over which it holds."""

    name: str
    inputs: dict
    value: object
    applicability: str

    def to_json_dict(self) -> dict:
        return asdict(self)


def redundancy(n: int, size: int) -> float:
    """n - log2(size) bits spent on protection."""
    if size < 1:
        raise ValueError("need size >= 1")
    return n - math.log2(size)


def count_patterns(n: int, t: int) -> int:
    """Number of patterns with at most t errors: sum C(n,k) 3^k."""
    return family_size(PatternFamily.at_most(n, t))


def count_far_patterns(n: int, P: int, t: int) -> int:
    """Patterns with at most t errors, pairwise at distance >= P."""
    return family_size(PatternFamily.p_far(n, P, t=t))


def count_burst_patterns(n: int, b: int) -> int:
    """Patterns whose support spread is at most b (weights 0, 1 included)."""
    return family_size(PatternFamily.burst(n, b))


def far_fraction(n: int, t: int, omega: int) -> Tuple[float, float]:
    """Fraction of at-most-t patterns that are 3*P_n-far, with the target.

    P_n = floor(n / (t^2 omega)); returns (exact fraction, 1 - 42/omega).
    The guarantee fraction >= target is asymptotic, so both values are
    returned for comparison rather than asserted.
    """
    if not omega >= 6:
        raise ValueError("need omega >= 6")
    if t == 0:
        return 1.0, 1.0 - 42.0 / omega
    p_n = n // (t * t * omega)
    if p_n < 1:
        raise FormulaDomainError("P_n = floor(n / (t^2 omega)) is zero")
    # int / int is correctly rounded, as float(Fraction(a, b)) is.
    frac = count_far_patterns(n, 3 * p_n, t) / count_patterns(n, t)
    return frac, 1.0 - 42.0 / omega


def rep_bounds(n: int, t: int) -> BoundReport:
    """Two-sided redundancy bounds for the repetition construction."""
    if not (t >= 0 and 2 * t + 1 <= n):
        raise FormulaDomainError("need 0 <= t and 2t+1 <= n")
    lower = n * (1 - 1 / (2 * t + 1))
    return BoundReport("rep_bounds", {"n": n, "t": t},
                       [lower, lower + 1], "all n >= 3")


def any_code_lower(n: int, t: int) -> BoundReport:
    """Redundancy floor for any code correcting up to t deletable errors."""
    if not 1 <= t <= n:
        raise FormulaDomainError("need 1 <= t <= n")
    value = t * math.log2(n / t) - 10 * t - (2 ** 11) * t * t / n - 1
    return BoundReport("any_code_lower", {"n": n, "t": t},
                       value, "asymptotic, for all n large")


def frac_upper(n: int, t: int, omega: float) -> BoundReport:
    """Redundancy ceiling for codes correcting a 1 - 42/omega fraction."""
    if not (omega >= 6 and t >= 1 and (arg := 2 * n / (omega * t * t)) > 0):
        raise FormulaDomainError("need omega >= 6, t >= 1, positive log argument")
    value = omega * t * t * math.log2(arg)
    return BoundReport("frac_upper", {"n": n, "t": t, "omega": omega},
                       value, "asymptotic, for all n large")


def frac_upper_K(n: int, t: int, K: int) -> BoundReport:
    """Constant-omega corollary of frac_upper."""
    if not K >= 2:
        raise FormulaDomainError("need K >= 2")
    if not (t >= 1 and (arg := 2 * n / (K * t * t)) > 0):
        raise FormulaDomainError("need t >= 1 and positive log argument")
    value = K * t * t * math.log2(arg)
    return BoundReport("frac_upper_K", {"n": n, "t": t, "K": K},
                       value, "for all n >= N(K)")


def delta(P: int) -> float:
    """Inner-alphabet loss factor (P+1) / 2^(P-1).  Scaled by ldexp, so
    a huge P gives 0.0 at once instead of building the exact power."""
    if not P >= 2:
        raise FormulaDomainError("need P >= 2")
    return math.ldexp(P + 1, 1 - P)


def delta_report(P: int) -> BoundReport:
    return BoundReport("delta", {"P": P}, delta(P), "all P >= 2")


def far_upper(n: int, P: int) -> BoundReport:
    """Redundancy ceiling of the concatenated far-pattern code."""
    if not 2 <= P <= n:
        raise FormulaDomainError("need 2 <= P <= n")
    d = delta(P)
    if not d < 1:
        raise FormulaDomainError(f"delta({P}) = {d} >= 1, formula undefined")
    value = (n / P - 1) * math.log2((P + 1) / (1 - d)) + math.log2(P) + 1
    return BoundReport("far_upper", {"n": n, "P": P},
                       value, "all n >= P >= 2 with delta(P) < 1")


def far_lower(n: int, P: int) -> BoundReport:
    """Redundancy floor for any code correcting all 3P-far patterns."""
    if not P >= 2:
        raise FormulaDomainError("need P >= 2")
    value = n / (2 ** 11 * (3 * P + 6)) - 2
    return BoundReport("far_lower", {"n": n, "P": P},
                       value, "asymptotic, for all n large")


def far_lower_largeP(n: int, P: int) -> BoundReport:
    """Sharper floor when P grows faster than sqrt(n log n)."""
    if not P >= 2:
        raise FormulaDomainError("need P >= 2")
    value = (n / (6 * P) - 1) * math.log2(3 * P / 64)
    return BoundReport(
        "far_lower_largeP", {"n": n, "P": P}, value,
        "asymptotic, requires P / sqrt(n log n) -> infinity")


def burst_lower(n: int, b: int) -> BoundReport:
    """Redundancy floor for any code correcting bursts of spread <= b."""
    if not (b >= 1 and n >= 2):
        raise FormulaDomainError("need b >= 1 and n >= 2")
    value = math.log2(n) - (b + 5) - math.log2(b * (b + 4))
    return BoundReport("burst_lower", {"n": n, "b": b},
                       value, "asymptotic, for all n large")


BOUND_EVALUATORS = {
    "rep_bounds": rep_bounds,
    "any_code_lower": any_code_lower,
    "frac_upper": frac_upper,
    "frac_upper_K": frac_upper_K,
    "delta": delta_report,
    "far_upper": far_upper,
    "far_lower": far_lower,
    "far_lower_largeP": far_lower_largeP,
    "burst_lower": burst_lower,
}
