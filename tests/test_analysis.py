import inspect
import math
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from delcodes import analysis
from delcodes.errors import FormulaDomainError
from delcodes.patterns import PatternFamily, family_size


def test_redundancy():
    assert analysis.redundancy(12, 16) == 8.0
    assert analysis.redundancy(9, 8) == 6.0
    assert analysis.redundancy(4, 1) == 4.0
    with pytest.raises(ValueError, match="^need size >= 1$"):
        analysis.redundancy(4, 0)


def test_count_patterns_spot_values():
    assert analysis.count_patterns(4, 0) == 1
    assert analysis.count_patterns(4, 1) == 13
    assert analysis.count_patterns(4, 2) == 67
    # 1 + 3*12 + 9*C(4,2) with supports 9 apart in n = 12
    assert analysis.count_far_patterns(12, 9, 2) == 91
    # P = 1 puts no constraint on distinct positions
    assert analysis.count_far_patterns(5, 1, 1) == 16 == \
        analysis.count_patterns(5, 1)
    assert analysis.count_burst_patterns(9, 1) == 1 + 27 + 9 * 8


def test_counts_match_family_sizes():
    for n in range(1, 11):
        for t in range(0, min(3, n) + 1):
            assert analysis.count_patterns(n, t) == family_size(
                PatternFamily.at_most(n, t))
        for P in range(2, 6):
            fam = PatternFamily.p_far(n, P)
            assert analysis.count_far_patterns(n, P, fam.max_weight()) == \
                family_size(fam)
        for b in range(1, min(3, n - 1) + 1):
            assert analysis.count_burst_patterns(n, b) == family_size(
                PatternFamily.burst(n, b))


def test_count_domain_errors():
    with pytest.raises(ValueError):
        analysis.count_patterns(4, 5)
    with pytest.raises(ValueError):
        analysis.count_far_patterns(4, 0, 1)
    with pytest.raises(ValueError):
        analysis.count_burst_patterns(4, 4)


def test_far_fraction():
    frac, target = analysis.far_fraction(10000, 2, 100)
    assert target == pytest.approx(0.58)
    assert frac >= target
    assert analysis.far_fraction(100, 0, 50) == (1.0, 1.0 - 42.0 / 50)
    with pytest.raises(FormulaDomainError):
        analysis.far_fraction(10, 2, 100)  # P_n = 0
    with pytest.raises(ValueError):
        analysis.far_fraction(100, 1, 5)  # omega too small


def test_rep_bounds():
    r = analysis.rep_bounds(7, 1)
    assert r.value == pytest.approx([14 / 3, 17 / 3])
    low, high = r.value
    assert low <= 5 <= high  # constructed redundancy at (7, 1)
    r = analysis.rep_bounds(9, 1)
    assert r.value == pytest.approx([6.0, 7.0])
    with pytest.raises(FormulaDomainError):
        analysis.rep_bounds(3, 2)


# Each bound at an end of its domain, which a check one off would refuse:
# (evaluator, arguments, value).
DOMAIN_ENDS = [
    (analysis.rep_bounds, (5, 0), [0.0, 1.0]),  # no repetition
    (analysis.any_code_lower, (2048, 1), 11 - 10 - 1 - 1),
    (analysis.any_code_lower, (4, 4), -40 - 2 ** 11 * 4 - 1),
    (analysis.frac_upper, (3, 1, 6), 0.0),  # log argument 1
    (analysis.frac_upper_K, (1, 1, 2), 0.0),
    (analysis.far_upper, (5, 5), math.log2(5) + 1),
    (analysis.far_lower, (49152, 2), 0.0),
    (analysis.far_lower_largeP, (12, 2), 0.0),
    (analysis.burst_lower, (2, 1), 1 - 6 - math.log2(5)),
]


@pytest.mark.parametrize("bound, args, value", DOMAIN_ENDS)
def test_bounds_take_the_ends_of_their_domains(bound, args, value):
    assert bound(*args).value == pytest.approx(value)


@pytest.mark.parametrize("call, message", [
    # A log argument of 0 is refused before math.log2 sees it.
    (lambda: analysis.frac_upper(0, 1, 6), "positive log argument"),
    (lambda: analysis.frac_upper_K(0, 1, 2), "positive log argument"),
    # P = 2 is in far_upper's range; delta(2) = 1.5 is what refuses it.
    (lambda: analysis.far_upper(10, 2), r"^delta\(2\) = 1.5 >= 1"),
])
def test_bounds_refuse_outside_their_domains(call, message):
    with pytest.raises(FormulaDomainError, match=message):
        call()


def test_delta():
    assert analysis.delta(5) == 0.375
    assert analysis.delta(3) == 1.0
    assert analysis.delta(2) == 1.5
    with pytest.raises(FormulaDomainError):
        analysis.delta(1)


def test_delta_builds_no_exact_power():
    # 2^(P-1) as an exact integer never finishes at this P, so the call
    # runs in a child process with a deadline and a memory cap.
    src = Path(analysis.__file__).resolve().parents[1]
    code = "from delcodes.analysis import delta; print(repr(delta(10**35)))"
    cap = 2 ** 30  # bytes of address space
    try:
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=5,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (cap, cap)))
    except subprocess.TimeoutExpired:
        pytest.fail("delta(10**35) did not return within 5 s")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0.0"
    for P in range(2, 2001):
        assert analysis.delta(P) == (P + 1) / 2 ** (P - 1), P


def test_far_upper_domain():
    with pytest.raises(FormulaDomainError):
        analysis.far_upper(12, 3)  # delta(3) = 1
    with pytest.raises(FormulaDomainError):
        analysis.far_upper(12, 2)  # delta(2) = 1.5
    r = analysis.far_upper(20, 4)
    d = 5 / 8
    assert r.value == pytest.approx((20 / 4 - 1) * math.log2(5 / (1 - d))
                                    + math.log2(4) + 1)


def test_asymptotic_bounds_hand_substitution():
    r = analysis.any_code_lower(1000, 2)
    assert r.value == pytest.approx(2 * math.log2(500) - 20
                                    - 2 ** 11 * 4 / 1000 - 1)
    assert "asymptotic" in r.applicability

    r = analysis.frac_upper(1000, 2, 10)
    assert r.value == pytest.approx(40 * math.log2(2000 / 40))

    r = analysis.frac_upper_K(1000, 2, 43)
    assert r.value == pytest.approx(43 * 4 * math.log2(2000 / (43 * 4)))
    with pytest.raises(FormulaDomainError, match="^need K >= 2$"):
        analysis.frac_upper_K(1000, 2, 1)

    r = analysis.far_lower(10 ** 6, 5)
    assert r.value == pytest.approx(10 ** 6 / (2 ** 11 * 21) - 2)

    r = analysis.far_lower_largeP(10 ** 6, 10 ** 3)
    assert r.value == pytest.approx((10 ** 6 / 6000 - 1)
                                    * math.log2(3000 / 64))
    with pytest.raises(FormulaDomainError, match="^need P >= 2$"):
        analysis.far_lower_largeP(10 ** 6, 1)

    r = analysis.burst_lower(10 ** 6, 2)
    assert r.value == pytest.approx(math.log2(10 ** 6) - 7 - math.log2(12))


def test_bound_registry_and_reports():
    assert set(analysis.BOUND_EVALUATORS) == {
        "rep_bounds", "any_code_lower", "frac_upper", "frac_upper_K",
        "delta", "far_upper", "far_lower", "far_lower_largeP", "burst_lower"}
    report = analysis.BOUND_EVALUATORS["delta"](5)
    obj = report.to_json_dict()
    assert obj["name"] == "delta" and obj["value"] == 0.375
    assert "applicability" in obj


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda: analysis.frac_upper(100, 1, NAN),
    lambda: analysis.frac_upper(100, NAN, 10),
    lambda: analysis.frac_upper_K(NAN, 1, 4),
    lambda: analysis.rep_bounds(9, NAN),
    lambda: analysis.any_code_lower(NAN, 1),
    lambda: analysis.delta(NAN),
    lambda: analysis.far_upper(NAN, 5),
    lambda: analysis.far_lower(1000, NAN),
    lambda: analysis.burst_lower(NAN, 2),
    lambda: analysis.far_fraction(10000, 2, NAN),
])
def test_domain_guards_reject_nan(call):
    with pytest.raises(ValueError):
        call()


VALID_ARGS = {"n": 1000, "t": 2, "P": 10, "b": 2, "omega": 10, "K": 4}


def _edge_arguments():
    """(bound, argument, value): each argument of each evaluator at 0 and
    -1, and omega at -0.0 too, the others at a valid value."""
    for name, evaluator in sorted(analysis.BOUND_EVALUATORS.items()):
        for arg in inspect.signature(evaluator).parameters:
            for value in (0, -1, -0.0) if arg == "omega" else (0, -1):
                yield name, arg, value


@pytest.mark.parametrize("name,arg,value", list(_edge_arguments()))
def test_bound_evaluators_give_a_report_or_a_value_error(name, arg, value):
    # Anything else, such as a ZeroDivisionError, is a traceback in the CLI.
    evaluator = analysis.BOUND_EVALUATORS[name]
    args = {a: VALID_ARGS[a] for a in inspect.signature(evaluator).parameters}
    try:
        report = evaluator(**dict(args, **{arg: value}))
    except ValueError:
        return
    assert isinstance(report, analysis.BoundReport)


def test_far_fraction_is_the_correctly_rounded_ratio():
    for n in (100, 999, 10000, 123457):
        for t in (1, 2, 3):
            for omega in (6, 7, 24, 100):
                p_n = n // (t * t * omega)
                if p_n < 1:
                    continue
                exact = Fraction(analysis.count_far_patterns(n, 3 * p_n, t),
                                 analysis.count_patterns(n, t))
                assert analysis.far_fraction(n, t, omega)[0] == float(exact)


def test_far_count_messages_are_the_family_rules():
    for P, t, message in ((0, 1, "need P >= 1"), (3, -1, "need 0 <= t <= n"),
                          (3, 5, "need 0 <= t <= n")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            analysis.count_far_patterns(4, P, t)
