import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delcodes.errors import BudgetExceeded, exact_integers
from delcodes.patterns import (ErrorPattern, PatternFamily, apply_pattern,
                               enumerate_family, family_size, is_member,
                               sample_pattern)
from delcodes.words import ERASURE, parse_word, word_to_str


def test_word_text_roundtrip():
    assert parse_word("01e1") == (0, 1, ERASURE, 1)
    assert word_to_str((0, 1, ERASURE, 1)) == "01e1"
    with pytest.raises(ValueError):
        parse_word("01x")


def test_apply_pattern_kinds():
    x = parse_word("10110")
    g = ErrorPattern.from_dict(5, {1: "F", 3: "E", 5: "D"})
    assert word_to_str(apply_pattern(x, g)) == "00e1"


def test_apply_pattern_empty_is_identity():
    x = parse_word("10110")
    assert apply_pattern(x, ErrorPattern(5, ())) == x


def test_apply_pattern_length_mismatch():
    with pytest.raises(ValueError):
        apply_pattern(parse_word("101"), ErrorPattern(5, ()))


def test_apply_pattern_rejects_an_erasure_in_the_word():
    with pytest.raises(ValueError, match="erasure-free"):
        apply_pattern(parse_word("1e1"), ErrorPattern(3, ((1, "F"),)))


def reference_apply_pattern(x, g):
    """Reference: the symbol-by-symbol loop the slice copies replaced."""
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
    return tuple(out)


@pytest.mark.parametrize("n", range(1, 5))
def test_apply_pattern_matches_symbol_loop_exhaustively(n):
    # Every word and every marking (first and last position, adjacent
    # marks, each kind) at small n.
    for x in itertools.product((0, 1), repeat=n):
        for marks in itertools.product("-DEF", repeat=n):
            g = ErrorPattern(n, tuple((i, k) for i, k in enumerate(marks, 1)
                                      if k != "-"))
            assert apply_pattern(x, g) == reference_apply_pattern(x, g)


@st.composite
def words_and_patterns(draw):
    n = draw(st.integers(min_value=1, max_value=64))
    x = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    marks = draw(st.lists(st.sampled_from("----DEF"), min_size=n, max_size=n))
    errors = tuple((i, k) for i, k in enumerate(marks, 1) if k != "-")
    return x, ErrorPattern(n, errors)


@given(words_and_patterns())
@settings(max_examples=200, deadline=None)
def test_apply_pattern_matches_symbol_loop(case):
    x, g = case
    out = apply_pattern(x, g)
    assert type(out) is tuple
    assert out == reference_apply_pattern(x, g)


def test_pattern_validation():
    with pytest.raises(ValueError):
        ErrorPattern(4, ((0, "F"),))  # position below range
    with pytest.raises(ValueError):
        ErrorPattern(4, ((5, "F"),))  # position above range
    with pytest.raises(ValueError):
        ErrorPattern(4, ((2, "F"), (2, "D")))  # duplicate position
    with pytest.raises(ValueError):
        ErrorPattern(4, ((3, "F"), (1, "D")))  # out of order
    with pytest.raises(ValueError):
        ErrorPattern(4, ((1, "X"),))  # unknown kind


def test_pattern_json_roundtrip():
    g = ErrorPattern.from_dict(7, {2: "F", 6: "D"})
    obj = g.to_json_dict()
    assert obj == {"n": 7, "errors": [{"pos": 2, "kind": "F"},
                                      {"pos": 6, "kind": "D"}]}
    assert ErrorPattern.from_json_dict(obj) == g


def test_pattern_json_requires_integer_length():
    with pytest.raises(ValueError, match="integer"):
        ErrorPattern.from_json_dict({"n": 4.7, "errors": []})
    with pytest.raises(ValueError, match="integer"):
        ErrorPattern.from_json_dict({"n": "4", "errors": []})


@pytest.mark.parametrize("make", [
    lambda: PatternFamily.at_most(4, 1, kinds=""),
    lambda: PatternFamily.p_far(9, 3, kinds=""),
    lambda: PatternFamily.burst(4, 1, kinds=""),
])
def test_family_needs_an_error_kind(make):
    with pytest.raises(ValueError, match="bad kinds"):
        make()


def _brute_count(n, kinds, predicate, max_k):
    total = 0
    for k in range(max_k + 1):
        for support in itertools.combinations(range(1, n + 1), k):
            if predicate(support):
                total += len(kinds) ** k
    return total


@pytest.mark.parametrize("n,t", [(4, 2), (6, 3), (8, 2)])
def test_at_most_size_matches_brute_force(n, t):
    fam = PatternFamily.at_most(n, t)
    expect = _brute_count(n, "DEF", lambda s: True, t)
    assert family_size(fam) == expect
    assert len(list(enumerate_family(fam))) == expect


@pytest.mark.parametrize("n,P", [(8, 3), (12, 9), (10, 4)])
def test_p_far_size_matches_brute_force(n, P):
    fam = PatternFamily.p_far(n, P)
    pred = lambda s: all(b - a >= P for a, b in zip(s, s[1:]))
    expect = _brute_count(n, "DEF", pred, n)
    assert family_size(fam) == expect
    assert len(list(enumerate_family(fam))) == expect


def test_spaced_sizes_match_closed_form():
    # Size-k supports with gaps >= P number C(n - (k-1)(P-1), k); the
    # family sizes build them from one another instead of calling comb.
    for n in range(1, 61):
        for P in range(1, n + 2):
            for t in range(0, n + 1, 7):
                fam = (PatternFamily.at_most(n, t) if P == 1
                       else PatternFamily.p_far(n, P, t=t))
                assert family_size(fam) == sum(
                    math.comb(n - (k - 1) * (P - 1), k) * 3 ** k
                    for k in range(fam.max_weight() + 1))


@pytest.mark.parametrize("n,b", [(6, 2), (9, 1), (8, 3)])
def test_burst_size_matches_brute_force(n, b):
    fam = PatternFamily.burst(n, b)
    pred = lambda s: len(s) <= 1 or s[-1] - s[0] <= b
    expect = _brute_count(n, "DEF", pred, b + 1)
    assert family_size(fam) == expect
    assert len(list(enumerate_family(fam))) == expect


def test_kinds_restriction():
    fam = PatternFamily.at_most(5, 1, kinds="D")
    assert family_size(fam) == 1 + 5
    pats = list(enumerate_family(fam))
    assert all(k == "D" for g in pats for _, k in g.errors)
    assert not is_member(ErrorPattern.from_dict(5, {2: "F"}), fam)


def test_enumeration_order_and_uniqueness():
    fam = PatternFamily.at_most(5, 2)
    pats = list(enumerate_family(fam))
    weights = [g.weight for g in pats]
    assert weights == sorted(weights)
    assert len(set(pats)) == len(pats)
    assert all(is_member(g, fam) for g in pats)


def test_enumeration_cap():
    fam = PatternFamily.at_most(30, 10)
    with pytest.raises(BudgetExceeded):
        list(enumerate_family(fam))


def test_enumeration_budget_names_sizes_past_4300_digits():
    # 4^20000 patterns: the refusal names all 12,042 digits of the count.
    fam = PatternFamily.at_most(20000, 20000)
    with pytest.raises(BudgetExceeded) as exc:
        next(enumerate_family(fam))
    with exact_integers():
        assert f"the {4 ** 20000} patterns" in str(exc.value)


def test_sample_is_deterministic_and_member():
    fam = PatternFamily.p_far(20, 5)
    a = sample_pattern(fam, 1234)
    b = sample_pattern(fam, 1234)
    assert a == b
    assert is_member(a, fam)


@given(st.integers(min_value=0, max_value=2 ** 63 - 1))
@settings(max_examples=200, deadline=None)
def test_sampled_patterns_are_members(seed):
    for fam in (PatternFamily.at_most(12, 3),
                PatternFamily.p_far(12, 4),
                PatternFamily.burst(12, 3)):
        g = sample_pattern(fam, seed)
        assert is_member(g, fam)


def test_sample_distribution_is_roughly_uniform():
    # With 67 members and 6700 draws each bucket should be near 100.
    fam = PatternFamily.at_most(4, 2)
    pats = list(enumerate_family(fam))
    counts = {g: 0 for g in pats}
    for seed in range(6700):
        counts[sample_pattern(fam, seed)] += 1
    assert min(counts.values()) > 40
    assert max(counts.values()) < 200


def _spec(g):
    return " ".join(f"{pos}{kind}" for pos, kind in g.errors)


@pytest.mark.parametrize("family, draws, size, first, weight_two, last", [
    (PatternFamily.at_most(12, 3),
     ["1F 5E 7E", "2D 5E 10E", "1D 3F 7D", "3D 5F 10E"],
     6571, ["", "1D"], ["1D 2D", "1D 2E", "1D 2F"], "10F 11F 12F"),
    (PatternFamily.p_far(20, 5, kinds="DF"),
     ["1F 9F 15F", "2D 9F 18F", "1D 7D 15F", "3D 9F 18F"],
     3401, ["", "1D"], ["1D 6D", "1D 6F", "1F 6D"], "5F 10F 15F 20F"),
    (PatternFamily.burst(12, 3, kinds="EF"),
     ["1F 2F 3F 4F", "2F 4E", "7E 8E 9F", "5F 6E 7F 8F"],
     513, ["", "1E"], ["1E 2E", "1E 2F", "1F 2E"], "9F 10F 11F 12F"),
])
def test_sampling_and_enumeration_golden(family, draws, size, first,
                                         weight_two, last):
    # Pinned draws and order: a change to the counting code must keep
    # every seeded sample and the enumeration order.
    assert [_spec(sample_pattern(family, s)) for s in (0, 1, 7, 2024)] == draws
    pats = list(enumerate_family(family))
    assert len(pats) == family_size(family) == size
    assert [_spec(g) for g in pats[:2]] == first
    assert [_spec(g) for g in pats if g.weight == 2][:3] == weight_two
    assert _spec(pats[-1]) == last


def _legal_families(n, kinds):
    """Every family of length n with a legal parameter: each t of the
    at-most family, each b of a burst, each P in 1..5 with each t of a
    P-far family and with none."""
    for t in range(n + 1):
        yield PatternFamily.at_most(n, t, kinds=kinds)
    for b in range(n):
        yield PatternFamily.burst(n, b, kinds=kinds)
    for P in range(1, 6):
        for t in (None, *range(n + 1)):
            yield PatternFamily.p_far(n, P, t=t, kinds=kinds)


@pytest.mark.parametrize("n", range(1, 9))
def test_families_count_enumerate_and_sample_alike(n):
    # Two error kinds past n = 6: with three, n = 8 alone takes 4 s.
    for fam in _legal_families(n, "DEF" if n <= 6 else "DF"):
        patterns = list(enumerate_family(fam))
        assert family_size(fam) == len(patterns) == len(set(patterns)), fam
        assert all(is_member(g, fam) for g in patterns), fam
        assert all(is_member(sample_pattern(fam, seed), fam)
                   for seed in range(20)), fam


@pytest.mark.parametrize("n", range(0, 9))
@pytest.mark.parametrize("make", [
    lambda n, t: PatternFamily.at_most(n, t),
    lambda n, t: PatternFamily.p_far(n, 3, t=t),
    lambda n, t: PatternFamily.p_far(n, 1, t=t),
])
def test_budget_outside_0_to_n_is_refused(n, make):
    for t in (-1, n + 1):
        with pytest.raises(ValueError, match=r"^need 0 <= t <= n$"):
            make(n, t)


@pytest.mark.parametrize("make, message", [
    (lambda: PatternFamily("burst", 5), "need 0 <= b < n"),
    (lambda: PatternFamily("burst", 5, b=5), "need 0 <= b < n"),
    (lambda: PatternFamily.burst(5, -1), "need 0 <= b < n"),
    (lambda: PatternFamily("p_far", 5), "need P >= 1"),
    (lambda: PatternFamily.p_far(5, 0), "need P >= 1"),
    (lambda: PatternFamily("at_most", 5), "need 0 <= t <= n"),
    (lambda: PatternFamily("p_far", 5, P=2, t=6), "need 0 <= t <= n"),
])
def test_directly_built_families_take_the_same_rules(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("n", range(0, 9))
def test_one_far_family_is_the_at_most_family(n):
    for t in range(n + 1):
        assert family_size(PatternFamily.p_far(n, 1, t=t)) == \
            family_size(PatternFamily.at_most(n, t))
    assert family_size(PatternFamily.p_far(n, 1)) == 4 ** n
