import itertools
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delcodes import patterns
from delcodes.errors import BudgetExceeded, DecodeFailure, exact_integers
from delcodes.patterns import (KINDS, ErrorPattern, PatternFamily,
                               apply_pattern, enumerate_family, family_size,
                               is_member, sample_pattern)
from delcodes.words import (ERASURE, codeword_bytes, parse_word,
                            received_bytes, symbol_bytes, word_to_str)


def test_word_text_roundtrip():
    assert parse_word("01e1") == bytes((0, 1, ERASURE, 1))
    assert word_to_str((0, 1, ERASURE, 1)) == "01e1"
    with pytest.raises(ValueError):
        parse_word("01x")


def test_word_text_roundtrips_every_short_word():
    # One translate writes every word over {0, 1, e} of length <= 8 as the
    # text parse_word reads back.
    for n in range(9):
        for w in itertools.product((0, 1, ERASURE), repeat=n):
            assert parse_word(word_to_str(w)) == bytes(w)
    assert word_to_str((True, 0)) == "10"  # True reads as 1


@pytest.mark.parametrize("symbol", [3, 1.0, None])
def test_word_to_str_refuses_a_foreign_symbol(symbol):
    with pytest.raises(ValueError) as exc:
        word_to_str((0, ERASURE, symbol, 1))
    assert str(exc.value) == f"symbol {symbol!r} is not 0, 1 or e"


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


@pytest.mark.parametrize("symbol", [ERASURE, 1.0, 0.0, 3, "1", None])
def test_apply_pattern_rejects_a_codeword_symbol_other_than_int_bits(symbol):
    # 1.0 == 1 and 0.0 == 0, but a word holding them is no codeword.
    with pytest.raises(ValueError) as exc:
        apply_pattern((1, symbol, 1), ErrorPattern(3, ((1, "F"),)))
    assert str(exc.value) == ("codeword must be erasure-free bits, "
                              f"got symbol {symbol!r}")


# Symbols a word may hold by mistake, next to the ints 0 and 1.
SYMBOLS = [0, 1, True, False, 0.0, 1.0, ERASURE, 3, 255, 256, -1, "0", "1",
           None, b"\0"]


def test_codeword_reader_refuses_what_the_byte_test_refuses():
    # The rule, written out: a symbol is an int in the reader's allowed
    # set (True is the int 1).  Where every symbol keeps it, each reader
    # gives the word's value; elsewhere it raises its own exception naming
    # the first symbol that breaks it.
    readers = [
        (codeword_bytes, {0, 1}, lambda w: bytes(list(w)), ValueError,
         "codeword must be erasure-free bits, got symbol {!r}"),
        (received_bytes, {0, 1, ERASURE}, lambda w: bytes(list(w)),
         DecodeFailure, "symbol {!r} is not 0, 1 or e"),
        (word_to_str, {0, 1, ERASURE}, lambda w: "".join("01e"[s] for s in w),
         ValueError, "symbol {!r} is not 0, 1 or e")]
    # A word of 32 symbols or more is read through a bytearray.
    words = [w for s, t in itertools.product(SYMBOLS, repeat=2)
             for w in ((s,), (0, s, 1, t), [t, 1, s], (0, 1) * 20 + (s, t))]
    for word in words + ["01", "", b"\0\1", bytearray(b"\1\2")]:
        for read, allowed, value, error, message in readers:
            bad = [s for s in word if not (isinstance(s, int) and s in allowed)]
            if not bad:
                assert read(word) == value(word), (read, word)
                continue
            with pytest.raises(error) as exc:
                read(word)
            assert type(exc.value) is error, (read, word)
            assert str(exc.value) == message.format(bad[0]), (read, word)
    for read in (codeword_bytes, received_bytes, word_to_str,
                 lambda x: symbol_bytes(x, b"\0\1")):
        with pytest.raises(TypeError):
            read(9)  # an int is no word, not nine zero bytes


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


PATTERN_FAULTS = [
    (((0, "F"),), "position 0 outside 1..4"),
    (((5, "F"),), "position 5 outside 1..4"),
    (((2, "F"), (2, "D")), "positions must be strictly increasing and distinct"),
    (((3, "F"), (1, "D")), "positions must be strictly increasing and distinct"),
    (((1, "X"),), "unknown error kind 'X'"),
    (((1, "DE"),), "unknown error kind 'DE'"),
    (((4, "X"),), "unknown error kind 'X'"),  # a bad kind at position n
    # Two faults: out of order and a position of n + 1.  The order is
    # checked first.
    (((5, "F"), (1, "D")), "positions must be strictly increasing and distinct"),
    # A float or bool position was accepted and apply_pattern then raised
    # TypeError; a kind without a length raised TypeError from len().
    (((2.0, "F"),), "error positions must be integers"),
    (((True, "F"),), "error positions must be integers"),
    (((3, "F"), (1.0, "D")), "error positions must be integers"),
    (((1, 5),), "unknown error kind 5"),
    (((1, None),), "unknown error kind None"),
]


def test_pattern_validation():
    for errors, message in PATTERN_FAULTS:
        with pytest.raises(ValueError) as exc:
            ErrorPattern(4, errors)
        assert str(exc.value) == message, errors


def reference_pattern_message(n, errors):
    """The message of ErrorPattern's checks made one at a time, each over
    the whole pattern, or None for a valid pattern."""
    if any(type(pos) is not int for pos, _ in errors):
        return "error positions must be integers"
    positions = [p for p, _ in errors]
    if positions != sorted(set(positions)):
        return "positions must be strictly increasing and distinct"
    for pos, kind in errors:
        if not 1 <= pos <= n:
            return f"position {pos} outside 1..{n}"
        if not isinstance(kind, str) or len(kind) != 1 or kind not in KINDS:
            return f"unknown error kind {kind!r}"
    return None


def test_pattern_validation_gives_the_message_of_the_checks_one_at_a_time():
    # Seeded patterns near the edges: most positions in or next to 1..n,
    # drawn in order or not, some not ints; most kinds valid.
    rng = random.Random(38)
    odd_positions = [2.0, True, None, "1", -1]
    odd_kinds = ["X", "DE", "", "d", 5, None]
    outcomes = set()
    for _ in range(20000):
        n = rng.randrange(6)
        k = rng.randrange(5)
        positions = (sorted(rng.sample(range(-1, n + 3), min(k, n + 4)))
                     if rng.random() < 0.6 else
                     [rng.randrange(-1, n + 3) for _ in range(k)])
        errors = tuple(
            (rng.choice(odd_positions) if rng.random() < 0.05 else pos,
             rng.choice(odd_kinds) if rng.random() < 0.1 else rng.choice(KINDS))
            for pos in positions)
        try:
            ErrorPattern(n, errors)
            message = None
        except ValueError as exc:
            message = str(exc)
        assert message == reference_pattern_message(n, errors), (n, errors)
        outcomes.add(message and message.split()[0])
    assert outcomes == {None, "error", "positions", "position", "unknown"}


def test_pattern_json_roundtrip():
    g = ErrorPattern.from_dict(7, {2: "F", 6: "D"})
    obj = g.to_json_dict()
    assert obj == {"n": 7, "errors": [{"pos": 2, "kind": "F"},
                                      {"pos": 6, "kind": "D"}]}
    assert ErrorPattern.from_json_dict(obj) == g


@pytest.mark.parametrize("pos", ["1", 1.0, True, None])
def test_pattern_json_requires_integer_positions(pos):
    obj = {"n": 4, "errors": [{"pos": pos, "kind": "D"}]}
    with pytest.raises(ValueError, match="^error positions must be integers$"):
        ErrorPattern.from_json_dict(obj)


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
    assert not is_member(ErrorPattern.from_dict(5, {1: "D", 3: "D"}), fam)
    with pytest.raises(ValueError, match="lengths differ"):
        is_member(ErrorPattern.from_dict(4, {2: "D"}), fam)
    # Kinds are read as a set, in the order D, E, F.
    assert PatternFamily.at_most(5, 1, kinds="FD").kinds == "DF"
    assert PatternFamily.at_most(5, 1, kinds="DD") == fam


def test_is_member_reads_the_spread_the_spacing_and_the_cap():
    # A burst binds the spread of its support, a far family the gap of
    # each pair and a cap the weight, each with its bound included.
    burst, far = PatternFamily.burst(12, 2), PatternFamily.p_far(12, 4)
    capped = PatternFamily.at_most(12, 2)
    assert is_member(ErrorPattern.from_dict(12, {5: "D", 6: "E", 7: "F"}), burst)
    assert not is_member(ErrorPattern.from_dict(12, {5: "D", 8: "F"}), burst)
    assert is_member(ErrorPattern.from_dict(12, {1: "D", 5: "F", 9: "E"}), far)
    assert not is_member(ErrorPattern.from_dict(12, {1: "D", 4: "F"}), far)
    assert is_member(ErrorPattern.from_dict(12, {1: "D", 12: "F"}), capped)
    assert not is_member(ErrorPattern.from_dict(12, {1: "D", 2: "E", 3: "F"}),
                         capped)


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


@pytest.mark.parametrize("family", [PatternFamily.at_most(12, 3),
                                    PatternFamily.p_far(20, 5),
                                    PatternFamily.burst(12, 3)])
def test_an_int_seed_draws_as_the_generator_it_seeds(family):
    # An int seeds random.Random with its low 64 bits; a generator passed
    # in is drawn from directly and advanced.
    for seed in (0, 1, 2024, -5, 2 ** 70):
        rng = random.Random(seed & 0xFFFFFFFFFFFFFFFF)
        assert sample_pattern(family, seed) == sample_pattern(family, rng)
    rng = random.Random(7)
    first, second = sample_pattern(family, rng), sample_pattern(family, rng)
    rng.seed(7)
    assert [sample_pattern(family, rng) for _ in range(2)] == [first, second]


def reference_sample_pattern(f, rng):
    """sample_pattern's earlier body: the weight, the support, then one
    kind per position in position order, zipped into a second tuple."""
    k = patterns._pick(f.cumulative_weights, rng)
    support = patterns._sample_support(f, k, rng)
    base = len(f.kinds)
    assignment = tuple(f.kinds[rng.randrange(base)] for _ in range(k))
    return ErrorPattern(f.n, tuple(zip(support, assignment)))


@pytest.mark.parametrize("family", [
    PatternFamily.at_most(30, 4),
    PatternFamily.p_far(60, 18),
    PatternFamily.p_far(40, 5, t=3, kinds="DE"),
    PatternFamily.burst(40, 6, kinds="EF"),
    PatternFamily.p_far(100, 7, kinds="D"),
    PatternFamily.at_most(9, 9, kinds="F"),
])
def test_sample_draws_as_the_reference_body(family):
    # Same patterns, and the generator left in the same state, so every
    # later draw of a trial is unchanged too.
    rng, ref = random.Random(1), random.Random(1)
    for _ in range(300):
        assert sample_pattern(family, rng) == reference_sample_pattern(family, ref)
        assert rng.getstate() == ref.getstate()


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
    (lambda: PatternFamily("burst", 9, b=1, t=1), "burst families take no t"),
    (lambda: PatternFamily("burst", 9, b=1, P=3), "burst families take no P"),
    (lambda: PatternFamily("at_most", 9, t=1, P=3),
     "at_most families take no P"),
    (lambda: PatternFamily("at_most", 9, t=1, b=0),
     "at_most families take no b"),
    (lambda: PatternFamily("p_far", 9, P=3, b=0), "p_far families take no b"),
    (lambda: PatternFamily("foo", 5), "unknown family kind 'foo'"),
    # No t binds n below zero here, so n is refused on its own.
    (lambda: PatternFamily.p_far(-5, 3), "need n >= 0"),
    (lambda: PatternFamily.at_most(-1, 0), "need n >= 0"),
    (lambda: PatternFamily.burst(-1, 0), "need n >= 0"),
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


def test_far_family_sizes_are_the_sums_of_binomials():
    # Size-k supports with gaps of at least P are C(n - (k-1)(P-1), k).
    for n in range(40):
        for P in range(1, 50):
            for t in (None, 0, 1, 2, 5):
                if t is not None and t > n:
                    continue
                top = n if t is None else t
                expected = 1 + sum(
                    math.comb(n - (k - 1) * (P - 1), k) * 3 ** k
                    for k in range(1, top + 1) if n - (k - 1) * (P - 1) >= k)
                assert family_size(PatternFamily.p_far(n, P, t=t)) == \
                    expected, (n, P, t)


def test_a_far_family_wider_than_its_word_is_counted_at_once():
    # P >= n leaves weights 0 and 1 only.  Each weight's count came from
    # the last through products of P factors, which took 0.3 s at
    # P = 10^5 and grew as P^2.
    start = time.perf_counter()
    assert family_size(PatternFamily.p_far(100, 3 * 10 ** 5)) == 301
    assert time.perf_counter() - start < 0.5


def test_family_size_streams_the_weight_counts():
    # Every pattern of length 20000: 4^20000, about 40000 bits.  Summing
    # the weight counts as they are made holds a few such integers (about
    # 22 KB at peak); building the table of all 20001 counts first held
    # 79 MB and peaked at 157 MB.
    family = PatternFamily.at_most(20000, 20000)
    tracemalloc.start()
    try:
        size = family_size(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 4 ** 20000
    assert peak < 1_000_000


def test_burst_sizes_are_the_sums_over_spreads():
    # Size-k burst supports, k >= 2, are (n-d) * C(d-1, k-2) summed over
    # the spreads d <= b; the count takes the sum's closed form.
    for n in range(1, 25):
        for b in range(n):
            for kinds in ("D", "EF", "DEF"):
                fam = PatternFamily.burst(n, b, kinds=kinds)
                base = len(kinds)
                assert family_size(fam) == 1 + n * base + sum(
                    base ** k * sum((n - d) * math.comb(d - 1, k - 2)
                                    for d in range(k - 1, b + 1))
                    for k in range(2, fam.max_weight() + 1)), (n, b, kinds)


def test_a_wide_burst_is_counted_at_once():
    # Spread n - 1 admits every pattern.  One binomial per weight and
    # spread, each from scratch, took 64 s here.
    start = time.perf_counter()
    assert family_size(PatternFamily.burst(2001, 2000)) == 4 ** 2001
    assert time.perf_counter() - start < 0.5


def test_the_size_bound_holds_and_is_tight_for_large_families():
    # check_count_budget prices a count by this bound: it must never be
    # below the size, and far above it only for small sizes.
    for n in range(0, 40, 3):
        for fam in ([PatternFamily.at_most(n, t) for t in range(n + 1)]
                    + [PatternFamily.p_far(n, P, t=t) for P in (2, 3, 7, 50)
                       for t in (None, 1, 4) if t is None or t <= n]
                    + [PatternFamily.burst(n, b, kinds="DE")
                       for b in range(n)]):
            assert family_size(fam).bit_length() <= patterns._size_bits(fam)
    for fam in (PatternFamily.p_far(10 ** 4, 3), PatternFamily.p_far(10 ** 4, 36),
                PatternFamily.at_most(10 ** 4, 10 ** 4)):
        bits = family_size(fam).bit_length()
        assert bits <= patterns._size_bits(fam) <= 1.01 * bits


def test_the_empty_pattern_of_a_far_family_lists_no_position():
    # P >= n leaves the empty pattern and the single errors.  The empty
    # support was picked from the 1..n+P-1 positions of weight 0, listed
    # whole: 0.5 s and 398 MB at P = 10^7, and an overflow at P = 10^30.
    start = time.perf_counter()
    assert (list(enumerate_family(PatternFamily.p_far(6, 10 ** 30)))
            == list(enumerate_family(PatternFamily.p_far(6, 6))))
    assert time.perf_counter() - start < 0.5
    tracemalloc.start()
    try:
        list(enumerate_family(PatternFamily.p_far(6, 3 * 10 ** 7)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_the_empty_pattern_of_a_far_family_is_drawn():
    family = PatternFamily.p_far(6, 10 ** 30)
    drawn = {sample_pattern(family, seed) for seed in range(200)}
    assert all(is_member(g, family) for g in drawn)
    assert ErrorPattern(6, ()) in drawn


def reference_burst_support(f, k, rng):
    """_sample_support's earlier burst draw, k >= 2: the spread d from one
    running total per spread, of (n-d) * C(d-1, k-2) supports each, then
    the first position and the interior."""
    spreads = [(d, (f.n - d) * math.comb(d - 1, k - 2))
               for d in range(k - 1, f.b + 1)]
    totals = list(itertools.accumulate(count for _, count in spreads))
    d = spreads[patterns._pick(totals, rng)][0]
    first = rng.randrange(1, f.n - d + 1)
    interior = sorted(rng.sample(range(first + 1, first + d), k - 2))
    return (first, *interior, first + d)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_burst_supports_draw_as_the_per_spread_reference(seed):
    # The spread is bisected on the closed form of the running totals;
    # supports and the generator's state are those of the table per spread.
    for n in range(2, 31):
        for b in range(1, n):
            family = PatternFamily.burst(n, b)
            rng = random.Random(seed * 1000 + n * 31 + b)
            ref = random.Random(seed * 1000 + n * 31 + b)
            for k in range(2, b + 2):
                assert (patterns._sample_support(family, k, rng)
                        == reference_burst_support(family, k, ref)), (n, b, k)
                assert rng.getstate() == ref.getstate()


def test_a_wide_burst_is_drawn_at_once():
    # One running total per spread, each binomial from scratch, took 5.4 s
    # per draw here; bisecting the closed form takes about 0.1 s.
    family = PatternFamily.burst(20001, 20000)
    family.cumulative_weights
    start = time.perf_counter()
    assert is_member(sample_pattern(family, 1), family)
    assert time.perf_counter() - start < 1
