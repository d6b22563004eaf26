import itertools
import math
import random

import pytest

from delcodes import vt
from delcodes.errors import BudgetExceeded, DecodeFailure
from delcodes.far import far_params
from delcodes.patterns import ErrorPattern, apply_pattern
from delcodes.vt import (VtParams, correct_deletion, correct_erasure,
                         correct_single, flip_candidates, vt_best_residue,
                         vt_checksum, vt_class_sizes, vt_contains,
                         vt_enumerate, vt_syndrome)
from delcodes.words import ERASURE, parse_word, weight


def walk_codebooks(n):
    """Reference: VT_a(n) for a = 0..n from a walk over all 2^n words in
    lexicographic order, the enumeration the counting table replaced."""
    books = [[] for _ in range(n + 1)]
    for bits in itertools.product((0, 1), repeat=n):
        books[sum(i * b for i, b in enumerate(bits, 1)) % (n + 1)].append(bytes(bits))
    return books


def _factor(k):
    primes, p = [], 2
    while p * p <= k:
        if k % p == 0:
            primes.append(p)
            while k % p == 0:
                k //= p
        p += 1
    return primes + ([k] if k > 1 else [])


def _phi(k):
    return math.prod(p - 1 for p in _factor(k)) * k // math.prod(_factor(k))


def _mobius(k):
    primes = _factor(k)
    return (-1) ** len(primes) if math.prod(primes) == k else 0


def stanley_yoder_size(n, a):
    """|VT_a(n)| in closed form (Stanley & Yoder 1973, after Ginzburg 1967):
    1/(2(n+1)) * sum over odd d | n+1 of mu(d/g) phi(d)/phi(d/g) 2^((n+1)/d),
    with g = gcd(d, a)."""
    m = n + 1
    total = 0
    for d in range(1, m + 1, 2):
        if m % d == 0:
            g = math.gcd(d, a)
            total += _mobius(d // g) * _phi(d) // _phi(d // g) * 2 ** (m // d)
    assert total % (2 * m) == 0
    return total // (2 * m)


def test_checksum_examples():
    assert vt_checksum(parse_word("0110")) == 5
    assert vt_checksum(parse_word("0000")) == 0
    assert vt_checksum(parse_word("1111")) == 10


def test_vt_syndrome():
    assert vt_syndrome(parse_word("011"), 1, 4) == 0
    assert vt_syndrome(parse_word("111"), 1, 4) == 1
    with pytest.raises(ValueError):
        vt_syndrome((0, ERASURE, 1), 1, 4)


def test_vt04_golden():
    codebook = list(vt_enumerate(VtParams(4, 0)))
    assert [parse_word(w) for w in ("0000", "0110", "1001", "1111")] == codebook


def test_class_sizes_partition_and_pigeonhole():
    for n in range(1, 11):
        sizes = vt_class_sizes(n)
        assert sum(sizes) == 2 ** n
        assert max(sizes) * (n + 1) >= 2 ** n


@pytest.mark.parametrize("n", range(1, 17))
def test_enumerate_matches_walk(n):
    books = walk_codebooks(n)
    for a in range(n + 1):
        assert list(vt_enumerate(VtParams(n, a))) == books[a]


def test_class_sizes_match_walk():
    for n in range(1, 17):
        assert vt_class_sizes(n) == [len(b) for b in walk_codebooks(n)]


def test_class_sizes_closed_form():
    for n in range(1, 151):
        assert vt_class_sizes(n) == [stanley_yoder_size(n, a)
                                     for a in range(n + 1)]


@pytest.mark.parametrize("P", range(3, 15))
@pytest.mark.parametrize("s", [0, 1, 2])
def test_far_alphabets_match_walk(P, s):
    # Residues maximize the class size less the constant words, smallest
    # residue on ties; the inner alphabet drops the constant words.
    def best(m, books):
        sizes = [len([w for w in b if 0 < sum(w) < m]) for b in books]
        return sizes.index(max(sizes))

    p = far_params(2 * P + s, P)
    inner, final = walk_codebooks(P), walk_codebooks(P + s)
    assert (p.a1, p.a2) == (best(P, inner), best(P + s, final))
    assert list(p.inner_alphabet) == [w for w in inner[p.a1]
                                      if 0 < sum(w) < P]
    assert list(p.final_alphabet) == final[p.a2]


def test_enumeration_work_scales_with_codewords(monkeypatch):
    # The walk took the syndrome of every one of the 2^16 = 65,536 words,
    # once to size the classes and once to enumerate VT_0(16).  The
    # half-table join makes no syndrome call; its work is the half words
    # of the two tables, at most 2^9 + 2^9 here, and one join per codeword.
    calls, halves, joins = [], [], []

    def counted(*args):
        calls.append(args)
        return vt_syndrome(*args)

    class CountedHalf(bytes):
        def __add__(self, other):
            joins.append(other)
            return bytes(self) + other

    def counted_table(positions, m):
        table = [(CountedHalf(w), r) for w, r in half_table(positions, m)]
        halves.extend(table)
        return table

    half_table = vt._half_table
    monkeypatch.setattr(vt, "vt_syndrome", counted)
    monkeypatch.setattr(vt, "_half_table", counted_table)
    codebook = list(vt_enumerate(VtParams(16, 0)))
    sizes = vt_class_sizes(16)
    assert len(codebook) == sizes[0] == 3856
    assert calls == []
    assert len(halves) <= 2 ** (16 // 2 + 1) + 2 ** ((16 + 1) // 2 + 1) == 1024
    assert len(joins) == len(codebook)
    assert all(type(w) is bytes for w in codebook)


def test_class_sizes_budget_counts_table_work():
    with pytest.raises(ValueError, match="^need n >= 0$"):
        vt_class_sizes(-1)
    assert vt_class_sizes(0) == [1]  # the empty word, modulus 1
    sizes = vt_class_sizes(30)  # 31^2 * 30 bit operations; the walk refused
    assert sum(sizes) == 2 ** 30
    assert sum(vt_class_sizes(255)) == 2 ** 255  # 2^24 bit operations
    with pytest.raises(BudgetExceeded):
        vt_class_sizes(256)
    with pytest.raises(BudgetExceeded):
        vt_class_sizes(10 ** 5)


def test_best_residue():
    a, size = vt_best_residue(4)
    assert (a, size) == (0, 4)


def test_enumerate_cap(monkeypatch):
    def refuse(positions, m):
        raise AssertionError(f"half table built for {positions}")

    monkeypatch.setattr(vt, "_half_table", refuse)
    codebook = vt_enumerate(VtParams(30, 0))  # 31^2 * 30 table operations
    assert len(codebook) == vt_class_sizes(30)[0]
    with pytest.raises(BudgetExceeded, match="^the 2\\^30 words of length 30"):
        iter(codebook)  # listing it walks the 2^30 words


@pytest.mark.parametrize("n", range(1, 17))
def test_unranking_matches_walk(n):
    for a, book in enumerate(walk_codebooks(n)):
        cls = vt_enumerate(VtParams(n, a))
        assert len(cls) == len(book)
        assert [cls[i] for i in range(len(cls))] == book


def test_class_views_slice_as_lists():
    cls = vt_enumerate(VtParams(9, 3))
    book = list(cls)
    cuts = [slice(None), slice(1, -1), slice(2, 9), slice(-5, None),
            slice(None, 3), slice(40, 3), slice(7, 7)]
    for outer in cuts:
        view = cls[outer]
        assert (len(view), list(view)) == (len(book[outer]), book[outer])
        assert [view[i] for i in range(len(view))] == book[outer]
        for inner in cuts:  # views of views
            assert list(view[inner]) == book[outer][inner]
            assert [view[inner][i] for i in range(len(view[inner]))] == \
                book[outer][inner]
    for step in (2, -1, 0):
        with pytest.raises(ValueError, match="^a class view takes no step$"):
            cls[::step]
    assert list(cls[::1]) == book


def test_class_size_past_the_reach_of_len():
    # |VT_0(100)| is about 2^93: len() refuses it, as for a range, and
    # `size` gives it.  1^100 has checksum 5050 = 50 * 101.
    cls = vt_enumerate(VtParams(100, 0))
    assert cls.size == vt_class_sizes(100)[0] > 2 ** 63
    with pytest.raises(OverflowError):
        len(cls)
    assert (cls[0], cls[cls.size - 1]) == (bytes(100), bytes([1]) * 100)
    view = cls[1:-1]
    assert view.size == cls.size - 2 and view[view.size - 1] == cls[cls.size - 2]
    with pytest.raises(ValueError, match="^index out of range$"):
        view[view.size]


@pytest.mark.parametrize("cut", [slice(None), slice(1, -1), slice(3, None)])
def test_class_index_is_refused_outside_the_sequence(cut):
    view = vt_enumerate(VtParams(8, 0))[cut]
    for i in (-1, len(view), len(view) + 5, -len(view)):
        with pytest.raises(ValueError, match="^index out of range$"):
            view[i]
    assert view[1] is view[1]  # kept, and still no float index
    with pytest.raises(TypeError):
        view[1.0]


def test_class_keeps_words_only_within_the_enumeration_budget(monkeypatch):
    # Within the budget a word is unranked once and kept, as a tuple of the
    # class would hold it; above it none is kept, so memory stays bounded.
    kept = vt_enumerate(VtParams(16, 0))
    view = kept[77:]
    assert kept[77] is kept[77] and view[0] is view[0] == kept[77]
    monkeypatch.setenv("DELCODE_BUDGET", "10000")  # 17^2 * 16 <= 10^4 < 2^16
    cls = vt_enumerate(VtParams(16, 0))
    view = cls[1:]
    assert cls[77] == kept[77] and cls[77] is not cls[77]
    assert view[76] == kept[77] and view[76] is not view[76]
    with pytest.raises(BudgetExceeded):
        list(cls)


def test_counting_table_is_built_once_and_its_budget_checked_each_call(monkeypatch):
    # far_params reads the class sizes at P and P + s, then takes both
    # classes: one build each.  A cached table is still refused by the budget.
    vt._build_rows.cache_clear()
    far_params(64, 6)  # P = 6, s = 4
    assert vt._build_rows.cache_info().misses == 2
    monkeypatch.setenv("DELCODE_BUDGET", "100")  # 7^2 * 6 > 100
    with pytest.raises(BudgetExceeded, match="counting table for n = 6 "):
        vt_class_sizes(6)


def test_params_validation():
    with pytest.raises(ValueError):
        VtParams(4, 5)
    with pytest.raises(ValueError):
        VtParams(0, 0)


@pytest.mark.parametrize("n", range(2, 9))
def test_erasure_exhaustive(n):
    for bits in itertools.product((0, 1), repeat=n):
        a = vt_checksum(bits) % (n + 1)
        p = VtParams(n, a)
        for k in range(n):
            y = bits[:k] + (ERASURE,) + bits[k + 1:]
            assert correct_erasure(p, y) == bits


@pytest.mark.parametrize("n", range(2, 9))
def test_deletion_exhaustive(n):
    for bits in itertools.product((0, 1), repeat=n):
        a = vt_checksum(bits) % (n + 1)
        p = VtParams(n, a)
        for k in range(n):
            y = bits[:k] + bits[k + 1:]
            assert correct_deletion(p, y) == bits


def test_deletion_of_the_last_bit_restores_every_codeword():
    # The far decoder rests on this: a codeword c is the only one whose
    # deletions include c[:-1], so a block that passes its checksum is the
    # block as sent even when a deletion in it pulled in the next bit.
    for n in range(2, 15):
        for a in range(n + 1):
            p = VtParams(n, a)
            for c in vt_enumerate(p):
                assert correct_deletion(p, c[:-1]) == c, (n, a, c)


@pytest.mark.parametrize("n", range(2, 9))
def test_flip_exhaustive(n):
    # A flip may be ambiguous; the decoder must flag ambiguity and return
    # one of the consistent readings, which includes the true codeword.
    for bits in itertools.product((0, 1), repeat=n):
        a = vt_checksum(bits) % (n + 1)
        p = VtParams(n, a)
        for k in range(n):
            y = bits[:k] + (1 - bits[k],) + bits[k + 1:]
            estimate, ambiguous = correct_single(p, y)
            if not ambiguous:
                assert estimate == bits
            else:
                assert estimate == bits or vt_contains(p, estimate)


def test_flip_ambiguity_is_flagged():
    # 0111 arises from 0110 (flip at 4) and from 1111 (flip at 1); both
    # readings are VT_0(4) codewords so the decoder must flag the tie.
    estimate, ambiguous = correct_single(VtParams(4, 0), parse_word("0111"))
    assert ambiguous
    assert estimate in (parse_word("0110"), parse_word("1111"))


def test_flip_on_codeword_fails():
    with pytest.raises(DecodeFailure):
        flip_candidates(VtParams(4, 0), parse_word("0110"))


def test_erasure_requires_exactly_one():
    p = VtParams(4, 0)
    with pytest.raises(ValueError, match="^expected exactly one erasure, found 0$"):
        correct_erasure(p, parse_word("0110"))
    with pytest.raises(ValueError, match="^expected exactly one erasure, found 2$"):
        correct_erasure(p, parse_word("0ee0"))


def test_correct_single_dispatch():
    p = VtParams(4, 0)
    x = parse_word("0110")
    assert correct_single(p, x) == (x, False)
    assert correct_single(p, x)[0] is x
    assert correct_single(p, parse_word("010")) == (x, False)
    assert correct_single(p, parse_word("0e10")) == (x, False)
    # 0100 reads as 0000 (flip up at 2) or 0110 (flip down at 3); the
    # first reading is returned and the tie is flagged.
    assert correct_single(p, parse_word("0100")) == (parse_word("0000"), True)
    with pytest.raises(DecodeFailure):
        correct_single(p, parse_word("01"))
    with pytest.raises(DecodeFailure):
        correct_single(p, parse_word("ee10"))
    with pytest.raises(DecodeFailure) as exc:
        correct_single(p, b"\0" * 7)
    assert str(exc.value) == "received length 7 outside {n-1, n}"


def reference_correct_deletion(p, y):
    """Reference: the per-symbol suffix and prefix loops that located the
    insertion point before the byte scans, kept for the comparison."""
    if len(y) != p.n - 1:
        raise ValueError(f"word length {len(y)} != n-1 = {p.n - 1}")
    w = sum(y)
    disc = -vt_syndrome(y, p.a, p.modulus) % p.modulus
    m = len(y)
    if disc <= w:
        f = None
        suffix = 0
        for j in range(m + 1, 0, -1):  # suffix sum over y_j..y_m
            if suffix == disc:
                f = j
                break
            if j >= 2:
                suffix += y[j - 2]
        if f is None:
            raise DecodeFailure("no insertion point for a deleted 0")
        x = y[:f - 1] + (0,) + y[f - 1:]
    else:
        target = disc - w - 1
        f = None
        zeros = 0
        for j in range(1, m + 2):
            if zeros == target:
                f = j
                break
            if j <= m:
                zeros += 1 - y[j - 1]
        if f is None:
            raise DecodeFailure("no insertion point for a deleted 1")
        x = y[:f - 1] + (1,) + y[f - 1:]
    if not vt_contains(p, x):
        raise DecodeFailure("deletion correction left a non-codeword")
    return x


def _outcome(corrector, p, y):
    try:
        return corrector(p, y)
    except DecodeFailure as exc:
        return str(exc)


@pytest.mark.parametrize("n", range(1, 11))
def test_deletion_matches_symbol_loops(n):
    # Every word of length n-1, not only true deletions, for every residue:
    # each is corrected to a codeword, which correct_deletion no longer
    # checks for itself.
    for a in range(n + 1):
        p = VtParams(n, a)
        for y in itertools.product((0, 1), repeat=n - 1):
            x = _outcome(correct_deletion, p, y)
            assert x == _outcome(reference_correct_deletion, p, y)
            assert isinstance(x, tuple) and len(x) == n, (a, y, x)
            assert vt_syndrome(x, a, n + 1) == 0, (a, y)


def _refuses(corrector, y):
    """corrector(VtParams(4, 0), y) raises naming y's one symbol other
    than the ints 0, 1 and ERASURE."""
    bad, = [s for s in y if type(s) is not int or s not in (0, 1, ERASURE)]
    with pytest.raises(ValueError) as exc:
        corrector(VtParams(4, 0), y)
    assert str(exc.value) == f"codeword must be erasure-free bits, got symbol {bad!r}"


@pytest.mark.parametrize("y", [(0, ERASURE, 1, 3), (3, ERASURE, 0, 0),
                               (0, ERASURE, 1, 1.0), (0.0, ERASURE, 0, 0)])
def test_erasure_rejects_a_foreign_symbol(y):
    _refuses(correct_erasure, y)


@pytest.mark.parametrize("y", [
    (0, ERASURE, 1, 3),  # erasure branch
    (0, 3, 1),           # deletion branch
    (0, 3, 1, 0),        # full length, checksum matches when 3 reads as 1
    (3, 0, 0, 0),        # full length, checksum mismatches: flip branch
    (0, ERASURE, 1, 1.0), (0.0, 1, 1),  # 1.0 == 1 and 0.0 == 0 ...
    (0, 1.0, 1, 0), (0.0, 0, 0, 1),     # ... are refused in every branch
])
def test_correct_single_rejects_a_foreign_symbol(y):
    _refuses(correct_single, y)


P4 = VtParams(4, 0)
# Each entry point that reads a codeword, with a word it takes whose first
# symbol is a 1 (1001 is in VT_0(4)).
READERS = {
    "apply_pattern": (lambda w: apply_pattern(w, ErrorPattern(4, ((2, "F"),))),
                      (1, 0, 0, 1)),
    "vt_checksum": (vt_checksum, (1, 0, 0, 1)),
    "vt_contains": (lambda w: vt_contains(P4, w), (1, 0, 0, 1)),
    "correct_erasure": (lambda w: correct_erasure(P4, w), (1, ERASURE, 0, 1)),
    "flip_candidates": (lambda w: flip_candidates(P4, w), (1, 0, 0, 0)),
    "correct_deletion": (lambda w: correct_deletion(P4, w), (1, 0, 1)),
    "correct_single": (lambda w: correct_single(P4, w), (1, 0, 0, 1)),
    "weight": (weight, (1, 0, 0, 1)),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_every_codeword_reader_takes_int_bits_only(name):
    read, word = READERS[name]
    assert read((True,) + word[1:]) == read(word)  # True reads as 1
    if name in ("vt_contains", "correct_erasure", "flip_candidates",
                "correct_deletion"):  # the readers of one fixed length
        with pytest.raises(ValueError, match="^word length "):
            read(word + (0,))
    if name == "correct_deletion":
        with pytest.raises(ValueError, match="^word length 4 != n-1 = 3$"):
            read(word + (0,))
    for symbol in (1.0, 0.0):
        with pytest.raises(ValueError) as exc:
            read((symbol,) + word[1:])
        assert str(exc.value) == ("codeword must be erasure-free bits, "
                                  f"got symbol {symbol!r}")
    with pytest.raises(TypeError):
        read(9)  # an int is no word


@pytest.fixture(params=["paper", "levenshtein"])
def modulus_rule(request):
    """Each test that takes it runs under the paper's modulus n+1 and under
    Levenshtein's 2n, set in the one home of the modulus."""
    if request.param == "levenshtein":
        request.getfixturevalue("levenshtein")
    return vt._modulus


@pytest.mark.parametrize("n", range(1, 9))
def test_erasure_fill_or_refusal_matches_brute_force(modulus_rule, n):
    # Every received word with one erasure, every residue: the fill is the
    # one of 0 and 1 that lands in VT_a(n), and when neither does the
    # erasure position is named.  Both fills cannot land, as their
    # checksums differ by k, with 0 < k <= n < M.
    m = modulus_rule(n)
    for a in range(m):
        p = VtParams(n, a)
        for rest in itertools.product((0, 1), repeat=n - 1):
            for k in range(1, n + 1):
                y = rest[:k - 1] + (ERASURE,) + rest[k - 1:]
                fills = [y[:k - 1] + (b,) + y[k:] for b in (0, 1)
                         if vt_checksum(y[:k - 1] + (b,) + y[k:]) % m == a]
                if fills:
                    assert [correct_erasure(p, y)] == fills, (a, y)
                    continue
                with pytest.raises(DecodeFailure) as exc:
                    correct_erasure(p, y)
                assert str(exc.value) == "erasure correction left a non-codeword"
                assert exc.value.diagnostic == {"position": k}


@pytest.mark.parametrize("n", [64, 231])
def test_deletion_matches_symbol_loops_on_long_words(n):
    # Past the exhaustive n <= 10: the split or rsplit finds the point
    # wherever it lies, also in 231-symbol blocks and constant words.
    rng = random.Random(n)
    words = [tuple(rng.getrandbits(1) for _ in range(n - 1)) for _ in range(40)]
    words += [(0,) * (n - 1), (1,) * (n - 1)]
    for a in rng.sample(range(n + 1), 24) + [0, n]:
        p = VtParams(n, a)
        for y in words:
            x = correct_deletion(p, y)
            assert x == reference_correct_deletion(p, y), (a, y)


def test_params_identity_ignores_the_cached_modulus():
    p, q = VtParams(4, 1), VtParams(4, 1)
    assert p.modulus == 5
    assert repr(p) == "VtParams(n=4, a=1)"
    assert p == q and hash(p) == hash(q) == hash((4, 1))
    with pytest.raises(TypeError):
        VtParams(4, 1, 5)


def test_checksums_taken_per_correction(monkeypatch):
    # One checksum per erasure, deletion and clean word; the flip path
    # takes correct_single's and flip_candidates' own.  A correction that
    # took a second checksum again would show here.
    calls = []

    def counted(*args):
        calls.append(args)
        return vt_syndrome(*args)

    monkeypatch.setattr(vt, "vt_syndrome", counted)
    p = VtParams(4, 0)
    cases = [
        (lambda: correct_erasure(p, parse_word("0e10")), 1),  # fills 1
        (lambda: correct_erasure(p, parse_word("e110")), 1),  # fills 0
        (lambda: correct_erasure(VtParams(4, 2), parse_word("e000")), 1),
        (lambda: correct_deletion(p, parse_word("010")), 1),
        (lambda: correct_single(p, parse_word("0e10")), 1),
        (lambda: correct_single(p, parse_word("010")), 1),
        (lambda: correct_single(p, parse_word("0110")), 1),  # clean
        (lambda: correct_single(p, parse_word("0100")), 2),  # flip
    ]
    for i, (correct, expected) in enumerate(cases):
        calls.clear()
        try:
            correct()
        except DecodeFailure:
            assert i == 2  # neither 0000 nor 1000 is in VT_2(4)
        assert len(calls) == expected, i
