"""The VT modulus has one home, `vt._modulus`.  Set to 2n there, every
checksum rule of the VT and far layers follows, and the stack becomes
Levenshtein's code (1965/66, "Binary codes capable of correcting
deletions, insertions and reversals"): a flip at position p leaves
syndrome p (0 -> 1) or 2n - p (1 -> 0), readings that overlap only at
p = n, where the received bit decides.  So that code corrects a flip as
well as a deletion, and no flip is ambiguous.
"""

import itertools

import pytest

from delcodes import verify, vt
from delcodes.errors import BudgetExceeded
from delcodes.patterns import PatternFamily
from delcodes.vt import VtParams, correct_single, vt_class_sizes, vt_enumerate


@pytest.fixture
def levenshtein(monkeypatch):
    monkeypatch.setattr(vt, "_modulus", lambda n: 2 * n)


def walk_codebooks(n, m):
    """Reference: the class of each residue mod m, walking all 2^n words
    in lexicographic order."""
    books = [[] for _ in range(m)]
    for bits in itertools.product((0, 1), repeat=n):
        books[sum(i * b for i, b in enumerate(bits, 1)) % m].append(bits)
    return books


@pytest.mark.parametrize("n", range(1, 13))
def test_levenshtein_classes_match_walk(levenshtein, n):
    books = walk_codebooks(n, 2 * n)
    assert vt_class_sizes(n) == [len(book) for book in books]
    assert [vt_enumerate(VtParams(n, a)) for a in range(2 * n)] == books
    with pytest.raises(ValueError):
        VtParams(n, 2 * n)


def test_levenshtein_table_budget_counts_the_wider_rows(levenshtein):
    assert sum(vt_class_sizes(160)) == 2 ** 160  # 320^2 * 160 operations
    with pytest.raises(BudgetExceeded):
        vt_class_sizes(200)  # 400^2 * 200 operations, over 2^24


@pytest.mark.parametrize("n", range(1, 11))
def test_levenshtein_corrects_every_single_flip_and_deletion(levenshtein, n):
    for x in itertools.product((0, 1), repeat=n):
        p = VtParams(n, sum(i * b for i, b in enumerate(x, 1)) % (2 * n))
        for k in range(n):
            flipped = x[:k] + (1 - x[k],) + x[k + 1:]
            assert correct_single(p, flipped) == (x, False)
            assert correct_single(p, x[:k] + x[k + 1:]) == (x, False)


@pytest.mark.parametrize("n, P", [(16, 4), (18, 4), (20, 5)])
def test_levenshtein_far_code_corrects_every_far_pattern(levenshtein, n, P):
    # far(22,5) and far(24,6) pass as well, but take 2.7 s and 10 s.
    code = verify.make_code("far", n=n, P=P)
    inner = [[x for x in book if 0 < sum(x) < P]
             for book in walk_codebooks(P, 2 * P)]
    assert code.params.inner_alphabet == tuple(max(inner, key=len))
    report = verify.verify_roundtrip(code, PatternFamily.p_far(n, 3 * P))
    assert report.cases > 0
    assert (report.failures, report.ambiguity_count) == (0, 0)
