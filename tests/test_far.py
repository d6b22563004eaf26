import ast
import dataclasses
import functools
import inspect
import itertools
import math
import pickle
import random
import sys
import types
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delcodes import far, verify, vt
from delcodes.errors import BudgetExceeded, DecodeFailure
from delcodes.far import (FarParams, far_codeword, far_contains, far_decode,
                          far_encode, far_params, window_sums)
from delcodes.patterns import (ErrorPattern, PatternFamily, apply_pattern,
                               enumerate_family, is_member, sample_pattern)
from delcodes.vt import (VtParams, correct_deletion, correct_single,
                         flip_candidates, vt_class_sizes, vt_enumerate,
                         vt_syndrome)
from delcodes.words import ERASURE, parse_word


def test_params_12_3():
    p = far_params(12, 3)
    assert (p.t, p.s, p.a1, p.a2) == (4, 0, 1, 1)
    assert tuple(p.inner_alphabet) == (parse_word("011"), parse_word("100"))
    assert tuple(p.final_alphabet) == (parse_word("011"), parse_word("100"))
    assert p.codeword_count == 16


def test_params_11_3():
    p = far_params(11, 3)
    assert (p.t, p.s) == (3, 2)
    assert all(len(w) == 5 for w in p.final_alphabet)


def test_params_validation():
    with pytest.raises(ValueError):
        far_params(12, 2)  # inner alphabet would be empty
    with pytest.raises(ValueError):
        far_params(5, 3)  # fewer than two blocks


def test_far_params_is_n_and_P():
    # Every other field follows from (n, P), so none can be set apart.
    p = far_params(60, 6)
    assert list(inspect.signature(FarParams).parameters) == ["n", "P"]
    assert FarParams(60, 6) == p and hash(FarParams(60, 6)) == hash(p)
    assert repr(p) == "FarParams(n=60, P=6, t=10, s=0, a1=1, a2=1)"
    assert (p.inner_code, p.final_code) == (VtParams(6, 1), VtParams(6, 1))
    assert p.inner_alphabet.size == p.final_alphabet.size == 9
    derived = ["t", "s", "a1", "a2", "inner_code", "final_code", "inner_alphabet",
               "final_alphabet", "inner_table", "flip_table", "final_table"]
    assert [f.name for f in dataclasses.fields(p)] == ["n", "P"] + derived
    for name in derived:
        with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
            dataclasses.replace(p, **{name: getattr(p, name)})
    q = dataclasses.replace(p, n=66)
    assert q == far_params(66, 6) and (q.t, q.s) == (11, 0)
    assert pickle.loads(pickle.dumps(p)) == p


@pytest.mark.parametrize("n, P, classes", [
    (60, 6, [(6, 1)]), (3024, 14, [(14, 0)]), (12, 3, [(3, 1)]),
    (14, 3, [(5, 0), (3, 1)]), (62, 6, [(8, 3), (6, 1)])])
def test_far_params_enumerates_each_class_once(n, P, classes):
    # With s = 0 the final block is of the inner class: one enumeration
    # and one residue search serve both alphabets.
    with mock.patch.object(far, "vt_enumerate",
                           wraps=far.vt_enumerate) as enumerate_, \
            mock.patch.object(far, "vt_class_sizes",
                              wraps=far.vt_class_sizes) as sizes:
        p = far_params(n, P)
    enumerated = [(c.args[0].n, c.args[0].a) for c in enumerate_.call_args_list]
    assert sorted(enumerated) == sorted(classes)
    assert sizes.call_count == len(classes)
    assert [(P, p.a1), (P + p.s, p.a2)] == [classes[-1], classes[0]]


def test_encode_golden():
    p = far_params(12, 3)
    assert far_encode(p, (0, 0, 1, 1)) == parse_word("011011100100")
    assert far_encode(p, (0, 0, 0, 0)) == parse_word("011011011011")
    with pytest.raises(ValueError):
        far_encode(p, (0, 0, 1))


@pytest.mark.parametrize("indices, block", [((-1, 0, 0, 0), 1),
                                            ((0, 0, 99, 1), 3),
                                            ((0, 0, 0, 2), 4)])
def test_encode_rejects_out_of_range_index(indices, block):
    p = far_params(12, 3)
    with pytest.raises(ValueError, match=f"block {block}: .* outside 0..1"):
        far_encode(p, indices)


def test_codewords_distinct_and_members():
    p = far_params(12, 3)
    words = {far_codeword(p, i) for i in range(p.codeword_count)}
    assert len(words) == 16
    assert all(far_contains(p, w) for w in words)
    assert not far_contains(p, parse_word("000000000000"))


def test_decode_identity():
    p = far_params(12, 3)
    x = parse_word("011011100100")
    estimate, info = far_decode(p, x)
    assert estimate == x
    assert info.iterations == 1


def test_decode_single_deletion_every_position():
    p = far_params(12, 3)
    x = parse_word("011011100100")
    for k in range(12):
        estimate, _ = far_decode(p, x[:k] + x[k + 1:])
        assert estimate == x, f"deletion at position {k + 1}"


def test_decode_flip_and_erasure_9_far():
    p = far_params(12, 3)
    x = parse_word("011011100100")
    g = ErrorPattern.from_dict(12, {2: "F", 11: "E"})
    estimate, _ = far_decode(p, apply_pattern(x, g))
    assert estimate == x


def test_decode_exhaustive_p_far():
    p = far_params(12, 3)
    fam = PatternFamily.p_far(12, 3 * p.P)
    patterns = list(enumerate_family(fam))
    for i in range(p.codeword_count):
        x = far_codeword(p, i)
        for g in patterns:
            estimate, _ = far_decode(p, apply_pattern(x, g))
            assert estimate == x, (x, g)


def test_decode_out_of_model_fails():
    p = far_params(12, 3)
    with pytest.raises(DecodeFailure):
        far_decode(p, parse_word("0110"))
    with pytest.raises(DecodeFailure):
        far_decode(p, parse_word("eeeeeeeeeeee"))


EVERY_7TH = {k: "F" for k in range(1, 60, 7)}


@pytest.mark.parametrize("n, P, index, errors, length, message, diagnostic", [
    # far(60,6) codeword 0 is 000111 ten times.
    (60, 6, 0, {19: "D", 31: "E", 55: "D"}, None,
     "checksum undefined with erasures present", {"block": 4}),
    (60, 6, 0, EVERY_7TH, None,
     "iteration cap exceeded", {"cap": 5, "length": 66, "block": 7}),
    (60, 6, 22664096, EVERY_7TH, None,
     "no single flip reaches an alphabet word", {"block": 8}),
    (60, 6, 3486784, EVERY_7TH, None,
     "received length 10 outside {n-1, n}", {"block": 10}),
    (60, 6, 0, {1: "F", 2: "F"}, None,
     "no single flip reaches an alphabet word", {"block": 1}),
    (60, 6, 0, {55: "F", 56: "F"}, None,
     "no single flip reaches a codeword", {"block": 10}),
    (60, 6, 0, {57: "D", 59: "D"}, None,
     "received length 4 outside {n-1, n}", {"block": 10}),
    (60, 6, 0, {2: "E", 4: "E"}, None,
     "2 erasures, at most one supported", {"block": 1}),
    (60, 6, 0, {56: "E", 58: "D"}, None,
     "erasure present but length is not n", {"block": 10}),
    (60, 6, 0, {8: "E"}, 9,
     "erasure present but length is not n", {"block": 2}),
    (60, 6, 0, {2: "E", 4: "F"}, None,
     "erasure correction left a non-codeword", {"position": 2, "block": 1}),
    (60, 6, 0, {}, 15,
     "received word ends inside an inner block", {"length": 15, "block": 3}),
    # far(10,5) has a1 = 0, so the constant inner block 00000 passes its
    # checksum and is copied; only the estimate check refuses it.
    (10, 5, 12, {1: "F", 5: "F"}, None,
     "estimate is not a codeword", {"estimate_length": 10}),
    # far(62,6) has a final block of 8: the last inner block, 9, is no
    # final block, and its erasure is refused all the same.
    (62, 6, 0, {44: "F", 50: "E"}, None,
     "checksum undefined with erasures present", {"block": 8}),
])
def test_decode_failure_names_its_block(n, P, index, errors, length, message,
                                        diagnostic):
    # Codeword `index` under `errors`, cut to `length` symbols if given.
    p = far_params(n, P)
    x = far_codeword(p, index)
    y = apply_pattern(x, ErrorPattern.from_dict(n, errors))[:length]
    with pytest.raises(DecodeFailure) as exc:
        far_decode(p, y)
    assert (str(exc.value), exc.value.diagnostic) == (message, diagnostic)
    assert _outcome(reference_far_decode, p, y) == (message, diagnostic)


# The shortest block length decoded without a table, by the correctors.
ABOVE = far.TABLE_MAX_LENGTH + 1


def _boom(*args):
    raise ValueError("boom")


def test_decode_failures_come_only_from_the_decoders_rules(monkeypatch):
    # A fault in a corrector propagates: reports would count it as an
    # ordinary decode failure if far_decode turned it into one.
    monkeypatch.setattr(vt, "correct_deletion", _boom)
    p = far_params(10 * ABOVE, ABOVE)
    y = apply_pattern(far_codeword(p, 0),
                      ErrorPattern.from_dict(p.n, {19: "D"}))
    with pytest.raises(ValueError, match="^boom$"):
        far_decode(p, y)


def test_a_corrector_fault_propagates_out_of_the_table_build(monkeypatch):
    # Below the bound the correctors run while far_params fills the
    # tables; only a DecodeFailure marks a block the table leaves out.
    monkeypatch.setattr(far, "correct_single", _boom)
    with pytest.raises(ValueError, match="^boom$"):
        far_params(60, 6)


def _class_images(code, kinds):
    """Each word of the class of `code` with every block one error of
    `kinds` away from it, made by apply_pattern."""
    for w in vt_enumerate(code):
        yield w, [apply_pattern(w, ErrorPattern.from_dict(code.n, {i: kind}))
                  for i in range(1, code.n + 1) for kind in kinds]


def _spliced_table(code, kinds, corrector):
    """A decoding table built without apply_pattern: each word of the
    class of `code` with one symbol deleted (D), erased (E) or flipped
    (F) in place, and each word itself, mapped to its corrector's answer
    where that is no DecodeFailure."""
    words = list(vt_enumerate(code))
    keys = set(words)
    for w in words:
        for i, bit in enumerate(w):
            middle = {"D": b"", "E": bytes([ERASURE]), "F": bytes([1 - bit])}
            keys.update(w[:i] + middle[kind] + w[i + 1:] for kind in kinds)
    table = {}
    for key in keys:
        try:
            table[key] = corrector(code, key)
        except DecodeFailure:
            pass
    return table


@pytest.mark.parametrize("s", [0, 1, 2])
@pytest.mark.parametrize("P", range(3, far.TABLE_MAX_LENGTH + 1))
def test_tables_hold_the_correctors_answers(P, s):
    # s = 2 puts the final code above the bound at P = 7 and 8.
    p = far_params(4 * P + s, P)
    assert p.s == s and (p.inner_table is p.final_table) == (s == 0)
    for code, table, corrector, kinds, alphabet in [
            (p.inner_code, p.inner_table, correct_single, "DE", p.inner_alphabet),
            (p.inner_code, p.flip_table, far._pick_flip, "F", p.inner_alphabet),
            (p.final_code, p.final_table, correct_single, "DEF", p.final_alphabet)]:
        if code.n > far.TABLE_MAX_LENGTH:
            assert table == {}
            continue
        # At s = 0 the inner blocks share the final table, of all kinds.
        built = "DEF" if table is p.final_table else kinds
        assert table == _spliced_table(code, built, corrector)
        for key, answer in table.items():
            assert answer == corrector(code, key), key
        for w, images in _class_images(code, kinds):
            # Every block far-apart errors can deliver is in its table:
            # each image of an alphabet word, and a clean final word.
            # Another key may be missing only where its corrector fails.
            for key in images + [w] * (table is p.final_table):
                if key in table:
                    continue
                assert w not in alphabet, (w, key)
                with pytest.raises(DecodeFailure):
                    corrector(code, key)


def test_paper_scale_code_builds_no_table():
    p = _far_3024_14()
    assert p.inner_table == p.flip_table == p.final_table == {}


def _corrector_calls(monkeypatch):
    """The names of far's corrector calls, and of the deletion corrector
    that vt.correct_single calls, from now on."""
    calls = []

    def counting(name, corrector):
        def counted(*args):
            calls.append(name)
            return corrector(*args)
        return counted

    for module, name in ((vt, "correct_deletion"), (far, "correct_single"),
                         (far, "flip_candidates")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def test_far_corrects_erasure_and_final_blocks_through_correct_single():
    # Erasure, deletion and final-block correction stay in
    # vt.correct_single: far.py neither imports nor names the VT erasure,
    # deletion and flip correctors, only correct_single and the flip
    # candidates that _pick_flip filters.
    tree = ast.parse(Path(far.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "correct_single" in names and "*" not in names
    assert "flip_candidates" in names
    assert not names & {"correct_erasure", "correct_deletion", "correct_flip"}


def test_larger_parameters_roundtrip():
    # A flip can be ambiguous: the received block may be one flip away
    # from two alphabet words (e.g. 100010 vs 110010/100000 in VT_1(6)).
    # Such decodes must carry the ambiguity flag; unflagged decodes must
    # be exact.
    p = far_params(22, 4)  # t = 5, s = 2
    x = far_codeword(p, 7)
    fam = PatternFamily.p_far(22, 3 * p.P, t=1)
    for g in enumerate_family(fam):
        estimate, info = far_decode(p, apply_pattern(x, g))
        if info.ambiguous_flips:
            assert far_contains(p, estimate), g
        else:
            assert estimate == x, g


def test_decode_pins_iterations_across_kinds():
    # One correction per flip or deletion; an erasure is filled in
    # during the scan and does not count.  The later cases put one error
    # in the final block, 595..600, for its four outcomes: a codeword as
    # received and a filled erasure are no correction; a flip (here one
    # with two readings, the first of them right) and a deletion are.
    p = far_params(600, 6)
    x = far_codeword(p, 12345)
    for errors, iterations, ambiguous_flips in [
            ({5: "F", 100: "D", 300: "E", 500: "F"}, 4, 0),
            ({}, 1, 0),
            ({598: "E"}, 1, 0),
            ({596: "F"}, 2, 1),
            ({597: "D"}, 2, 0)]:
        y = apply_pattern(x, ErrorPattern.from_dict(600, errors))
        estimate, info = far_decode(p, y)
        assert estimate == x, errors
        assert (info.iterations, info.ambiguous_flips) == (
            iterations, ambiguous_flips), errors
        assert _outcome(reference_far_decode, p, y) == (
            x, iterations, ambiguous_flips), errors


@pytest.mark.parametrize("n", [21, 24])
@pytest.mark.parametrize("kinds", ["D", "E"])
def test_decode_exhaustive_where_audit_passes(n, kinds):
    # With P + s or more deletions the received word is shorter than the
    # t-1 inner blocks; the decoder must still recover every codeword the
    # combinatorial audit shows to be uniquely decodable.
    code = verify.make_code("far", n=n, P=3)
    family = PatternFamily.p_far(n, 9, kinds=kinds)
    assert verify.verify_combinatorial(list(code.codewords()), family).passed
    report = verify.verify_roundtrip(code, family)
    assert report.cases == code.codeword_count * report.family_size
    assert report.failures == 0


@functools.lru_cache(maxsize=None)
def _far_1000_8() -> FarParams:
    return far_params(1000, 8)


@pytest.mark.parametrize("kinds", ["D", "E", "DE"])
@given(index=st.integers(min_value=0), seed=st.integers(0, 2 ** 63 - 1))
@settings(max_examples=40, deadline=None)
def test_decode_recovers_paper_scale_words(kinds, index, seed):
    # far(1000,8) under pFar(24): patterns carry about 30 errors, so a
    # word with deletions loses more symbols than one block holds.
    p = _far_1000_8()
    x = far_codeword(p, index % p.codeword_count)
    g = sample_pattern(PatternFamily.p_far(p.n, 3 * p.P, kinds=kinds), seed)
    estimate, _ = far_decode(p, apply_pattern(x, g))
    assert estimate == x


def test_decode_checksum_work_is_linear(monkeypatch):
    # One scan checks each of the t blocks and, per correction, the block
    # after it and the corrected block again; rescanning from block 1
    # after every correction would cost about t checks per correction.
    p = far_params(12000, 6)
    x = far_codeword(p, random.Random(0).randrange(p.codeword_count))
    g = sample_pattern(PatternFamily.p_far(p.n, 3 * p.P, kinds="F"), 0)
    k = g.weight
    calls = []

    def counted(*args):
        calls.append(args)
        return vt_syndrome(*args)

    monkeypatch.setattr(far, "vt_syndrome", counted)
    _, info = far_decode(p, apply_pattern(x, g))
    assert k > 400 and info.iterations == k + 1
    assert len(calls) <= p.t + 3 * k


def test_decode_takes_inner_next_block_checksums_from_the_scan(monkeypatch):
    # A flip at inner block j is told from a deletion by the flag of the
    # window of block j+1, which the scan has already read: far's own
    # vt_syndrome runs only for a final block j+1 and for the final block
    # of the estimate.  A checksum per correction made 459 calls here.
    p = far_params(12000, 6)
    x = far_codeword(p, random.Random(0).randrange(p.codeword_count))
    g = sample_pattern(PatternFamily.p_far(p.n, 3 * p.P, kinds="F"), 0)
    calls = []

    def counted(*args):
        calls.append(args)
        return vt_syndrome(*args)

    monkeypatch.setattr(far, "vt_syndrome", counted)
    _, info = far_decode(p, apply_pattern(x, g))
    assert g.weight > 400 and info.iterations == g.weight + 1
    assert len(calls) <= 2


def _count_deletion_calls(monkeypatch):
    """The argument tuples of the correct_deletion calls, from now on:
    those vt.correct_single makes for an inner or a final block."""
    calls = []

    def counted(*args):
        calls.append(args)
        return correct_deletion(*args)

    monkeypatch.setattr(vt, "correct_deletion", counted)
    return calls


def test_decode_makes_one_deletion_correction_per_deletion(monkeypatch):
    # Every correction is at the block the scan stopped at, so a
    # deletion-only word takes one correct_deletion call per deletion and
    # a flip-only word none.  The blocks are too long for a table.
    p = far_params(2000 * ABOVE, ABOVE)
    x = far_codeword(p, random.Random(0).randrange(p.codeword_count))
    calls = _count_deletion_calls(monkeypatch)
    for kinds in "DF":
        g = sample_pattern(PatternFamily.p_far(p.n, 3 * p.P, kinds=kinds), 0)
        calls.clear()
        estimate, info = far_decode(p, apply_pattern(x, g))
        assert g.weight > 400 and info.iterations == g.weight + 1, kinds
        assert len(calls) == (g.weight if kinds == "D" else 0), kinds
        assert estimate == x or kinds == "F"  # flips can be ambiguous


def test_table_decode_makes_no_corrector_call(monkeypatch):
    # At P = 6 every block far-apart errors deliver is in a table: the
    # decode answers as the correctors would, without calling one.
    p = far_params(12000, 6)
    with monkeypatch.context() as m:
        m.setattr(far, "TABLE_MAX_LENGTH", 0)
        without_tables = far_params(p.n, p.P)
    assert without_tables.inner_table == without_tables.flip_table == {}  # s = 0
    x = far_codeword(p, random.Random(0).randrange(p.codeword_count))
    calls = _corrector_calls(monkeypatch)
    for kinds in "DEF":
        g = sample_pattern(PatternFamily.p_far(p.n, 3 * p.P, kinds=kinds), 0)
        y = apply_pattern(x, g)
        calls.clear()
        estimate, info = far_decode(p, y)
        assert g.weight > 400 and calls == [], kinds
        assert info.iterations == (1 if kinds == "E" else g.weight + 1), kinds
        assert estimate == x or kinds == "F"  # flips can be ambiguous
        assert _outcome(far_decode, p, y) == _outcome(far_decode, without_tables, y)


def _deletion_in_a_run(p, index):
    """(x, y, j): codeword `index` and y, x with the first bit deleted
    of the run that ends block j-1 and starts block j, the first such j."""
    x = far_codeword(p, index)
    P = p.P
    j = next(j for j in range(2, p.t)
             if x[(j - 1) * P - 1] == x[(j - 1) * P])
    k = (j - 1) * P - 1  # 0-based, the first bit of the run in block j-1
    while k > (j - 2) * P and x[k - 1] == x[k]:
        k -= 1
    y = x[:k] + x[k + 1:]
    assert y[(j - 2) * P:(j - 1) * P] == x[(j - 2) * P:(j - 1) * P]
    return x, y, j


def test_decode_of_a_deletion_in_a_run_across_blocks(monkeypatch):
    # A deletion in the run that ends block j-1 and starts block j leaves
    # block j-1 as sent: the scan corrects it at block j, with one call.
    p = far_params(60 * ABOVE, ABOVE)
    x, y, _ = _deletion_in_a_run(p, random.Random(0).randrange(p.codeword_count))
    calls = _count_deletion_calls(monkeypatch)
    estimate, info = far_decode(p, y)
    assert estimate == x
    assert (info.iterations, len(calls)) == (2, 1)


def test_table_decode_of_a_deletion_in_a_run_across_blocks(monkeypatch):
    # The same at P = 6, where the table answers: one correction, made
    # at block j.
    p = _far_600_6()
    x, y, j = _deletion_in_a_run(p, 12345)
    blocks = []

    def traced_correct_one(p, j, blk, nxt, verdict):
        blocks.append(j)
        return correct_one(p, j, blk, nxt, verdict)

    correct_one = far._correct_one
    monkeypatch.setattr(far, "_correct_one", traced_correct_one)
    estimate, info = far_decode(p, y)
    assert estimate == x
    assert (info.iterations, blocks) == (2, [j])


@pytest.mark.parametrize("bit", [0, 1])
def test_contains_refuses_a_constant_first_block_at_p14(bit):
    # Both constant words of length 14 pass the inner checksum (a1 = 0,
    # and 1^14 sums to 105 = 7 * 15), so only the table of constant
    # sums refuses them.
    p = far_params(42, 14)
    x = far_codeword(p, 0)
    assert p.a1 == 0 and far_contains(p, x)
    assert not far_contains(p, bytes([bit]) * 14 + x[14:])


def test_pick_flip_drops_the_all_ones_word_at_p14():
    # Each word one flip down from 1^14, at position i, is also one flip
    # from the word with zeros at i and 15 - i; 1^14 is no alphabet word,
    # so that word is the one fix, and it is not ambiguous.
    def zero_at(w, k):
        return w[:k - 1] + b"\0" + w[k:]

    code = VtParams(14, 0)
    ones = b"\1" * 14
    for i in range(1, 15):
        assert far._pick_flip(code, zero_at(ones, i)) == (
            zero_at(zero_at(ones, i), 15 - i), False), i


def test_far_params_refuses_an_over_budget_final_block_first(monkeypatch):
    # The budget bounds the counting tables, not the 2^(P+s) words, which
    # no alphabet lists.  Under 3000, P = 8 and its 2^8 inner words fit,
    # and so does the table at P + s = 13, but the 2^13 final words do
    # not: the code builds, and its final words are unranked.  At
    # P + s = 15 the table's 16^2 * 15 = 3840 operations do not fit:
    # the final class is refused before any class is built.
    monkeypatch.setenv("DELCODE_BUDGET", "3000")
    p = far_params(21, 8)
    assert len(p.final_alphabet) == vt_class_sizes(13)[p.a2]
    assert far_contains(p, far_codeword(p, p.codeword_count - 1))
    with mock.patch.object(far, "vt_enumerate",
                           wraps=far.vt_enumerate) as enumerate_:
        with pytest.raises(BudgetExceeded,
                           match="^the 16\\^2 \\* 15 bit operations of the "
                                 "counting table for n = 15 exceed"):
            far_params(23, 8)
    assert enumerate_.call_count == 0


@functools.lru_cache(maxsize=None)
def _far_200k_12() -> FarParams:
    return far_params(200_000, 12)


def _dense_far_pattern(n, spacing, kinds, seed):
    """A pattern of pFar(spacing) with gaps of spacing to spacing + 27:
    about as dense as a uniform sample of the uncapped family, without
    the half second its weight table takes at n = 2*10^5, P = 36."""
    rng = random.Random(seed)
    errors, pos = [], rng.randint(1, spacing)
    while pos <= n:
        errors.append((pos, rng.choice(kinds)))
        pos += spacing + rng.randrange(28)
    return ErrorPattern(n, tuple(errors))


@pytest.mark.parametrize("kinds", ["D", "DE"])
def test_decode_round_trip_with_thousands_of_deletions(kinds):
    # far(2*10^5, 12) under uncapped pFar(36): about 4,000 errors, one
    # every 49 symbols, so block j is read thousands of symbols left of
    # where it was sent.  One correction per deletion; an erasure is
    # filled in during the scan and does not count.
    p = _far_200k_12()
    family = PatternFamily.p_far(p.n, 3 * p.P, kinds=kinds)
    for seed in (1, 2):
        rng = random.Random(seed)
        x = far_encode(p, [rng.randrange(len(p.inner_alphabet))
                           for _ in range(p.t - 1)]
                       + [rng.randrange(len(p.final_alphabet))])
        g = _dense_far_pattern(p.n, 3 * p.P, kinds, seed)
        assert is_member(g, family) and g.weight > 3500
        estimate, info = far_decode(p, apply_pattern(x, g))
        assert estimate == x
        deletions = sum(kind == "D" for _, kind in g.errors)
        assert deletions > 1500
        assert info.iterations == deletions + 1


@pytest.mark.parametrize("n, P", [(10 ** 4, 46), (30_000, 138)])
def test_paper_block_lengths_round_trip(n, P):
    # P = floor(n / (t^2 * omega)) with t = 3 and omega = 24, the rule of
    # decode_paper's far(3024, 14); the final blocks are 64 and 192 long.
    # The alphabets are unranked, never listed.  Seeded draws round-trip
    # under pFar(3P), t <= 3, kinds D and E; with flips too, a wrong
    # estimate is always flagged ambiguous.
    p = far_params(n, P)
    constants = (p.a1 == 0) + (P * (P + 1) // 2 % (P + 1) == p.a1)
    assert (p.P + p.s, p.inner_alphabet.size) == (
        {46: 64, 138: 192}[P], vt_class_sizes(P)[p.a1] - constants)
    last = p.inner_alphabet[p.inner_alphabet.size - 1]
    assert 0 < p.inner_alphabet[0].count(1) and last.count(1) < P
    for kinds in ("DE", "DEF"):
        family = PatternFamily.p_far(n, 3 * P, t=3, kinds=kinds)
        rng = random.Random(P)
        wrong = 0
        for _ in range(20):
            x = far_codeword(p, rng.randrange(p.codeword_count))
            assert far_contains(p, x)
            estimate, info = far_decode(p, apply_pattern(x, sample_pattern(family, rng)))
            if kinds == "DE":
                assert estimate == x
            elif estimate != x:
                wrong += 1
                assert info.ambiguous_flips > 0
        assert wrong < 20


def test_far_params_refuses_the_counting_table_of_a_long_final_block():
    # far(10^5, 231): t = 3, omega = 48; the final block is 439 long, and
    # the counting tables stop at 255 under the default budget.
    with pytest.raises(BudgetExceeded, match="^the 440\\^2 \\* 439 bit operations "
                                             "of the counting table for n = 439 exceed"):
        far_params(10 ** 5, 231)


def test_window_sums_match_naive():
    # One-byte digits up to P = 22; P(P+1)/2 > 255 from P = 23 on.
    rng = random.Random(6)
    for P in [*range(1, 41), 46, 362]:
        for n in {0, 1, P - 1, P, P + 1, 3 * P + 2, 97}:
            z = bytes(rng.randrange(2) for _ in range(n))
            naive = [sum((i + 1) * z[q + i] for i in range(P))
                     for q in range(n - P + 1)]
            assert list(window_sums(z, P)) == naive, (P, n)
            assert list(window_sums(bytearray(z), P)) == naive, (P, n)


def _naive_sums_of_ones(ones, n, P):
    """Window sums of the length-n word that is 1 exactly at `ones`."""
    return [sum(k - q + 1 for k in ones if q <= k < q + P)
            for q in range(n - P + 1)]


def test_window_sums_digits_are_the_narrowest_that_hold_a_sum():
    # A window sum is at most P(P+1)/2: 253 at P = 22, 276 at P = 23,
    # 65,341 at P = 361, 65,703 at P = 362, 4,294,930,221 at P = 92,681
    # and 4,295,115,903 at P = 92,682.  One-byte sums come back as bytes.
    ones = [0, 5, 17, 40, 41]
    for P, width in [(22, 1), (23, 2), (361, 2), (362, 4), (92681, 4),
                     (92682, 8)]:
        n = P + 44
        z = bytearray(n)
        for k in ones + [n - 1 - k for k in ones]:
            z[k] = 1
        sums = window_sums(bytes(z), P)
        assert (type(sums) is bytes) == (width == 1), P
        assert memoryview(sums).itemsize == width, P
        assert list(sums) == _naive_sums_of_ones(
            [k for k in range(n) if z[k]], n, P), P


@pytest.mark.parametrize("order", ["little", "big"])
def test_window_sums_are_read_in_the_host_byte_order(monkeypatch, order):
    # Wide digits are written in the host's byte order and read back as
    # native ints.  Written in the other order, every digit reads with
    # its bytes swapped and nothing else changes: the digits stay in
    # window order, so a host of either order reads the right sums.
    rng = random.Random(362)
    n = 400
    ones = [k for k in range(n) if rng.randrange(2)]
    z = bytes(k in ones for k in range(n))
    monkeypatch.setattr(far, "sys", types.SimpleNamespace(byteorder=order))
    for P in (23, 46, 362):
        sums = window_sums(z, P)
        want = _naive_sums_of_ones(ones, n, P)
        if order != sys.byteorder:
            want = [int.from_bytes(v.to_bytes(sums.itemsize, "little"), "big")
                    for v in want]
        assert list(sums) == want, P


def test_two_byte_digit_windows_scan_and_check():
    # P = 23 is the first block length whose window sums need two-byte
    # digits.
    P, t = 23, 4
    p = far_params(t * P, P)
    a = p.a1
    assert (p.t, p.s, p.a2) == (t, 0, a)
    rng = random.Random(P)

    def letter():
        # Mostly ones, so that most window sums exceed 255.
        while True:
            w = tuple(int(rng.random() < 0.85) for _ in range(P))
            if vt_syndrome(w, a, P + 1):
                w = (flip_candidates(p.inner_code, w) or [w])[0]
            if vt_syndrome(w, a, P + 1) == 0 and 0 < sum(w) < P:
                return w

    def member(x):
        blocks = [x[q:q + P] for q in range(0, len(x), P)]
        return all(vt_syndrome(b, a, P + 1) == 0 and 0 < sum(b) < P
                   for b in blocks)

    for _ in range(20):
        x = sum((letter() for _ in range(t)), ())
        assert far_contains(p, x)
        for k in rng.sample(range(p.n), 10):
            y = x[:k] + (1 - x[k],) + x[k + 1:]
            assert far_contains(p, y) == member(y)
        for errors in ({5: "D", 80: "E"}, {30: "E", 70: "D"}, {50: "D"}):
            g = ErrorPattern.from_dict(p.n, errors)
            assert far_decode(p, apply_pattern(x, g))[0] == x


def reference_far_contains(p, x):
    """Membership by alphabet lookup, block by block."""
    x = tuple(x)
    if len(x) != p.n:
        return False
    inner, final = set(map(tuple, p.inner_alphabet)), set(map(tuple, p.final_alphabet))
    head = (p.t - 1) * p.P
    return (all(x[q:q + p.P] in inner for q in range(0, head, p.P))
            and x[head:] in final)


def _reference_block(p, work, j):
    """Block j of the working word: P symbols, or the rest for the final
    block; fewer where the word ends early."""
    start = (j - 1) * p.P
    return tuple(work[start:start + p.P] if j < p.t else work[start:])


def reference_far_decode(p, y):
    """The per-block scan far_decode replaced: the reference only.

    It takes the checksum of every block it reaches, corrects a mutable
    copy of y in place, picks inner flips by alphabet lookup and checks
    the estimate block by block.  Like far_decode, it hands erasure and
    final blocks to `vt.correct_single` and tags each failure with the
    block it was handling.
    """
    info = far.FarDecodeInfo(iterations=1)
    max_iterations = math.ceil(p.n / (3 * p.P)) + 1
    P, t = p.P, p.t
    inner_alphabet = set(map(tuple, p.inner_alphabet))

    def pick_flip(blk):
        candidates = [c for c in flip_candidates(p.inner_code, blk)
                      if c in inner_alphabet]
        if not candidates:
            raise DecodeFailure("no single flip reaches an alphabet word")
        if len(candidates) > 1:
            info.ambiguous_flips += 1
        return candidates[0]

    def correct_one(work, j):
        if j > 1:
            prev = _reference_block(p, work, j - 1)
            try:
                fixed = correct_deletion(p.inner_code, prev[:-1])
            except DecodeFailure:
                fixed = None
            if fixed is not None and fixed != prev:
                work[(j - 2) * P:(j - 2) * P + P - 1] = fixed
                return
        start = (j - 1) * P
        blk = _reference_block(p, work, j)
        if j == t:
            fixed, ambiguous = correct_single(p.final_code, blk)
            info.ambiguous_flips += ambiguous
            work[start:] = fixed
            return
        if len(blk) < P:
            raise DecodeFailure("received word ends inside an inner block",
                                {"length": len(work)})
        nxt = _reference_block(p, work, j + 1)
        code = far._block_code(p, j + 1)
        next_diff = (vt_syndrome(nxt, code.a, code.modulus)
                     if len(nxt) == code.n else 1)
        if next_diff == 0:
            work[start:start + P] = pick_flip(blk)
        else:
            work[start:start + P - 1] = correct_deletion(p.inner_code, blk[:-1])

    j = 1
    try:
        work = bytearray(y)
        while j <= t:
            start = (j - 1) * P
            if j < t:
                code, blk = p.inner_code, work[start:start + P]
            else:
                code, blk = p.final_code, work[start:]
            if ERASURE in blk:
                blk = correct_single(code, tuple(blk))[0]
                work[start:start + code.n] = blk
            if (len(blk) == code.n
                    and vt_syndrome(blk, code.a, code.modulus) == 0):
                j += 1
                continue
            correct_one(work, j)
            if info.iterations > max_iterations:
                raise DecodeFailure("iteration cap exceeded",
                                    {"cap": max_iterations, "length": len(work)})
            info.iterations += 1
    except DecodeFailure as exc:
        exc.diagnostic.setdefault("block", j)
        raise
    except ValueError as exc:
        raise DecodeFailure(str(exc), {"block": j}) from exc
    estimate = bytes(work)
    if not reference_far_contains(p, estimate):
        raise DecodeFailure("estimate is not a codeword",
                            {"estimate_length": len(estimate)})
    return estimate, info


def _outcome(decode, p, y):
    try:
        estimate, info = decode(p, y)
    except DecodeFailure as exc:
        return str(exc), exc.diagnostic
    return estimate, info.iterations, info.ambiguous_flips


def _assert_same_as_reference(p, x, g):
    y = apply_pattern(x, g)
    assert (_outcome(far_decode, p, y)
            == _outcome(reference_far_decode, p, y)), (x, g)


@pytest.mark.parametrize("n, P, words", [(27, 3, 3), (28, 3, 2), (20, 5, 80)])
def test_decode_matches_per_block_scan(n, P, words):
    # Every pattern of pFar(3P), kinds DEF, on a seeded sample of the
    # codewords: about 15,000 inputs per code, where all codewords of the
    # three codes would take about 9 million.
    p = far_params(n, P)
    patterns = list(enumerate_family(PatternFamily.p_far(n, 3 * P)))
    for i in random.Random(n).sample(range(p.codeword_count), words):
        x = far_codeword(p, i)
        for g in patterns:
            _assert_same_as_reference(p, x, g)


def test_decode_matches_per_block_scan_on_short_words():
    # Words shorter than two blocks: windows that run past the end are
    # suspect, however their partial sums fall.
    p = far_params(20, 5)
    for n in range(9):
        for y in itertools.product((0, 1, ERASURE), repeat=n):
            assert (_outcome(far_decode, p, y)
                    == _outcome(reference_far_decode, p, y)), y


@functools.lru_cache(maxsize=None)
def _far_600_6() -> FarParams:
    return far_params(600, 6)


@given(index=st.integers(min_value=0), seed=st.integers(0, 2 ** 63 - 1))
@settings(max_examples=60, deadline=None)
def test_decode_matches_per_block_scan_with_many_erasures(index, seed):
    # pFar(18) without a cap puts about 26 errors on far(600,6), about 8
    # of them erasures, so every residue view the scan builds marks
    # several erasures.
    p = _far_600_6()
    family = PatternFamily.p_far(p.n, 3 * p.P)
    _assert_same_as_reference(p, far_codeword(p, index % p.codeword_count),
                              sample_pattern(family, seed))


@given(index=st.integers(min_value=0), seed=st.integers(0, 2 ** 63 - 1))
@settings(max_examples=60, deadline=None)
def test_correction_reads_only_its_block_and_the_next(index, seed):
    # The locality the window audit of far codes rests on: a correction
    # at block j is a function of blocks j and j+1 as received, and
    # those are the received symbols at the cursor that the corrections
    # before it imply: every block left of j stands for P received
    # symbols, less one per deletion corrected there.
    p = _far_600_6()
    P, t = p.P, p.t
    x = far_codeword(p, index % p.codeword_count)
    g = sample_pattern(PatternFamily.p_far(p.n, 3 * P), seed)
    y = bytes(apply_pattern(x, g))
    correct_one = far._correct_one
    calls = []

    def traced_correct_one(p, j, blk, nxt, verdict):
        call = [j, bytes(blk), bytes(nxt), verdict, None]
        calls.append(call)
        fixed, ambiguous, call[4] = correct_one(p, j, blk, nxt, verdict)
        return fixed, ambiguous, call[4]

    with mock.patch.object(far, "_correct_one", traced_correct_one):
        try:
            estimate, info = far_decode(p, y)
        except DecodeFailure:
            info = None
    behind, last = 0, 0
    for k, (j, blk, nxt, verdict, used) in enumerate(calls):
        assert last < j < t  # the final block goes to vt.correct_single
        r = (j - 1) * P - behind  # the cursor at block j
        after = P if j + 1 < t else P + p.s
        assert len(blk) == min(P, len(y) - r), (j, blk)
        assert len(nxt) == min(after, len(y) - r - len(blk)), (j, nxt)
        assert blk + nxt == y[r:r + len(blk) + len(nxt)], j
        # The scan hands over the next inner block's checksum verdict; the
        # final block's is taken by the correction itself.
        assert (verdict is None) == (j + 1 == t), (j, verdict)
        if verdict is not None and ERASURE not in nxt:
            assert verdict == (len(nxt) == P and vt_syndrome(
                nxt, p.a1, p.inner_code.modulus) == 0), j
        if used is None:  # the correction raised DecodeFailure
            assert k == len(calls) - 1 and info is None
        else:
            assert used in (P, P - 1), (j, used)
            behind += P - used
        last = j
    # A final block the estimate does not hold as received, erasures aside,
    # was corrected too.
    final = y[(t - 1) * P - behind:]
    final_fixed = (info is not None and ERASURE not in final
                   and bytes(estimate[(t - 1) * P:]) != final)
    assert ((bool(calls) or final_fixed)
            == any(kind in "DF" for _, kind in g.errors)), g
    assert info is None or len(calls) + final_fixed == info.iterations - 1


@functools.lru_cache(maxsize=None)
def _far_3024_14() -> FarParams:
    return far_params(3024, 14)


@given(index=st.integers(min_value=0), seed=st.integers(0, 2 ** 63 - 1))
@settings(max_examples=60, deadline=None)
def test_decode_matches_per_block_scan_at_paper_scale(index, seed):
    p = _far_3024_14()
    family = PatternFamily.p_far(p.n, 3 * p.P, t=3)
    _assert_same_as_reference(p, far_codeword(p, index % p.codeword_count),
                              sample_pattern(family, seed))


def test_decode_takes_window_sums_twice(monkeypatch):
    # Once for the scan, once for the membership check of the estimate,
    # however many corrections the word needs.
    p = far_params(12000, 6)
    x = far_codeword(p, random.Random(0).randrange(p.codeword_count))
    g = sample_pattern(PatternFamily.p_far(p.n, 3 * p.P, kinds="F"), 0)
    calls = []

    def counted(*args):
        calls.append(args)
        return window_sums(*args)

    monkeypatch.setattr(far, "window_sums", counted)
    _, info = far_decode(p, apply_pattern(x, g))
    assert g.weight > 400 and info.iterations == g.weight + 1
    assert len(calls) <= 2


@pytest.mark.parametrize("position", [0, 5, 11])
@pytest.mark.parametrize("symbol", [3, 5, 255, 256, -1, "1", 1.5])
def test_decode_names_a_foreign_symbol(position, symbol):
    p = far_params(12, 3)
    y = list(parse_word("011011100100"))
    y[position] = symbol
    with pytest.raises(DecodeFailure) as exc:
        far_decode(p, tuple(y))
    assert str(exc.value) == f"symbol {symbol!r} is not 0, 1 or e"


def test_contains_takes_tuples_and_bytes():
    p = far_params(12, 3)
    x = tuple(parse_word("011011100100"))
    for word in (x, bytes(x), bytearray(x)):
        assert far_contains(p, word)
    for bad in (x[:-1], x + (0,), x[:4] + (5,) + x[5:],
                x[:4] + (ERASURE,) + x[5:], parse_word("000011100100")):
        for word in (bad, bytes(bad), bytearray(bad)):
            assert not far_contains(p, word)
    assert not hasattr(p, "inner_set") and not hasattr(p, "final_set")


@pytest.mark.parametrize("n, P", [(20, 5), (23, 5), (26, 4)])
def test_contains_matches_alphabet_lookup(n, P):
    # Every codeword and every word one flip away from one.
    p = far_params(n, P)
    for i in range(p.codeword_count):
        x = far_codeword(p, i)
        for k in range(n):
            y = x[:k] + bytes((1 - x[k],)) + x[k + 1:]
            assert far_contains(p, y) == reference_far_contains(p, y), y
        assert far_contains(p, x)


def _digits(p, index):
    """Block indices of codeword `index`, most significant block first."""
    radices = [len(p.inner_alphabet)] * (p.t - 1) + [len(p.final_alphabet)]
    out = []
    for radix in reversed(radices):
        out.append(index % radix)
        index //= radix
    return tuple(reversed(out))


@pytest.mark.parametrize("n, P", [(12, 3), (20, 5), (23, 5)])
def test_codeword_is_the_encoding_of_its_digits(n, P):
    p = far_params(n, P)
    for i in range(p.codeword_count):
        assert far_codeword(p, i) == far_encode(p, _digits(p, i)), i
    for i in (-1, p.codeword_count):
        with pytest.raises(ValueError, match="index out of range"):
            far_codeword(p, i)


def test_decode_refuses_an_int():
    # bytearray(60) is sixty zero bytes; an int is no word.
    with pytest.raises(TypeError):
        far_decode(far_params(60, 6), 60)


def test_decode_of_the_empty_str_fails_cleanly():
    with pytest.raises(DecodeFailure):
        far_decode(far_params(12, 3), "")


def reference_far_codeword(p, index):
    """far_codeword's earlier body: peel the mixed-radix digits one by one
    and pass them through far_encode."""
    if not 0 <= index < p.codeword_count:
        raise ValueError("index out of range")
    index, i = divmod(index, len(p.final_alphabet))
    digits = [i]
    for _ in range(p.t - 1):
        index, i = divmod(index, len(p.inner_alphabet))
        digits.append(i)
    return far_encode(p, digits[::-1])


# Inner digit counts t - 1 of leaf - 1, leaf, leaf + 1 and 2 * leaf + 1
# run the per-digit leaf alone, then one and two levels of splitting.
LEAF_CODES = [(3 * (m + 1), 3) for m in (far.LEAF_DIGITS - 1, far.LEAF_DIGITS,
                                         far.LEAF_DIGITS + 1,
                                         2 * far.LEAF_DIGITS + 1)]


@pytest.mark.parametrize("n, P", [(60, 6), (3024, 14), (10 ** 4, 12),
                                  *LEAF_CODES])
def test_codeword_matches_the_digit_loop(n, P):
    p = far_params(n, P)
    rng = random.Random(n)
    count = p.codeword_count
    for index in (0, 1, count - 1, *(rng.randrange(count) for _ in range(20))):
        assert far_codeword(p, index) == reference_far_codeword(p, index), index
    for index in (-1, count, 2 * count):
        with pytest.raises(ValueError, match="^index out of range$"):
            far_codeword(p, index)


@pytest.mark.parametrize("n, P", [(3024, 14), (10 ** 4, 12)])
def test_codeword_split_work_is_quasilinear(monkeypatch, n, P):
    # Peeling the t digits one by one divides an index of B bits t times,
    # about B * t / 2 dividend bits in all; halving the digit runs divides
    # every bit about once per level, plus the leaf loops' B * leaf / 2.
    dividends = []

    def counted(a, b):
        dividends.append(a.bit_length())
        return divmod(a, b)

    p = far_params(n, P)
    index = random.Random(0).randrange(p.codeword_count)
    monkeypatch.setattr(far, "divmod", counted, raising=False)
    x = far_codeword(p, index)
    monkeypatch.undo()
    assert x == reference_far_codeword(p, index)
    B = index.bit_length()
    bound = 3 * B * math.log2(p.t)
    assert sum(dividends) <= bound
    q, digit_loop = index, 0
    for radix in [len(p.final_alphabet)] + [len(p.inner_alphabet)] * (p.t - 1):
        digit_loop += q.bit_length()
        q //= radix
    assert digit_loop > bound
