"""Audits, round trips and Monte Carlo runs split their items over forked
processes above SPLIT_WORK symbols corrupted.  The report must not change by a byte,
an exception must be the one a run in one process raises, and no child
may outlive the call; the gates keep unsafe or small runs in one process.

Splits are forced here with SPLIT_WORK = 1 and three usable CPUs, so a
2-CPU host runs three parts: the head in the test's process and two
forked tails.
"""

import errno
import json
import os
import pickle
import threading
import time

import pytest

from delcodes import verify
from delcodes.patterns import PatternFamily
from delcodes.verify import (make_code, simulate, verify_combinatorial,
                             verify_roundtrip)


def _serial(monkeypatch, call):
    with monkeypatch.context() as m:
        m.setattr(verify, "_usable_cpus", lambda: 1)
        return call().to_json_dict()


@pytest.fixture
def forks(monkeypatch):
    """Force three parts wherever a split is allowed; the list counts the
    forks the test's process makes."""
    made = []
    fork = os.fork

    def counted():
        made.append(1)
        return fork()
    monkeypatch.setattr(verify, "SPLIT_WORK", 1)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", counted)
    return made


@pytest.mark.parametrize("count, usable", [(None, 1), (4, 4)])
def test_usable_cpus_without_an_affinity_mask(monkeypatch, count, usable):
    # macOS has no os.sched_getaffinity; os.cpu_count() may be None.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert verify._usable_cpus() == usable


ROUNDTRIPS = {
    "vt10-atmost1": lambda: verify_roundtrip(
        make_code("vt", n=10, a=0), PatternFamily.at_most(10, 1)),
    "rep9-atmost2": lambda: verify_roundtrip(
        make_code("rep", n=9, t=1), PatternFamily.at_most(9, 2)),
    # More than ten failures in every part: the parent's witnesses win.
    "far18-pfar18-DEF": lambda: verify_roundtrip(
        make_code("far", n=18, P=6), PatternFamily.p_far(18, 18, kinds="DEF")),
}


@pytest.mark.parametrize("name", sorted(ROUNDTRIPS))
def test_split_roundtrip_reports_as_one_process(monkeypatch, forks, name):
    expected = _serial(monkeypatch, ROUNDTRIPS[name])
    assert ROUNDTRIPS[name]().to_json_dict() == expected
    assert len(forks) == 2


@pytest.mark.parametrize("trials", [45, 200])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_split_simulate_reports_as_one_process(monkeypatch, forks, trials, seed):
    # At 45 trials the witnesses come from every part and, at seed 1, the
    # last part's are cut at ten; at 200 the head holds all ten.
    def call():
        return simulate(make_code("far", n=60, P=6), PatternFamily.p_far(60, 18),
                        trials, seed)
    expected = _serial(monkeypatch, call)
    assert call().to_json_dict() == expected
    assert len(forks) == 2
    if trials == 45:
        assert max(w["trial"] for w in expected["counterexamples"]) >= 30


# Two parts, the head and one forked tail, are what a 2-CPU host runs.
def test_two_part_roundtrip_reports_as_one_process(monkeypatch, forks):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    call = ROUNDTRIPS["far18-pfar18-DEF"]
    expected = _serial(monkeypatch, call)
    assert call().to_json_dict() == expected
    assert len(forks) == 1


def test_two_part_simulate_reports_as_one_process(monkeypatch, forks):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)

    def call():
        return simulate(make_code("far", n=60, P=6), PatternFamily.p_far(60, 18),
                        45, 1)
    expected = _serial(monkeypatch, call)
    assert call().to_json_dict() == expected
    assert len(forks) == 1


def test_split_children_inherit_the_patched_modulus(monkeypatch, forks, levenshtein):
    # Under modulus 2n no single flip is ambiguous, so a child that read
    # the paper's modulus would report failures.
    def call():
        return verify_roundtrip(make_code("vt", n=10, a=0),
                                PatternFamily.at_most(10, 1, kinds="DEF"))
    expected = _serial(monkeypatch, call)
    assert expected["failures"] == 0 and expected["ambiguityCount"] == 0
    assert call().to_json_dict() == expected
    assert len(forks) == 2


def _audit(kind, family, **params):
    return lambda: verify_combinatorial(
        list(make_code(kind, **params).codewords()), family)


# name -> (audit, forks): one part per output class at most, so a family
# of few classes forks less or not at all.
AUDITS = {
    "vt10-atmost1": (_audit("vt", PatternFamily.at_most(10, 1), n=10, a=0), 2),
    "rep9-atmost2": (_audit("rep", PatternFamily.at_most(9, 2), n=9, t=1), 2),
    "vt10-burst2": (_audit("vt", PatternFamily.burst(10, 2), n=10, a=0), 2),
    # Three classes, zero to two deletions; flips alone are one class.
    "vt12-atmost2-D": (_audit("vt", PatternFamily.at_most(12, 2, kinds="D"),
                              n=12, a=0), 2),
    "vt12-atmost2-F": (_audit("vt", PatternFamily.at_most(12, 2, kinds="F"),
                              n=12, a=0), 0),
}


@pytest.mark.parametrize("name", sorted(AUDITS))
def test_split_audit_reports_as_one_process(monkeypatch, forks, name):
    call, forked = AUDITS[name]
    expected = _serial(monkeypatch, call)
    assert json.dumps(call().to_json_dict()) == json.dumps(expected)
    assert len(forks) == forked


def test_split_audit_keeps_the_smallest_keys_of_every_part(monkeypatch, forks):
    # Every part finds more than ten collisions, so each sends ten, and
    # the parent keeps the ten of smallest (codeword, pattern) index.
    merged = []
    merge = verify._merge
    monkeypatch.setattr(verify, "_merge", lambda report, part: (
        merged.append(part.failures), merge(report, part)))
    call = _audit("far", PatternFamily.p_far(18, 6), n=18, P=6)
    expected = _serial(monkeypatch, call)
    report = call().to_json_dict()
    assert json.dumps(report) == json.dumps(expected)
    assert len(forks) == 2 and len(merged) == 2
    assert min(merged + [report["failures"] - sum(merged)]) > 10


def test_split_audit_raises_as_one_process(monkeypatch, forks):
    codebook = list(make_code("vt", n=10, a=0).codewords())
    codebook[40] = (1.0,) + tuple(codebook[40][1:])
    family = PatternFamily.at_most(10, 1)
    with pytest.raises(ValueError) as serial:
        _serial(monkeypatch, lambda: verify_combinatorial(codebook, family))
    with pytest.raises(ValueError) as split:
        verify_combinatorial(codebook, family)
    assert str(serial.value) == str(split.value)
    assert str(split.value).endswith("got symbol 1.0")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class RaisingCode:
    """VT_0(10), 94 codewords (parts 0-30, 31-61, 62-93 of three), whose
    codeword read raises `error` at the given indices; in a forked child
    each read first sleeps `child_sleep` seconds."""

    def __init__(self, bad, error=ValueError, child_sleep=0.0):
        self.code = make_code("vt", n=10, a=0)
        self.codeword_count = self.code.codeword_count
        self.decode = self.code.decode
        self.describe = self.code.describe
        self.bad, self.error, self.child_sleep = bad, error, child_sleep
        self.pid = os.getpid()

    def codeword(self, index):
        if os.getpid() != self.pid:
            time.sleep(self.child_sleep)
        if index in self.bad:
            raise self.error(f"stub refuses codeword {index}")
        return self.code.codeword(index)


def test_split_raises_the_earliest_child_exception(monkeypatch, forks):
    def call():
        return verify_roundtrip(RaisingCode({40, 70}), PatternFamily.at_most(10, 1))
    with pytest.raises(ValueError) as serial:
        _serial(monkeypatch, call)
    with pytest.raises(ValueError) as split:
        call()
    assert str(serial.value) == str(split.value) == "stub refuses codeword 40"
    assert len(forks) == 2


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_split_kills_and_reaps_children_when_the_parent_raises(forks, error):
    # The children would sleep 30 s per codeword: returning at once shows
    # they were killed, and the conftest check shows they were reaped.
    code = RaisingCode({10}, error=error, child_sleep=30.0)
    start = time.monotonic()
    with pytest.raises(error, match="^stub refuses codeword 10$"):
        verify_roundtrip(code, PatternFamily.at_most(10, 1))
    assert time.monotonic() - start < 20
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds():
    """The entries of /proc/self/fd, or None where /proc does not exist."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc") else None


class ExitingCode(RaisingCode):
    """RaisingCode whose forked child exits with status 3, sending nothing,
    when it reads a codeword of the given indices."""

    def codeword(self, index):
        if os.getpid() != self.pid and index in self.bad:
            os._exit(3)
        return super().codeword(index)


def test_split_names_a_child_that_dies_without_its_part(forks):
    fds = _open_fds()
    with pytest.raises(ChildProcessError, match="ended with wait status 768$"):
        verify_roundtrip(ExitingCode(range(62, 94)), PatternFamily.at_most(10, 1))
    assert len(forks) == 2
    assert _open_fds() == fds


def test_split_names_a_child_ended_by_an_interrupt(forks):
    # An interrupt in a child is no Exception: the child exits with status
    # 1, sending nothing, and never unwinds into its caller's stack (here
    # one that did would end with status 99).
    parent = os.getpid()

    def run(part, items):
        if os.getpid() != parent:
            raise KeyboardInterrupt
    report = verify.VerifyReport(mode="roundtrip", codebook_size=2,
                                 result="pass", cases=0)
    try:
        with pytest.raises(ChildProcessError, match="ended with wait status 256$"):
            verify._split(report, run, [range(0, 1), range(1, 2)])
    finally:
        if os.getpid() != parent:
            os._exit(99)
    assert len(forks) == 1


def test_split_kills_the_first_child_when_the_second_fork_fails(monkeypatch,
                                                                 forks):
    # The first child would sleep 30 s per codeword: returning at once
    # shows it was killed, and the conftest check shows it was reaped.
    fork = os.fork

    def fork_once():
        if forks:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()
    monkeypatch.setattr(os, "fork", fork_once)
    fds = _open_fds()
    start = time.monotonic()
    with pytest.raises(OSError) as exc:
        verify_roundtrip(RaisingCode(set(), child_sleep=30.0),
                         PatternFamily.at_most(10, 1))
    assert exc.value.errno == errno.EAGAIN
    assert time.monotonic() - start < 20
    assert len(forks) == 1
    assert _open_fds() == fds


def test_split_reads_witnesses_beyond_a_pipe_buffer(monkeypatch, forks):
    # Every trial of far(5000,14) under pFar(42) fails, so each child
    # pipes back ten witnesses of two 5000-symbol words, about 110 KB,
    # above the 64 KiB a pipe holds before its writer blocks.
    sizes = []
    merge = verify._merge
    monkeypatch.setattr(verify, "_merge", lambda report, part: (
        sizes.append(len(pickle.dumps(part))), merge(report, part)))

    def call():
        return simulate(make_code("far", n=5000, P=14),
                        PatternFamily.p_far(5000, 42), 60, 1)
    expected = _serial(monkeypatch, call)
    assert call().to_json_dict() == expected
    assert len(sizes) == 2 and min(sizes) > 64 * 1024


def _refuse_fork():
    raise AssertionError("forked")


GATE_CALL = ROUNDTRIPS["vt10-atmost1"]


def test_gate_one_usable_cpu(monkeypatch):
    expected = GATE_CALL().to_json_dict()
    monkeypatch.setattr(verify, "SPLIT_WORK", 1)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    assert GATE_CALL().to_json_dict() == expected


def test_gate_second_live_thread(monkeypatch, forks):
    expected = _serial(monkeypatch, GATE_CALL)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(30,))
    thread.start()
    try:
        assert GATE_CALL().to_json_dict() == expected
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not thread.is_alive()


def test_gate_no_fork_on_the_platform(monkeypatch, forks):
    expected = _serial(monkeypatch, GATE_CALL)
    monkeypatch.delattr(os, "fork")
    assert GATE_CALL().to_json_dict() == expected


def test_gate_small_simulate_stays_in_one_process(monkeypatch):
    # The benchmark's mc_desk call: 20 trials at n = 60, 1,200 symbols.
    def call():
        return simulate(make_code("far", n=60, P=6), PatternFamily.p_far(60, 18),
                        20, 5)
    expected = _serial(monkeypatch, call)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    assert json.dumps(call().to_json_dict()) == json.dumps(expected)
