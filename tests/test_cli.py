import ast
import inspect
import json
import math
import os
import random
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from delcodes import analysis, cli, verify, vt
from delcodes.cli import main
from delcodes.errors import exact_integers
from delcodes.far import far_params


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out) if out else None, err


def test_vt_enum(capsys):
    code, out, _ = run(capsys, "vt-enum", "--n", "4", "--a", "0")
    assert code == 0
    assert out.split() == ["0000", "0110", "1001", "1111"]


def test_vt_enum_json(capsys):
    code, obj, _ = run_json(capsys, "vt-enum", "--n", "4", "--a", "0")
    assert code == 0
    assert obj == {"config": {"command": "vt-enum", "code": "vt", "n": 4,
                              "a": 0},
                   "size": 4, "codewords": ["0000", "0110", "1001", "1111"]}


def test_vt_enum_to_file(capsys):
    # A codebook file is the text output redirected, one word per line;
    # there is no --out flag.
    code, out, _ = run(capsys, "vt-enum", "--n", "4", "--a", "0")
    assert code == 0 and out == "0000\n0110\n1001\n1111\n"
    code, out, err = run(capsys, "vt-enum", "--n", "4", "--a", "0",
                         "--out", "codebook.txt")
    assert code == 1 and out == "" and "--out" in err


def test_encode_rep(capsys):
    code, out, _ = run(capsys, "encode", "--code", "rep", "--n", "9",
                       "--t", "1", "--info", "101")
    assert code == 0 and out.strip() == "111000111"


def test_encode_far_json(capsys):
    code, obj, _ = run_json(capsys, "encode", "--code", "far", "--n", "12",
                            "--P", "3", "--info", "0,0,1,1")
    assert code == 0
    assert obj["codeword"] == "011011100100"
    assert obj["config"]["indices"] == [0, 0, 1, 1]


@pytest.mark.parametrize("info, block", [("-1,0,0,0", 1), ("0,0,99,1", 3),
                                         ("0,0,0,2", 4)])
def test_encode_far_index_out_of_range(capsys, info, block):
    code, out, err = run(capsys, "encode", "--code", "far", "--n", "12",
                         "--P", "3", f"--info={info}")
    assert code == 1 and out == ""
    assert f"block {block}" in err and "0..1" in err


def test_encode_vt_is_a_usage_error(capsys):
    code, _, err = run(capsys, "encode", "--code", "vt", "--n", "4",
                       "--a", "0", "--info", "01")
    assert code == 1 and "usage error" in err


def test_decode_vt(capsys):
    code, obj, _ = run_json(capsys, "decode", "--code", "vt", "--n", "4",
                            "--a", "0", "--word", "010")
    assert code == 0 and obj["estimate"] == "0110"
    assert obj["diagnostics"] == {"ambiguous": False}


def test_decode_far(capsys):
    code, obj, _ = run_json(capsys, "decode", "--code", "far", "--n", "12",
                            "--P", "3", "--word", "01101110010e")
    assert code == 0 and obj["estimate"] == "011011100100"


@pytest.mark.parametrize("word, iterations", [
    ("011010100100", 2),   # one flip
    ("11011100100", 2),    # one deletion
    ("01101110010e", 1),   # one erasure, filled in without a correction
])
def test_decode_far_diagnostics(capsys, word, iterations):
    code, obj, _ = run_json(capsys, "decode", "--code", "far", "--n", "12",
                            "--P", "3", "--word", word)
    assert code == 0 and obj["estimate"] == "011011100100"
    assert obj["diagnostics"] == {"iterations": iterations, "ambiguousFlips": 0}


def test_encode_and_decode_read_long_words_from_files(capsys, tmp_path):
    # far(10000,12): a 9999-symbol word is past the inline cap, so the
    # info indices and the received word are read from @FILE, each with
    # the trailing newline an editor leaves.
    p = far_params(10000, 12)
    info = tmp_path / "info.txt"
    info.write_text(",".join(str(k % 5) for k in range(p.t)) + "\n")
    code, obj, _ = run_json(capsys, "encode", "--code", "far", "--n", "10000",
                            "--P", "12", "--info", f"@{info}")
    assert code == 0 and len(obj["codeword"]) == 10000
    received = obj["codeword"][:4999] + obj["codeword"][5000:]
    word = tmp_path / "word.txt"
    word.write_text(received + "\n")
    code, obj2, _ = run_json(capsys, "decode", "--code", "far", "--n", "10000",
                             "--P", "12", "--word", f"@{word}")
    assert code == 0 and obj2["estimate"] == obj["codeword"]
    assert obj2["diagnostics"] == {"iterations": 2, "ambiguousFlips": 0}


@pytest.mark.parametrize("argv, message", [
    (("decode", "--code", "far", "--n", "10000", "--P", "12",
      "--word", "0" * 4097),
     "usage error: inline words are capped at 4096 symbols; "
     "use @path for longer input"),
    (("simulate", "--code", "far", "--n", "12", "--P", "3",
      "--family", "pfar:9", "--trials", "0", "--seed", "1"),
     "error: need trials >= 1"),
    (("count", "--n", "12", "--family", "foo:1"),
     "usage error: unknown family kind 'foo'"),
    (("corrupt", "--word", "011011100100", "--family", "pfar:9"),
     "usage error: --seed is required with --family"),
    # Family names are read as typed, like the kinds after '@'.
    (("count", "--n", "5", "--family", "ATMOST:1"),
     "usage error: unknown family kind 'ATMOST'"),
    (("count", "--n", "-5", "--family", "pfar:3"),
     "usage error: bad family spec 'pfar:3': need n >= 0"),
    # Everything after the first '@' is the kinds.
    (("count", "--n", "5", "--family", "atmost:1@D@E"),
     "usage error: bad family spec 'atmost:1@D@E': bad kinds 'D@E'"),
])
def test_cli_refuses_inputs_out_of_range(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", message + "\n")


def test_an_inline_word_of_the_cap_is_read(capsys):
    word = "01" * 2048
    code, out, _ = run(capsys, "corrupt", "--word", word,
                       "--pattern", '{"n": 4096, "errors": []}')
    assert (code, out) == (0, word + "\n")


def test_simulate_text_counts_the_successes(capsys):
    argv = ("simulate", "--code", "vt", "--n", "6", "--a", "0",
            "--family", "atmost:2", "--trials", "20", "--seed", "1")
    code, obj, _ = run_json(capsys, *argv)
    assert code == 2 and 0 < obj["failures"] < 20
    assert run(capsys, *argv) == (
        2, f"montecarlo: fail, {20 - obj['failures']}/20 successes, seed 1\n", "")


@pytest.mark.parametrize("command, flag", [("decode", "--word"),
                                           ("encode", "--info")])
def test_a_missing_input_file_is_an_error_line(capsys, tmp_path, command, flag):
    missing = tmp_path / "missing.txt"
    code, out, err = run(capsys, command, "--code", "far", "--n", "12",
                         "--P", "3", flag, f"@{missing}")
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_corrupt_with_pattern(capsys):
    pattern = json.dumps({"n": 4, "errors": [{"pos": 2, "kind": "D"},
                                             {"pos": 4, "kind": "E"}]})
    code, out, _ = run(capsys, "corrupt", "--word", "0110",
                       "--pattern", pattern)
    assert code == 0 and out.strip() == "01e"


@pytest.mark.parametrize("pattern", [
    "{}", "[]", '{"n": 4}', '{"n": 4, "errors": [{"pos": 1}]}',
    '{"n": 4, "errors": [{"pos": "1", "kind": "D"}]}',
    '{"n": 4, "errors": [{"pos": 1, "kind": "DE"}]}',
    '{"n": 4.7, "errors": []}',
])
def test_corrupt_rejects_malformed_pattern(capsys, pattern):
    code, out, err = run(capsys, "corrupt", "--word", "0110",
                         "--pattern", pattern)
    assert code == 1 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("flags, message", [
    (("--family", "atmost:1"),
     "argument --family: not allowed with argument --pattern"),
    (("--seed", "3"), "--seed is not a parameter of --pattern"),
    (("--family", "atmost:1", "--seed", "3"),
     "argument --family: not allowed with argument --pattern"),
])
def test_corrupt_pattern_refuses_family_and_seed(capsys, flags, message):
    # Both were dropped: the pattern was applied and the run exited 0.
    pattern = '{"n": 4, "errors": [{"pos": 2, "kind": "D"}]}'
    code, out, err = run(capsys, "corrupt", "--word", "0110",
                         "--pattern", pattern, *flags)
    assert (code, out) == (1, "")
    assert err == f"usage error: {message}\n"


def test_corrupt_with_family_is_seeded(capsys):
    code1, out1, _ = run(capsys, "corrupt", "--word", "011011100100",
                         "--family", "pfar:9", "--seed", "5")
    code2, out2, _ = run(capsys, "corrupt", "--word", "011011100100",
                         "--family", "pfar:9", "--seed", "5")
    assert code1 == code2 == 0 and out1 == out2


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--n", "4", "--family", "atmost:2")
    assert code == 0 and out.strip() == "67"
    code, out, _ = run(capsys, "count", "--n", "12", "--family", "pfar:9:2")
    assert code == 0 and out.strip() == "91"
    code, out, _ = run(capsys, "count", "--n", "9", "--family", "burst:1")
    assert code == 0 and out.strip() == "100"
    code, out, _ = run(capsys, "count", "--n", "5", "--family", "pfar:1:1")
    assert code == 0 and out.strip() == "16"
    code, obj, _ = run_json(capsys, "count", "--n", "12",
                            "--family", "pfar:9:2@D")
    assert code == 0 and obj == {
        "config": {"command": "count", "family": {
            "kind": "p_far", "n": 12, "P": 9, "t": 2, "kinds": "D"}},
        "count": 19}


@pytest.mark.parametrize("flag", ["--t", "--far", "--burst"])
def test_count_reads_its_family_from_a_spec_only(capsys, flag):
    code, out, err = run(capsys, "count", "--n", "10", flag, "2")
    assert code == 1 and out == "" and err.startswith("usage error: ")


def test_count_prints_more_than_4300_digits(capsys):
    # 4^8000 has 4817 digits, past Python's default int-to-str limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, text, _ = run(capsys, "count", "--n", "8000",
                        "--family", "atmost:8000")
    assert code == 0
    code, out, _ = run(capsys, "count", "--n", "8000", "--family",
                       "atmost:8000", "--format", "json")
    assert code == 0
    with exact_integers():
        assert text.strip() == str(4 ** 8000)
        assert json.loads(out)["count"] == 4 ** 8000
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_exact_integers_without_a_digit_limit_to_lift(monkeypatch):
    # Python 3.10 has no sys.set_int_max_str_digits: the block runs as is.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    with exact_integers():
        assert limit() == before
    assert limit() == before


@pytest.mark.parametrize("argv", [
    ("corrupt", "--word", "01e1", "--family", "atmost:1", "--seed", "1"),
    ("encode", "--code", "rep", "--n", "9", "--t", "1", "--info", "1e1"),
])
def test_an_erasure_in_a_codeword_is_named_as_typed(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: codeword must be erasure-free bits, got symbol 'e'\n"


def test_simulate_reports_codebook_size_past_4300_digits(capsys):
    # Kinds D and E only: the far decoder corrects every pFar(3P) pattern
    # of them, so the one trial passes whatever it draws.
    code, out, _ = run(capsys, "simulate", "--code", "far", "--n", "30002",
                       "--P", "14", "--family", "pfar:42:3@DE", "--trials",
                       "1", "--seed", "1", "--format", "json")
    assert code == 0
    with exact_integers():
        size = json.loads(out)["codebookSize"]
    assert size == far_params(30002, 14).codeword_count


def test_verify_budget_names_sizes_past_4300_digits(capsys):
    # The budget message names the 6,500-digit codebook size.
    code, _, err = run(capsys, "verify", "--mode", "roundtrip", "--code",
                       "far", "--n", "30002", "--P", "14", "--family",
                       "pfar:42:3")
    assert code == 3 and "budget" in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--code", "far", "--P", "3", "--family", "pfar:9",
     "--trials", "1", "--seed", "1"),
    ("simulate", "--code", "rep", "--t", "1", "--family", "atmost:1",
     "--trials", "1", "--seed", "1"),
    ("verify", "--mode", "roundtrip", "--code", "burst", "--b", "1",
     "--family", "burst:1"),
])
def test_code_longer_than_the_budget_is_refused_at_once(argv):
    # Sizes such as 2^m codewords never finish for n = 10^30, so the
    # command runs in a child process with a deadline and a memory cap.
    src = Path(verify.__file__).resolve().parents[1]
    cap = 2 ** 30  # bytes of address space
    try:
        result = subprocess.run(
            [sys.executable, "-m", "delcodes.cli", *argv, "--n", str(10 ** 30)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=10,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (cap, cap)))
    except subprocess.TimeoutExpired:
        pytest.fail(f"{argv[0]} --code {argv[argv.index('--code') + 1]} "
                    "at n = 10^30 did not exit within 10 s")
    assert result.returncode == 3, result.stderr
    assert result.stderr == (f"budget exceeded: the {10 ** 30} symbols of a "
                             "codeword exceed the budget of 16777216\n")


def test_package_runs_as_a_module():
    src = Path(verify.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "delcodes", "count", "--n", "12",
         "--family", "pfar:9:2@D"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "19\n", "")


def test_far_code_over_budget_builds_no_table(capsys, monkeypatch):
    # The counting table of length 2000 is refused before its first row:
    # no addition of the table and no half table of a codebook runs.
    def refuse(*args):
        raise AssertionError(f"table built for {args}")

    monkeypatch.setattr(vt, "add", refuse)
    monkeypatch.setattr(vt, "_half_table", refuse)
    for argv in (("encode", "--info", "0,0"), ("decode", "--word", "0")):
        code, _, err = run(capsys, *argv, "--code", "far", "--n", "8000",
                           "--P", "2000")
        assert code == 3 and ("the 2001^2 * 2000 bit operations of the "
                              "counting table for n = 2000") in err


def test_bounds(capsys):
    code, obj, _ = run_json(capsys, "bounds", "--name", "delta", "--P", "5")
    assert code == 0 and obj["report"]["value"] == 0.375
    code, _, err = run(capsys, "bounds", "--name", "far_upper", "--n", "12",
                       "--P", "3")
    assert code == 1 and "delta" in err


@pytest.mark.parametrize("omega", ["nan", "inf"])
def test_bounds_reject_non_finite_input(capsys, omega):
    code, out, err = run(capsys, "bounds", "--name", "frac_upper", "--n",
                         "100", "--t", "1", "--omega", omega,
                         "--format", "json")
    assert code == 1 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("flags", [
    ("frac_upper", "--t", "0", "--omega", "6"),
    ("frac_upper", "--t", "1", "--omega", "0"),
    ("frac_upper", "--t", "1", "--omega", "-0.0"),
    ("frac_upper_K", "--t", "0", "--K", "2"),
])
def test_bounds_with_a_zero_divisor_are_an_error_line(capsys, flags):
    # t = 0 or omega = 0 puts a zero in the log argument's divisor; the
    # domain guard refuses it before the division.
    name, *rest = flags
    code, out, err = run(capsys, "bounds", "--name", name, "--n", "10", *rest)
    assert code == 1 and out == "" and err.startswith("error: ")


BOUND_FLAGS = {"n": "1000", "t": "2", "P": "10", "b": "2", "omega": "10",
               "K": "4"}


@pytest.mark.parametrize("name", sorted(analysis.BOUND_EVALUATORS))
def test_bounds_require_each_argument(capsys, name):
    arg_names = inspect.signature(analysis.BOUND_EVALUATORS[name]).parameters
    flags = [f for arg in arg_names for f in (f"--{arg}", BOUND_FLAGS[arg])]
    _, _, err = run(capsys, "bounds", "--name", name, *flags)
    assert "is required" not in err
    for arg in arg_names:
        rest = [f for other in arg_names if other != arg
                for f in (f"--{other}", BOUND_FLAGS[other])]
        code, _, err = run(capsys, "bounds", "--name", name, *rest)
        assert code == 1 and f"--{arg} is required" in err


@pytest.mark.parametrize("name", sorted(analysis.BOUND_EVALUATORS))
def test_bounds_refuse_flags_of_other_bounds(capsys, name):
    arg_names = inspect.signature(analysis.BOUND_EVALUATORS[name]).parameters
    flags = [f for arg in arg_names for f in (f"--{arg}", BOUND_FLAGS[arg])]
    for other in BOUND_FLAGS.keys() - arg_names:
        code, out, err = run(capsys, "bounds", "--name", name, *flags,
                             f"--{other}", BOUND_FLAGS[other])
        assert (code, out) == (1, "")
        assert err == (f"usage error: --{other} is not a parameter of "
                       f"bound {name}\n")


# Per code: its parameter flags, an info word (None: no encoder), a
# received word and a family it corrects.
CODE_CASES = {
    "vt": ({"n": 4, "a": 0}, None, "010", "atmost:1@D"),
    "rep": ({"n": 9, "t": 1}, "101", "111000111", "atmost:1"),
    "burst": ({"n": 10, "b": 1}, "10", "1111100000", "burst:1"),
    "far": ({"n": 12, "P": 3}, "0,0,1,1", "01101110010e", "pfar:9"),
}


def _code_commands(*modes):
    """(code, argv) of each command that takes --code, for every code of
    CODE_CASES, with verify once per mode; the id names the mode only
    where more than one is given."""
    for code, (flags, info, word, family) in CODE_CASES.items():
        commands = {"decode": ("decode", "--word", word),
                    "simulate": ("simulate", "--family", family,
                                 "--trials", "20", "--seed", "1")}
        for mode in modes:
            name = f"verify-{mode}" if len(modes) > 1 else "verify"
            commands[name] = ("verify", "--mode", mode, "--family", family)
        if info is not None:
            commands["encode"] = ("encode", "--info", info)
        typed = [arg for name, value in flags.items()
                 for arg in (f"--{name}", str(value))]
        for name, command in commands.items():
            yield pytest.param(code, (*command, "--code", code, *typed),
                               id=f"{code}-{name}")


def test_code_cases_cover_every_code_and_encoder():
    assert ({code: case[1] is not None for code, case in CODE_CASES.items()}
            == {code: hasattr(adapter, "encode")
                for code, adapter in verify.CODES.items()})


@pytest.mark.parametrize("code, argv", _code_commands("roundtrip"))
def test_commands_refuse_flags_of_other_codes(capsys, code, argv):
    # A flag that only another code takes was dropped: simulate --code far
    # --t 3 --family pfar:18 ran the uncapped family.
    assert run(capsys, *argv)[0] == 0
    takes = inspect.signature(verify.CODES[code]).parameters
    foreign = {name for other in verify.CODES.values()
               for name in inspect.signature(other).parameters} - takes.keys()
    assert foreign
    for name in foreign:
        result = run(capsys, *argv, f"--{name}", "1")
        assert result == (1, "", f"usage error: --{name} is not a parameter "
                                 f"of --code {code}\n")


HUGE = "9" * 400


@pytest.mark.parametrize("argv", [
    ("bounds", "--name", "any_code_lower", "--n", HUGE, "--t", "3"),
    ("bounds", "--name", "frac_upper", "--n", HUGE, "--t", "3",
     "--omega", "6"),
    ("bounds", "--name", "frac_upper_K", "--n", HUGE, "--t", "3",
     "--K", "3"),
    ("bounds", "--name", "rep_bounds", "--n", HUGE, "--t", "3"),
    ("bounds", "--name", "far_lower", "--n", HUGE, "--P", "5"),
    ("bounds", "--name", "far_lower_largeP", "--n", "100", "--P", HUGE),
    ("fraction", "--n", HUGE * 2, "--t", "3", "--omega", HUGE),
], ids=lambda argv: argv[2] if argv[0] == "bounds" else argv[0])
def test_inputs_too_large_for_a_float_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error: ")


def test_fraction(capsys):
    code, obj, _ = run_json(capsys, "fraction", "--n", "10000", "--t", "2",
                            "--omega", "100")
    assert code == 0
    assert obj["fraction"] >= obj["bound"] >= 0.58
    # A 400-digit n is counted exactly: P_n has about 400 digits, and the
    # ratio of the two exact counts is rounded once.
    code, obj, _ = run_json(capsys, "fraction", "--n", HUGE, "--t", "3",
                            "--omega", "6")
    n = int(HUGE)
    gap = 3 * (n // 54) - 1
    far = sum(math.comb(n - (k - 1) * gap, k) * 3 ** k for k in range(1, 4))
    every = sum(math.comb(n, k) * 3 ** k for k in range(1, 4))
    assert code == 0 and obj["fraction"] == (1 + far) / (1 + every)


def test_verify_pass_and_fail_exit_codes(capsys):
    code, obj, _ = run_json(capsys, "verify", "--mode", "combinatorial",
                            "--code", "vt", "--n", "4", "--a", "0",
                            "--family", "atmost:1@D")
    assert code == 0 and obj["result"] == "pass"
    code, obj, _ = run_json(capsys, "verify", "--mode", "combinatorial",
                            "--code", "vt", "--n", "4", "--a", "0",
                            "--family", "atmost:1@F")
    assert code == 2 and obj["result"] == "fail"
    assert "counterexample" in obj


@pytest.mark.parametrize("argv", [
    ("verify", "--mode", "combinatorial", "--code", "vt", "--n", "4",
     "--a", "0", "--family", "atmost:1@"),
    ("simulate", "--code", "far", "--n", "60", "--P", "6",
     "--family", "pfar:9@", "--trials", "5", "--seed", "1"),
])
def test_family_without_error_kinds_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "bad kinds" in err


def test_verify_roundtrip_far(capsys):
    code, obj, _ = run_json(capsys, "verify", "--mode", "roundtrip",
                            "--code", "far", "--n", "12", "--P", "3",
                            "--family", "pfar:9")
    assert code == 0 and obj["cases"] == 1456


@pytest.mark.parametrize("value", ["1e6", "-1"])
def test_a_budget_that_is_no_count_is_an_error_line(capsys, monkeypatch, value):
    monkeypatch.setenv("DELCODE_BUDGET", value)
    code, out, err = run(capsys, "vt-enum", "--n", "4", "--a", "0")
    assert (code, out, err) == (
        1, "", f"error: DELCODE_BUDGET must be a non-negative integer, "
               f"got {value!r}\n")


def test_verify_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("DELCODE_BUDGET", "10")
    code, _, err = run(capsys, "verify", "--mode", "roundtrip",
                       "--code", "vt", "--n", "4", "--a", "0",
                       "--family", "atmost:1")
    assert code == 3 and "budget" in err


def test_simulate_refuses_a_trial_count_over_the_budget(capsys, monkeypatch):
    # 10^22 trials would never finish: the count is refused before the
    # first trial, which here would raise instead of running.
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran before the budget check")
    monkeypatch.setattr(verify, "_roundtrip_case", no_trial)
    monkeypatch.delenv("DELCODE_BUDGET", raising=False)
    start = time.perf_counter()
    result = run(capsys, "simulate", "--code", "far", "--n", "60", "--P", "6",
                 "--family", "pfar:18", "--trials", str(10 ** 22),
                 "--seed", "1")
    assert time.perf_counter() - start < 1
    assert result == (3, "", f"budget exceeded: the {10 ** 22} trials exceed "
                             "the budget of 16777216\n")


def test_count_refuses_work_over_the_budget_before_counting(capsys, monkeypatch):
    # The exact count of pFar(3) at n = 10^22 takes 3.3 * 10^21 steps on
    # counts of about 0.9 n bits and would never end; at n = 10^5 it took
    # 1.7 s.  Its work is priced and refused before the first step.
    monkeypatch.delenv("DELCODE_BUDGET", raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "--n", str(10 ** 22),
                         "--family", "pfar:3")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("budget exceeded: the ")
    assert err.endswith(" x 4096 bit operations of the family's exact count "
                        "exceed the budget of 16777216\n")


@pytest.mark.parametrize("mode", ["roundtrip", "combinatorial"])
def test_vt_verify_over_budget_lists_no_codeword(capsys, monkeypatch, mode):
    # VT_0(24) has 671,092 codewords: listing them took seconds and
    # hundreds of MB before the refusal.  The class is built, for its
    # size, but neither lists nor unranks a word.
    def refuse(cls, *args):
        raise AssertionError(f"VT_{cls.params.a}({cls.params.n}) listed "
                             "before the budget check")

    monkeypatch.setattr(vt.VtClass, "__iter__", refuse)
    monkeypatch.setattr(vt.VtClass, "__getitem__", refuse)
    code, out, err = run(capsys, "verify", "--mode", mode, "--code", "vt",
                         "--n", "24", "--a", "0", "--family", "atmost:1")
    assert code == 3 and out == ""
    assert err == ("budget exceeded: 671092 x 73 evaluations exceed the "
                   "budget of 16777216\n")


def test_combinatorial_verify_refuses_before_listing_codewords(capsys,
                                                                monkeypatch):
    # far(60,6) has 3,486,784,401 codewords: listing them would not end.
    def refuse(self):
        raise AssertionError("codebook listed before the budget check")

    monkeypatch.setattr(verify.FarCodeAdapter, "codewords", refuse)
    code, out, err = run(capsys, "verify", "--mode", "combinatorial",
                         "--code", "far", "--n", "60", "--P", "6",
                         "--family", "pfar:18")
    assert code == 3 and out == ""
    assert err.startswith("budget exceeded: 3486784401 x ")
    assert err.endswith(" evaluations exceed the budget of 16777216\n")


def test_simulate_is_repeatable(capsys):
    base = ("simulate", "--code", "far", "--n", "12", "--P", "3",
            "--family", "pfar:9", "--trials", "200", "--seed", "9")
    code1, out1, _ = run(capsys, *base, "--format", "json")
    code2, out2, _ = run(capsys, *base, "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    code, _, err = run(capsys, *base, "--workers", "4")
    assert code == 1 and "--workers" in err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "decode", "--code", "vt", "--word", "010")
    assert code == 1 and "--n" in err
    code, _, err = run(capsys, "corrupt", "--word", "0110")
    assert code == 1
    code, _, err = run(capsys, "bounds", "--name", "nope")
    assert code == 1
    code, _, err = run(capsys, "verify", "--mode", "exhaustive", "--code",
                       "vt", "--n", "4", "--a", "0", "--family", "atmost:1")
    assert code == 1 and "invalid choice: 'exhaustive'" in err


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize("family, message", [
    ("atmost:1:junk", "the form is atmost:T"),
    ("atmost:1@DX", "bad kinds 'DX'"),
    ("pfar:9@", "bad kinds ''"),
    ("pfar:9:1:2:3", "the form is pfar:P[:T]"),
    ("burst:1:7", "the form is burst:B"),
    ("atmost", "the form is atmost:T"),
    ("pfar:9:-1", "need 0 <= t <= n"),
    ("pfar:9:-2", "need 0 <= t <= n"),
    ("pfar:9:13", "need 0 <= t <= n"),
])
@pytest.mark.parametrize("command", [
    ("verify", "--mode", "roundtrip", "--code", "far", "--P", "3"),
    ("simulate", "--trials", "50", "--seed", "1", "--code", "far", "--P", "3"),
    ("count",),
])
def test_bad_family_spec_is_a_usage_error(capsys, family, message, command):
    code, out, err = run(capsys, *command, "--n", "12", "--family", family)
    assert code == 1 and out == ""
    assert err == f"usage error: bad family spec {family!r}: {message}\n"


@pytest.mark.parametrize("mode", ["combinatorial", "roundtrip"])
@pytest.mark.parametrize("code_args, family, cases", [
    (("vt", "--n", "4", "--a", "0"), "atmost:1", 4 * 13),
    (("far", "--n", "12", "--P", "3"), "pfar:9", 16 * 91),
])
def test_verify_text_counts_every_case(capsys, mode, code_args, family, cases):
    # A case is one codeword under one pattern, in both modes.
    code, out, _ = run(capsys, "verify", "--mode", mode, "--code", *code_args,
                       "--family", family)
    assert code in (0, 2) and f"({cases} cases, " in out


def test_out_of_memory_exits_3_without_a_traceback(capsys, monkeypatch):
    # count --n 100000 --family atmost:100000 runs out of memory under a
    # 1 GB address-space cap.
    def exhaust(family):
        raise MemoryError

    monkeypatch.setattr(cli, "family_size", exhaust)
    code, out, err = run(capsys, "count", "--n", "12", "--family", "atmost:2")
    assert code == 3 and out == ""
    assert err.startswith("out of memory") and err.count("\n") == 1


@pytest.mark.parametrize("code, argv",
                         _code_commands("combinatorial", "roundtrip"))
def test_reports_name_the_command_and_the_code_as_typed(capsys, code, argv):
    status, obj, _ = run_json(capsys, *argv)
    assert status in (0, 2)
    config = obj["config"]
    assert config["command"] == argv[0] and config["code"] == code
    flags = CODE_CASES[code][0]
    param_names = set().union(*(case[0] for case in CODE_CASES.values()))
    assert {k: v for k, v in config.items() if k in param_names} == flags


def test_cli_builds_codes_only_through_the_registry():
    # Every command builds its code by verify.make_code, so no command can
    # name a code other than as verify.CODES describes it.
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.rsplit(".", 1)[-1])
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name.rsplit(".", 1)[-1]
                            for alias in node.names)
    assert imported and not imported & {"vt", "far", "rep"}


@pytest.mark.parametrize("argv", [
    ("simulate", "--trials", "200", "--seed", "1"),
    ("verify", "--mode", "roundtrip"),
], ids=["simulate", "verify"])
@pytest.mark.parametrize("P", [10 ** 30, 2 ** 62], ids=["10^30", "2^62"])
def test_a_far_family_wider_than_any_list_runs(capsys, argv, P):
    # With P >= n a pFar(P) family is the at-most-one family.  Its empty
    # pattern was picked from the n + P - 1 positions of weight 0, which
    # overflowed (exit 1) at P = 10^30 and ran out of memory (exit 3) at
    # 2^62.
    code, out, err = run(capsys, *argv, "--code", "vt", "--n", "6", "--a", "0",
                         "--family", f"pfar:{P}@DE")
    assert (code, err) == (0, "") and ": pass" in out


def test_a_deeply_nested_pattern_is_an_error_line(capsys):
    # The JSON reader gives up with a RecursionError, which ended in a
    # traceback.
    code, out, err = run(capsys, "corrupt", "--word", "0110",
                         "--pattern", "[" * 100000)
    assert code == 1 and out == ""
    assert err.startswith("error: maximum recursion depth exceeded")


# Valid command lines, each command and each code kind; the fuzz test
# changes one or two of their values.
FUZZ_COMMANDS = [
    ("vt-enum", "--n", "4", "--a", "0"),
    ("encode", "--code", "rep", "--n", "9", "--t", "1", "--info", "101"),
    ("encode", "--code", "burst", "--n", "10", "--b", "1", "--info", "10"),
    ("encode", "--code", "far", "--n", "12", "--P", "3",
     "--info", "0,0,1,1"),
    ("decode", "--code", "vt", "--n", "4", "--a", "0", "--word", "010"),
    ("decode", "--code", "rep", "--n", "9", "--t", "1",
     "--word", "111000111"),
    ("decode", "--code", "burst", "--n", "10", "--b", "1",
     "--word", "1111100000"),
    ("decode", "--code", "far", "--n", "12", "--P", "3",
     "--word", "01101110010e", "--format", "json"),
    ("corrupt", "--word", "011011100100", "--family", "pfar:9",
     "--seed", "1"),
    ("corrupt", "--word", "0110",
     "--pattern", '{"n": 4, "errors": [{"pos": 2, "kind": "F"}]}'),
    ("count", "--n", "12", "--family", "pfar:3:2@DE"),
    ("count", "--n", "12", "--family", "burst:3", "--format", "json"),
    ("bounds", "--name", "frac_upper", "--n", "20", "--t", "2",
     "--omega", "6"),
    ("bounds", "--name", "far_lower", "--n", "20", "--P", "4"),
    ("fraction", "--n", "20", "--t", "2", "--omega", "6"),
    ("verify", "--mode", "combinatorial", "--code", "vt", "--n", "4",
     "--a", "0", "--family", "atmost:1@D"),
    ("verify", "--mode", "roundtrip", "--code", "far", "--n", "12",
     "--P", "3", "--family", "pfar:9"),
    ("verify", "--mode", "roundtrip", "--code", "rep", "--n", "9",
     "--t", "1", "--family", "atmost:1"),
    ("simulate", "--code", "burst", "--n", "10", "--b", "1",
     "--family", "burst:1", "--trials", "20", "--seed", "1"),
    ("simulate", "--code", "far", "--n", "12", "--P", "3",
     "--family", "pfar:9", "--trials", "20", "--seed", "1"),
]

# Values each flag is set to.  Every number is tiny or far past the budget
# of 200000, so a case that is accepted is quick.
_NUMBERS = ["-1", "0", "1", "2", "3", "\u0663", "\u0661\u0662", "1e3", "0x10",
            "", " 5", str(10 ** 22), "9" * 400]
_HUGE = str(10 ** 30)
FUZZ_VALUES = {
    "number": _NUMBERS,
    "--family": ["atmost:1", "pfar:9", "burst:0", "pfar:1", f"pfar:{_HUGE}",
                 f"pfar:{_HUGE}@D", f"atmost:{10 ** 22}", f"burst:{_HUGE}",
                 f"pfar:3:{10 ** 22}", f"pfar:{10 ** 22}:1", "pfar:0",
                 "pfar:-3", "atmost:1@X", "pfar:9@", "burst:1:1", "", ":",
                 "pfar:\u0669", "atmost:1@D@E"],
    "--word": ["", "01x", "e", "0110", "1" * 12, "0e0e0e0e0e0e", "0" * 4097,
               "@/nonexistent/word.txt", "\u0660\u0661"],
    "--pattern": ["{", "[]", "null", "[" * 100000, '{"n": 4, "errors": []}',
                  '{"n": 4, "errors": [{"pos": 5, "kind": "D"}]}',
                  '{"n": 4, "errors": [{"pos": 1, "kind": "X"}]}',
                  '{"n": "4", "errors": []}',
                  f'{{"n": {10 ** 22}, "errors": []}}',
                  '{"n": 4, "errors": [{"pos": 2, "kind": "F"}, '
                  '{"pos": 1, "kind": "D"}]}'],
    "--info": ["", "0,0", "1,1,1,1", "-1,0,0,0", "10", "0,0,0,99",
               "1" * 5000, f"0,0,0,{10 ** 22}"],
    "--name": sorted(analysis.BOUND_EVALUATORS) + ["nope"],
    "--mode": ["roundtrip", "combinatorial", "fast"],
    "--code": sorted(verify.CODES) + ["nope"],
    "--format": ["text", "json", "xml"],
}


class _Overtime(BaseException):
    """A fuzz case ran past its time limit.  No handler of main takes a
    BaseException; a TimeoutError would pass as an OSError's exit 1."""


def _fuzz_cases(seed, count):
    """count command lines of FUZZ_COMMANDS, each with one or two values
    set from FUZZ_VALUES, seeded."""
    rng = random.Random(seed)
    for _ in range(count):
        argv = list(rng.choice(FUZZ_COMMANDS))
        for i in rng.sample(range(2, len(argv), 2), rng.choice((1, 2))):
            pool = FUZZ_VALUES.get(argv[i - 1], FUZZ_VALUES["number"])
            argv[i] = rng.choice(pool)
        yield argv


def run_fuzz_cases(capsys, monkeypatch, seed, count=400, limit=10):
    """Run the fuzz cases in this process; return the faults found."""
    monkeypatch.setenv("DELCODE_BUDGET", "200000")

    def overtime(*args):
        raise _Overtime

    faults = []
    previous = signal.signal(signal.SIGALRM, overtime)
    try:
        for argv in _fuzz_cases(seed, count):
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                code = main(argv)
            except (Exception, _Overtime) as exc:  # out of main
                code = exc
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            err = capsys.readouterr().err
            if code not in (0, 1, 2, 3) or (code in (1, 3) and not err):
                faults.append((argv, code, err))
    finally:
        signal.signal(signal.SIGALRM, previous)
    return faults


def test_cli_fuzz_ends_every_case_in_an_exit_code(capsys, monkeypatch):
    # Every malformed input ends in exit 1 or 3 with a message, never in a
    # traceback or a hang.
    assert run_fuzz_cases(capsys, monkeypatch, seed=1) == []
