import inspect
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from delcodes import analysis, verify, vt
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


def test_vt_enum_to_file(capsys, tmp_path):
    path = tmp_path / "codebook.txt"
    code, obj, _ = run_json(capsys, "vt-enum", "--n", "4", "--a", "0",
                            "--out", str(path))
    assert code == 0 and obj["size"] == 4
    assert path.read_text().split() == ["0000", "0110", "1001", "1111"]


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


def test_corrupt_with_family_is_seeded(capsys):
    code1, out1, _ = run(capsys, "corrupt", "--word", "011011100100",
                         "--family", "pfar:9", "--seed", "5")
    code2, out2, _ = run(capsys, "corrupt", "--word", "011011100100",
                         "--family", "pfar:9", "--seed", "5")
    assert code1 == code2 == 0 and out1 == out2


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--n", "4", "--t", "2")
    assert code == 0 and out.strip() == "67"
    code, out, _ = run(capsys, "count", "--n", "12", "--t", "2", "--far", "9")
    assert code == 0 and out.strip() == "91"
    code, out, _ = run(capsys, "count", "--n", "9", "--burst", "1")
    assert code == 0 and out.strip() == "100"
    code, out, _ = run(capsys, "count", "--n", "5", "--t", "1", "--far", "1")
    assert code == 0 and out.strip() == "16"


def test_count_refuses_t_with_burst(capsys):
    # A burst family has no error count: --t was ignored, printing 1408.
    code, out, err = run(capsys, "count", "--n", "10", "--t", "2",
                         "--burst", "3")
    assert (code, out) == (1, "")
    assert err == "usage error: burst families take no t\n"


def test_count_prints_more_than_4300_digits(capsys):
    # 4^8000 has 4817 digits, past Python's default int-to-str limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, text, _ = run(capsys, "count", "--n", "8000", "--t", "8000")
    assert code == 0
    code, out, _ = run(capsys, "count", "--n", "8000", "--t", "8000",
                       "--format", "json")
    assert code == 0
    with exact_integers():
        assert text.strip() == str(4 ** 8000)
        assert json.loads(out)["count"] == 4 ** 8000
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


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


def test_far_code_over_budget_builds_no_table(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError(f"counting table built for n = {n}")

    monkeypatch.setattr(vt, "_suffix_rows", refuse)
    for argv in (("encode", "--info", "0,0"), ("decode", "--word", "0")):
        code, _, err = run(capsys, *argv, "--code", "far", "--n", "8000",
                           "--P", "2000")
        assert code == 3 and "the 2^2000 words of length 2000" in err


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
    ("fraction", "--n", HUGE, "--t", "3", "--omega", "6"),
], ids=lambda argv: argv[2] if argv[0] == "bounds" else argv[0])
def test_inputs_too_large_for_a_float_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error: ")


def test_fraction(capsys):
    code, obj, _ = run_json(capsys, "fraction", "--n", "10000", "--t", "2",
                            "--omega", "100")
    assert code == 0
    assert obj["fraction"] >= obj["bound"] >= 0.58


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


def test_verify_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("DELCODE_BUDGET", "10")
    code, _, err = run(capsys, "verify", "--mode", "roundtrip",
                       "--code", "vt", "--n", "4", "--a", "0",
                       "--family", "atmost:1")
    assert code == 3 and "budget" in err


@pytest.mark.parametrize("mode", ["roundtrip", "combinatorial"])
def test_vt_verify_over_budget_lists_no_codeword(capsys, monkeypatch, mode):
    # VT_0(24) has 671,092 codewords: listing them took seconds and
    # hundreds of MB before the refusal.
    def refuse(p):
        raise AssertionError(f"VT_{p.a}({p.n}) listed before the budget check")

    monkeypatch.setattr(vt, "vt_enumerate", refuse)
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


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize("family, message", [
    ("atmost:1:junk", "the form is atmost:T"),
    ("pfar:9:1:2:3", "the form is pfar:P[:T]"),
    ("burst:1:7", "the form is burst:B"),
    ("atmost", "the form is atmost:T"),
    ("pfar:9:-1", "need 0 <= t <= n"),
    ("pfar:9:-2", "need 0 <= t <= n"),
    ("pfar:9:13", "need 0 <= t <= n"),
])
@pytest.mark.parametrize("command", [
    ("verify", "--mode", "roundtrip"),
    ("simulate", "--trials", "50", "--seed", "1"),
])
def test_bad_family_spec_is_a_usage_error(capsys, family, message, command):
    code, out, err = run(capsys, *command, "--code", "far", "--n", "12",
                         "--P", "3", "--family", family)
    assert code == 1 and out == ""
    assert err == f"usage error: bad family spec {family!r}: {message}\n"

