"""Command-line interface for batch experiments and report generation.

Exit status: 0 success/pass, 1 usage error, 2 verification fail,
3 budget exceeded.  JSON output is the stable machine format; the text
format is human-oriented.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import Optional

from . import analysis, verify, vt
from .errors import BudgetExceeded, DecodeFailure, exact_integers
from .patterns import ErrorPattern, PatternFamily, apply_pattern, sample_pattern
from .words import parse_codeword, parse_word, word_to_str

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAIL = 2
EXIT_BUDGET = 3

MAX_INLINE_WORD = 4096


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_text(arg: str) -> str:
    if arg.startswith("@"):
        with open(arg[1:], encoding="ascii") as fh:
            return fh.read().strip()
    if len(arg) > MAX_INLINE_WORD:
        raise UsageError(
            f"inline words are capped at {MAX_INLINE_WORD} symbols; "
            "use @path for longer input")
    return arg


def _parse_family(spec: str, n: int) -> PatternFamily:
    """Family spec: atmost:T | pfar:P[:T] | burst:B, optional @KINDS."""
    families = {"atmost": (PatternFamily.at_most, "atmost:T"),
                "pfar": (PatternFamily.p_far, "pfar:P[:T]"),
                "burst": (PatternFamily.burst, "burst:B")}
    kinds = "DEF"
    if "@" in spec:
        spec, kinds = spec.split("@", 1)
    name, *fields = spec.split(":")
    if name.lower() not in families:
        raise UsageError(f"unknown family kind {name.lower()!r}")
    make, form = families[name.lower()]
    try:
        if not 1 <= len(fields) <= form.count(":"):
            raise ValueError(f"the form is {form}")
        return make(n, *map(int, fields), kinds=kinds)
    except ValueError as exc:
        raise UsageError(f"bad family spec {spec!r}: {exc}") from exc


def _required_args(fn, args, what: str) -> dict:
    """Values of the flags named by fn's parameters; each must be given."""
    values = {}
    for name in inspect.signature(fn).parameters:
        value = getattr(args, name, None)
        if value is None:
            raise UsageError(f"--{name} is required for {what}")
        values[name] = value
    return values


def _code(args):
    """The adapter that --code and its parameter flags select, and those
    parameters."""
    params = _required_args(verify.CODES[args.code], args,
                            f"--code {args.code}")
    return verify.make_code(args.code, **params), params


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_vt_enum(args) -> int:
    codebook = vt.vt_enumerate(vt.VtParams(args.n, args.a))
    lines = [word_to_str(w) for w in codebook]
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        _emit(args, {"config": {"command": "vt-enum", "n": args.n, "a": args.a},
                     "size": len(codebook), "out": args.out},
              [f"wrote {len(codebook)} codewords to {args.out}"])
    else:
        for line in lines:
            print(line)
    return EXIT_OK


def _cmd_encode(args) -> int:
    if not hasattr(verify.CODES[args.code], "encode"):
        raise UsageError(f"encode does not support --code {args.code}")
    code, params = _code(args)
    codeword, fields = code.encode(_read_text(args.info))
    config = {"command": "encode", "code": args.code, **params, **fields}
    _emit(args, {"config": config, "codeword": word_to_str(codeword)},
          [word_to_str(codeword)])
    return EXIT_OK


def _cmd_decode(args) -> int:
    word = parse_word(_read_text(args.word))
    code, params = _code(args)
    estimate, diagnostics = code.decode_diagnostics(word)
    config = {"command": "decode", "code": args.code,
              "word": word_to_str(word), **params}
    _emit(args, {"config": config, "estimate": word_to_str(estimate),
                 "diagnostics": diagnostics},
          [word_to_str(estimate)])
    return EXIT_OK


def _cmd_corrupt(args) -> int:
    word = parse_codeword(_read_text(args.word))
    if args.pattern:
        pattern = ErrorPattern.from_json_dict(json.loads(args.pattern))
        config = {"command": "corrupt", "pattern": pattern.to_json_dict()}
    elif args.family:
        if args.seed is None:
            raise UsageError("--seed is required with --family")
        family = _parse_family(args.family, len(word))
        pattern = sample_pattern(family, args.seed)
        config = {"command": "corrupt", "family": family.describe(),
                  "seed": args.seed, "pattern": pattern.to_json_dict()}
    else:
        raise UsageError("corrupt needs --pattern or --family")
    corrupted = apply_pattern(word, pattern)
    _emit(args, {"config": config, "word": word_to_str(word),
                 "corrupted": word_to_str(corrupted)},
          [word_to_str(corrupted)])
    return EXIT_OK


def _cmd_count(args) -> int:
    if args.far is not None and args.burst is not None:
        raise UsageError("--far and --burst are mutually exclusive")
    if args.far is not None:
        if args.t is None:
            raise UsageError("--t is required with --far")
        value = analysis.count_far_patterns(args.n, args.far, args.t)
        config = {"command": "count", "n": args.n, "t": args.t, "far": args.far}
    elif args.burst is not None:
        if args.t is not None:
            raise UsageError("burst families take no t")
        value = analysis.count_burst_patterns(args.n, args.burst)
        config = {"command": "count", "n": args.n, "burst": args.burst}
    else:
        if args.t is None:
            raise UsageError("--t is required")
        value = analysis.count_patterns(args.n, args.t)
        config = {"command": "count", "n": args.n, "t": args.t}
    _emit(args, {"config": config, "count": value}, [value])
    return EXIT_OK


def _cmd_bounds(args) -> int:
    evaluator = analysis.BOUND_EVALUATORS.get(args.name)
    if evaluator is None:
        raise UsageError(f"unknown bound name {args.name!r}; choices: "
                         f"{', '.join(sorted(analysis.BOUND_EVALUATORS))}")
    report = evaluator(**_required_args(evaluator, args, f"bound {args.name}"))
    _emit(args, {"config": {"command": "bounds", "name": args.name,
                            "inputs": report.inputs},
                 "report": report.to_json_dict()},
          [f"{report.name}{report.inputs} = {report.value}  "
           f"[{report.applicability}]"])
    return EXIT_OK


def _cmd_fraction(args) -> int:
    fraction, bound = analysis.far_fraction(args.n, args.t, args.omega)
    payload = {
        "config": {"command": "fraction", "n": args.n, "t": args.t,
                   "omega": args.omega},
        "fraction": fraction,
        "bound": bound,
    }
    _emit(args, payload,
          [f"fraction = {fraction}", f"bound (1 - 42/omega) = {bound}"])
    return EXIT_OK


def _cmd_verify(args) -> int:
    code, _ = _code(args)
    family = _parse_family(args.family, args.n)
    if args.mode == "combinatorial":
        verify.check_verify_budget(code.codeword_count, family)
        codebook = list(code.codewords())
        report = verify.verify_combinatorial(codebook, family)
    elif args.mode == "roundtrip":
        report = verify.verify_roundtrip(code, family)
    else:
        raise UsageError("verify supports --mode combinatorial|roundtrip")
    payload = report.to_json_dict()
    payload["config"]["command"] = "verify"
    payload["config"]["mode"] = args.mode
    _emit(args, payload,
          [f"{args.mode} verification: {report.result} "
           f"({report.cases if report.cases is not None else report.family_size} "
           f"cases, {report.failures} failures, "
           f"{report.ambiguity_count} ambiguous)"])
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _cmd_simulate(args) -> int:
    code, _ = _code(args)
    family = _parse_family(args.family, args.n)
    report = verify.simulate(code, family, args.trials, args.seed)
    payload = report.to_json_dict()
    payload["config"]["command"] = "simulate"
    _emit(args, payload,
          [f"montecarlo: {report.result}, "
           f"{report.trial_count - report.failures}/{report.trial_count} "
           f"successes, seed {report.seed}"])
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def build_parser() -> _Parser:
    parser = _Parser(prog="delcodes",
                     description="codes correcting deletable errors")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    code_params = dict.fromkeys(
        name for adapter in verify.CODES.values()
        for name in inspect.signature(adapter).parameters)

    def add_code(name, func, **kwargs):
        p = add(name, func, **kwargs)
        p.add_argument("--code", required=True, choices=verify.CODES)
        for param in code_params:
            p.add_argument(f"--{param}", type=int)
        return p

    p = add("vt-enum", _cmd_vt_enum, help="enumerate a VT codebook")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--out", help="write codebook file (one word per line)")

    p = add_code("encode", _cmd_encode,
                 help="encode with a rep, burst or far code")
    p.add_argument("--info", required=True,
                   help="info word (rep, burst) or comma-separated indices "
                        "(far)")

    p = add_code("decode", _cmd_decode, help="decode a received word")
    p.add_argument("--word", required=True)

    p = add("corrupt", _cmd_corrupt, help="apply or sample an error pattern")
    p.add_argument("--word", required=True)
    p.add_argument("--pattern", help="pattern JSON")
    p.add_argument("--family", help="family spec, e.g. pfar:9 or atmost:2@D")
    p.add_argument("--seed", type=int)

    p = add("count", _cmd_count, help="exact pattern counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--far", type=int, metavar="P")
    p.add_argument("--burst", type=int, metavar="B")

    p = add("bounds", _cmd_bounds, help="evaluate a redundancy bound")
    p.add_argument("--name", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--P", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--omega", type=float)
    p.add_argument("--K", type=int)

    p = add("fraction", _cmd_fraction, help="fraction of far patterns")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--omega", type=int, required=True)

    for name, func in (("verify", _cmd_verify), ("simulate", _cmd_simulate)):
        p = add_code(name, func,
                     help=f"{name} a code against a pattern family")
        p.add_argument("--family", required=True)
        if name == "verify":
            p.add_argument("--mode", required=True)
        else:
            p.add_argument("--trials", type=int, required=True)
            p.add_argument("--seed", type=int, required=True)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with exact_integers():
            return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OverflowError, DecodeFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
