"""Command-line interface for batch experiments and report generation.

Exit status: 0 success/pass, 1 usage error, 2 the printed report's
result is fail (verify, simulate), 3 budget exceeded or out of memory.
JSON output is the stable machine format, and its config names the
command and, for a command that builds a code, the code as typed; the
text format is human-oriented.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import Optional, Tuple

from . import analysis, verify
from .errors import BudgetExceeded, DecodeFailure, exact_integers
from .patterns import (KINDS, ErrorPattern, PatternFamily, apply_pattern,
                       family_size, sample_pattern)
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
    body, kinds = spec, KINDS
    if "@" in spec:
        body, kinds = spec.split("@", 1)
    name, *fields = body.split(":")
    if name not in families:
        raise UsageError(f"unknown family kind {name!r}")
    make, form = families[name]
    try:
        if not 1 <= len(fields) <= form.count(":"):
            raise ValueError(f"the form is {form}")
        return make(n, *map(int, fields), kinds=kinds)
    except ValueError as exc:
        raise UsageError(f"bad family spec {spec!r}: {exc}") from exc


def _params(registry: dict) -> dict:
    """The parameter names of a registry's members, in first-seen order."""
    return dict.fromkeys(name for fn in registry.values()
                         for name in inspect.signature(fn).parameters)


def _required_args(registry: dict, key: str, args, what: str) -> dict:
    """Values of the flags named by registry[key]'s parameters; each must
    be given, and no flag that only other members take may be."""
    takes = inspect.signature(registry[key]).parameters
    values = {}
    for name in takes:
        value = getattr(args, name, None)
        if value is None:
            raise UsageError(f"--{name} is required for {what}")
        values[name] = value
    for name in _params(registry):
        if name not in takes and getattr(args, name, None) is not None:
            raise UsageError(f"--{name} is not a parameter of {what}")
    return values


def _code(args):
    """The adapter that --code and its parameter flags select."""
    return verify.make_code(args.code, **_required_args(
        verify.CODES, args.code, args, f"--code {args.code}"))


def _cmd_vt_enum(args) -> Tuple[dict, list]:
    code = verify.make_code("vt", n=args.n, a=args.a)
    lines = [word_to_str(w) for w in code.codewords()]
    return ({"config": code.describe(), "size": len(lines),
             "codewords": lines}, lines)


def _cmd_encode(args) -> Tuple[dict, list]:
    if not hasattr(verify.CODES[args.code], "encode"):
        raise UsageError(f"encode does not support --code {args.code}")
    code = _code(args)
    codeword, fields = code.encode(_read_text(args.info))
    return ({"config": {**code.describe(), **fields},
             "codeword": word_to_str(codeword)}, [word_to_str(codeword)])


def _cmd_decode(args) -> Tuple[dict, list]:
    word = parse_word(_read_text(args.word))
    code = _code(args)
    estimate, diagnostics = code.decode_diagnostics(word)
    config = {**code.describe(), "word": word_to_str(word)}
    return ({"config": config, "estimate": word_to_str(estimate),
             "diagnostics": diagnostics}, [word_to_str(estimate)])


def _cmd_corrupt(args) -> Tuple[dict, list]:
    word = parse_codeword(_read_text(args.word))
    if args.pattern is not None:
        if args.seed is not None:
            raise UsageError("--seed is not a parameter of --pattern")
        pattern = ErrorPattern.from_json_dict(json.loads(args.pattern))
        config = {"pattern": pattern.to_json_dict()}
    else:
        if args.seed is None:
            raise UsageError("--seed is required with --family")
        family = _parse_family(args.family, len(word))
        pattern = sample_pattern(family, args.seed)
        config = {"family": family.describe(),
                  "seed": args.seed, "pattern": pattern.to_json_dict()}
    corrupted = apply_pattern(word, pattern)
    return ({"config": config, "word": word_to_str(word),
             "corrupted": word_to_str(corrupted)}, [word_to_str(corrupted)])


def _cmd_count(args) -> Tuple[dict, list]:
    family = _parse_family(args.family, args.n)
    value = family_size(family)
    return {"config": {"family": family.describe()}, "count": value}, [value]


def _cmd_bounds(args) -> Tuple[dict, list]:
    bounds = analysis.BOUND_EVALUATORS
    report = bounds[args.name](**_required_args(bounds, args.name, args,
                                                f"bound {args.name}"))
    return ({"config": {"name": args.name, "inputs": report.inputs},
             "report": report.to_json_dict()},
            [f"{report.name}{report.inputs} = {report.value}  "
             f"[{report.applicability}]"])


def _cmd_fraction(args) -> Tuple[dict, list]:
    fraction, bound = analysis.far_fraction(args.n, args.t, args.omega)
    payload = {
        "config": {"n": args.n, "t": args.t, "omega": args.omega},
        "fraction": fraction,
        "bound": bound,
    }
    return payload, [f"fraction = {fraction}",
                     f"bound (1 - 42/omega) = {bound}"]


def _cmd_verify(args) -> Tuple[dict, list]:
    code = _code(args)
    family = _parse_family(args.family, args.n)
    if args.mode == "combinatorial":
        verify.check_verify_budget(code.codeword_count, family)
        report = verify.verify_combinatorial(list(code.codewords()), family)
    else:
        report = verify.verify_roundtrip(code, family)
    payload = report.to_json_dict()
    payload["config"].update(code.describe(), mode=args.mode)
    return payload, [f"{args.mode} verification: {report.result} "
                     f"({report.codebook_size * report.family_size} cases, "
                     f"{report.failures} failures, "
                     f"{report.ambiguity_count} ambiguous)"]


def _cmd_simulate(args) -> Tuple[dict, list]:
    code = _code(args)
    family = _parse_family(args.family, args.n)
    report = verify.simulate(code, family, args.trials, args.seed)
    return report.to_json_dict(), [
        f"montecarlo: {report.result}, "
        f"{report.trial_count - report.failures}/{report.trial_count} "
        f"successes, seed {report.seed}"]


def build_parser() -> _Parser:
    parser = _Parser(prog="delcodes",
                     description="codes correcting deletable errors")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    def add_code(name, func, **kwargs):
        p = add(name, func, **kwargs)
        p.add_argument("--code", required=True, choices=verify.CODES)
        for param in _params(verify.CODES):
            p.add_argument(f"--{param}", type=int)
        return p

    p = add("vt-enum", _cmd_vt_enum, help="enumerate a VT codebook")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)

    p = add_code("encode", _cmd_encode,
                 help="encode with a rep, burst or far code")
    p.add_argument("--info", required=True,
                   help="info word (rep, burst) or comma-separated indices "
                        "(far)")

    p = add_code("decode", _cmd_decode, help="decode a received word")
    p.add_argument("--word", required=True)

    p = add("corrupt", _cmd_corrupt, help="apply or sample an error pattern")
    p.add_argument("--word", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--pattern", help="pattern JSON")
    source.add_argument("--family",
                        help="family spec, e.g. pfar:9 or atmost:2@D")
    p.add_argument("--seed", type=int)

    p = add("count", _cmd_count, help="exact pattern counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", required=True)

    p = add("bounds", _cmd_bounds, help="evaluate a redundancy bound")
    p.add_argument("--name", required=True, choices=analysis.BOUND_EVALUATORS)
    for param in _params(analysis.BOUND_EVALUATORS):
        p.add_argument(f"--{param}", type=float if param == "omega" else int)

    p = add("fraction", _cmd_fraction, help="fraction of far patterns")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--omega", type=int, required=True)

    for name, func in (("verify", _cmd_verify), ("simulate", _cmd_simulate)):
        p = add_code(name, func,
                     help=f"{name} a code against a pattern family")
        p.add_argument("--family", required=True)
        if name == "verify":
            p.add_argument("--mode", required=True,
                           choices=("combinatorial", "roundtrip"))
        else:
            p.add_argument("--trials", type=int, required=True)
            p.add_argument("--seed", type=int, required=True)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with exact_integers():
            payload, text_lines = args.func(args)
            payload["config"]["command"] = args.command
            if args.format == "json":
                print(json.dumps(payload, sort_keys=True))
            else:
                for line in text_lines:
                    print(line)
        return EXIT_VERIFY_FAIL if payload.get("result") == "fail" else EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OverflowError, DecodeFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("out of memory: the command needs more memory than this "
              "process may use", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
