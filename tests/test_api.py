"""The public API of `delcodes` is the set of names the package exports.
A name added or removed here is a deliberate change, recorded in
CHANGES.md with the edit that makes it."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import delcodes

SRC = str(Path(delcodes.__file__).resolve().parents[1])

PUBLIC = [
    "BOUND_EVALUATORS", "BoundReport", "BudgetExceeded", "DecodeFailure",
    "ERASURE", "ErrorPattern", "FarParams", "FormulaDomainError",
    "PatternFamily", "RepParams", "VerifyReport", "VtParams", "Word",
    "apply_pattern", "burst_params", "correct_deletion", "correct_erasure",
    "correct_single", "count_burst_patterns", "count_far_patterns",
    "count_patterns", "delta", "enumerate_family", "family_size",
    "far_codeword", "far_contains", "far_decode", "far_encode",
    "far_fraction", "far_params", "flip_candidates", "is_member",
    "make_code", "parse_word", "redundancy", "rep_bounds", "rep_decode",
    "rep_encode", "sample_pattern", "simulate", "verify_combinatorial",
    "verify_roundtrip", "vt_best_residue", "vt_checksum", "vt_class_sizes",
    "vt_contains", "vt_enumerate", "weight", "word_to_str",
]


def test_public_names_are_pinned():
    # Submodules, imported as a side effect of the package's own imports,
    # are not part of the list.  dir(), not vars(): the names of analysis
    # and rep are bound on first use.
    exported = sorted(name for name in dir(delcodes)
                      if not name.startswith("_")
                      and not isinstance(getattr(delcodes, name),
                                         types.ModuleType))
    assert exported == PUBLIC
    assert sorted(delcodes.__all__) == PUBLIC


def test_each_public_name_is_its_module_s_object():
    # A name bound on first use is the same object its module defines, and
    # stays bound: the second read finds it in the package's namespace.
    modules = [importlib.import_module(f"delcodes.{name}") for name in (
        "words", "errors", "patterns", "vt", "rep", "far", "analysis",
        "verify")]
    for name in PUBLIC:
        value = getattr(delcodes, name)
        holders = [module for module in modules if hasattr(module, name)]
        assert holders, name
        assert all(getattr(module, name) is value for module in holders), name
        assert vars(delcodes)[name] is value, name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from delcodes import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_lazy_submodules_resolve_after_a_bare_import():
    # In a fresh interpreter, so that no earlier test has loaded them.
    code = ("import delcodes, sys; "
            "assert 'delcodes.analysis' not in sys.modules; "
            "assert 'delcodes.rep' not in sys.modules; "
            "print(delcodes.analysis.far_fraction(3024, 3, 24)[0]); "
            "print(delcodes.rep.rep_decode(delcodes.RepParams(3, 1), "
            "bytes([1, 0, 1]))[0] == bytes([1]))")
    result = subprocess.run([sys.executable, "-c", code],
                            env=dict(os.environ, PYTHONPATH=SRC),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    fraction, decoded = result.stdout.split()
    assert float(fraction) > 0 and decoded == "True"
