"""The public API of `delcodes` is the set of names the package exports.
A name added or removed here is a deliberate change, recorded in
CHANGES.md with the edit that makes it."""

import types

import delcodes

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
    # are not part of the list.
    exported = sorted(name for name, value in vars(delcodes).items()
                      if not name.startswith("_")
                      and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC
