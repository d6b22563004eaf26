"""Codes correcting deletable errors: bit flips, erasures and deletions.

The package provides the error model (patterns and corruption maps),
Varshamov–Tenengolts single-error codes, a repetition construction for
up to t errors and bursts, a concatenated VT construction for far-apart
patterns, exact counting and redundancy bounds, and verification tools
(combinatorial audits, exhaustive round trips, Monte Carlo simulation).

The bound evaluators (`analysis`) and the repetition code (`rep`) load
when one of their names is first read, so a process that only builds,
corrupts and decodes VT or far codes never compiles them.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .words import ERASURE, Word, parse_word, word_to_str, weight
from .errors import BudgetExceeded, DecodeFailure, FormulaDomainError
from .patterns import (ErrorPattern, PatternFamily, apply_pattern,
                       enumerate_family, family_size, is_member,
                       sample_pattern)
from .vt import (VtParams, correct_deletion, correct_erasure, correct_single,
                 flip_candidates, vt_best_residue, vt_checksum,
                 vt_class_sizes, vt_contains, vt_enumerate)
from .far import (FarParams, far_contains, far_decode, far_encode,
                  far_codeword, far_params)
from .verify import (VerifyReport, make_code, simulate, verify_combinatorial,
                     verify_roundtrip)

# Each name bound on first use, with the submodule that defines it.
_LAZY = {
    **dict.fromkeys(("BOUND_EVALUATORS", "BoundReport", "count_burst_patterns",
                     "count_far_patterns", "count_patterns", "delta",
                     "far_fraction", "redundancy", "rep_bounds"), "analysis"),
    **dict.fromkeys(("RepParams", "burst_params", "rep_decode", "rep_encode"),
                    "rep"),
}

# Every public name, the ones bound on first use included; no submodule.
__all__ = sorted([*(name for name, value in globals().items()
                    if not name.startswith("_")
                    and not isinstance(value, _ModuleType)), *_LAZY])

__version__ = "0.1.0"


def __getattr__(name):
    """Load `analysis` or `rep` for one of its names, or for the submodule
    itself, and keep the value in the package, so the next read is a plain
    attribute read (PEP 562)."""
    module = _LAZY.get(name, name)
    if module not in _LAZY.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
