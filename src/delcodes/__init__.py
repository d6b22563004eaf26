"""Codes correcting deletable errors: bit flips, erasures and deletions.

The package provides the error model (patterns and corruption maps),
Varshamov–Tenengolts single-error codes, a repetition construction for
up to t errors and bursts, a concatenated VT construction for far-apart
patterns, exact counting and redundancy bounds, and verification tools
(combinatorial audits, exhaustive round trips, Monte Carlo simulation).
"""

from .words import ERASURE, Word, parse_word, word_to_str, weight
from .errors import BudgetExceeded, DecodeFailure, FormulaDomainError
from .patterns import (ErrorPattern, PatternFamily, apply_pattern,
                       enumerate_family, family_size, is_member,
                       sample_pattern)
from .vt import (VtParams, correct_deletion, correct_erasure, correct_single,
                 flip_candidates, vt_best_residue, vt_checksum,
                 vt_class_sizes, vt_contains, vt_enumerate)
from .rep import RepParams, burst_params, rep_decode, rep_encode
from .far import (FarParams, far_contains, far_decode, far_encode,
                  far_codeword, far_params)
from .analysis import (BOUND_EVALUATORS, BoundReport, count_burst_patterns,
                       count_far_patterns, count_patterns, delta,
                       far_fraction, redundancy, rep_bounds)
from .verify import (VerifyReport, make_code, simulate, verify_combinatorial,
                     verify_roundtrip)

__version__ = "0.1.0"
