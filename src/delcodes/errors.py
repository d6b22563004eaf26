"""Exception types, the enumeration budget and the codeword index check
shared across the library."""

import os
import sys
from contextlib import contextmanager
from typing import Callable

DEFAULT_BUDGET = 2 ** 24


class DecodeFailure(Exception):
    """Decoder could not produce a valid estimate (out-of-model input)."""

    def __init__(self, message, diagnostic=None):
        super().__init__(message)
        self.diagnostic = diagnostic or {}


class BudgetExceeded(Exception):
    """An enumeration or verification exceeded the budget."""


@contextmanager
def exact_integers():
    """Lift Python's limit on converting long integers to text (3.11+),
    which exact counts, codebook sizes and the budget messages naming them
    run past, for the duration."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def check_budget(items: int, what: Callable[[], str]) -> None:
    """Refuse a walk over more items than DELCODE_BUDGET, a count in
    decimal digits, or 2^24 when it is unset.  `what()` names the items in
    the message; it runs only on refusal, with the digit limit lifted,
    because the sizes it names can have more than 4300 digits."""
    value = os.environ.get("DELCODE_BUDGET") or str(DEFAULT_BUDGET)
    if not value.strip().isdecimal():
        raise ValueError("DELCODE_BUDGET must be a non-negative integer, "
                         f"got {value!r}")
    budget = int(value)
    if items > budget:
        with exact_integers():
            message = f"{what()} exceed the budget of {budget}"
        raise BudgetExceeded(message)


def check_index(index: int, count: int) -> None:
    """Refuse a codeword index outside 0..count-1, with no wrap-around."""
    if not 0 <= index < count:
        raise ValueError("index out of range")


class FormulaDomainError(ValueError):
    """A bound formula was evaluated outside its domain."""
