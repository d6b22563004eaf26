"""Exception types and the enumeration budget shared across the library."""

import os

DEFAULT_BUDGET = 2 ** 24


class DecodeFailure(Exception):
    """Decoder could not produce a valid estimate (out-of-model input)."""

    def __init__(self, message, diagnostic=None):
        super().__init__(message)
        self.diagnostic = diagnostic or {}


class BudgetExceeded(Exception):
    """An enumeration or verification exceeded the budget."""


def check_budget(items: int, what: str) -> None:
    """Refuse a walk over more items than DELCODE_BUDGET, or 2^24 when it
    is unset; `what` names the items in the message."""
    value = os.environ.get("DELCODE_BUDGET")
    budget = int(value) if value else DEFAULT_BUDGET
    if items > budget:
        raise BudgetExceeded(f"{what} exceed the budget of {budget}")


class FormulaDomainError(ValueError):
    """A bound formula was evaluated outside its domain."""
