"""Per-command work scope: one enumeration budget.

Inside scope(budget) every charge adds to one running total
(torus points, search points, table and embedding elements) and raises
BudgetExceeded once it passes the limit (check_room refuses work the
same way before it starts, charging nothing); a nested scope is its own
ledger, and outside any scope each charge is checked alone.  The limit
resolves as: explicit argument, ARITH_LG_BUDGET, then 10**9 points.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from .errors import BudgetExceeded, InputError

DEFAULT_BUDGET = 10**9

_ENV_VAR = "ARITH_LG_BUDGET"

# check_power_room reports a count of at most this many bits in decimal
# (about 1,230 digits, under Python's 4,300-digit cap on int-to-str
# conversion) and a larger one as an expression
_EXACT_BITS = 4096


def resolve_budget(budget: int | None = None) -> int:
    if budget is not None:
        if budget <= 0:
            raise InputError("budget must be positive")
        return budget
    raw = os.environ.get(_ENV_VAR)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError as exc:
            raise InputError(f"{_ENV_VAR} must be an integer, got {raw!r}") from exc
        if value <= 0:
            raise InputError(f"{_ENV_VAR} must be positive, got {value}")
        return value
    return DEFAULT_BUDGET


class _Ledger:
    __slots__ = ("limit", "spent")

    def __init__(self, limit: int):
        self.limit, self.spent = limit, 0


_SCOPE: ContextVar[_Ledger | None] = ContextVar("arith_lg_scope", default=None)


@contextmanager
def scope(budget: int | None = None) -> Iterator[None]:
    """Run the body as one command: one budget for all its work."""
    token = _SCOPE.set(_Ledger(resolve_budget(budget)))
    try:
        yield
    finally:
        _SCOPE.reset(token)


def check_room(description: str, required: int) -> None:
    """Raise BudgetExceeded, as charge would, when `required` more units
    pass the current scope's limit; charges nothing."""
    ledger = _SCOPE.get() or _Ledger(resolve_budget())
    if ledger.spent + required > ledger.limit:
        raise BudgetExceeded(description, required=ledger.spent + required,
                             budget=ledger.limit)


def check_power_room(description: str, base: int, exponent: int) -> None:
    """check_room for base^exponent - 1 units, base >= 2, decided by size
    first.  A count of up to _EXACT_BITS bits is checked as check_room
    does.  A larger one is formed only when its least bit length,
    exponent * (bits(base) - 1), is within the limit's; when refused, its
    error's `required` is the string "base^exponent - 1" (after "spent + "
    when the scope has spent something)."""
    bits = base.bit_length()
    if exponent * bits <= _EXACT_BITS:
        check_room(description, base ** exponent - 1)
        return
    ledger = _SCOPE.get() or _Ledger(resolve_budget())
    if (exponent * (bits - 1) > ledger.limit.bit_length()
            or ledger.spent + base ** exponent - 1 > ledger.limit):
        spent = f"{ledger.spent} + " if ledger.spent else ""
        raise BudgetExceeded(description, required=f"{spent}{base}^{exponent} - 1",
                             budget=ledger.limit)


def charge(description: str, required: int) -> None:
    """Add `required` units of work to the current scope's running total."""
    check_room(description, required)
    ledger = _SCOPE.get()
    if ledger is not None:  # outside a scope each charge stands alone
        ledger.spent += required
