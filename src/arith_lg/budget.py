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


def charge(description: str, required: int) -> None:
    """Add `required` units of work to the current scope's running total."""
    check_room(description, required)
    ledger = _SCOPE.get()
    if ledger is not None:  # outside a scope each charge stands alone
        ledger.spent += required
