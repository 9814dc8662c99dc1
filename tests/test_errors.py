"""The package defines one exception class per nonzero exit code, under
one base: the message, not a subclass, says which check failed."""

from __future__ import annotations

import importlib

from arith_lg.errors import (ArithLGError, BudgetExceeded, InputError, ParseError,
                             VerificationError)
from test_exports import MODULES


def test_exception_classes_are_one_per_exit_code():
    defined = set()
    for name in MODULES:
        module = importlib.import_module(name)
        defined |= {obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__.startswith("arith_lg")}
    assert defined == {ArithLGError, InputError, VerificationError, BudgetExceeded, ParseError}
    assert [cls.__base__ for cls in (InputError, VerificationError, BudgetExceeded, ParseError)] \
        == [ArithLGError, ArithLGError, ArithLGError, InputError]
