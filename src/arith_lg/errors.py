"""Shared exception taxonomy.

Every error the library raises deliberately derives from ArithLGError, so
callers (and the CLI) can distinguish "the input is bad" from "the
verification failed" from "this would exceed the configured budget".
"""

from __future__ import annotations


class ArithLGError(Exception):
    """Base class for all library errors."""


class InputError(ArithLGError):
    """The input is malformed or violates a precondition."""


class VerificationError(ArithLGError):
    """A verification that the caller requested did not pass."""


class BudgetExceeded(ArithLGError):
    """An enumeration or search would exceed the configured budget.

    Carries the required count so callers can decide whether to retry
    with a larger budget.
    """

    def __init__(self, message: str, required: int, budget: int):
        super().__init__(f"{message} (required {required}, budget {budget})")
        self.required = required
        self.budget = budget


class ParseError(InputError):
    """A JSON input is malformed; `path` locates the offending key."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.detail = message


# --- finite field / cyclotomic ---

class NotPrime(InputError):
    pass


class DegreeZero(InputError):
    pass


class IncompatibleCharacteristic(InputError):
    pass


class NotAnExtension(InputError):
    pass


class BadIndex(InputError):
    pass


class LengthTooShort(InputError):
    pass


class Unstable(VerificationError):
    """A sequence was too short to pin down a rational function."""


# --- polytope ---

class DimensionUnsupported(InputError):
    pass


class DegeneratePolytope(InputError):
    """The Newton polyhedron is not full-dimensional; dependent
    quantities (volume, faces, facets) are undefined."""


class FaceMismatch(InputError):
    pass


# --- Laurent / exponential sums ---

class ZeroCoordinate(InputError):
    pass


class TableMismatch(InputError):
    pass


class ZeroTau(InputError):
    pass


# --- Frobenius data ---

class NotNilpotent(InputError):
    pass


# --- connection calculus ---

class NotMeromorphicAlongT(InputError):
    """An entry's denominator is not a power of t times a t-free
    polynomial, so pole order along t = 0 is not defined here."""


class SingularMetric(InputError):
    pass
