"""The package's exceptions, one class per CLI exit code, and the
frozen-record decorator.

Every error the library raises deliberately derives from ArithLGError,
and `cli.main` turns each subclass into one exit code:

- InputError, exit 2: the input is malformed or violates a precondition.
  ParseError is the InputError of the JSON reader; its message starts
  with the path of the offending key.
- VerificationError, exit 1: a verification that the caller requested
  did not pass.
- BudgetExceeded, exit 3: an enumeration or search would exceed the
  configured budget.

The message says which precondition or check failed; no subclass is
defined per cause, since nothing handles one cause differently.

`frozen` lives here because every module that defines a record already
imports this one.
"""

from __future__ import annotations

from operator import attrgetter


def frozen(cls):
    """Make cls an immutable record over its annotated fields.

    It does what `dataclasses.dataclass(frozen=True)` does for the
    package's records, without importing `dataclasses` (which loads
    `inspect`, and through it `ast` and `dis`) and without `exec`-ing
    generated code:

    - `__init__` takes the fields in annotation order, positionally or by
      keyword; a class-level value is the field's default.  It sets the
      attributes in field order, so `vars(record)` lists them in that
      order, then calls `__post_init__` when the class has one.
    - `__eq__` compares records of the same class by their field tuples,
      `__hash__` is the hash of the field tuple, and `__repr__` is
      `Name(field=value!r, ...)`, as a dataclass's is.
    - Assigning or deleting an attribute raises AttributeError.

    A method of these names written in the class body is kept.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    get = attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)
    post_init = getattr(cls, "__post_init__", None)

    def bind(args, kwargs):
        """The field values in field order, from any other call."""
        given = dict(zip(names, args))
        unexpected = [name for name in kwargs if name not in names or name in given]
        missing = [name for name in names
                   if name not in given and name not in kwargs and name not in defaults]
        if len(args) > len(names) or unexpected or missing:
            raise TypeError(f"{cls.__qualname__}() takes the fields {', '.join(names)}; "
                            f"got {len(args)} by position, unexpected or repeated "
                            f"{unexpected}, missing {missing}")
        values = {**defaults, **given, **kwargs}
        return [values[name] for name in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        # object.__setattr__ keeps the attributes in the instance's compact
        # storage, where reads are fast; writing __dict__ would not
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    return cls


class ArithLGError(Exception):
    """Base class for all library errors."""


class InputError(ArithLGError):
    """The input is malformed or violates a precondition."""


class VerificationError(ArithLGError):
    """A verification that the caller requested did not pass."""


class BudgetExceeded(ArithLGError):
    """An enumeration or search would exceed the configured budget.

    Carries the required count so callers can decide whether to retry
    with a larger budget: an int, or for a count too large to form its
    expression as a string (budget.check_power_room).
    """

    def __init__(self, message: str, required: int | str, budget: int):
        super().__init__(f"{message} (required {required}, budget {budget})")
        self.required = required
        self.budget = budget


class ParseError(InputError):
    """A JSON input is malformed; `path` locates the offending key."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path

