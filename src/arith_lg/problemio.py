"""JSON input plumbing for the command line tools.

Exact data (field elements, coefficients, anything that could overflow
or lose precision) travels as decimal strings so a file means the same
thing on every platform.  On input, structural integers - variable
counts, exponent vectors, polynomial degrees, matrix sizes - are plain
JSON integers.  On output every integer is a decimal string, structural
ones included, except the exponents in a polynomial term's "deg" map.
Parsing is strict: unknown keys are rejected, and every error names the
path of the offending value.  Exact strings are read with character
tests, so no regular expression is compiled at import (the grammar is
in docs/formats.md, "Value conventions").  A decimal polynomial
coefficient is read as an int, and a term list of ints is summed
straight into an MPoly's stored form; a polynomial's terms build their
paths only for an error.  A rational string "a/b" is read as a
Fraction, and a zero denominator is a parse error.  The command-line
elements of --tau and --x follow the same decimal grammar.  The records
of connalg are imported by the two parsers that build them, once per
file, so reading a problem file or a nilpotent matrix never loads it.

The serializers at the bottom are the single place library values turn
into JSON-compatible structures.  jsonable runs once per document: on
each CLI report just before rendering, and on each payload the
acceptance suite's determinism criterion compares, so both see the
same encoding.  Callers hand it plain library values.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .budget import scope
from .cyclotomic import CycloNum, CycloPoly
from .errors import InputError, ParseError, frozen
from .ffield import FieldSpec, FqElem, extension_field, field_from_modulus, make_field
from .laurent import Deformation, LaurentPoly
from .mpoly import MPoly, RatFunc, _one, _poly, _ratfunc

if TYPE_CHECKING:
    from .connalg import FTSTuple, MatForm

__all__ = [
    "ProblemFile",
    "load_json_file",
    "parse_problem",
    "parse_connection",
    "parse_fts_tuple",
    "parse_nilpotent_matrix",
    "parse_element_arg",
    "parse_point_arg",
    "jsonable",
]

# the most parameters x1..xm a connection or structure tuple file may have
_MAX_M = 32


def _check_keys(obj, path: str, required: Sequence[str], optional: Sequence[str] = ()):
    if not isinstance(obj, dict):
        raise ParseError(path, f"expected an object, got {type(obj).__name__}")
    for key in required:
        if key not in obj:
            raise ParseError(path, f"missing required key {key!r}")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ParseError(f"{path}.{key}", "unknown key")


def _is_digits(s: str) -> bool:
    """A nonempty run of ASCII digits (isdigit alone takes "²" and "٣")."""
    return s.isdigit() and s.isascii()


def _is_decimal(s: str) -> bool:
    """At most one leading "-", then ASCII digits: no "+", space or "_"."""
    return _is_digits(s[1:] if s[:1] == "-" else s)


def _decimal(v, path: str) -> int:
    if not (isinstance(v, str) and _is_decimal(v)):
        raise ParseError(path, f"expected a decimal string, got {v!r}")
    return int(v)


def _fraction(v, path: str) -> Fraction:
    """A decimal, or a decimal over an unsigned one: "3/2", "-4/8"."""
    if isinstance(v, str):
        num, slash, den = v.partition("/")
        if _is_decimal(num) and (not slash or _is_digits(den)):
            if slash and not int(den):
                raise ParseError(path, f"zero denominator in {v!r}")
            return Fraction(int(num), int(den) if slash else 1)
    raise ParseError(path, f'expected a rational string like "3/2", got {v!r}')


def _plain_int(v, path: str, minimum: int | None = None,
               maximum: int | None = None) -> int:
    # structural sizes only; bool is an int in Python, keep it out
    if not isinstance(v, int) or isinstance(v, bool):
        raise ParseError(path, f"expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ParseError(path, f"expected an integer >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ParseError(path, f"expected an integer <= {maximum}, got {v}")
    return v


def _exponent_vector(v, n: int, path: str) -> tuple[int, ...]:
    if not isinstance(v, list) or len(v) != n:
        raise ParseError(path, f"expected a list of {n} integers")
    return tuple(_plain_int(e, f"{path}[{i}]") for i, e in enumerate(v))


def parse_field(obj, path: str = "field") -> FieldSpec:
    """{"p": "5", "m": 2, "modulus": ["2","0","1"]}; modulus optional.

    Without a modulus the field is the degree-m extension of F_p, refused
    before its modulus search when its units pass the current budget."""
    _check_keys(obj, path, ["p"], ["m", "modulus"])
    p = _decimal(obj["p"], f"{path}.p")
    m = _plain_int(obj.get("m", 1), f"{path}.m", minimum=1)
    try:
        if "modulus" in obj:
            coeffs = obj["modulus"]
            if not isinstance(coeffs, list):
                raise ParseError(f"{path}.modulus", "expected a list of decimal strings")
            mod = [_decimal(c, f"{path}.modulus[{i}]") for i, c in enumerate(coeffs)]
            if len(mod) != m + 1:
                raise ParseError(f"{path}.modulus",
                                 f"degree {m} field needs {m + 1} coefficients")
            return field_from_modulus(p, mod)
        return extension_field(make_field(p, 1), m)
    except ParseError:
        raise
    except InputError as exc:
        raise ParseError(path, str(exc)) from exc


def _parse_element(v, field: FieldSpec, path: str) -> FqElem:
    if isinstance(v, str):
        return field.from_int(_decimal(v, path))
    if isinstance(v, list):
        if len(v) != field.m:
            raise ParseError(path, f"expected {field.m} coordinates, got {len(v)}")
        return field.element([_decimal(c, f"{path}[{i}]") for i, c in enumerate(v)])
    raise ParseError(path, "expected a decimal string or a coordinate list")


def _parse_terms(v, n: int, field: FieldSpec, path: str) -> LaurentPoly:
    if not isinstance(v, list):
        raise ParseError(path, "expected a list of terms")
    terms = []
    for i, term in enumerate(v):
        tp = f"{path}[{i}]"
        _check_keys(term, tp, ["c", "w"])
        c = _parse_element(term["c"], field, f"{tp}.c")
        w = _exponent_vector(term["w"], n, f"{tp}.w")
        terms.append((w, c))
    return LaurentPoly(n, terms, field=field)


@frozen
class ProblemFile:
    """A parsed family: its deformation, the command's budget (the
    command line's, else the file's, else None) and the file's
    tolerance."""

    deformation: Deformation
    budget: int | None
    tolerance: float | None

    @property
    def field(self) -> FieldSpec:
        return self.deformation.base.field

    @property
    def m(self) -> int:
        return self.deformation.m


def parse_problem(obj, path: str = "$", budget: int | None = None) -> ProblemFile:
    """The family in obj, with the command's budget: `budget` (the command
    line's), else the file's.  The base field is parsed under it, else
    under ARITH_LG_BUDGET or the default."""
    _check_keys(obj, path, ["field", "n", "f"],
                ["deformations", "kind", "budget", "tolerance"])
    if "budget" in obj:
        file_budget = _decimal(obj["budget"], f"{path}.budget")
        if file_budget <= 0:
            raise ParseError(f"{path}.budget", "budget must be positive")
        if budget is None:
            budget = file_budget
    with scope(budget):
        field = parse_field(obj["field"], f"{path}.field")
    n = _plain_int(obj["n"], f"{path}.n", minimum=1)
    f = _parse_terms(obj["f"], n, field, f"{path}.f")
    directions = []
    raw = obj.get("deformations", [])
    if not isinstance(raw, list):
        raise ParseError(f"{path}.deformations", "expected a list of term lists")
    for i, terms in enumerate(raw):
        directions.append(_parse_terms(terms, n, field, f"{path}.deformations[{i}]"))
    kind = obj.get("kind", "subdiagram")
    if kind not in ("subdiagram", "newton_preserving"):
        raise ParseError(f"{path}.kind", f"unknown deformation kind {kind!r}")
    try:
        D = Deformation(f, directions, kind=kind)
    except InputError as exc:
        raise ParseError(path, str(exc)) from exc
    tolerance = None
    if "tolerance" in obj:
        t = obj["tolerance"]
        if not isinstance(t, str):
            raise ParseError(f"{path}.tolerance", "expected a numeric string")
        try:
            tolerance = float(t)
        except ValueError:
            raise ParseError(f"{path}.tolerance", f"not a number: {t!r}") from None
        if not 0 < tolerance < float("inf"):  # nan fails both comparisons
            raise ParseError(f"{path}.tolerance", "tolerance must be positive and finite")
    return ProblemFile(D, budget, tolerance)


# --- symbolic side: polynomials in t, x1..xm ----------------------------

_TERM_KEYS = frozenset(("c", "deg"))


def _var_index(name: str) -> int | None:
    """0 for "t", i for "x<i>" with i written without a leading zero,
    else None."""
    if name == "t":
        return 0
    digits = name[1:]
    if name[:1] == "x" and _is_digits(digits) and digits[0] != "0":
        return int(digits)
    return None


@lru_cache(maxsize=None)
def _var_names(m: int) -> dict[str, int]:
    """The variable names of t, x1..xm, by index."""
    return {"t": 0, **{f"x{i}": i for i in range(1, m + 1)}}


def _parse_mpoly(v, m: int, path: str) -> MPoly:
    """Term list [{"c":"3/2","deg":{"t":1,"x1":2}}] in variables t, x1..xm.

    Integer terms are summed straight into the stored exponent -> int
    map, which over the denominator 1 is canonical once zeros are
    dropped; only a Fraction coefficient sends the sums through the
    validating MPoly constructor."""
    if not isinstance(v, list):
        raise ParseError(path, "expected a list of terms")
    nvars = m + 1
    names = _var_names(m)
    coeffs: dict = {}
    integral = True
    for i, term in enumerate(v):
        if not (type(term) is dict and "c" in term and term.keys() <= _TERM_KEYS):
            _check_keys(term, f"{path}[{i}]", ["c"], ["deg"])
        c = term["c"]
        if type(c) is str and _is_decimal(c):
            c = int(c)
        else:
            c = _fraction(c, f"{path}[{i}].c")
            integral = False
        exps = [0] * nvars
        deg = term.get("deg", {})
        if not isinstance(deg, dict):
            raise ParseError(f"{path}[{i}].deg", "expected an object of variable degrees")
        for name, d in deg.items():
            idx = names.get(name)
            if idx is None:
                raise ParseError(f"{path}[{i}].deg.{name}",
                                 "unknown variable" if _var_index(name) is None
                                 else f"variable out of range for m = {m}")
            if type(d) is not int or d < 0:
                _plain_int(d, f"{path}[{i}].deg.{name}", minimum=0)
            exps[idx] = d
        e = tuple(exps)
        c += coeffs.get(e, 0)
        if c:
            coeffs[e] = c
        else:
            coeffs.pop(e, None)
    return _poly(nvars, coeffs) if integral else MPoly(nvars, coeffs)


def _parse_ratfunc(v, m: int, path: str) -> RatFunc:
    if isinstance(v, dict):
        _check_keys(v, path, ["num"], ["den"])
        num = _parse_mpoly(v["num"], m, f"{path}.num")
        if "den" in v:
            den = _parse_mpoly(v["den"], m, f"{path}.den")
            if den.is_zero:
                raise ParseError(f"{path}.den", "denominator is zero")
            return RatFunc(num, den)
    elif isinstance(v, list):
        num = _parse_mpoly(v, m, path)
    else:
        raise ParseError(path, "expected a term list or {num, den}")
    return _ratfunc(num, _one(m + 1))  # over the constant 1 it is normalized


def _parse_matrix(v, m: int, size: int, path: str):
    if not isinstance(v, list) or len(v) != size:
        raise ParseError(path, f"expected {size} rows")
    rows = []
    for i, row in enumerate(v):
        if not isinstance(row, list) or len(row) != size:
            raise ParseError(f"{path}[{i}]", f"expected {size} entries")
        rows.append(tuple(_parse_ratfunc(e, m, f"{path}[{i}][{j}]")
                          for j, e in enumerate(row)))
    return tuple(rows)


def parse_connection(obj, path: str = "$") -> MatForm:
    """{"m": 1, "size": 2, "dt": [[...]], "dx": [[[...]]]} -> degree-1 form."""
    from .connalg import MatForm
    _check_keys(obj, path, ["m", "size"], ["dt", "dx"])
    m = _plain_int(obj["m"], f"{path}.m", minimum=1, maximum=_MAX_M)
    size = _plain_int(obj["size"], f"{path}.size", minimum=1)
    mats = obj.get("dx", [])
    if "dx" in obj and (not isinstance(mats, list) or len(mats) != m):
        raise ParseError(f"{path}.dx", f"expected {m} matrices")
    comps = {}
    if "dt" in obj:
        comps[(0,)] = _parse_matrix(obj["dt"], m, size, f"{path}.dt")
    for i, mat in enumerate(mats):
        comps[(i + 1,)] = _parse_matrix(mat, m, size, f"{path}.dx[{i}]")
    return MatForm(size=size, nvars=m + 1, degree=1, comps=comps)


def parse_fts_tuple(obj, path: str = "$") -> FTSTuple:
    """Mirror of the FTSTuple constructor; entries must not involve t."""
    from .connalg import FTSTuple
    _check_keys(obj, path, ["size", "m", "A", "phi", "r0", "rinf"], ["g"])
    size = _plain_int(obj["size"], f"{path}.size", minimum=1)
    m = _plain_int(obj["m"], f"{path}.m", minimum=1, maximum=_MAX_M)

    def matrices(key):
        v = obj[key]
        if not isinstance(v, list) or len(v) != m:
            raise ParseError(f"{path}.{key}", f"expected {m} matrices")
        return [_parse_matrix(mat, m, size, f"{path}.{key}[{i}]")
                for i, mat in enumerate(v)]

    A = matrices("A")
    phi = matrices("phi")
    r0 = _parse_matrix(obj["r0"], m, size, f"{path}.r0")
    rinf = _parse_matrix(obj["rinf"], m, size, f"{path}.rinf")
    g = None
    if "g" in obj:
        g = _parse_matrix(obj["g"], m, size, f"{path}.g")
    try:
        return FTSTuple(size, m, A=A, phi=phi, r0=r0, rinf=rinf, g=g)
    except InputError as exc:
        raise ParseError(path, str(exc)) from exc


def parse_nilpotent_matrix(obj, path: str = "$"):
    """{"matrix": [["0","1"],["0","0"]]} with rational-string entries."""
    _check_keys(obj, path, ["matrix"])
    v = obj["matrix"]
    if not isinstance(v, list) or not v:
        raise ParseError(f"{path}.matrix", "expected a non-empty list of rows")
    d = len(v)
    rows = []
    for i, row in enumerate(v):
        if not isinstance(row, list) or len(row) != d:
            raise ParseError(f"{path}.matrix[{i}]", f"expected {d} entries")
        rows.append(tuple(_fraction(e, f"{path}.matrix[{i}][{j}]")
                          for j, e in enumerate(row)))
    return tuple(rows)


def load_json_file(filename: str):
    try:
        with open(filename, "rb") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(filename, exc.strerror or str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{filename}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(filename, f"not {exc.encoding} text: {exc.reason} at byte {exc.start}") from None
    except RecursionError:
        raise ParseError(filename, "JSON nested too deeply") from None


# --- command-line element syntax -----------------------------------------

def parse_element_arg(s: str, field: FieldSpec, what: str = "element") -> FqElem:
    """ "3" -> from_int(3); "1:2" -> coordinates in the power basis.  Each
    coordinate is a decimal string of the file grammar."""
    parts = s.split(":")
    if not all(_is_decimal(p) for p in parts):
        raise ParseError(what, f"not an element: {s!r}")
    coords = [int(p) for p in parts]
    if len(coords) == 1:
        return field.from_int(coords[0])
    if len(coords) != field.m:
        raise ParseError(what, f"expected {field.m} coordinates, got {len(coords)}")
    return field.element(coords)


def parse_point_arg(s: str, field: FieldSpec, count: int, what: str = "x"):
    """Comma-separated elements: "0,2" or "" for the empty point."""
    if s == "":
        parts = []
    else:
        parts = s.split(",")
    if len(parts) != count:
        raise ParseError(what, f"expected {count} coordinates, got {len(parts)}")
    return tuple(parse_element_arg(p, field, f"{what}[{i}]")
                 for i, p in enumerate(parts))


# --- serialization --------------------------------------------------------

def jsonable(value):
    """Library values -> JSON-compatible structures, exact data as strings."""
    if value is None or isinstance(value, (bool, float)):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, FqElem):
        if value.field.is_prime_field:
            return str(value.coords[0])
        return [str(c) for c in value.coords]
    if isinstance(value, CycloNum):
        return {"p": str(value.p), "coords": [str(c) for c in value.coords]}
    if isinstance(value, CycloPoly):
        return {"p": str(value.p),
                "coeffs": [jsonable(c) for c in value.coeffs]}
    if isinstance(value, MPoly):
        return _mpoly_terms(value)
    if isinstance(value, RatFunc):
        if value.den == MPoly.const(value.nvars, 1):
            return _mpoly_terms(value.num)
        return {"num": _mpoly_terms(value.num), "den": _mpoly_terms(value.den)}
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise InputError(f"cannot serialize {type(value).__name__}")


def _var_name(i: int) -> str:
    return "t" if i == 0 else f"x{i}"


def _mpoly_terms(p: MPoly):
    out = []
    terms = p.terms  # a view built per access
    for exps in sorted(terms):
        c = terms[exps]
        deg = {_var_name(i): e for i, e in enumerate(exps) if e}
        term = {"c": str(c)}
        if deg:
            term["deg"] = deg
        out.append(term)
    return out
