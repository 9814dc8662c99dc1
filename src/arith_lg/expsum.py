"""Exponential sums over torus points of finite field extensions.

Sums run on the torus kernel of the field's discrete-log table
(ffield.discrete_table, an ffarray.DiscreteTable), which evaluates the
summand in discrete logs of the canonical generator on numpy chunks of
the enumeration order: each term's log is lg + <w, e> mod q^k - 1, and Zech
logarithms fold the terms into the log of the point value.  Character
values are then bucketed by trace with one bincount per chunk, so a
whole sum is a vector of p integer counts until the very end, when it
becomes one exact element of Q(zeta_p).  The tau-sum cross-check of
tau_summed_trace is one such sum, with tau as an extra first coordinate.

Each sum charges its torus points to the current budget scope and
splits the enumeration into the scope's partition count of disjoint
windows (budget.windows).  Sums are plain reductions over those windows,
so any partition count gives identical results, exactly.
"""

from __future__ import annotations

from typing import Sequence

from .budget import charge, windows
from .cyclotomic import CycloNum
from .errors import BadIndex, InputError, VerificationError, ZeroTau
from .ffield import FieldSpec, FqElem, discrete_table, embed, extension_field
from .laurent import Deformation, LaurentPoly, MonomialTable

__all__ = [
    "extension_field",
    "lift_into",
    "family_sum",
    "gkz_sum",
    "zero_count",
    "tau_summed_trace",
    "DOUBLE_ENUM_CAP",
]

DOUBLE_ENUM_CAP = 10 ** 7


def lift_into(value, ext: FieldSpec) -> FqElem:
    if isinstance(value, FqElem):
        return value if value.field == ext else embed(value, ext)
    if isinstance(value, int):
        return ext.from_int(value)
    raise InputError(f"cannot interpret {value!r} in {ext!r}")


def _torus_reduce(poly: LaurentPoly) -> tuple[list[int], int]:
    """Counts of psi-trace values of poly over (F_q^*)^n, plus the number
    of torus zeros of poly, via the scope's disjoint enumeration windows."""
    field = poly.field
    if field is None:
        raise InputError("exponential sums need finite-field coefficients")
    npoints = (field.q - 1) ** poly.n
    charge("torus sum", npoints)
    table = discrete_table(field)
    logs = [table.log(c) for c in poly.terms.values()]
    weights = list(poly.terms)
    total = [0] * field.p
    zeros = 0
    for lo, hi in windows(npoints):
        counts, z = table.window_counts(poly.n, logs, weights, lo, hi)
        total = [a + b for a, b in zip(total, counts)]
        zeros += z
    return total, zeros


def _check_psi_power(psi_power: int, p: int) -> None:
    """Refuse a character power that is not a unit mod p, before any work."""
    if psi_power % p == 0:
        raise BadIndex("character power must be a unit mod p")


def _counts_to_cyclo(counts: list[int], p: int, psi_power: int) -> CycloNum:
    acc = [0] * p
    for v, c in enumerate(counts):
        if c:
            acc[(psi_power * v) % p] += c
    return CycloNum.from_zeta_powers(p, acc)


def _specialized(D: Deformation, ext: FieldSpec, tau, x: Sequence) -> LaurentPoly:
    """tau * F_x with everything lifted into the extension field."""
    if len(x) != D.m:
        raise InputError(f"expected {D.m} parameters, got {len(x)}")
    tau_e = lift_into(tau, ext)
    if not tau_e:
        raise ZeroTau("tau must be a nonzero field element")
    terms = []
    for w, c in D.base.terms.items():
        terms.append((w, tau_e * lift_into(c, ext)))
    for xk, g in zip(x, D.directions):
        xe = lift_into(xk, ext) * tau_e
        for w, c in g.terms.items():
            terms.append((w, xe * lift_into(c, ext)))
    return LaurentPoly(D.base.n, terms, ext)


def family_sum(D: Deformation, k: int, tau, x: Sequence, *,
               psi_power: int = 1) -> CycloNum:
    """S = sum over (F_{q^k}^*)^n of psi(tau * F_x(t)), exactly.

    tau and the x entries may be given in the base field (embedded), in
    the extension itself, or as integers.  psi_power=-1 computes the sum
    for the inverse character.
    """
    _check_psi_power(psi_power, D.base.field.p)
    ext = extension_field(D.base.field, k)
    poly = _specialized(D, ext, tau, x)
    counts, _ = _torus_reduce(poly)
    return _counts_to_cyclo(counts, D.base.field.p, psi_power)


def gkz_sum(table: MonomialTable, field: FieldSpec, k: int, y: Sequence, *,
            psi_power: int = 1) -> CycloNum:
    """Sum over the torus of psi(sum_j y_j t^{w_j}) for the table's
    monomial list; zero entries of y drop out."""
    if len(y) != len(table.points):
        raise InputError(f"expected {len(table.points)} coefficients, got {len(y)}")
    _check_psi_power(psi_power, field.p)
    ext = extension_field(field, k)
    n = len(table.points[0]) if table.points else 0
    terms = []
    for w, c in zip(table.points, y):
        ce = lift_into(c, ext)
        if ce:
            terms.append((w, ce))
    poly = LaurentPoly(n, terms, ext)
    counts, _ = _torus_reduce(poly)
    return _counts_to_cyclo(counts, field.p, psi_power)


def zero_count(D: Deformation, k: int, x: Sequence) -> int:
    """Z_k: number of torus points of the degree-k extension where F_x
    vanishes."""
    ext = extension_field(D.base.field, k)
    poly = _specialized(D, ext, 1, x)  # tau=1: zero set unaffected
    _, zeros = _torus_reduce(poly)
    return zeros


def tau_summed_trace(D: Deformation, k: int, x: Sequence) -> CycloNum:
    """c_k = (-1)^n * (q^k * Z_k - (q^k - 1)^n), the trace sum of the
    tau-family over F_{q^k}.

    Character orthogonality turns the tau-sum of family sums into a
    point count, which is the closed form used here.  When the doubled
    enumeration fits under DOUBLE_ENUM_CAP points, the tau-sum is also
    evaluated directly, as the torus sum of s * F_x(t) over
    (F_{q^k}^*)^{n+1} with tau = s on the first axis, and the two must
    agree exactly, else VerificationError.
    """
    base = D.base.field
    n = D.base.n
    qk = base.q ** k
    zk = zero_count(D, k, x)
    inner = qk * zk - (qk - 1) ** n
    value = inner if n % 2 == 0 else -inner
    if (qk - 1) ** (n + 1) <= DOUBLE_ENUM_CAP:
        fx = _specialized(D, extension_field(base, k), 1, x)
        tau_fx = LaurentPoly(n + 1, [((1,) + w, c) for w, c in fx.terms.items()], fx.field)
        if _counts_to_cyclo(_torus_reduce(tau_fx)[0], base.p, 1) != inner:
            raise VerificationError(
                "orthogonality cross-check failed: direct tau-sum disagrees "
                "with the zero-count closed form")
    return CycloNum.from_rational(base.p, value)
