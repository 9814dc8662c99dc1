"""Exponential sums over torus points of finite field extensions.

Every sum here is a reduction of laurent.torus_trace_counts: the number
of torus points at which the summand's trace takes each value of F_p,
so a whole sum is a vector of p integer counts until the very end, when
it becomes one exact element of Q(zeta_p).  The zero count Z_k is
laurent.torus_zeros of F_x.  The tau-sum cross-check of tau_summed_trace
is one trace-count sum, with tau as an extra first coordinate.  Nothing
is built in the extension: F_x is laurent.specialize over the base
field, and the walks lift it, and twist it by tau, themselves.

Each sum charges its torus points ("torus sum") to the current budget
scope before the walk starts.  The walk then visits them in canonical
order, all of them or, when tau F_x lies over a proper subfield, the
fibres over one first coordinate per Frobenius orbit, each counted
once per point of its orbit (ffarray's torus kernel).
"""

from __future__ import annotations

from typing import Sequence

from .budget import charge
from .cyclotomic import CycloNum
from .errors import InputError, VerificationError
from .ffield import FieldSpec, extension_field
from .laurent import (Deformation, LaurentPoly, MonomialTable, lift_into,
                      specialize, torus_trace_counts, torus_zeros)

__all__ = [
    "family_sum",
    "gkz_sum",
    "zero_count",
    "tau_summed_trace",
    "DOUBLE_ENUM_CAP",
]

DOUBLE_ENUM_CAP = 10 ** 7


def _torus_sum(f: LaurentPoly, ext: FieldSpec, tau, psi_power: int) -> CycloNum:
    """Sum of psi^psi_power(tau * f(t)) over the torus of ext."""
    charge("torus sum", (ext.q - 1) ** f.n)
    counts = torus_trace_counts(f, ext, tau)
    p = ext.p
    acc = [0] * p
    for v, c in enumerate(counts):
        acc[psi_power * v % p] += c
    return CycloNum.from_zeta_powers(p, acc)


def family_sum(D: Deformation, k: int, tau, x: Sequence, *,
               psi_power: int = 1) -> CycloNum:
    """S = sum over (F_{q^k}^*)^n of psi(tau * F_x(t)), exactly.

    tau may be given in the base field (embedded), in the extension
    itself, or as an integer; the x entries lie in the base field or
    are integers.  psi_power=-1 computes the sum for the inverse
    character.
    """
    ext = extension_field(D.base.field, k)
    if psi_power % ext.p == 0:  # refused before any work
        raise InputError("character power must be a unit mod p")
    f = specialize(D, x)
    tau = lift_into(tau, ext)
    if not tau:
        raise InputError("tau must be a nonzero field element")
    return _torus_sum(f, ext, tau, psi_power)


def gkz_sum(table: MonomialTable, field: FieldSpec, k: int, y: Sequence) -> CycloNum:
    """Sum over the torus of F_{q^k}, F_q = field, of
    psi(sum_j y_j t^{w_j}) for the table's monomial list; the y entries
    lie in field or are integers, and zero entries drop out."""
    if len(y) != len(table.points):
        raise InputError(f"expected {len(table.points)} coefficients, got {len(y)}")
    ext = extension_field(field, k)
    n = len(table.points[0]) if table.points else 0
    return _torus_sum(LaurentPoly(n, zip(table.points, y), field), ext, 1, 1)


def zero_count(D: Deformation, k: int, x: Sequence) -> int:
    """Z_k: number of torus points of the degree-k extension where F_x
    vanishes."""
    ext = extension_field(D.base.field, k)
    f = specialize(D, x)
    charge("torus sum", (ext.q - 1) ** f.n)
    return torus_zeros([f], ext)[0]


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
    ext = extension_field(D.base.field, k)
    n = D.base.n
    qk = ext.q
    zk = zero_count(D, k, x)
    inner = qk * zk - (qk - 1) ** n
    value = inner if n % 2 == 0 else -inner
    if (qk - 1) ** (n + 1) <= DOUBLE_ENUM_CAP:
        fx = specialize(D, x)
        tau_fx = LaurentPoly(n + 1, [((1,) + w, c) for w, c in fx.terms.items()], fx.field)
        if _torus_sum(tau_fx, ext, 1, 1) != inner:
            raise VerificationError(
                "orthogonality cross-check failed: direct tau-sum disagrees "
                "with the zero-count closed form")
    return CycloNum.from_rational(ext.p, value)
