"""Frobenius eigenvalue data, purity and duality checks, L-functions,
and the monodromy filtration of a nilpotent operator.

The stalk at a parameter point carries power sums p_k = (-1)^n S_k of
Frobenius eigenvalues, where S_k is the degree-k exponential sum.  The
characteristic polynomial built from p_1..p_r (r = normalized volume of
the Newton polytope) is validated against p_{r+1}..p_{2r}, then checked
archimedeanly for purity of weight n and exactly for the duality that
pairs the eigenvalues of the character psi with those of its inverse.
"""

from __future__ import annotations

from typing import Sequence

from .cyclotomic import (PURITY_TOL, CycloNum, CycloPoly, all_embeddings,
                         char_poly_from_power_sums, embed_complex,
                         linear_recurrence_reconstruct, validate_power_sums)
from .errors import InputError, VerificationError, frozen
from .exactla import (Mat, _dots, _echelon, _fractions, _kernel, _lift, _reduces,
                      to_fractions)
from .expsum import family_sum, tau_summed_trace
from .laurent import Deformation, check_nondegenerate, specialize
from .polytope import normalized_volume

__all__ = [
    "FrobeniusReport",
    "LFunctionReport",
    "Filtration",
    "stalk_power_sums",
    "frobenius_report",
    "family_l_function",
    "monodromy_filtration",
]

MAX_RANK = 12  # largest rank frobenius_report takes on (it needs 2r sums)
NONDEGENERACY_DEPTH = 1  # extension degrees searched for degenerate faces


def stalk_power_sums(D: Deformation, x: Sequence, tau, r: int) -> list[CycloNum]:
    """Power sums p_1..p_{2r} of the Frobenius eigenvalues at (tau, x).

    p_k = (-1)^n S_k with S_k the family sum over the degree-k extension;
    tau and x are base-field data, re-read in each extension.
    """
    if r < 1:
        raise InputError("rank must be at least 1")
    n = D.base.n
    sign = 1 if n % 2 == 0 else -1
    out = []
    for k in range(1, 2 * r + 1):
        S = family_sum(D, k, tau, x)
        out.append(S * sign)
    return out


@frozen
class FrobeniusReport:
    """Eigenvalue data of Frobenius at one parameter point."""

    tau: object
    x: tuple
    q: int
    n: int
    rank: int
    weight: int
    char_poly: CycloPoly
    char_poly_inverse_character: CycloPoly
    power_sums: tuple
    consistency_ok: bool
    purity_max_rel_dev: float
    purity_ok: bool
    determinant_max_rel_dev: float
    determinant_ok: bool
    duality_ok: bool
    warnings: tuple[str, ...] = ()


def _all_root_moduli(P: CycloPoly) -> list[float]:
    """|root| over every complex embedding of the coefficient field."""
    import numpy  # at call time: only the root moduli load numpy

    out = []
    for a in range(1, P.p):
        coeffs = [embed_complex(c, a) for c in reversed(P.coeffs)]
        for root in numpy.roots(coeffs):
            out.append(abs(root))
    return out


def _duality_transform(P: CycloPoly, qn: int) -> CycloPoly:
    """T^r * P(q^n / T), expanded exactly.

    The coefficient of T^j is P's coefficient of T^(r - j) times the
    integer (q^n)^(r - j), so its coordinates are scaled directly.
    """
    r = P.degree
    return CycloPoly(P.p, [
        CycloNum(P.p, [c * qn ** (r - j) for c in P.coefficient(r - j).coords])
        for j in range(r + 1)])


def _proportional(A: CycloPoly, B: CycloPoly) -> bool:
    """A = c * B for some nonzero constant c, B monic, checked exactly.

    c can only be A's leading coefficient, so the check takes one
    product per lower degree and inverts nothing.  The one caller's B is
    the conjugate of a characteristic polynomial, hence monic.
    """
    c = A.coefficient(A.degree)
    return A.degree == B.degree and all(
        A.coefficient(i) == c * B.coefficient(i) for i in range(B.degree))


def frobenius_report(D: Deformation, x: Sequence, tau, *,
                     tol: float = PURITY_TOL) -> FrobeniusReport:
    """Characteristic polynomial of Frobenius at (tau, x) with purity,
    determinant-norm, and duality verification.

    The rank is the normalized volume of the base polytope, never
    inferred from data.  Every verdict is a flag of the report: a failed
    validation of p_{r+1}..p_{2r} lowers consistency_ok, since it signals
    a degenerate parameter or the wrong polytope.
    """
    base = D.base.field
    n = D.base.n
    P_newton = D.base.newton()
    r = normalized_volume(P_newton)
    if r < 1:
        raise InputError("family has rank zero")
    if r > MAX_RANK:
        raise InputError(f"rank {r} exceeds the budgeted maximum {MAX_RANK}")

    warnings: list[str] = []
    Fx = specialize(D, tuple(x))
    if not Fx:
        warnings.append("specialized polynomial is zero: non-generic parameter")
    elif set(Fx.support) <= {(0,) * n}:
        warnings.append("specialized polynomial is constant: non-generic parameter")
    else:
        Fx_newton = Fx.newton()
        if Fx_newton.degenerate or Fx_newton.vertices != P_newton.vertices:
            warnings.append("Newton polytope collapsed at this parameter: "
                            "non-generic parameter")
        else:
            verdict = check_nondegenerate(Fx, K=NONDEGENERACY_DEPTH)
            if verdict.degenerate:
                warnings.append(
                    f"degenerate face found at search depth {verdict.witness_degree}")

    ps = stalk_power_sums(D, x, tau, r)
    P = char_poly_from_power_sums(ps[:r])
    consistency_ok = validate_power_sums(P, ps)

    q = base.q  # read after stalk_power_sums has checked the field
    P_inv = P.conj_coeffs(base.p - 1)
    moduli = _all_root_moduli(P)
    target = q ** (n / 2)
    purity_dev = float(max(abs(m - target) / target for m in moduli)) if moduli else 0.0
    purity_ok = purity_dev < tol

    det_target = float(q) ** (n * r / 2)
    det_dev = max(abs(abs(v) - det_target) / det_target
                  for v in all_embeddings(P.coefficient(0)))
    det_ok = det_dev < tol

    duality_ok = _proportional(_duality_transform(P, q ** n), P_inv)

    return FrobeniusReport(
        tau=tau, x=tuple(x), q=q, n=n, rank=r, weight=n,
        char_poly=P, char_poly_inverse_character=P_inv,
        power_sums=tuple(ps), consistency_ok=consistency_ok,
        purity_max_rel_dev=purity_dev, purity_ok=purity_ok,
        determinant_max_rel_dev=det_dev, determinant_ok=det_ok,
        duality_ok=duality_ok, warnings=tuple(warnings))


@frozen
class LFunctionReport:
    """Rational L-function of the tau-family at a fixed deformation point."""

    numerator: CycloPoly
    denominator: CycloPoly
    minus_chi_c: int
    rank: int
    swan_bound_ok: bool
    stable: bool
    trace_sums: tuple
    warnings: tuple[str, ...] = ()


def family_l_function(D: Deformation, x: Sequence,
                      Kmax: int | None = None) -> LFunctionReport:
    """L-function of the tau-line from trace sums c_1..c_Kmax.

    c_k comes from the zero-count closed form, cross-checked when small by
    a direct enumeration of every pair (tau, t) as one torus sum in n + 1
    variables; the rational function is reconstructed and the
    Euler-characteristic bound -chi_c = deg N - deg D <= r is the verdict.
    The bound is asserted, not derived from local invariants:
    ramification data itself is out of reach here.
    """
    r = normalized_volume(D.base.newton())
    if Kmax is None:
        # 2(r+1) sums pin down a total-degree-r answer; two more let the
        # fit be re-derived at the two preceding orders, so the default
        # can actually report stable=True
        Kmax = 2 * (r + 2)
    if Kmax < 2 * (r + 1):
        raise InputError(f"need at least {2 * (r + 1)} trace sums for rank {r}")
    warnings: list[str] = []
    Fx = specialize(D, tuple(x))
    if not Fx or set(Fx.support) <= {(0,) * D.base.n}:
        warnings.append("specialized polynomial is constant or zero: "
                        "the tau-family is not lisse at this parameter")
    c = [tau_summed_trace(D, k, x) for k in range(1, Kmax + 1)]
    fit = linear_recurrence_reconstruct(c)
    minus_chi = fit.numerator.degree - fit.denominator.degree
    return LFunctionReport(
        numerator=fit.numerator, denominator=fit.denominator,
        minus_chi_c=minus_chi, rank=r, swan_bound_ok=minus_chi <= r,
        stable=fit.stable, trace_sums=tuple(c), warnings=tuple(warnings))


# --------------------------------------------------------------------------
# monodromy filtration

@frozen
class Filtration:
    """Increasing filtration 0 = M_{low-1} <= ... <= M_high = V by
    canonical rational subspace bases."""

    dim: int
    levels: tuple[tuple[int, Mat], ...]

    def level(self, k: int) -> Mat:
        basis = ()
        for kk, b in self.levels:
            if kk > k:
                break
            basis = b
        return basis

    @property
    def jumps(self) -> dict[int, int]:
        out = {}
        prev = 0
        for kk, b in self.levels:
            d = len(b)
            if d != prev:
                out[kk] = d - prev
            prev = d
        return out

    def gr_dimension(self, k: int) -> int:
        return len(self.level(k)) - len(self.level(k - 1))


def monodromy_filtration(Nmat) -> Filtration:
    """The unique increasing filtration M with N M_k <= M_{k-2} and
    N^k inducing gr_k isomorphic to gr_{-k}, for nilpotent N.

    Built as M_k = sum over j >= max(0, -k) of N^j ker(N^{k+2j+1}),
    whose pieces are the terms ker(N^{k+j+1}) intersect im(N^j) of the
    convolution formula; both defining properties are then re-verified
    on the result.  N is lifted once to an integer matrix Z = c * N:
    scaling N changes no kernel and no image of its powers, so powers,
    kernels, the spans M_k (as reduced integer echelon rows) and every
    re-verification run on integers, and only `Filtration.levels` is
    made of Fractions.  Vectors are rows, so N^j maps a whole set of
    vectors by one product with its transpose.
    """
    N = to_fractions(Nmat)
    d = len(N)
    if d == 0 or any(len(row) != d for row in N):
        raise InputError("need a nonempty square matrix")
    Z = _lift(N)[0]
    Zt = list(zip(*Z))
    powers = [[[int(i == j) for j in range(d)] for i in range(d)]]  # Z^0 .. Z^e
    while any(any(row) for row in powers[-1]):  # stop at the first zero power
        if len(powers) > d:
            raise InputError(f"matrix is not nilpotent: N^{d} != 0")
        powers.append(_dots(powers[-1], Zt))
    e = len(powers) - 1

    kernels = [_kernel(*_echelon(P), d) for P in powers]
    spans = {k: ([], []) for k in (-e - 2, -e - 1)}  # M_k = 0 below -e
    spans.update({k: _echelon([row for j in range(max(0, -k), e)
                               for row in _dots(kernels[min(k + 2 * j + 1, e)], powers[j])])
                  for k in range(-e, e)})
    dim = {k: len(rows) for k, (rows, _) in spans.items()}

    # re-verify: increasing and exhaustive
    for k in range(1 - e, e):
        if not all(_reduces(*spans[k], v) for v in spans[k - 1][0]):  # pragma: no cover
            raise VerificationError("filtration is not increasing")
    if dim[-e]:  # pragma: no cover
        raise VerificationError("filtration does not start at zero")
    if dim[e - 1] != d:  # pragma: no cover
        raise VerificationError("filtration does not exhaust the space")
    # re-verify: N lowers by two
    for k in range(-e, e):
        if not all(_reduces(*spans[k - 2], v)
                   for v in _dots(spans[k][0], Z)):  # pragma: no cover
            raise VerificationError("N does not lower the filtration by two")
    # re-verify: N^k induces gr_k ~ gr_{-k}
    for k in range(1, e):
        gk = dim[k] - dim[k - 1]
        if gk != dim[-k] - dim[-k - 1]:  # pragma: no cover
            raise VerificationError("graded pieces fail the symmetry")
        below = spans[-k - 1][0]
        induced = len(_echelon(_dots(spans[k][0], powers[k]) + below)[0]) - len(below)
        if induced != gk:  # pragma: no cover
            raise VerificationError("N^k does not induce an isomorphism of gradeds")
    return Filtration(d, tuple((k, _fractions(*spans[k])) for k in range(-e, e)))
