"""Exact arithmetic in the cyclotomic field Q(zeta_p).

A CycloNum is a vector of p - 1 rationals: the coordinates of the
element in the power basis 1, zeta, ..., zeta^{p-2}, with the relation
1 + zeta + ... + zeta^{p-1} = 0 used to eliminate zeta^{p-1}.  Values of
the additive character psi(a) = zeta^{Tr(a)} live here, as do
characteristic polynomials of Frobenius and reconstructed L-functions.

For p = 2 the field degenerates to Q and zeta = -1, so psi becomes the
sign character (-1)^{Tr(a)}; nothing special-cases on p = 2 beyond the
basis having length one.

A value enters Q(zeta_p) one of two ways: _lift takes a rational (an
int, a Fraction, or a rational CycloNum of any p) to its element, and
_from_zeta_powers reduces sum acc[i] zeta^i to the power basis.  The
public constructors only check p and coerce to Fraction.  _lift is the
one place values cross fields: a rational crosses freely, an irrational
value of another p raises InputError.  Arithmetic works in the field of
its irrational operand, else of its left one; reconstruction in that of
the first irrational trace sum, else of the first CycloNum, else Q.

CycloPoly, polynomials over Q(zeta_p), has one division.  Rational
function reconstruction of an L-function from its trace sums is one
run of the extended Euclidean algorithm on it, cross-checked by
Berlekamp-Massey on the sums.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Sequence

from .errors import InputError, VerificationError, frozen
from .ffield import FqElem, _is_prime, trace_to_prime

__all__ = [
    "CycloNum",
    "CycloPoly",
    "psi",
    "conj_sigma",
    "embed_complex",
    "all_embeddings",
    "PURITY_TOL",
    "char_poly_from_power_sums",
    "validate_power_sums",
    "RationalFunctionFit",
    "linear_recurrence_reconstruct",
]


class CycloNum:
    """An element of Q(zeta_p) in the power basis of length p - 1."""

    __slots__ = ("p", "coords")

    def __init__(self, p: int, coords: Sequence[Fraction | int]):
        _prime(p)
        if len(coords) != p - 1:
            raise InputError(f"expected {p - 1} coordinates, got {len(coords)}")
        self.p = p
        self.coords = tuple(Fraction(c) for c in coords)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "CycloNum":
        return cls.from_rational(p, 0)

    @classmethod
    def one(cls, p: int) -> "CycloNum":
        return cls.from_rational(p, 1)

    @classmethod
    def from_rational(cls, p: int, r) -> "CycloNum":
        return _rational(_prime(p), Fraction(r))

    @classmethod
    def zeta(cls, p: int, e: int) -> "CycloNum":
        """zeta_p^e, reduced to the canonical basis."""
        acc = [Fraction(0)] * _prime(p)
        acc[e % p] = Fraction(1)
        return _from_zeta_powers(p, acc)

    @classmethod
    def from_zeta_powers(cls, p: int, acc: Sequence) -> "CycloNum":
        """sum_{i < p} acc[i] zeta^i, an element of Q[zeta]/(zeta^p - 1),
        reduced to the power basis by subtracting acc[p - 1]; acc holds
        exactly p sums."""
        _prime(p)
        if len(acc) != p:
            raise InputError(f"need {p} zeta-power sums, got {len(acc)}")
        return _from_zeta_powers(p, [Fraction(a) for a in acc])

    # -- coercion -----------------------------------------------------

    def _pair(self, other):
        """Self and other in one cyclotomic field, or None: other's field
        when other alone is irrational, else self's."""
        if not isinstance(other, (int, Fraction, CycloNum)):
            return None
        if isinstance(other, CycloNum) and other.p != self.p and not other.is_rational:
            return _lift(other.p, self), other
        return self, _lift(self.p, other)

    # -- predicates ---------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return not any(self.coords[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise InputError(f"{self!r} is not rational")
        return self.coords[0]

    def __bool__(self) -> bool:
        return any(self.coords)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return _cyclo(a.p, tuple(x + y for x, y in zip(a.coords, b.coords)))

    __radd__ = __add__

    def __neg__(self):
        return _cyclo(self.p, tuple(-a for a in self.coords))

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return _cyclo(a.p, tuple(x - y for x, y in zip(a.coords, b.coords)))

    def __rsub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return b - a

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        p = a.p
        acc = [Fraction(0)] * p
        for i, x in enumerate(a.coords):
            if x:
                for j, y in enumerate(b.coords):
                    if y:
                        acc[(i + j) % p] += x * y
        return _from_zeta_powers(p, acc)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse via the product of Galois conjugates;
        a rational value (every value when p = 2) inverts directly."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational:
            return _rational(self.p, 1 / self.coords[0])
        numerator = _rational(self.p, Fraction(1))
        for a in range(2, self.p):
            numerator = numerator * conj_sigma(self, a)
        norm = (self * numerator).rational_value()
        return _cyclo(self.p, tuple(c / norm for c in numerator.coords))

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __rtruediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return b * a.inverse()

    # -- comparison ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.coords[0] == other
        if not isinstance(other, CycloNum):
            return NotImplemented
        if self.p != other.p:
            return (self.is_rational and other.is_rational
                    and self.coords[0] == other.coords[0])
        return self.coords == other.coords

    def __hash__(self) -> int:
        if self.is_rational:
            return hash(self.coords[0])
        return hash((self.p, self.coords))

    def __repr__(self) -> str:
        if self.is_rational:
            return f"CycloNum({self.p}, {self.coords[0]})"
        parts = []
        for i, c in enumerate(self.coords):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        return f"CycloNum({self.p}, {' + '.join(parts)})"


def _cyclo(p: int, coords: tuple[Fraction, ...]) -> CycloNum:
    """A CycloNum on p - 1 coordinates that are already Fractions, p
    already checked prime: internal results skip the public
    constructor's checks."""
    z = object.__new__(CycloNum)
    z.p, z.coords = p, coords
    return z


def _prime(p: int) -> int:
    """p, once checked prime."""
    if not _is_prime(p):
        raise InputError(f"{p} is not prime")
    return p


def _rational(p: int, r: Fraction) -> CycloNum:
    return _cyclo(p, (r,) + (Fraction(0),) * (p - 2))


def _from_zeta_powers(p: int, acc: Sequence[Fraction]) -> CycloNum:
    """CycloNum.from_zeta_powers on Fraction sums, unchecked."""
    top = acc[p - 1]
    return _cyclo(p, tuple(acc[i] - top for i in range(p - 1)))


def _lift(p: int, v) -> CycloNum:
    """v in Q(zeta_p), p already checked prime: v itself when it is a
    CycloNum of p, else the rational it stands for, anything Fraction()
    accepts or a rational CycloNum of any p."""
    if isinstance(v, CycloNum):
        if v.p == p:
            return v
        if not v.is_rational:
            raise InputError(f"mixed cyclotomic fields p={v.p} and p={p}")
        return _rational(p, v.coords[0])
    return _rational(p, Fraction(v))


# --------------------------------------------------------------------------
# characters and Galois action

def psi(a: FqElem) -> CycloNum:
    """Additive character value zeta_p^Tr(a); the inverse character's
    value is its conjugate conj_sigma(psi(a), -1) = psi(-a)."""
    return CycloNum.zeta(a.field.p, trace_to_prime(a))


def conj_sigma(z: CycloNum, a: int) -> CycloNum:
    """Galois conjugation zeta -> zeta^a, a a unit mod p."""
    p = z.p
    if a % p == 0:
        raise InputError(f"{a} is not a unit mod {p}")
    acc = [Fraction(0)] * p
    for i, c in enumerate(z.coords):
        if c:
            acc[(a * i) % p] += c
    return _from_zeta_powers(p, acc)


def embed_complex(z: CycloNum, a: int = 1) -> complex:
    """Complex embedding zeta -> exp(2*pi*i*a/p), a a unit mod p."""
    p = z.p
    if a % p == 0:
        raise InputError(f"{a} is not a unit mod {p}")
    acc = 0j
    for i, c in enumerate(z.coords):
        if c:
            acc += float(c) * cmath.exp(2j * cmath.pi * ((a * i) % p) / p)
    return acc


def all_embeddings(z: CycloNum) -> list[complex]:
    """Values of z under every complex embedding of Q(zeta_p)."""
    return [embed_complex(z, a) for a in range(1, z.p)]


# default tolerance of every archimedean check on embedded values: sum
# bounds, purity and the determinant
PURITY_TOL = 1e-6


# --------------------------------------------------------------------------
# polynomials over Q(zeta_p)

class CycloPoly:
    """Polynomial with CycloNum coefficients, low degree first."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        _prime(p)
        lifted = [_lift(p, c) for c in coeffs]
        while lifted and not lifted[-1]:
            lifted.pop()
        self.p = p
        self.coeffs = tuple(lifted)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, i: int) -> CycloNum:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return _rational(self.p, Fraction(0))

    def __eq__(self, other) -> bool:
        return (isinstance(other, CycloPoly) and self.p == other.p
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __add__(self, other: "CycloPoly") -> "CycloPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return CycloPoly(self.p, [self.coefficient(i) + other.coefficient(i) for i in range(n)])

    def __sub__(self, other: "CycloPoly") -> "CycloPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return CycloPoly(self.p, [self.coefficient(i) - other.coefficient(i) for i in range(n)])

    def __mul__(self, other: "CycloPoly") -> "CycloPoly":
        if self.is_zero or other.is_zero:
            return CycloPoly(self.p, [])
        out = [_rational(self.p, Fraction(0))] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return CycloPoly(self.p, out)

    def scale(self, c) -> "CycloPoly":
        return CycloPoly(self.p, [x * c for x in self.coeffs])

    def conj_coeffs(self, a: int) -> "CycloPoly":
        return CycloPoly(self.p, [conj_sigma(x, a) for x in self.coeffs])

    def reversed_poly(self) -> "CycloPoly":
        """T^deg * P(1/T); monic whenever P(0) = 1."""
        return CycloPoly(self.p, list(reversed(self.coeffs)))

    def derivative(self) -> "CycloPoly":
        return CycloPoly(self.p, [self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def monic(self) -> "CycloPoly":
        if self.is_zero:
            return self
        return self.scale(self.coeffs[-1].inverse())

    def divmod(self, other: "CycloPoly") -> tuple["CycloPoly", "CycloPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        inv_lead = other.coeffs[-1].inverse()
        rem = list(self.coeffs)
        quo = [_rational(self.p, Fraction(0))] * max(len(rem) - other.degree, 0)
        while len(rem) - 1 >= other.degree and rem:
            if not rem[-1]:
                rem.pop()
                continue
            c = rem[-1] * inv_lead
            shift = len(rem) - 1 - other.degree
            quo[shift] = c
            for i, b in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - c * b
            rem.pop()
        return CycloPoly(self.p, quo), CycloPoly(self.p, rem)

    def gcd(self, other: "CycloPoly") -> "CycloPoly":
        a, b = self, other
        while not b.is_zero:
            _, r = a.divmod(b)
            a, b = b, r
        return a.monic() if not a.is_zero else a

    def squarefree_part(self) -> "CycloPoly":
        if self.degree <= 0:
            return self.monic() if not self.is_zero else self
        g = self.gcd(self.derivative())
        q, r = self.divmod(g)
        if not r.is_zero:  # pragma: no cover
            raise InputError("squarefree decomposition failed")
        return q.monic()

    def __call__(self, x: CycloNum) -> CycloNum:
        acc = _rational(self.p, Fraction(0))
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        if self.is_zero:
            return "CycloPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"({c!r})*T^{i}" if i else f"({c!r})")
        return "CycloPoly(" + " + ".join(parts) + ")"


# --------------------------------------------------------------------------
# Newton identities

def _exp_series(c: Sequence[CycloNum], p: int) -> list[CycloNum]:
    """Coefficients of exp(sum c_k T^k / k) through order len(c).

    The recurrence n e_n = sum_{k=1..n} c_k e_{n-k} only ever divides by
    the integers 1..len(c), so it is exact over Q(zeta_p).
    """
    ell = [_rational(p, Fraction(1))]
    for n in range(1, len(c) + 1):
        acc = _rational(p, Fraction(0))
        for k in range(1, n + 1):
            acc = acc + c[k - 1] * ell[n - k]
        ell.append(acc / n)
    return ell


def char_poly_from_power_sums(ps: Sequence[CycloNum]) -> CycloPoly:
    """Monic polynomial of degree r = len(ps) whose root power sums are
    ps: the reversal of prod (1 - a_i T) = exp(-sum p_k T^k / k)."""
    if not ps:
        raise InputError("rank must be >= 1")
    p = ps[0].p
    return CycloPoly(p, reversed(_exp_series([-s for s in ps], p)))


def validate_power_sums(poly: CycloPoly, ps: Sequence[CycloNum]) -> bool:
    """Do all given power sums match the monic polynomial's roots?

    Compares exp(-sum p_k T^k / k) with the reversal of poly (zero past
    its degree) through order len(ps); power sums and series
    coefficients determine each other, the map being triangular.
    """
    if not poly.is_monic:
        raise InputError("characteristic polynomial must be monic")
    ell = _exp_series([-s for s in ps], poly.p)
    return all(x == poly.coefficient(poly.degree - i) for i, x in enumerate(ell))


# --------------------------------------------------------------------------
# rational function reconstruction from trace sums

@frozen
class RationalFunctionFit:
    """L(T) = numerator/denominator with N(0) = D(0) = 1, plus whether
    the same fit was already found at the two preceding truncation
    orders."""

    numerator: CycloPoly
    denominator: CycloPoly
    stable: bool


def _pade_at_order(ell: list[CycloNum], K: int, p: int):
    """The (N, D) of least total degree with N(0) = D(0) = 1 and
    N = D * ell mod T^(K+1); None when none has total degree <= (K-2)/2.

    Extended Euclid on (T^(K+1), ell mod T^(K+1)), stopped at the first
    remainder r of degree <= dmax = (K-2)/2, with cofactor t: every row
    has r = t * ell mod T^(K+1).  Fits of total degree <= dmax are one
    rational function, since N1*D2 - N2*D1 has degree below K + 1 and
    vanishes to order K + 1, and the Euclid row (r, t) is a constant
    multiple of its reduced fit whenever one exists (von zur Gathen-Gerhard,
    Modern Computer Algebra, 5.9).  So the row scaled to t(0) = 1 is
    the answer, or there is none.
    """
    dmax = (K - 2) // 2
    r0, r1 = CycloPoly(p, [0] * (K + 1) + [1]), CycloPoly(p, ell[:K + 1])
    t0, t1 = CycloPoly(p, []), CycloPoly(p, [1])
    while r1.degree > dmax:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
    c0 = t1.coefficient(0)
    if not c0 or r1.degree + t1.degree > dmax:
        return None
    inv = c0.inverse()
    return r1.scale(inv), t1.scale(inv)


def _berlekamp_massey(seq: list[CycloNum], p: int) -> CycloPoly:
    """Monic characteristic polynomial of the minimal LFSR for seq."""
    one = _rational(p, Fraction(1))
    zero = _rational(p, Fraction(0))
    C = [one]
    B = [one]
    L = 0
    m = 1
    b = one
    for n in range(len(seq)):
        d = seq[n]
        for i in range(1, min(L, len(C) - 1) + 1):
            d = d + C[i] * seq[n - i]
        if not d:
            m += 1
            continue
        T = list(C)
        coef = d / b
        while len(C) < len(B) + m:
            C.append(zero)
        for i in range(len(B)):
            C[i + m] = C[i + m] - coef * B[i]
        if 2 * L <= n:
            L = n + 1 - L
            B = T
            b = d
            m = 1
        else:
            m += 1
    conn = [C[i] if i < len(C) else zero for i in range(L + 1)]
    return CycloPoly(p, list(reversed(conn)))


def linear_recurrence_reconstruct(c: Sequence) -> RationalFunctionFit:
    """Reconstruct L(T) = exp(sum_k c_k T^k / k) as a rational function.

    Finds the unique reduced N(T)/D(T) with N(0) = D(0) = 1 matching the
    series through order K = len(c), minimizing deg N + deg D: one run
    of the extended Euclidean algorithm on (T^(K+1), the series), read
    at the first remainder of degree <= (K - 2) / 2.  A
    second, independent path fits a minimal linear recurrence directly
    to the c_k (Berlekamp-Massey); its characteristic polynomial must
    equal the squarefree part of rev(N) * rev(D), else VerificationError.

    Raises VerificationError when no rational function of total degree at most
    (K - 2) / 2 matches, i.e. the sequence is too short to commit to an
    answer.
    """
    values = list(c)
    if len(values) < 2:
        raise InputError("need at least two trace sums")
    fields = [v for v in values if isinstance(v, CycloNum)]
    # Q(zeta_2) = Q for all-rational input
    p = next((v.p for v in fields if not v.is_rational), fields[0].p if fields else 2)
    lifted = [_lift(p, v) for v in values]
    K = len(lifted)
    ell = _exp_series(lifted, p)
    fit = _pade_at_order(ell, K, p)
    if fit is None:
        raise VerificationError(f"no rational function of total degree <= {(K - 2) // 2} "
                                f"matches {K} trace sums")
    num, den = fit
    # independent cross-check on the power-sum side
    char_bm = _berlekamp_massey(lifted, p)
    expected = (num.reversed_poly() * den.reversed_poly()).squarefree_part()
    if char_bm != expected:
        raise VerificationError("series fit and direct recurrence fit disagree; "
                                "the sequence is too short or inconsistent")
    stable = False
    if K >= 4:
        prev1 = _pade_at_order(ell[:K], K - 1, p)
        prev2 = _pade_at_order(ell[:K - 1], K - 2, p)
        stable = (prev1 is not None and prev2 is not None
                  and prev1 == (num, den) and prev2 == (num, den))
    return RationalFunctionFit(num, den, stable)
