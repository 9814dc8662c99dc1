"""Sparse exact polynomials and rational functions in t, x_1..x_m.

Variable 0 is t throughout; the connection calculus needs exact
equality, partial derivatives, t-adic valuations, evaluation along
t = 0, and the t -> 1/s chart change.  Denominators are kept in the
factored shape t^k * h with h free of t: every construction site either
produces that shape or checks it, and sums and products preserve it, so
pole orders along t = 0 are plain valuation arithmetic and no
polynomial gcd is ever required.  Reduction is normalization of sign,
content, and the shared monomial factor.

An MPoly stores integer coefficients over one positive common
denominator, with the gcd of the coefficients coprime to it, so the
stored form is canonical and equality is equality of the stored parts.
Fraction is the boundary type: the public `MPoly(...)` validates and
lifts Fraction terms (integer terms need no lift), and `terms` is a
derived Fraction view that output reads; evaluation runs on the stored
integers.  Arithmetic results go through the private `_poly`
constructor, after `_reduced` divides out the common factor of content
and denominator where one can arise.  One kernel, `_sum_products`,
multiplies: it scales each pair's integer products to the lcm of the
pairs' denominators and sums all terms in a single exponent -> int dict.
`MPoly * MPoly` is its one-pair case, and `_group_sum` (behind
`RatFunc.dot` and connalg's curvature) calls it once per denominator
group of a sum of rational-function products.  Scaling by a constant
maps the coefficients and calls no kernel.  A product with the constant
1 is the other operand itself (polynomials are immutable), and a
rational function whose denominator is the constant 1 is already
normalized; results known to be normalized (negation, constants, a
partial derivative over the constant 1) go through the trusted
`_ratfunc` constructor, over one cached constant 1 per variable count.
A partial derivative by a variable the denominator does not involve
keeps the denominator and differentiates the numerator (the quotient
rule with d' = 0); only the others square the denominator.  `_lift` is
the way an arbitrary value enters Q(t, x) as a rational function.  Two
callers use the trusted constructors on forms canonical by
construction: `problemio._parse_mpoly` hands `_poly` an exponent -> int
map without zeros (over the denominator 1) and wraps a term list over
`_one`, and `connalg._over_t` assembles (a * t + b) / t^k from t-free
polynomials by shifting t-exponents.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add

from .errors import InputError

__all__ = ["MPoly", "RatFunc"]


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        try:
            return Fraction(c)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"cannot read {c!r} as a rational number") from None
    raise InputError(f"cannot use {type(c).__name__} as a coefficient")


def _poly(nvars: int, coeffs: dict, denom: int = 1) -> "MPoly":
    """An MPoly on integer coefficients over denom that are already
    canonical (exponent tuples of the right arity, no zero coefficients,
    content coprime to denom > 0); not validated."""
    p = object.__new__(MPoly)
    object.__setattr__(p, "nvars", nvars)
    object.__setattr__(p, "coeffs", coeffs)
    object.__setattr__(p, "denom", denom)
    return p


def _reduced(nvars: int, coeffs: dict, denom: int) -> "MPoly":
    """coeffs / denom with the common factor of content and denom
    divided out; coeffs holds no zero, denom > 0."""
    if denom != 1:
        g = gcd(denom, *coeffs.values())
        if g != 1:
            coeffs = {e: c // g for e, c in coeffs.items()}
            denom //= g
    return _poly(nvars, coeffs, denom)


@lru_cache(maxsize=None)
def _one(nvars: int) -> "MPoly":
    """The constant polynomial 1, shared (polynomials are immutable)."""
    return _poly(nvars, {(0,) * nvars: 1})


def _is_one(p: "MPoly") -> bool:
    """True iff p is the constant polynomial 1."""
    if p.denom != 1 or len(p.coeffs) != 1:
        return False
    (e, c), = p.coeffs.items()
    return c == 1 and not any(e)


def _sum_products(nvars: int, pairs: list) -> "MPoly":
    """The polynomial sum of p * q over pairs (p, q) of polynomials.

    Each pair's integer products are scaled to the lcm of all the pairs'
    denominators, so every term accumulates as one integer.
    """
    den = lcm(*[p.denom * q.denom for p, q in pairs])
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    for p, q in pairs:
        scale = den // (p.denom * q.denom)
        right = q.coeffs.items()
        for e1, c1 in p.coeffs.items():
            c1 *= scale
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                s = get(e)
                acc[e] = c1 * c2 if s is None else s + c1 * c2
    return _reduced(nvars, {e: c for e, c in acc.items() if c}, den)


class MPoly:
    """Polynomial over the rationals with a fixed number of variables:
    integer coefficients `coeffs` over the positive integer `denom`."""

    __slots__ = ("nvars", "coeffs", "denom", "_hash")

    def __init__(self, nvars: int, terms=()):
        if nvars < 1:
            raise InputError("need at least one variable")
        acc: dict[tuple[int, ...], int | Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, c in items:
            e = tuple(map(int, exps))
            if len(e) != nvars:
                raise InputError(f"exponent {e} has wrong arity")
            if min(e) < 0:
                raise InputError("polynomial exponents must be nonnegative")
            if type(c) is not int:  # an int needs no lift to Fraction
                c = _as_fraction(c)
            if not c:
                continue
            prev = acc.get(e)
            if prev is None:
                acc[e] = c
            else:
                s = prev + c
                if s:
                    acc[e] = s
                else:
                    del acc[e]
        # over the lcm of the reduced denominators the content is coprime
        # to the denominator already
        denom = lcm(*[c.denominator for c in acc.values()])
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "coeffs", {e: c.numerator * (denom // c.denominator)
                                            for e, c in acc.items()})
        object.__setattr__(self, "denom", denom)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @classmethod
    def const(cls, nvars: int, c) -> "MPoly":
        if nvars < 1:
            raise InputError("need at least one variable")
        c = _as_fraction(c)
        if not c:
            return _poly(nvars, {})
        return _poly(nvars, {(0,) * nvars: c.numerator}, c.denominator)

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MPoly":
        if not 0 <= i < nvars:
            raise InputError(f"variable index {i} out of range")
        e = [0] * nvars
        e[i] = 1
        return _poly(nvars, {tuple(e): 1})

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """The coefficients as Fractions, by exponent."""
        d = self.denom
        return {e: Fraction(c, d) for e, c in self.coeffs.items()}

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.nvars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return (self.nvars == other.nvars and self.denom == other.denom
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        # computed on first use and kept: the polynomial never changes
        try:
            return self._hash
        except AttributeError:
            h = hash((self.nvars, self.denom, frozenset(self.coeffs.items())))
            object.__setattr__(self, "_hash", h)
            return h

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise InputError("mixed variable counts")
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.const(self.nvars, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = lcm(self.denom, o.denom)
        s1, s2 = den // self.denom, den // o.denom
        acc = dict(self.coeffs) if s1 == 1 else {e: c * s1 for e, c in self.coeffs.items()}
        for e, c in o.coeffs.items():
            c *= s2
            prev = acc.get(e)
            if prev is None:
                acc[e] = c
            else:
                s = prev + c
                if s:
                    acc[e] = s
                else:
                    del acc[e]
        return _reduced(self.nvars, acc, den)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.nvars, {e: -c for e, c in self.coeffs.items()}, self.denom)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # a term-wise map, no kernel call
            c = Fraction(other)
            if c == 1:
                return self
            if not c:
                return _poly(self.nvars, {})
            a = c.numerator
            return _reduced(self.nvars, {e: v * a for e, v in self.coeffs.items()},
                            self.denom * c.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if _is_one(o):
            return self
        if _is_one(self):
            return o
        return _sum_products(self.nvars, [(self, o)])

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise InputError("negative power of a polynomial")
        out = _one(self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def partial(self, i: int) -> "MPoly":
        """Derivative with respect to variable i."""
        if not 0 <= i < self.nvars:
            raise InputError(f"variable index {i} out of range")
        acc = {}
        for e, c in self.coeffs.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            acc[tuple(e2)] = c * e[i]
        return _reduced(self.nvars, acc, self.denom)

    def min_deg(self, i: int) -> int:
        """Valuation in variable i; 0 for the zero polynomial."""
        if not self.coeffs:
            return 0
        return min(e[i] for e in self.coeffs)

    def max_deg(self, i: int) -> int:
        if not self.coeffs:
            return 0
        return max(e[i] for e in self.coeffs)

    def involves(self, i: int) -> bool:
        return any(e[i] for e in self.coeffs)

    def shift_out(self, i: int, k: int) -> "MPoly":
        """Divide by variable i to the k-th power; requires min_deg >= k.
        A negative k multiplies by variable i to the -k-th power."""
        if k == 0:
            return self
        acc = {}
        for e, c in self.coeffs.items():
            if e[i] < k:
                raise InputError("not divisible by the requested power")
            e2 = list(e)
            e2[i] -= k
            acc[tuple(e2)] = c
        return _poly(self.nvars, acc, self.denom)

    def subs_zero(self, i: int) -> "MPoly":
        """Set variable i to zero."""
        return _reduced(self.nvars,
                        {e: c for e, c in self.coeffs.items() if e[i] == 0}, self.denom)

    def reverse_in(self, i: int, depth: int) -> "MPoly":
        """exponent e_i -> depth - e_i; requires depth >= max_deg(i)."""
        if depth < self.max_deg(i):
            raise InputError("reversal depth below the degree")
        acc = {}
        for e, c in self.coeffs.items():
            e2 = list(e)
            e2[i] = depth - e[i]
            acc[tuple(e2)] = c
        return _poly(self.nvars, acc, self.denom)

    def eval(self, values: Iterable) -> Fraction:
        """The value at a point as one integer sum: over the values' common
        denominator D, each term is scaled up to the top total degree."""
        vals = [v if type(v) is int else _as_fraction(v) for v in values]
        if len(vals) != self.nvars:
            raise InputError("wrong number of values")
        D = lcm(*[v.denominator for v in vals])
        nums = [v.numerator * (D // v.denominator) for v in vals]
        top = max(map(sum, self.coeffs), default=0) if D > 1 else 0
        total = 0
        for e, c in self.coeffs.items():
            if top:
                c *= D ** (top - sum(e))
            for v, k in zip(nums, e):
                if k:
                    c *= v ** k
            total += c
        return Fraction(total, self.denom * D ** top)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "MPoly(0)"
        terms = self.terms
        bits = []
        for e in sorted(terms, reverse=True):
            c = terms[e]
            mono = "*".join(f"v{i}^{k}" for i, k in enumerate(e) if k)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "MPoly(" + " + ".join(bits) + ")"


def _t_factored(den: MPoly) -> bool:
    """True iff den = t^k * h with h free of t: all terms share one
    t-exponent."""
    exps = {e[0] for e in den.coeffs}
    return len(exps) == 1


def _ratfunc(num: MPoly, den: MPoly) -> "RatFunc":
    """A RatFunc on a pair that is already normalized; not validated."""
    f = object.__new__(RatFunc)
    object.__setattr__(f, "num", num)
    object.__setattr__(f, "den", den)
    return f


def _lift(nvars: int, v) -> "RatFunc | None":
    """v as a rational function in nvars variables: a RatFunc, an MPoly,
    or a constant (int, Fraction, or a string Fraction reads).  None for
    any other type; a RatFunc or MPoly in another number of variables
    raises InputError."""
    if isinstance(v, (RatFunc, MPoly)):
        if v.nvars != nvars:
            raise InputError("mixed variable counts")
        return v if isinstance(v, RatFunc) else RatFunc(v)
    if isinstance(v, (int, Fraction, str)):
        return RatFunc.const(nvars, v)
    return None


def _group_sum(nvars: int, groups: dict) -> "RatFunc":
    """The sum over den of sum(p * q for p, q in pairs) / den, for groups
    {den: pairs}: one kernel call per group, and only the group sums are
    added as rational functions."""
    parts = [RatFunc(_sum_products(nvars, pairs), den) for den, pairs in groups.items()]
    return sum(parts[1:], parts[0]) if parts else RatFunc.const(nvars, 0)


class RatFunc:
    """Quotient of two MPolys, normalized by sign, content, and the
    shared monomial factor.  Equality is exact via cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly | None = None):
        if not isinstance(num, MPoly):
            raise InputError("numerator must be a polynomial")
        if den is None:
            den = _one(num.nvars)
        if not isinstance(den, MPoly) or den.nvars != num.nvars:
            raise InputError("denominator must match the numerator")
        if den.is_zero:
            raise InputError("zero denominator")
        if num.is_zero:
            den = _one(num.nvars)
        elif not _is_one(den):  # over the constant 1 it is normalized
            # cancel the shared monomial factor
            for i in range(num.nvars):
                k = min(num.min_deg(i), den.min_deg(i))
                if k:
                    num = num.shift_out(i, k)
                    den = den.shift_out(i, k)
            # make the denominator's leading coefficient 1
            lc = den.coeffs[max(den.coeffs)]
            if lc != den.denom:
                inv = Fraction(den.denom, lc)
                num = num * inv
                den = den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def const(cls, nvars: int, c) -> "RatFunc":
        return _ratfunc(MPoly.const(nvars, c), _one(nvars))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __eq__(self, other) -> bool:
        try:
            o = _lift(self.nvars, other)
        except InputError:
            if not isinstance(other, str):
                raise
            return NotImplemented  # a string that reads as no number
        if o is None:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def __hash__(self) -> int:
        # hashing requires a canonical form; the normalized pair is
        # canonical only for equal (num, den) up to common factors, so
        # hash conservatively by variable count
        return hash(("RatFunc", self.nvars))

    def __add__(self, other):
        o = _lift(self.nvars, other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return _ratfunc(-self.num, self.den)

    def __sub__(self, other):
        o = _lift(self.nvars, other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _lift(self.nvars, other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = _lift(self.nvars, other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    @staticmethod
    def dot(pairs) -> "RatFunc":
        """The sum of x * y over pairs (x, y) of rational functions.

        Products are grouped by denominator; each group's numerator
        products are summed in one integer accumulation, and only the
        group sums are added as rational functions.  Zero products are
        skipped.  Raises InputError on an empty input, which has no
        variable count.
        """
        nvars = None
        groups: dict[MPoly, list] = {}
        for x, y in pairs:
            if nvars is None:
                nvars = x.nvars
            if x.nvars != nvars or y.nvars != nvars:
                raise InputError("mixed variable counts")
            if x.num.coeffs and y.num.coeffs:
                groups.setdefault(x.den * y.den, []).append((x.num, y.num))
        if nvars is None:
            raise InputError("an empty dot product has no variable count")
        return _group_sum(nvars, groups)

    def __truediv__(self, other):
        o = _lift(self.nvars, other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise InputError("division by zero")
        return RatFunc(self.num * o.den, self.den * o.num)

    def partial(self, i: int) -> "RatFunc":
        n, d = self.num, self.den
        if _is_one(d):  # over the constant 1 it is normalized
            return _ratfunc(n.partial(i), d)
        if not d.involves(i):  # the quotient rule with d' = 0
            return RatFunc(n.partial(i), d)
        return RatFunc(n.partial(i) * d - n * d.partial(i), d * d)

    def involves(self, i: int) -> bool:
        return self.num.involves(i) or self.den.involves(i)

    def require_t_factored(self) -> None:
        if not _t_factored(self.den):
            raise InputError(
                "denominator does not factor as a t-power times a t-free part")

    def t_order(self) -> int | None:
        """Valuation along t = 0: negative for a pole, None for zero."""
        if self.num.is_zero:
            return None
        self.require_t_factored()
        return self.num.min_deg(0) - self.den.min_deg(0)

    def t_pole_order(self) -> int:
        o = self.t_order()
        return 0 if o is None else max(0, -o)

    def eval_t0(self) -> "RatFunc":
        """Restriction to t = 0, as a t-free rational function."""
        o = self.t_order()
        if o is None:
            return RatFunc.const(self.nvars, 0)
        if o < 0:
            raise InputError("pole along t = 0")
        a, b = self.num.min_deg(0), self.den.min_deg(0)
        if a - b > 0:
            return RatFunc.const(self.nvars, 0)
        return RatFunc(self.num.shift_out(0, a).subs_zero(0),
                       self.den.shift_out(0, b).subs_zero(0))

    def mul_t_power(self, k: int) -> "RatFunc":
        """Multiply by t^k (k may be negative).

        A shift of t-exponents: the result's t-valuation v goes to the
        numerator if v >= 0, else to the denominator, and the other side
        keeps t-valuation 0.  The pair stays normalized, since a shift in
        t moves no other variable's valuation and keeps the denominator's
        leading term leading.
        """
        num, den = self.num, self.den
        if not k or not num.coeffs:
            return self
        a, b = num.min_deg(0), den.min_deg(0)
        v = a - b + k
        return _ratfunc(num.shift_out(0, a - max(v, 0)), den.shift_out(0, b - max(-v, 0)))

    def subs_t_inverse(self) -> "RatFunc":
        """The chart change t -> 1/s, with s taking over variable 0."""
        dn = self.num.max_deg(0)
        dd = self.den.max_deg(0)
        num = self.num.reverse_in(0, dn)
        den = self.den.reverse_in(0, dd)
        # f(1/s) = s^(dd - dn) * num / den
        return RatFunc(num, den).mul_t_power(dd - dn)

    def eval(self, values: Iterable) -> Fraction:
        values = tuple(values)
        if _is_one(self.den):
            return self.num.eval(values)
        d = self.den.eval(values)
        if not d:
            raise InputError("evaluation hits the denominator's zero locus")
        return self.num.eval(values) / d

    def __repr__(self) -> str:
        if _is_one(self.den):
            return f"RatFunc({self.num!r})"
        return f"RatFunc({self.num!r} / {self.den!r})"
