"""Sparse exact polynomials and rational functions in t, x_1..x_m.

Variable 0 is t throughout; the connection calculus needs exact
equality, partial derivatives, t-adic valuations, evaluation along
t = 0, and the t -> 1/s chart change.  Denominators are kept in the
factored shape t^k * h with h free of t: every construction site either
produces that shape or checks it, and sums and products preserve it, so
pole orders along t = 0 are plain valuation arithmetic and no
polynomial gcd is ever required.  Reduction is normalization of sign,
content, and the shared monomial factor.

Stored coefficients are always Fractions.  The public `MPoly(...)`
validates every term; arithmetic results, whose term dicts are already
canonical (exponent tuples of the right arity, no zero coefficients),
go through the private `_poly` constructor instead.  One kernel,
`_sum_products`, multiplies: it lifts every factor to integer
coefficients, scales each pair's products to one common denominator,
sums all terms in a single exponent -> int dict, and makes one Fraction
per surviving term.  `MPoly * MPoly` is its one-pair case, and
`RatFunc.dot` calls it once per denominator group of a sum of
rational-function products.  A product with the constant 1 is the other
operand itself (polynomials are immutable), and a rational function
whose denominator is the constant 1 is already normalized.  A partial
derivative by a variable the denominator does not involve keeps the
denominator and differentiates the numerator (the quotient rule with
d' = 0); only the others square the denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Mapping

from .errors import InputError

__all__ = ["MPoly", "RatFunc"]


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise InputError(f"cannot use {type(c).__name__} as a coefficient")


def _poly(nvars: int, terms: dict) -> "MPoly":
    """An MPoly on a term dict that is already canonical; not validated."""
    p = object.__new__(MPoly)
    object.__setattr__(p, "nvars", nvars)
    object.__setattr__(p, "terms", terms)
    return p


def _is_one(terms: dict) -> bool:
    """True iff the term dict is the constant polynomial 1."""
    if len(terms) != 1:
        return False
    (e, c), = terms.items()
    return c == 1 and not any(e)


def _lift(terms: dict) -> tuple[list, int]:
    """(exponent, integer) pairs over one common denominator."""
    den = lcm(*[c.denominator for c in terms.values()])
    return [(e, c.numerator * (den // c.denominator))
            for e, c in terms.items()], den


def _sum_products(nvars: int, pairs: list) -> "MPoly":
    """The polynomial sum of p * q over pairs (p, q) of term dicts.

    Each pair's integer products are scaled to the lcm of all the pairs'
    denominators, so every term accumulates as one integer.
    """
    lifted = [(_lift(p), _lift(q)) for p, q in pairs]
    den = lcm(*[d1 * d2 for (_, d1), (_, d2) in lifted])
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    for (left, d1), (right, d2) in lifted:
        scale = den // (d1 * d2)
        for e1, c1 in left:
            c1 *= scale
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                s = get(e)
                acc[e] = c1 * c2 if s is None else s + c1 * c2
    if den == 1:
        return _poly(nvars, {e: Fraction(c) for e, c in acc.items() if c})
    return _poly(nvars, {e: Fraction(c, den) for e, c in acc.items() if c})


class MPoly:
    """Polynomial over the rationals with a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=()):
        if nvars < 1:
            raise InputError("need at least one variable")
        acc: dict[tuple[int, ...], Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, c in items:
            e = tuple(int(v) for v in exps)
            if len(e) != nvars:
                raise InputError(f"exponent {e} has wrong arity")
            if any(v < 0 for v in e):
                raise InputError("polynomial exponents must be nonnegative")
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
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", acc)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @classmethod
    def const(cls, nvars: int, c) -> "MPoly":
        if nvars < 1:
            raise InputError("need at least one variable")
        c = _as_fraction(c)
        return _poly(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MPoly":
        if not 0 <= i < nvars:
            raise InputError(f"variable index {i} out of range")
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, [(tuple(e), 1)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.nvars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

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
        acc = dict(self.terms)
        for e, c in o.terms.items():
            prev = acc.get(e)
            if prev is None:
                acc[e] = c
            else:
                s = prev + c
                if s:
                    acc[e] = s
                else:
                    del acc[e]
        return _poly(self.nvars, acc)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.nvars, {e: -c for e, c in self.terms.items()})

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if _is_one(o.terms):
            return self
        if _is_one(self.terms):
            return o
        return _sum_products(self.nvars, [(self.terms, o.terms)])

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise InputError("negative power of a polynomial")
        out = MPoly.const(self.nvars, 1)
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
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            acc[tuple(e2)] = c * e[i]
        return _poly(self.nvars, acc)

    def min_deg(self, i: int) -> int:
        """Valuation in variable i; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return min(e[i] for e in self.terms)

    def max_deg(self, i: int) -> int:
        if not self.terms:
            return 0
        return max(e[i] for e in self.terms)

    def involves(self, i: int) -> bool:
        return any(e[i] for e in self.terms)

    def shift_out(self, i: int, k: int) -> "MPoly":
        """Divide by variable i to the k-th power; requires min_deg >= k."""
        if k == 0:
            return self
        acc = {}
        for e, c in self.terms.items():
            if e[i] < k:
                raise InputError("not divisible by the requested power")
            e2 = list(e)
            e2[i] -= k
            acc[tuple(e2)] = c
        return _poly(self.nvars, acc)

    def subs_zero(self, i: int) -> "MPoly":
        """Set variable i to zero."""
        return _poly(self.nvars,
                     {e: c for e, c in self.terms.items() if e[i] == 0})

    def reverse_in(self, i: int, depth: int) -> "MPoly":
        """exponent e_i -> depth - e_i; requires depth >= max_deg(i)."""
        if depth < self.max_deg(i):
            raise InputError("reversal depth below the degree")
        acc = {}
        for e, c in self.terms.items():
            e2 = list(e)
            e2[i] = depth - e[i]
            acc[tuple(e2)] = c
        return _poly(self.nvars, acc)

    def eval(self, values: Iterable) -> Fraction:
        vals = [_as_fraction(v) for v in values]
        if len(vals) != self.nvars:
            raise InputError("wrong number of values")
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, k in zip(vals, e):
                term *= v ** k
            total += term
        return total

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Lexicographically largest exponent and its coefficient."""
        if not self.terms:
            raise InputError("zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    def __repr__(self) -> str:
        if not self.terms:
            return "MPoly(0)"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(f"v{i}^{k}" for i, k in enumerate(e) if k)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "MPoly(" + " + ".join(bits) + ")"


def _t_factored(den: MPoly) -> bool:
    """True iff den = t^k * h with h free of t: all terms share one
    t-exponent."""
    exps = {e[0] for e in den.terms}
    return len(exps) == 1


class RatFunc:
    """Quotient of two MPolys, normalized by sign, content, and the
    shared monomial factor.  Equality is exact via cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly | None = None):
        if not isinstance(num, MPoly):
            raise InputError("numerator must be a polynomial")
        if den is None:
            den = MPoly.const(num.nvars, 1)
        if not isinstance(den, MPoly) or den.nvars != num.nvars:
            raise InputError("denominator must match the numerator")
        if den.is_zero:
            raise InputError("zero denominator")
        if num.is_zero:
            den = MPoly.const(num.nvars, 1)
        elif not _is_one(den.terms):  # over the constant 1 it is normalized
            # cancel the shared monomial factor
            for i in range(num.nvars):
                k = min(num.min_deg(i), den.min_deg(i))
                if k:
                    num = num.shift_out(i, k)
                    den = den.shift_out(i, k)
            # make the denominator's leading coefficient 1
            _, lc = den.leading()
            if lc != 1:
                inv = Fraction(1) / lc
                num = num * inv
                den = den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def const(cls, nvars: int, c) -> "RatFunc":
        return cls(MPoly.const(nvars, c))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.nvars != self.nvars:
                raise InputError("mixed variable counts")
            return other
        if isinstance(other, MPoly):
            return RatFunc(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(self.nvars, other)
        return None

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def __hash__(self) -> int:
        # hashing requires a canonical form; the normalized pair is
        # canonical only for equal (num, den) up to common factors, so
        # hash conservatively by variable count
        return hash(("RatFunc", self.nvars))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

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
        o = self._coerce(other)
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
            if x.num.terms and y.num.terms:
                groups.setdefault(x.den * y.den, []).append(
                    (x.num.terms, y.num.terms))
        if nvars is None:
            raise InputError("an empty dot product has no variable count")
        parts = [RatFunc(_sum_products(nvars, group), den)
                 for den, group in groups.items()]
        return sum(parts[1:], parts[0]) if parts else RatFunc.const(nvars, 0)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise InputError("division by zero")
        return RatFunc(self.num * o.den, self.den * o.num)

    def partial(self, i: int) -> "RatFunc":
        n, d = self.num, self.den
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
            return RatFunc(MPoly(self.nvars))
        if o < 0:
            raise InputError("pole along t = 0")
        a, b = self.num.min_deg(0), self.den.min_deg(0)
        if a - b > 0:
            return RatFunc(MPoly(self.nvars))
        return RatFunc(self.num.shift_out(0, a).subs_zero(0),
                       self.den.shift_out(0, b).subs_zero(0))

    def mul_t_power(self, k: int) -> "RatFunc":
        """Multiply by t^k (k may be negative)."""
        t = MPoly.variable(self.nvars, 0)
        if k >= 0:
            return RatFunc(self.num * t ** k, self.den)
        return RatFunc(self.num, self.den * t ** (-k))

    def subs_t_inverse(self) -> "RatFunc":
        """The chart change t -> 1/s, with s taking over variable 0."""
        dn = self.num.max_deg(0)
        dd = self.den.max_deg(0)
        num = self.num.reverse_in(0, dn)
        den = self.den.reverse_in(0, dd)
        # f(1/s) = s^(dd - dn) * num / den
        return RatFunc(num, den).mul_t_power(dd - dn)

    def eval(self, values: Iterable) -> Fraction:
        d = self.den.eval(values)
        if not d:
            raise InputError("evaluation hits the denominator's zero locus")
        return self.num.eval(values) / d

    def __repr__(self) -> str:
        if self.den == MPoly.const(self.nvars, 1):
            return f"RatFunc({self.num!r})"
        return f"RatFunc({self.num!r} / {self.den!r})"
