"""Finite fields F_{p^m} with deterministic construction.

Conventions
-----------
* Elements are coefficient tuples of length m over F_p, low degree first,
  i.e. (c0, ..., c_{m-1}) represents c0 + c1*X + ... modulo the field's
  modulus polynomial.
* The canonical modulus for (p, m) is the first monic irreducible of
  degree m in the scan order "ascending integer encoding sum(c_i p^i)";
  equivalently coefficient vectors are compared highest degree first.
  For m = 1 the modulus is X (reduction sends X to 0) and arithmetic is
  plain modular arithmetic.  Fields with p^m <= 2^16 read both their
  modulus and their generator (below) from a table the searches
  produced, _CANONICAL; larger ones search.
* Embeddings are deterministic and history-free: the image depends only
  on the two fields.  Canonical fields embed by one compatible-root rule
  on the maximal subfields of the target (a vectorised root search among
  the powers of each subfield's unit generator), so composing embeddings
  along any tower agrees with the direct embedding; other moduli pass
  through a fixed isomorphism.
* The multiplicative group is enumerated in generator-power order: the
  canonical generator g is the first element in coefficient-lex order
  whose multiplicative order is q - 1, and (F_q^*)^n is walked as an
  odometer over exponent vectors with the last axis fastest.  The order
  is part of the contract: the torus kernel walks it, and a search's
  first zero is the first in it.
* The byte-lane layer (power tables of one element by coordinate
  columns, the discrete-log tables among them, and the torus kernel)
  lives in ffarray, which is imported at call time by discrete_table and
  by the embedding root search _roots, one first-only common_zeros on a
  power table; both charge their work to the budget here, and
  discrete_table refuses a table the machine's memory cannot hold.
  frobenius_orbits gives the kernel the orbits it compresses its walks
  by.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from .budget import charge, check_power_room
from .errors import BudgetExceeded, InputError, frozen

if TYPE_CHECKING:
    from .ffarray import PowerTable

__all__ = [
    "FieldSpec",
    "FqElem",
    "make_field",
    "extension_field",
    "field_from_modulus",
    "trace_to_prime",
    "embed",
    "multiplicative_generator",
    "enumerate_torus",
    "torus_size",
    "discrete_table",
]


# --------------------------------------------------------------------------
# primality

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the witness set covers n < 3.3e24."""
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n % sp == 0:
            return n == sp
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# --------------------------------------------------------------------------
# dense polynomial arithmetic over F_p (coefficient tuples, low degree first)

def _pnorm(c: Sequence[int]) -> tuple[int, ...]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pmul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The coefficients of a * b as integers, not yet reduced mod p."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return out


def _pmod(a: Sequence[int], f: Sequence[int], p: int) -> tuple[int, ...]:
    """a mod f, f monic: each leading coefficient is reduced mod p as it
    is cancelled, through f's nonzero lower coefficients only, and the
    remainder once at the end."""
    df = len(f) - 1
    if len(a) > df:
        a = list(a)
        taps = [(i, c) for i, c in enumerate(f[:df]) if c]
        for top in range(len(a) - 1, df - 1, -1):
            lead = a[top] % p
            if lead:
                for i, c in taps:
                    a[top - df + i] -= lead * c
        del a[df:]
    return _pnorm([c % p for c in a])


def _pmulmod(a, b, f, p) -> tuple[int, ...]:
    return _pmod(_pmul(a, b), f, p)


def _ppowmod(a, e: int, f, p) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    base = _pmod(a, f, p)
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, p)
        base = _pmulmod(base, base, f, p)
        e >>= 1
    return result


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    """Monic gcd over F_p, b nonzero with a nonzero leading coefficient:
    Euclid on _pmod, each divisor made monic first."""
    while b:
        inv = pow(b[-1], p - 2, p)
        b = tuple(c * inv % p for c in b)
        a, b = b, _pmod(a, b, p)
    return a


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _minus_x(poly: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = list(poly) + [0] * max(0, 2 - len(poly))
    out[1] = (out[1] - 1) % p
    return _pnorm(out)


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Ben-Or's test for a monic polynomial of degree m >= 1 over F_p: f
    is reducible iff it has an irreducible factor of some degree i <= m/2,
    that is iff gcd(x^(p^i) - x, f) != 1 for some i <= m/2.  The powers
    x^(p^i) mod f come one at a time, so most reducible f stop early."""
    frob: tuple[int, ...] = (0, 1)
    for _ in range((len(f) - 1) // 2):
        frob = _ppowmod(frob, p, f, p)
        if _pgcd(_minus_x(frob, p), f, p) != (1,):
            return False
    return True


# --------------------------------------------------------------------------
# concrete field models

@frozen
class FieldSpec:
    """A concrete model of F_{p^m}: characteristic, degree, modulus.

    The modulus tuple has length m + 1, low degree first, and is monic.
    Use make_field / field_from_modulus instead of constructing directly.
    """

    p: int
    m: int
    modulus: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p ** self.m

    @property
    def is_prime_field(self) -> bool:
        return self.m == 1

    def zero(self) -> "FqElem":
        return FqElem(self, (0,) * self.m)

    def one(self) -> "FqElem":
        return self.from_int(1)

    def from_int(self, k: int) -> "FqElem":
        coords = [0] * self.m
        coords[0] = k % self.p
        return FqElem(self, tuple(coords))

    def element(self, coords: Sequence[int]) -> "FqElem":
        if len(coords) != self.m:
            raise InputError(f"expected {self.m} coordinates, got {len(coords)}")
        return FqElem(self, tuple(c % self.p for c in coords))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


# The canonical modulus and generator of every F_{p^m} with m >= 2 and
# p^m <= 2^16, as codes: p maps to (modulus code, generator code)
# for m = 2, 3, ... in turn.  A modulus code is the scan index
# sum(c_i p^i) of _first_irreducible, a generator code the lex index of
# _first_generator; _digits decodes both.  tests/test_ffield.py rebuilds
# the table from the two searches.  Above 2^16 the searches run: there
# the O(q) power-table build outweighs them.
_CANONICAL = {
    2: (3, 1, 3, 1, 3, 2, 5, 1, 3, 1, 3, 1, 27, 3, 3, 7, 9, 2, 5, 1, 9, 3, 27, 1, 33, 7,
        3, 2, 43, 7),
    3: (1, 4, 7, 2, 5, 1, 7, 2, 5, 1, 11, 2, 11, 12, 64, 2, 19, 34),
    5: (2, 6, 6, 2, 2, 6, 21, 2, 7, 1), 7: (1, 9, 2, 24, 8, 13, 10, 5),
    11: (1, 15, 15, 2, 13, 12), 13: (2, 16, 2, 14, 2, 15), 17: (3, 20, 20, 3),
    19: (1, 22, 2, 20), 23: (1, 25, 26, 5), 29: (2, 30, 33, 3), 31: (1, 35, 3, 39),
    37: (2, 40, 2, 38), 41: (3, 43), 43: (1, 45), 47: (1, 49), 53: (2, 54), 59: (1, 62),
    61: (2, 66), 67: (1, 74), 71: (1, 79), 73: (5, 78), 79: (1, 85), 83: (1, 93),
    89: (3, 92), 97: (5, 99), 101: (2, 102), 103: (1, 105), 107: (1, 109),
    109: (2, 116), 113: (3, 118), 127: (1, 135), 131: (1, 134), 137: (3, 139),
    139: (1, 143), 149: (2, 156), 151: (1, 160), 157: (2, 163), 163: (1, 170),
    167: (1, 169), 173: (2, 174), 179: (1, 182), 181: (2, 190), 191: (1, 201),
    193: (5, 200), 197: (2, 203), 199: (1, 212), 211: (1, 215), 223: (1, 225),
    227: (1, 229), 229: (2, 235), 233: (3, 246), 239: (1, 247), 241: (7, 250),
    251: (1, 256),
}


def _digits(code: int, p: int, m: int) -> tuple[int, ...]:
    """The m base-p digits of code, lowest first."""
    out = []
    for _ in range(m):
        code, digit = divmod(code, p)
        out.append(digit)
    return tuple(out)


def _canonical_codes(p: int, m: int) -> tuple[int, ...]:
    """The tabled (modulus code, generator code) of F_{p^m}, or () when
    the field is not in the table."""
    i = 2 * m - 4
    return _CANONICAL.get(p, ())[i:i + 2] if m >= 2 else ()


def _first_irreducible(p: int, m: int) -> tuple[int, ...]:
    """The first monic irreducible of degree m >= 2 over F_p in ascending
    integer encoding sum(c_i p^i)."""
    for code in range(p ** m):
        candidate = _digits(code, p, m) + (1,)
        # f(0) = 0 or f(1) = 0 gives f a linear factor, a proper one as m >= 2
        if candidate[0] and sum(candidate) % p and _is_irreducible(candidate, p):
            return candidate
    raise InputError("no irreducible polynomial found")  # pragma: no cover


@lru_cache(maxsize=None)
def make_field(p: int, m: int) -> FieldSpec:
    """The canonical F_{p^m}: deterministic smallest irreducible modulus.

    The scan runs over monic degree-m polynomials in increasing integer
    encoding sum(c_i p^i), so for example make_field(3, 2) picks X^2 + 1
    and make_field(2, 3) picks X^3 + X + 1.  Fields with p^m <= 2^16
    read the scan's result from _CANONICAL.
    """
    if not _is_prime(p):
        raise InputError(f"{p} is not prime")
    if m < 1:
        raise InputError(f"extension degree must be >= 1, got {m}")
    if m == 1:
        return FieldSpec(p, 1, (0, 1))
    codes = _canonical_codes(p, m)
    return FieldSpec(p, m, _digits(codes[0], p, m) + (1,) if codes
                     else _first_irreducible(p, m))


def extension_field(base: FieldSpec, k: int) -> FieldSpec:
    """The degree-k extension F_{q^k} of F_q, canonically presented.

    Every exponential sum and point count reads its field through here
    first, so rational coefficients (base None) stop here.  Each charges
    at least the q^k - 1 units next, so when the budget scope has no room
    for them the extension is refused before its modulus search, and a
    degree far past the room before q^k is even formed."""
    if base is None:
        raise InputError("this operation needs finite-field coefficients")
    if k < 1:
        raise InputError("extension degree must be at least 1")
    if k == 1:
        return base
    e = base.m * k
    check_power_room(f"units of GF({base.p}^{e})", base.p, e)
    return make_field(base.p, e)


def field_from_modulus(p: int, modulus: Sequence[int]) -> FieldSpec:
    """A field with an explicitly supplied monic irreducible modulus."""
    if not _is_prime(p):
        raise InputError(f"{p} is not prime")
    mod = tuple(c % p for c in modulus)
    m = len(mod) - 1
    if m < 1:
        raise InputError("modulus must have degree >= 1")
    if mod[-1] != 1:
        raise InputError("modulus must be monic")
    if m == 1:
        if mod != (0, 1):
            raise InputError("degree-1 modulus must be X (prime field convention)")
        return FieldSpec(p, 1, mod)
    if not _is_irreducible(mod, p):
        raise InputError("modulus is not irreducible")
    return FieldSpec(p, m, mod)


# --------------------------------------------------------------------------
# elements

class FqElem:
    """An element of a FieldSpec, as a fixed-length coefficient tuple."""

    __slots__ = ("field", "coords")

    def __init__(self, field: FieldSpec, coords: tuple[int, ...]):
        self.field = field
        self.coords = coords

    def _check(self, other: "FqElem") -> None:
        if self.field != other.field:
            raise InputError(f"elements of different fields: {self.field} vs {other.field}")

    def _lift(self, other):
        if isinstance(other, FqElem):
            self._check(other)
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        p = self.field.p
        return FqElem(self.field, tuple((a + b) % p for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FqElem(self.field, tuple(-a % p for a in self.coords))

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        p = self.field.p
        return FqElem(self.field, tuple((a - b) % p for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return o - self

    def __mul__(self, other):
        f = self.field
        if isinstance(other, int):  # an F_p scalar scales the coordinates
            p = f.p
            return FqElem(f, tuple(a * other % p for a in self.coords))
        o = self._lift(other)
        if o is NotImplemented:
            return o
        if f.m == 1:
            return FqElem(f, (self.coords[0] * o.coords[0] % f.p,))
        prod = _pmulmod(self.coords, o.coords, f.modulus, f.p)
        return FqElem(f, tuple(prod) + (0,) * (f.m - len(prod)))

    __rmul__ = __mul__

    def inverse(self) -> "FqElem":
        """a^(q-2), which is a^-1 because a^(q-1) = 1 on F_q^*."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return o * self.inverse()

    def __pow__(self, e: int) -> "FqElem":
        if e < 0:
            return self.inverse() ** (-e)
        f = self.field
        if f.m == 1:
            return FqElem(f, (pow(self.coords[0], e, f.p),))
        r = _ppowmod(self.coords, e, f.modulus, f.p)
        return FqElem(f, tuple(r) + (0,) * (f.m - len(r)))

    def __bool__(self) -> bool:
        return any(self.coords)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self == self.field.from_int(other)
        return isinstance(other, FqElem) and self.field == other.field and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.field, self.coords))

    def __repr__(self) -> str:
        return f"FqElem({self.field!r}, {list(self.coords)})"


# --------------------------------------------------------------------------
# trace

@lru_cache(maxsize=None)
def _basis_traces(field: FieldSpec) -> tuple[int, ...]:
    """Traces of the basis monomials X^j, j < m, as integers mod p.

    Tr(X^j) is the j-th power sum s_j of the modulus's roots, so Newton's
    identities give them from the coefficients c_i of X^(m - i):
    s_0 = m and s_j = -(j c_j + sum_{0<i<j} c_i s_(j-i)).
    """
    p, m = field.p, field.m
    c = field.modulus[::-1]
    s = [m % p]
    for j in range(1, m):
        s.append(-(j * c[j] + sum(c[i] * s[j - i] for i in range(1, j))) % p)
    return tuple(s)


def trace_to_prime(a: FqElem) -> int:
    """Absolute trace Tr_{F_q/F_p}(a) as an integer in [0, p)."""
    field = a.field
    if field.m == 1:
        return a.coords[0]
    basis = _basis_traces(field)
    return sum(c * t for c, t in zip(a.coords, basis)) % field.p


# --------------------------------------------------------------------------
# embeddings between standard models, coherent along every tower

def _roots(modulus: tuple[int, ...], source_degree: int,
           target: FieldSpec) -> list[FqElem]:
    """The roots of the (degree a = source_degree >= 2, irreducible)
    modulus in the target, in no order callers rely on: they sort them or
    pick the one that fits.  Charged to the budget as p^a subfield
    elements.

    The roots are units of the subfield of order p^a, so powers of the
    generator w = g^((q - 1) / (p^a - 1)) of its units; so are the
    modulus's nonzero coefficients, which lie in F_p.  The first zero w^e
    of sum_k c_k t^k on w's power table is one root, and its conjugates
    w^(e p^i), i < a, are the others.
    """
    charge("subfield enumeration for embedding", target.p ** source_degree)
    from .ffarray import PowerTable
    count = target.p ** source_degree - 1
    w = multiplicative_generator(target) ** ((target.q - 1) // count)
    table = PowerTable(target, w, count)
    logs = [table.log(target.from_int(c)) for c in modulus if c]
    weights = [(k,) for k, c in enumerate(modulus) if c]
    _, (e,) = table.common_zeros(1, [(logs, weights)], first_only=True)
    return [table.elem(e * target.p ** i) for i in range(source_degree)]


def _apply_hom(a: FqElem, image_powers: Sequence[FqElem]) -> FqElem:
    """Apply the ring hom sending the source generator to image_powers[1]:
    sum_i a_i image_powers[i], coordinate by coordinate, reduced once."""
    target = image_powers[0].field
    acc = [0] * target.m
    for c, pw in zip(a.coords, image_powers):
        if c:
            for j, v in enumerate(pw.coords):
                acc[j] += c * v
    return FqElem(target, tuple(v % target.p for v in acc))


def _gen_powers(field_m: int, image: FqElem) -> tuple[FqElem, ...]:
    out = [image.field.one()]
    for _ in range(field_m - 1):
        out.append(out[-1] * image)
    return tuple(out)


@lru_cache(maxsize=None)
def _image_powers(source: FieldSpec, target: FieldSpec) -> tuple[FqElem, ...]:
    """Powers X^0 .. X^(a-1) of the image of the source's X in the target,
    for distinct fields of degrees 1 < a | b.

    Standard models C_d = make_field(p, d) embed by one rule.  The maximal
    proper subfields C_c of C_b (c = b / ell, ell prime) are taken in
    descending order of c.  Each sends X_c to the lex-first root of its
    modulus in C_b that agrees with the roots already chosen on their
    common subfield C_gcd; one exists by the Chinese remainder theorem on
    the Galois groups.  C_a maps through the first of them it lies in.
    The rule depends only on (p, a, b) and, by induction on b, is coherent
    along every tower.

    A field built by field_from_modulus goes through one fixed isomorphism
    with its standard model, in both directions: X goes to the lex-first
    root of its modulus in C_a, and the way back is the inverse map.
    """
    p, a, b = source.p, source.m, target.m
    standard_a, standard_b = make_field(p, a), make_field(p, b)
    if source != standard_a:
        if target == standard_a:
            return _gen_powers(a, min(_roots(source.modulus, a, target),
                                      key=lambda r: r.coords))
        return _gen_powers(a, _apply_hom(_image_powers(source, standard_a)[1],
                                         _image_powers(standard_a, target)))
    if target != standard_b:
        if a < b:
            return _gen_powers(a, _apply_hom(_image_powers(source, standard_b)[1],
                                             _image_powers(standard_b, target)))
        forward, x = _image_powers(target, source), source.element((0, 1) + (0,) * (a - 2))
        return _gen_powers(a, next(r for r in _roots(source.modulus, a, target)
                                   if _apply_hom(r, forward) == x))
    chosen: list[tuple[int, tuple[FqElem, ...]]] = []
    for c in sorted((b // ell for ell in _prime_factors(b)), reverse=True):
        subfield = make_field(p, c)
        for root in sorted(_roots(subfield.modulus, c, target), key=lambda r: r.coords):
            powers = _gen_powers(c, root)
            if all(_agree_on_common_subfield(p, c, powers, d, other) for d, other in chosen):
                break
        else:  # pragma: no cover - the Galois groups guarantee a match
            raise InputError("no coherent embedding root found")
        if c == a:
            return powers
        if c % a == 0:
            return _gen_powers(a, _apply_hom(_image_powers(source, subfield)[1], powers))
        chosen.append((c, powers))


def _agree_on_common_subfield(p: int, c: int, powers_c: Sequence[FqElem],
                              d: int, powers_d: Sequence[FqElem]) -> bool:
    """Whether embeddings C_c, C_d -> C_b, given by the images of X_c and
    X_d, agree on C_gcd(c, d)."""
    g = math.gcd(c, d)
    if g == 1:
        return True
    common = make_field(p, g)
    return (_apply_hom(_image_powers(common, make_field(p, c))[1], powers_c)
            == _apply_hom(_image_powers(common, make_field(p, d))[1], powers_d))


def embed(a: FqElem, target: FieldSpec) -> FqElem:
    """Embed a into the target field (source degree must divide target's).

    Embeddings are ring homomorphisms, deterministic and history-free: the
    image depends only on the two fields.  They are coherent: for a tower
    F_{p^a} < F_{p^b} < F_{p^c}, embedding in two steps equals embedding
    directly, and fields built by field_from_modulus take part too.
    """
    source = a.field
    if source == target:
        return a
    if source.p != target.p:
        raise InputError(
            f"cannot embed characteristic {source.p} into characteristic {target.p}")
    if target.m % source.m != 0:
        raise InputError(f"{target!r} is not an extension of {source!r}")
    if source.m == 1:
        coords = [0] * target.m
        coords[0] = a.coords[0]
        return target.element(coords)
    return _apply_hom(a, _image_powers(source, target))


# --------------------------------------------------------------------------
# multiplicative generator and torus enumeration

def _first_generator(field: FieldSpec) -> FqElem:
    """First element in coefficient-lex order generating F_q^*, by search."""
    q = field.q
    factors = _prime_factors(q - 1)
    cofactors = [(q - 1) // ell for ell in factors]
    # lex order over (c0, c1, ...), c0 the top base-p digit of the code,
    # decoded one code at a time so that no field is materialised
    for code in range(1, q):
        cand = field.element(_digits(code, field.p, field.m)[::-1])
        if all((cand ** cof) != 1 for cof in cofactors):
            return cand
    raise InputError("no generator found")  # pragma: no cover


@lru_cache(maxsize=None)
def multiplicative_generator(field: FieldSpec) -> FqElem:
    """First element in coefficient-lex order generating F_q^*.  A tabled
    field with its canonical modulus reads it from _CANONICAL; any other
    field, a field_from_modulus field with another modulus included,
    searches."""
    codes = _canonical_codes(field.p, field.m)
    if codes and field.modulus == make_field(field.p, field.m).modulus:
        return field.element(_digits(codes[1], field.p, field.m)[::-1])
    return _first_generator(field)


def torus_size(field: FieldSpec, n: int) -> int:
    if n < 1:
        raise InputError(f"torus dimension must be >= 1, got {n}")
    return (field.q - 1) ** n


def enumerate_torus(field: FieldSpec, n: int) -> Iterator[tuple[FqElem, ...]]:
    """Yield points of (F_q^*)^n in the canonical order.

    Point number L (0-based) is (g^{e_1}, ..., g^{e_n}) where
    (e_1, ..., e_n) are the base-(q-1) digits of L, last axis fastest.
    """
    total = torus_size(field, n)
    charge("torus enumeration", total)
    q1 = field.q - 1
    g = multiplicative_generator(field)
    exps = [0] * n
    point = [field.one()] * n
    for _ in range(total):
        yield tuple(point)
        # odometer step on the exponent vector, last axis fastest
        axis = n - 1
        while axis >= 0:
            exps[axis] += 1
            if exps[axis] < q1:
                point[axis] = point[axis] * g
                break
            exps[axis] = 0
            point[axis] = field.one()
            axis -= 1


@lru_cache(maxsize=16)
def frobenius_orbits(N: int, q: int) -> Mapping[int, int]:
    """The orbits of e -> q e mod N, q a unit mod N: on exponents of a
    generator of the order-N units, the q-power Frobenius.  Each orbit's
    least element, ascending, maps to the orbit's size (read-only, as the
    mapping is cached)."""
    seen, orbits = bytearray(N), {}
    for e in range(N):
        if not seen[e]:
            x, size = e, 0
            while not seen[x]:
                seen[x] = 1
                x, size = x * q % N, size + 1
            orbits[e] = size
    return MappingProxyType(orbits)


# --------------------------------------------------------------------------
# discrete log tables

def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


@lru_cache(maxsize=None)
def discrete_table(field: FieldSpec) -> PowerTable:
    """The field's discrete-log table, the ffarray.PowerTable of its
    generator, built once per field and charged to the budget.

    A table larger than the machine's physical memory is refused with
    BudgetExceeded before anything is allocated.  The check reads the
    machine, but a run it lets through never depends on what it read.
    """
    charge("discrete log table construction", field.q)
    from .ffarray import PowerTable, table_bytes
    need, have = table_bytes(field), _physical_memory()
    if need > have:
        raise BudgetExceeded(f"memory for the discrete log table of {field!r}, in bytes",
                             required=need, budget=have)
    return PowerTable(field, multiplicative_generator(field), field.q - 1)
