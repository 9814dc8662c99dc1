"""Laurent polynomials on the torus, deformations, and degeneracy tests.

A LaurentPoly stores a map from integer exponent vectors to nonzero
coefficients.  Coefficients are either FqElem from one finite field or
exact Fractions (field None); insertion order of terms is preserved and
is the order the monomial table uses.

Derivatives here are logarithmic, t_i * d/dt_i: they act term-wise by
multiplying with the exponent, never leave the Laurent ring, and have
the same torus zero set as the plain partials.

The torus walks live here too, the only code that drives the torus
kernel of ffarray.PowerTable: torus_trace_counts (how often Tr(tau f(t))
takes each value of F_p, for expsum's sums; trace_counts) and
torus_zeros (the common zeros of a list of polynomials, for zero counts
and the degeneracy search; common_zeros).  Both walk an extension on
polynomials over its subfields: _kernel_input alone lifts coefficients
into it (lift_into), twists them by tau and takes their logs.  Each
walk is one kernel call, in the order of ffield.enumerate_torus, and
the kernel answers for the whole torus, whether it walks all of it or
one first coordinate per Frobenius orbit.  The walks charge nothing;
their callers charge the whole torus, (q^k - 1)^n points, first.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Sequence

from .budget import charge
from .errors import InputError, frozen
from .ffield import FieldSpec, FqElem, discrete_table, embed, extension_field
from .polytope import (Face, Polytope, face_contains, faces_not_containing_origin,
                       newton_polyhedron)

__all__ = [
    "LaurentPoly",
    "Deformation",
    "MonomialTable",
    "monomial_table",
    "evaluate",
    "log_derivative",
    "specialize",
    "face_restrict",
    "phi_map",
    "NondegeneracyVerdict",
    "check_nondegenerate",
    "default_search_depth",
    "lift_into",
    "torus_trace_counts",
    "torus_zeros",
]

SEARCH_CAP = 10 ** 7  # torus points of the largest default search extension


def _coerce(c, field: FieldSpec | None):
    if field is None:
        if isinstance(c, FqElem):
            raise InputError("field element in a rational polynomial")
        return Fraction(c)
    if isinstance(c, FqElem):
        if c.field != field:
            raise InputError("coefficient from a different field")
        return c
    if isinstance(c, int):
        return field.from_int(c)
    raise InputError(f"cannot coerce {c!r} into {field!r}")


class LaurentPoly:
    """Sum of c_w * t^w over a finite set of integer exponent vectors."""

    __slots__ = ("n", "field", "terms")

    def __init__(self, n: int, terms: Iterable[tuple[Sequence[int], object]] = (),
                 field: FieldSpec | None = None):
        if n < 1:
            raise InputError("need at least one variable")
        self.n = n
        self.field = field
        collected: dict[tuple[int, ...], object] = {}
        for w, c in terms:
            w = tuple(int(x) for x in w)
            if len(w) != n:
                raise InputError(f"exponent {w} has wrong length")
            c = _coerce(c, field)
            if w in collected:
                c = collected[w] + c
            collected[w] = c
        self.terms = {w: c for w, c in collected.items() if c}

    @property
    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.terms)

    def coefficient(self, w: Sequence[int]):
        w = tuple(int(x) for x in w)
        if w in self.terms:
            return self.terms[w]
        return Fraction(0) if self.field is None else self.field.zero()

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPoly) and self.n == other.n
                and self.field == other.field and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.field, frozenset(self.terms.items())))

    def _check_compatible(self, other: "LaurentPoly") -> None:
        if self.n != other.n or self.field != other.field:
            raise InputError("mixed variable counts or coefficient fields")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compatible(other)
        return LaurentPoly(self.n, list(self.terms.items()) + list(other.terms.items()),
                           self.field)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.n, [(w, -c) for w, c in self.terms.items()], self.field)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compatible(other)
        out = []
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                out.append((tuple(a + b for a, b in zip(w1, w2)), c1 * c2))
        return LaurentPoly(self.n, out, self.field)

    def scale(self, c) -> "LaurentPoly":
        return LaurentPoly(self.n, [(w, v * _coerce(c, self.field))
                                    for w, v in self.terms.items()], self.field)

    def newton(self) -> Polytope:
        if not self.terms:
            raise InputError("zero polynomial has no Newton polytope")
        return newton_polyhedron(self.support)

    def __repr__(self) -> str:
        if not self.terms:
            return "LaurentPoly(0)"
        bits = [f"{c!r}*t^{w}" for w, c in self.terms.items()]
        return "LaurentPoly(" + " + ".join(bits) + ")"


def evaluate(f: LaurentPoly, t: Sequence):
    """f(t) with negative exponents via inverses; every t_i must be nonzero."""
    if len(t) != f.n:
        raise InputError(f"expected {f.n} coordinates, got {len(t)}")
    if not all(t):
        raise InputError("evaluation point has a zero coordinate")
    acc = Fraction(0) if f.field is None else f.field.zero()
    for w, c in f.terms.items():
        term = c
        for ti, wi in zip(t, w):
            if wi:
                term = term * ti ** wi
        acc = acc + term
    return acc


def log_derivative(f: LaurentPoly, i: int) -> LaurentPoly:
    """t_i * df/dt_i: multiplies each term by its i-th exponent (1-based
    axis); terms whose exponent vanishes in the field drop out."""
    if not 1 <= i <= f.n:
        raise InputError(f"axis {i} out of range for {f.n} variables")
    return LaurentPoly(f.n, [(w, c * w[i - 1]) for w, c in f.terms.items()], f.field)


# --------------------------------------------------------------------------
# torus walks: the two reductions of the torus kernel

def lift_into(value, ext: FieldSpec) -> FqElem:
    """value (an element of a subfield of ext, or an integer) as an element of ext."""
    if isinstance(value, FqElem):
        return value if value.field == ext else embed(value, ext)
    if isinstance(value, int):
        return ext.from_int(value)
    raise InputError(f"cannot interpret {value!r} in {ext!r}")


def _kernel_input(f: LaurentPoly, ext: FieldSpec, table, tau=1) -> tuple[list[int], list]:
    """Discrete logs of tau times f's coefficients, lifted into ext, and f's exponents."""
    tau = lift_into(tau, ext)
    return [table.log(tau * lift_into(c, ext)) for c in f.terms.values()], list(f.terms)


def torus_trace_counts(f: LaurentPoly, ext: FieldSpec, tau) -> list[int]:
    """Number of points of (ext^*)^n at which Tr(tau * f(t)) takes each
    value 0 .. p - 1; f's coefficients and tau lie in subfields of ext."""
    table = discrete_table(ext)
    logs, weights = _kernel_input(f, ext, table, tau)
    return table.trace_counts(f.n, logs, weights)


def torus_zeros(polys: Sequence[LaurentPoly], ext: FieldSpec, *,
                first_only: bool = False) -> tuple[int, tuple | None]:
    """Common zeros of polys (one variable count, coefficients in subfields
    of ext) on (ext^*)^n: their number and the first of them in the order
    of ffield.enumerate_torus, or (0, None).

    An identically zero poly vanishes everywhere.  With first_only the
    walk stops at the first zero and reports a count of 1.
    """
    n = polys[0].n
    table = discrete_table(ext)
    live = [_kernel_input(f, ext, table) for f in polys if f]
    if not live:
        return (1 if first_only else (ext.q - 1) ** n), (ext.one(),) * n
    count, first = table.common_zeros(n, live, first_only=first_only)
    return count, None if first is None else tuple(map(table.elem, first))


@frozen
class Deformation:
    """F_x = base + x_1 g_1 + ... + x_m g_m.

    kind "subdiagram": every exponent of every direction lies strictly
    inside the base's Newton polytope.  kind "newton_preserving": they
    lie anywhere in the polytope.  Both are checked at construction.
    """

    base: LaurentPoly
    directions: tuple[LaurentPoly, ...]
    kind: str

    def __init__(self, base: LaurentPoly, directions: Iterable[LaurentPoly],
                 kind: str = "subdiagram"):
        if kind not in ("subdiagram", "newton_preserving"):
            raise InputError(f"unknown deformation kind {kind!r}")
        directions = tuple(directions)
        for g in directions:
            if g.n != base.n or g.field != base.field:
                raise InputError("deformation direction incompatible with base")
        P = base.newton()
        P._require_full_dim()
        for g in directions:
            for w in g.support:
                values = [(sum(a * x for a, x in zip(normal, w)) - c, c)
                          for normal, c in P.facets]
                if kind == "subdiagram":
                    if not all(v > 0 for v, _ in values):
                        raise InputError(
                            f"direction exponent {w} is not interior to the polytope")
                else:
                    if not all(v >= 0 for v, _ in values):
                        raise InputError(
                            f"direction exponent {w} lies outside the polytope")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "kind", kind)

    @property
    def m(self) -> int:
        return len(self.directions)


def specialize(D: Deformation, x: Sequence) -> LaurentPoly:
    """The member F_x of the family; specialize(D, 0) is the base."""
    if len(x) != D.m:
        raise InputError(f"expected {D.m} parameters, got {len(x)}")
    out = D.base
    for xk, g in zip(x, D.directions):
        out = out + g.scale(xk)
    return out


@frozen
class MonomialTable:
    """Ordered list of lattice points indexing the coefficient map.

    Order: the base's exponents first (insertion order), then each
    direction's new exponents, then the remaining lattice points of the
    Newton polytope, ascending.  N' = len(points) >= number of base terms.
    """

    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise InputError("duplicate lattice point in table")


def _lattice_points(P: Polytope) -> list[tuple[int, ...]]:
    lo = [min(g[i] for g in P.generators) for i in range(P.dim)]
    hi = [max(g[i] for g in P.generators) for i in range(P.dim)]
    out = []
    for pt in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if all(sum(a * x for a, x in zip(normal, pt)) >= c for normal, c in P.facets):
            out.append(pt)
    return out


def monomial_table(D: Deformation) -> MonomialTable:
    ordered: dict[tuple[int, ...], None] = {}
    for w in D.base.support:
        ordered[w] = None
    for g in D.directions:
        for w in g.support:
            ordered.setdefault(w, None)
    P = D.base.newton()
    for w in sorted(_lattice_points(P)):
        ordered.setdefault(w, None)
    return MonomialTable(tuple(ordered))


def face_restrict(f: LaurentPoly, sigma: Face) -> LaurentPoly:
    """Terms of f whose exponents lie on the face sigma of f's polytope."""
    support = set(f.support) | {(0,) * f.n}
    for normal, c in sigma.supporting:
        for w in support:
            if sum(a * x for a, x in zip(normal, w)) < c:
                raise InputError(
                    "supporting hyperplane cuts the support: not a face of this polytope")
    on_face = {w for w in support if face_contains(sigma, w)}
    if set(sigma.generators) - on_face:
        raise InputError("face has generators outside the support")
    return LaurentPoly(f.n, [(w, c) for w, c in f.terms.items() if face_contains(sigma, w)],
                       f.field)


def phi_map(D: Deformation, table: MonomialTable, tau, x: Sequence) -> tuple:
    """The parameter map (tau, x) -> (tau * y_j(x))_j.

    y_j(x) is the coefficient of monomial table.points[j] in F_x, an
    affine-linear function of x; table points the family never touches
    give zero entries.
    """
    if not tau:
        raise InputError("tau must be a unit")
    F = specialize(D, x)
    for w in F.support:
        if w not in table.points:
            raise InputError(f"table does not cover support point {w}")
    return tuple(tau * F.coefficient(w) for w in table.points)


# --------------------------------------------------------------------------
# non-degeneracy

@frozen
class NondegeneracyVerdict:
    """Outcome of the face-by-face common-zero search.

    kind "degenerate_at": witness found; always conclusive.  kind
    "verified_up_to": no witness in any (F_{q^k}^*)^n for k <= checked_up_to;
    conclusive only when every face was settled by the vertex criterion
    rather than bounded enumeration.
    """

    kind: str
    conclusive: bool
    checked_up_to: int
    face: Face | None = None
    witness: tuple | None = None
    witness_degree: int | None = None

    @property
    def degenerate(self) -> bool:
        return self.kind == "degenerate_at"


def default_search_depth(q: int, n: int) -> int:
    """Largest K >= 1 with (q^K - 1)^n <= SEARCH_CAP."""
    K = 1
    while (q ** (K + 1) - 1) ** n <= SEARCH_CAP:
        K += 1
    return K


def check_nondegenerate(f: LaurentPoly, K: int | None = None) -> NondegeneracyVerdict:
    """Search every face off the origin for degenerate critical points.

    Vertex faces are settled exactly: a monomial a*t^w has all its
    logarithmic derivatives vanish somewhere (in fact everywhere) iff
    every w_i is divisible by p.  Higher-dimensional faces are searched
    by brute force over (F_{q^k}^*)^n for k = 1..K, which can only ever
    certify failure; absence of a witness is reported as non-conclusive.
    """
    base = f.field
    if base is None:
        raise InputError("this operation needs finite-field coefficients")
    if K is None:
        K = default_search_depth(base.q, f.n)
    if K < 1:
        raise InputError("search depth must be at least 1")
    all_conclusive = True
    for sigma in faces_not_containing_origin(f.newton()):
        f_sigma = face_restrict(f, sigma)
        if sigma.dim == 0:
            w = sigma.generators[0]
            if all(wi % base.p == 0 for wi in w):
                one = base.one()
                return NondegeneracyVerdict(
                    "degenerate_at", True, K, sigma, (one,) * f.n, 1)
            continue  # some exponent survives: monomial derivative never 0
        derivs = [log_derivative(f_sigma, i) for i in range(1, f.n + 1)]
        for k in range(1, K + 1):
            ext = extension_field(base, k)
            charge("torus search", (ext.q - 1) ** f.n)
            _, witness = torus_zeros(derivs, ext, first_only=True)
            if witness is not None:
                return NondegeneracyVerdict("degenerate_at", True, K, sigma, witness, k)
        all_conclusive = False
    return NondegeneracyVerdict("verified_up_to", all_conclusive, K)
