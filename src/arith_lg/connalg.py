"""Exact matrix-valued differential forms on the (t, x)-chart:
curvature, the connection report (pole classification along t = 0,
residue and Higgs extraction, the pole at t = oo), one-parameter
assembly, and the flat-structure conditions.

Matrices of rational functions represent connection forms; everything
is decided exactly over the rationals.  Variable 0 is t, variables
1..m are the base coordinates.

Every matrix identity is a linear combination of matrices, their
partial derivatives and matrix products, and one term builder, `_groups`,
yields its terms entry by entry, grouped by denominator as pairs of
numerators; no matrix of partial results is built.  Two reductions use
it.  A verdict (`_vanishes`) decides each entry on numerators alone, one
integer kernel call per group plus one cross-multiplied sum when there
are several, and stops at the first nonzero entry; the only rational
functions it builds are the partial derivatives of plain terms.
`curvature` turns the same groups into rational functions (`_entries`),
as `RatFunc.dot` does.  The pairing's determinant is certified nonzero
by its rank at one integer point, with the cofactor expansion as the
exact fallback.

Entries that are already RatFuncs are taken as they are.  On polynomial
entries the assembly of A + Phi/t + (R_0/t - R_inf) dt/t adds no
rational functions: each entry is a shift of t-exponents (`_over_t`).
"""

from __future__ import annotations

from math import lcm, prod
from typing import Mapping, Sequence

from .errors import InputError, VerificationError, frozen
from .exactla import _echelon, _lift as _lift_rows
from .mpoly import (RatFunc, _group_sum, _is_one, _lift, _one, _poly, _ratfunc,
                    _sum_products)

__all__ = [
    "MatForm",
    "FTSTuple",
    "ConnectionReport",
    "FTSReport",
    "MetricReport",
    "curvature",
    "poincare_rank",
    "assemble_nabla",
    "to_infinity_chart",
    "verify_connection",
    "verify_fts",
    "verify_metric",
]

RMat = tuple  # tuple of tuples of RatFunc


def _mat(rows, nvars: int, size: int | None = None) -> RMat:
    # a RatFunc in nvars variables is taken as it is
    out = tuple(tuple(v if type(v) is RatFunc and v.num.nvars == nvars else _lift(nvars, v)
                      for v in row) for row in rows)
    n = len(out)
    if n == 0 or any(len(r) != n for r in out):
        raise InputError("matrix must be square and nonempty")
    if size is not None and n != size:
        raise InputError(f"expected size {size}, got {n}")
    if any(v is None for row in out for v in row):
        raise InputError("matrix entries must be rational functions, "
                         "polynomials or constants")
    return out


def _zmat(size: int, nvars: int) -> RMat:
    z = RatFunc.const(nvars, 0)
    return tuple(tuple(z for _ in range(size)) for _ in range(size))


def _mtrans(a: RMat) -> RMat:
    return tuple(zip(*a))


def _mmap(fn, a: RMat) -> RMat:
    return tuple(tuple(fn(x) for x in row) for row in a)


def _mzero(a: RMat) -> bool:
    return all(x.is_zero for row in a for x in row)


def _meq(a: RMat, b: RMat) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _nvars(plain, products) -> int:
    return (plain or products)[0][1][0][0].nvars


def _groups(plain=(), products=()):
    """The terms, row by row, of each entry of sum s * d_i M + sum s * X Y,
    grouped by denominator: one dict {den: [(num_x, num_y), ...]} per
    entry, which is the sum over den of sum(num_x * num_y) / den.

    plain holds terms (s, M, i), with i the variable M is differentiated
    by, or None for M itself; products holds terms (s, X, Y); every sign
    s is 1 or -1 and goes onto num_x.  A plain term's entry, derived once,
    is paired with the constant 1; a product's denominators are
    multiplied only when neither is the shared constant 1.  Zero terms
    are skipped, and entries are made lazily, one per step.
    """
    size, one = len((plain or products)[0][1]), _one(_nvars(plain, products))
    cols = [tuple(zip(*Y)) for _, _, Y in products]
    for r in range(size):
        # row r of each X, signed once per row
        rows = [[(x.num if s == 1 else -x.num, x.den) if x.num.coeffs else None
                 for x in X[r]] for s, X, _ in products]
        for c in range(size):
            groups: dict = {}
            for s, M, i in plain:
                f = M[r][c] if i is None else M[r][c].partial(i)
                if f.num.coeffs:
                    groups.setdefault(f.den, []).append((f.num if s == 1 else -f.num, one))
            for row, col in zip(rows, cols):
                for x, y in zip(row, col[c]):
                    if x is not None and y.num.coeffs:
                        num, dx = x
                        dy = y.den
                        den = dy if dx is one else dx if dy is one else dx * dy
                        groups.setdefault(den, []).append((num, y.num))
            yield groups


def _entries(plain=(), products=()):
    """The entries, row by row, of sum s * d_i M + sum s * X Y, as
    rational functions built from `_groups`, as `RatFunc.dot` would."""
    nvars = _nvars(plain, products)
    for groups in _groups(plain, products):
        yield _group_sum(nvars, groups)


def _vanishes(plain=(), products=()) -> bool:
    """Whether sum s * d_i M + sum s * X Y is zero, decided entry by entry
    on numerators; False at the first nonzero entry, with no later entry
    computed.

    With S_g the numerator sum of the group over d_g, an entry
    sum_g S_g / d_g is zero iff sum_g S_g * prod_{h != g} d_h is, since
    no d_h is zero.  Groups with S_g = 0 drop out first, so one group left
    decides at once.
    """
    nvars = _nvars(plain, products)
    for groups in _groups(plain, products):
        sums = [(S, den) for den, pairs in groups.items()
                if (S := _sum_products(nvars, pairs)).coeffs]
        if len(sums) == 1:
            return False
        if len(sums) > 1:
            dens = [den for _, den in sums]
            cross = [(S, prod(dens[:g] + dens[g + 1:])) for g, (S, _) in enumerate(sums)]
            if _sum_products(nvars, cross).coeffs:
                return False
    return True


def _comm(X: RMat, Y: RMat) -> list:
    """The product terms of [X, Y] = XY - YX."""
    return [(1, X, Y), (-1, Y, X)]


def _curl(X: RMat, Y: RMat, a: int, b: int) -> tuple:
    """The terms of d_a Y - d_b X + [X, Y]: the dz_a^dz_b part of
    d + X dz_a + Y dz_b."""
    return [(1, Y, a), (-1, X, b)], _comm(X, Y)


class MatForm:
    """Matrix-valued differential form of degree 0, 1, or 2.

    Components are keyed by strictly increasing index tuples whose
    length is the degree: (0,) is the dt-part, (i,) the dx_i-part,
    (0, i) the dt^dx_i-part, and (i, j) with i < j the dx_i^dx_j-part.
    Zero components are dropped, so the stored set is canonical.
    """

    __slots__ = ("size", "nvars", "degree", "comps")

    def __init__(self, nvars: int, degree: int, comps: Mapping, size: int | None = None):
        if degree not in (0, 1, 2):
            raise InputError("form degree must be 0, 1, or 2")
        if nvars < 1:
            raise InputError("need at least the t variable")
        stored: dict[tuple[int, ...], RMat] = {}
        for key, rows in comps.items():
            k = tuple(int(v) for v in key)
            if len(k) != degree:
                raise InputError(f"component key {k} does not match degree {degree}")
            if any(not 0 <= v < nvars for v in k):
                raise InputError(f"component key {k} out of variable range")
            if any(k[a] >= k[a + 1] for a in range(len(k) - 1)):
                raise InputError(f"component key {k} must be strictly increasing")
            mat = _mat(rows, nvars, size)
            size = len(mat)
            if not _mzero(mat):
                stored[k] = mat
        if size is None:
            raise InputError("cannot infer matrix size from an empty form")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "comps", stored)

    def __setattr__(self, name, value):
        raise AttributeError("MatForm is immutable")

    def component(self, key) -> RMat:
        k = tuple(int(v) for v in key)
        return self.comps.get(k, _zmat(self.size, self.nvars))

    @property
    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other):
        if not isinstance(other, MatForm):
            return NotImplemented
        if (self.nvars, self.degree, self.size) != (other.nvars, other.degree, other.size):
            return False
        keys = set(self.comps) | set(other.comps)
        return all(_meq(self.component(k), other.component(k)) for k in keys)

    def __repr__(self):
        return (f"MatForm(degree={self.degree}, size={self.size}, "
                f"components={sorted(self.comps)})")


def curvature(A: MatForm) -> MatForm:
    """dA + A^A for a degree-1 form, expanded exactly.

    Over the variables z_0 = t, z_1..z_m = x, the dz_a^dz_b component
    (a < b) is d_a A_b - d_b A_a + [A_a, A_b].
    """
    if A.degree != 1:
        raise InputError("curvature needs a degree-1 form")
    n = A.size
    comps = {}
    for key, terms in _curls(A):
        entries = list(_entries(*terms))
        comps[key] = [entries[k:k + n] for k in range(0, n * n, n)]
    return MatForm(A.nvars, 2, comps, n)


def _curls(A: MatForm):
    """((a, b), terms of the dz_a^dz_b curvature component) for a < b."""
    parts = [A.component((a,)) for a in range(A.nvars)]
    for a in range(A.nvars):
        for b in range(a + 1, A.nvars):
            yield (a, b), _curl(parts[a], parts[b], a, b)


def _flat(A: MatForm) -> bool:
    """Whether curvature(A) vanishes; False at its first nonzero entry."""
    return all(_vanishes(*terms) for _, terms in _curls(A))


def poincare_rank(A: MatForm) -> int:
    """Pole normalization along t = 0: the least m with t^m A_i and
    t^{m+1} A_t regular; -1 when the form is regular with no dt/t."""
    if A.degree != 1:
        raise InputError("rank classification needs a degree-1 form")
    p_x = 0
    for key, mat in A.comps.items():
        if key == (0,):
            continue
        for row in mat:
            for v in row:
                p_x = max(p_x, v.t_pole_order())
    p_t = 0
    for row in A.component((0,)):
        for v in row:
            p_t = max(p_t, v.t_pole_order())
    if p_x == 0 and p_t == 0:
        return -1
    return max(p_x, p_t - 1, 0)


class FTSTuple:
    """Flat-structure tuple (A, Phi, R_0, R_inf[, g]) over the base.

    A and Phi are lists of dx_i coefficient matrices; R_0, R_inf, and
    the optional symmetric pairing g are matrices of functions of x.
    Nothing may involve t.
    """

    __slots__ = ("size", "m", "A", "phi", "r0", "rinf", "g")

    def __init__(self, size: int, m: int, A: Sequence, phi: Sequence,
                 r0, rinf, g=None):
        if size < 1:
            raise InputError("size must be at least 1")
        if m < 1:
            raise InputError("need at least one base variable")
        nvars = m + 1
        if len(A) != m or len(phi) != m:
            raise InputError(f"need exactly {m} dx-components")
        A_m = tuple(_mat(mat, nvars, size) for mat in A)
        phi_m = tuple(_mat(mat, nvars, size) for mat in phi)
        r0_m = _mat(r0, nvars, size)
        rinf_m = _mat(rinf, nvars, size)
        g_m = _mat(g, nvars, size) if g is not None else None
        for mat in (*A_m, *phi_m, r0_m, rinf_m) + ((g_m,) if g_m else ()):
            for row in mat:
                for v in row:
                    if v.involves(0):
                        raise InputError("tuple entries must not involve t")
        if g_m is not None and not _meq(g_m, _mtrans(g_m)):
            raise InputError("pairing matrix must be symmetric")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "A", A_m)
        object.__setattr__(self, "phi", phi_m)
        object.__setattr__(self, "r0", r0_m)
        object.__setattr__(self, "rinf", rinf_m)
        object.__setattr__(self, "g", g_m)

    def __setattr__(self, name, value):
        raise AttributeError("FTSTuple is immutable")

    @property
    def nvars(self) -> int:
        return self.m + 1


def _over_t(a: RatFunc, b: RatFunc, k: int, t_powers: tuple) -> RatFunc:
    """(a * t + b) / t^k for t-free a and b and k >= 1; t_powers[j] = t^j.

    Over two denominators 1 the normalized pair is known: a * t + b has
    t-valuation 0 unless b = 0, when the pair is a over t^(k-1), and t^k
    is monic and shares no other variable.  Over the lcm of the two
    denominators the content stays coprime to it, as in the MPoly
    constructor.  Other denominators take the normalizing RatFunc sum.
    """
    p, q = a.num, b.num
    if not (_is_one(a.den) and _is_one(b.den)):
        return (a.mul_t_power(1) + b).mul_t_power(-k)
    if not q.coeffs:
        return _ratfunc(p, t_powers[k - 1]) if p.coeffs else a
    if not p.coeffs:
        return _ratfunc(q, t_powers[k])
    den = lcm(p.denom, q.denom)
    sp, sq = den // p.denom, den // q.denom
    coeffs = {(1, *e[1:]): c * sp for e, c in p.coeffs.items()}
    coeffs.update((e, c * sq) for e, c in q.coeffs.items())
    return _ratfunc(_poly(p.nvars, coeffs, den), t_powers[k])


def assemble_nabla(T: FTSTuple) -> MatForm:
    """The one-parameter family A + Phi/t + (R_0/t - R_inf) dt/t: the
    dx_i-part (A_i * t + Phi_i) / t and the dt-part
    (-R_inf * t + R_0) / t^2, entry by entry."""
    nvars = T.nvars
    t_powers = (_one(nvars),) + tuple(_poly(nvars, {(k,) + (0,) * T.m: 1}) for k in (1, 2))

    def part(X: RMat, Y: RMat, k: int) -> RMat:
        return tuple(tuple(_over_t(x, y, k, t_powers) for x, y in zip(rx, ry))
                     for rx, ry in zip(X, Y))

    comps = {(i + 1,): part(T.A[i], T.phi[i], 1) for i in range(T.m)}
    comps[(0,)] = part(_mmap(lambda v: -v, T.rinf), T.r0, 2)
    return MatForm(nvars, 1, comps, T.size)


def to_infinity_chart(A: MatForm) -> MatForm:
    """Rewrite in the s = 1/t chart; variable 0 becomes s.

    dt = -ds/s^2, so the new ds-part is -A_t(1/s)/s^2 and the dx-parts
    are substituted entrywise.
    """
    if A.degree != 1:
        raise InputError("chart change needs a degree-1 form")
    comps = {}
    for key, mat in A.comps.items():
        if key == (0,):
            comps[key] = _mmap(
                lambda v: -v.subs_t_inverse().mul_t_power(-2), mat)
        else:
            comps[key] = _mmap(lambda v: v.subs_t_inverse(), mat)
    return MatForm(A.nvars, 1, comps, A.size)


def _t0_part(a: RMat, k: int = 0) -> RMat:
    """(t^k * a)|_{t=0}, entrywise."""
    if k:
        a = _mmap(lambda v: v.mul_t_power(k), a)
    return _mmap(lambda v: v.eval_t0(), a)


@frozen
class ConnectionReport:
    """Flatness and pole structure of a connection form.

    A flat form carries the restriction data its Poincare rank along
    t = 0 calls for: the residue for a logarithmic pole (rank <= 0), the
    Higgs field Phi = (t * dx-part)|_{t=0} and R_0 = (t^2 * dt-part)|_{t=0}
    for rank 1, and in every case whether the pole at t = oo is
    logarithmic, with its residue when it is.  Fields that do not apply
    are None; field order is the order of the CLI report.
    """

    flat: bool
    poincare_rank: int
    residue: RMat | None = None
    residue_horizontal: bool | None = None
    higgs: tuple | None = None  # Phi_i(0, x), i = 1..m
    r0: RMat | None = None
    higgs_squares_zero: bool | None = None
    higgs_commutes_r0: bool | None = None
    logarithmic_at_infinity: bool | None = None
    residue_at_infinity: RMat | None = None


def verify_connection(A: MatForm) -> ConnectionReport:
    """Curvature and Poincare rank of A, then, on a flat form, the
    restriction data of its poles at t = 0 and t = oo, with the
    identities flatness implies re-verified."""
    flat = _flat(A)
    rank = poincare_rank(A)
    if not flat:
        return ConnectionReport(flat, rank)
    m = A.nvars - 1
    data = {}
    if rank <= 0:
        omegas = [_t0_part(A.component((i,))) for i in range(1, m + 1)]
        residue = _t0_part(A.component((0,)), 1)
        restr_ok = all(_vanishes(*_curl(omegas[i], omegas[j], i + 1, j + 1))
                       for i in range(m) for j in range(i + 1, m))
        horiz_ok = all(
            _vanishes([(1, residue, i + 1)], _comm(omegas[i], residue))
            for i in range(m))
        if not (restr_ok and horiz_ok):  # pragma: no cover - implied by flatness
            raise VerificationError("restriction identities fail on a flat form")
        data.update(residue=residue, residue_horizontal=horiz_ok)
    elif rank == 1:
        higgs = tuple(_t0_part(A.component((i,)), 1) for i in range(1, m + 1))
        r0 = _t0_part(A.component((0,)), 2)
        squares = all(_vanishes((), _comm(higgs[i], higgs[j]))
                      for i in range(m) for j in range(i + 1, m))
        commutes = all(_vanishes((), _comm(r0, higgs[i])) for i in range(m))
        if not (squares and commutes):  # pragma: no cover - implied by flatness
            raise VerificationError("Higgs identities fail on a flat form")
        data.update(higgs=higgs, r0=r0, higgs_squares_zero=squares,
                    higgs_commutes_r0=commutes)
    B = to_infinity_chart(A)
    data["logarithmic_at_infinity"] = poincare_rank(B) <= 0
    if data["logarithmic_at_infinity"]:
        data["residue_at_infinity"] = _t0_part(B.component((0,)), 1)
    return ConnectionReport(flat, rank, **data)


@frozen
class FTSReport:
    """Per-condition verdicts plus the assembled-flatness verdict."""

    conditions: dict
    all_conditions_ok: bool
    assembled_flat: bool


def verify_fts(T: FTSTuple) -> FTSReport:
    """Check the six structure conditions one by one, and independently
    check flatness of the assembled one-parameter family.

    The two verdicts are equivalent by construction; deciding them from
    different identities (six on the base, one curvature on the
    (t, x)-chart) and comparing is the point of the exercise, and a
    divergence raises immediately.
    """
    m, A, phi, r0, rinf = T.m, T.A, T.phi, T.r0, T.rinf
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]

    cond: dict[str, bool] = {}
    cond["base_connection_flat"] = all(
        _vanishes(*_curl(A[i], A[j], i + 1, j + 1)) for i, j in pairs)

    cond["rinf_horizontal"] = all(
        _vanishes([(1, rinf, i + 1)], _comm(A[i], rinf)) for i in range(m))

    cond["higgs_wedge_zero"] = all(
        _vanishes((), _comm(phi[i], phi[j])) for i, j in pairs)

    cond["higgs_commutes_r0"] = all(
        _vanishes((), _comm(phi[i], r0)) for i in range(m))

    cond["higgs_horizontal"] = all(
        _vanishes([(1, phi[j], i + 1), (-1, phi[i], j + 1)],
                  _comm(A[i], phi[j]) + _comm(phi[i], A[j]))
        for i, j in pairs)

    cond["r0_transport"] = all(
        _vanishes([(1, r0, i + 1), (1, phi[i], None)],
                  _comm(A[i], r0) + _comm(rinf, phi[i]))
        for i in range(m))

    all_ok = all(cond.values())
    flat = _flat(assemble_nabla(T))
    if all_ok != flat:
        raise VerificationError(
            "six-condition verdict and assembled flatness disagree: "
            f"{cond} vs flat={flat}")
    return FTSReport(cond, all_ok, flat)


def _det(mat: RMat) -> RatFunc:
    """Cofactor expansion along the first row."""
    if len(mat) == 1:
        return mat[0][0]
    return RatFunc.dot(
        (-x if j % 2 else x, _det(tuple(row[:j] + row[j + 1:] for row in mat[1:])))
        for j, x in enumerate(mat[0]))


def _nonsingular(mat: RMat) -> bool:
    """Whether det mat is not identically zero.

    A certificate first: if mat at the integer point (1, 2, ..., nvars)
    has full rank, its determinant is nonzero there, so not zero as a
    function.  A singular value, or a pole at the point, decides
    nothing, and the cofactor expansion `_det` decides exactly.
    """
    point = tuple(range(1, mat[0][0].nvars + 1))
    try:
        value = [[x.eval(point) for x in row] for row in mat]
    except InputError:  # a denominator vanishes at the point
        return not _det(mat).is_zero
    return len(_echelon(_lift_rows(value)[0])[0]) == len(mat) or not _det(mat).is_zero


@frozen
class MetricReport:
    higgs_self_adjoint: bool
    r0_self_adjoint: bool
    rinf_skew_adjoint: bool
    pairing_flat: bool

    @property
    def all_ok(self) -> bool:
        return (self.higgs_self_adjoint and self.r0_self_adjoint
                and self.rinf_skew_adjoint and self.pairing_flat)


def verify_metric(T: FTSTuple) -> MetricReport:
    """Adjointness of Phi, R_0, R_inf with respect to g, plus flatness
    of g under the base connection."""
    if T.g is None:
        raise InputError("tuple carries no pairing matrix")
    if not _nonsingular(T.g):
        raise InputError("pairing matrix has zero determinant")
    g = T.g

    def adjoint(X: RMat, sign: int) -> bool:
        """X^T g + sign * g X vanishes."""
        return _vanishes((), [(1, _mtrans(X), g), (sign, g, X)])

    higgs_sa = all(adjoint(phi, -1) for phi in T.phi)
    r0_sa = adjoint(T.r0, -1)
    rinf_sk = adjoint(T.rinf, 1)
    flat = all(_vanishes([(1, g, i + 1)],
                         [(-1, _mtrans(A), g), (-1, g, A)])
               for i, A in enumerate(T.A))
    return MetricReport(higgs_sa, r0_sa, rinf_sk, flat)
