"""Exact linear algebra over the rationals.

Matrices are tuples of row tuples of Fraction.  A subspace of Q^n is
its reduced-row-echelon basis, which is canonical: two subspaces are
equal iff their bases are (==), the dimension is len, and the basis is
hashable.  That form is built once, by `subspace_basis`, `subspace_sum`
and `subspace_intersect`; every subspace argument must be a value one
of them returned, and nothing here reduces it again.  Everything here
is small and dense; callers stay at desk scale.

Fraction is the boundary type only.  Inside, `rref` eliminates
fraction-free: each row is scaled to a primitive integer row (integers
with gcd 1), row operations are integer cross-multiplications with the
new row's gcd content divided out, and each pivot row is divided by its
pivot once, at the end.  `mat_mul` and `mat_vec` lift each operand to an
integer matrix over one common denominator.  The results are the same
Fractions as elimination over Q, since the RREF is unique.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

__all__ = [
    "to_fractions", "rref", "rank", "nullspace",
    "identity", "transpose", "mat_mul", "mat_vec",
    "subspace_basis", "subspace_sum", "subspace_intersect", "subspace_contains",
]


def to_fractions(rows: Iterable[Sequence]) -> Mat:
    return tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row)
                 for row in rows)


_ZERO, _ONE = Fraction(0), Fraction(1)


def _frac(n: int, den: int) -> Fraction:
    """n / den; the common values 0 and 1 are shared (Fraction is immutable)."""
    if not n:
        return _ZERO
    if n == den:
        return _ONE
    return Fraction(n) if den == 1 else Fraction(n, den)


def _lift(mat: Mat) -> tuple[list[list[int]], int]:
    """Integer rows over one common denominator: mat = rows / den."""
    den = lcm(*[x.denominator for row in mat for x in row])
    return [[x.numerator * (den // x.denominator) for x in row] for row in mat], den


def _primitive(row: list[int]) -> list[int]:
    """The row with its gcd content divided out (a zero row stays)."""
    g = gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def rref(mat: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form with zero rows dropped, plus pivot columns."""
    rows = [_primitive(row) for row in _lift(mat)[0]]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                g = gcd(p, f)
                a, b = p // g, f // g
                rows[i] = _primitive([a * v - b * w for v, w in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    red = tuple(tuple(_frac(v, rows[i][c]) for v in rows[i])
                for i, c in enumerate(pivots))
    return red, tuple(pivots)


def rank(mat: Mat) -> int:
    return len(rref(to_fractions(mat))[0])


def nullspace(mat: Mat) -> list[Vec]:
    """Basis of the right kernel, one vector per free column."""
    m = to_fractions(mat)
    if not m:
        return []
    ncols = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def identity(n: int) -> Mat:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def transpose(mat: Mat) -> Mat:
    return tuple(zip(*mat)) if mat else ()


def mat_mul(a: Mat, b: Mat) -> Mat:
    ia, da = _lift(a)
    ib, db = _lift(b)
    den = da * db
    cols = list(zip(*ib))
    return tuple(tuple(_frac(sum(map(mul, row, col)), den) for col in cols)
                 for row in ia)


def mat_vec(a: Mat, v: Sequence) -> Vec:
    ia, da = _lift(a)
    (iv,), dv = _lift(to_fractions((v,)))
    den = da * dv
    return tuple(_frac(sum(map(mul, row, iv)), den) for row in ia)


def subspace_basis(vectors: Iterable[Sequence]) -> Mat:
    """Canonical (RREF) basis of the span of the given row vectors."""
    m = to_fractions(vectors)
    if not m:
        return ()
    return rref(m)[0]


def subspace_sum(b1: Mat, b2: Mat) -> Mat:
    if not b1 or not b2:
        return b1 or b2
    return subspace_basis(b1 + b2)


def subspace_intersect(b1: Mat, b2: Mat) -> Mat:
    """Zassenhaus: reduce [[u|u]; [w|0]]; the rows with zero left half
    come last, and their right halves are the RREF basis of the
    intersection."""
    if not b1 or not b2:
        return ()
    n = len(b1[0])
    stacked = [u + u for u in b1] + [w + (_ZERO,) * n for w in b2]
    red, _ = rref(stacked)
    return tuple(row[n:] for row in red if not any(row[:n]))


def subspace_contains(basis: Mat, v: Sequence) -> bool:
    """v reduced at the pivot (first nonzero entry, a 1) of each basis
    row is zero."""
    rest = to_fractions((v,))[0]
    for row in basis:
        f = rest[next(i for i, x in enumerate(row) if x)]
        if f:
            rest = tuple(a - f * b for a, b in zip(rest, row))
    return not any(rest)
