"""Exact linear algebra over the rationals, in two layers.

The integer kernels, on lists of integer rows, are what the monodromy
filtration and `polytope` run on.  `_lift` puts a Fraction matrix over
one common denominator.  `_echelon` eliminates fraction-free: each row
is scaled to a primitive integer row (integers with gcd 1), row
operations are integer cross-multiplications with the new row's gcd
content divided out, and the result is the reduced echelon form with
primitive rows, each zero in every other row's pivot column.
`_det` is Bareiss's fraction-free determinant of a square integer
matrix, for `polytope.normalized_volume`.
`_reduces` decides membership in its span by one integer reduction of
the vector against those rows, `_kernel` gives a primitive integer
basis of the right kernel, and `_dots` multiplies, skipping zero
entries.  `_fractions` makes the RREF by dividing each row by its pivot
once, at the end.

The public functions are the reference that checks them (acceptance
criterion 8, the tests): Gauss-Jordan elimination over Fraction that
shares no code with the kernels.  Since the RREF is unique, both give
the same Fractions.  A subspace of Q^n is its RREF basis, which is
canonical: two subspaces are equal iff their bases are (==), the
dimension is len, and the basis is hashable.  That form is built once,
by `subspace_basis`, `subspace_sum` and `subspace_intersect`; every
subspace argument must be a value one of them returned, and nothing
here reduces it again.  Everything here is small and dense.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

__all__ = [
    "to_fractions", "rref", "nullspace",
    "identity", "transpose", "mat_mul", "mat_vec",
    "subspace_basis", "subspace_sum", "subspace_intersect", "subspace_contains",
]


def to_fractions(rows: Iterable[Sequence]) -> Mat:
    return tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row)
                 for row in rows)


_ZERO, _ONE = Fraction(0), Fraction(1)


# --- the integer kernels -------------------------------------------------------

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


def _echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """The reduced echelon form of integer rows, primitive and with zero
    rows dropped, plus the pivot columns.  The input is not modified."""
    rows = [_primitive(list(row)) for row in rows]
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
    return rows[:r], pivots


def _det(rows: Sequence[Sequence[int]]) -> int:
    """The determinant of a square integer matrix, by Bareiss's
    fraction-free elimination: each entry after a step is a minor of the
    input, so each division by the previous pivot is exact.  The input
    is not modified."""
    m = [list(row) for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for c in range(n):
        sel = next((r for r in range(c, n) if m[r][c]), None)
        if sel is None:
            return 0
        if sel != c:
            m[c], m[sel] = m[sel], m[c]
            sign = -sign
        prow = m[c]
        p = prow[c]
        for r in range(c + 1, n):
            f = m[r][c]
            m[r] = [(p * v - f * w) // prev for v, w in zip(m[r], prow)]
        prev = p
    return sign * prev


def _fractions(rows: list[list[int]], pivots: Sequence[int]) -> Mat:
    """The RREF of reduced echelon rows: each row divided by its pivot."""
    return tuple(tuple(_frac(v, row[c]) for v in row) for row, c in zip(rows, pivots))


def _reduces(rows: list[list[int]], pivots: Sequence[int], v: Sequence[int]) -> bool:
    """Whether v lies in the span of reduced echelon rows: v reduced at
    each row's pivot is zero."""
    for row, c in zip(rows, pivots):
        f = v[c]
        if f:
            p = row[c]
            g = gcd(p, f)
            a, b = p // g, f // g
            v = _primitive([a * x - b * w for x, w in zip(v, row)])
    return not any(v)


def _kernel(rows: list[list[int]], pivots: Sequence[int], ncols: int) -> list[list[int]]:
    """A primitive integer basis of the right kernel of reduced echelon
    rows, one vector per free column."""
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        used = [(row, c) for row, c in zip(rows, pivots) if row[fc]]
        m = lcm(*[row[c] for row, c in used])
        v = [0] * ncols
        v[fc] = m
        for row, c in used:
            v[c] = -row[fc] * (m // row[c])
        basis.append(_primitive(v))
    return basis


def _dots(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """The integer product a * b^T, row i summing x * (column k of b) over
    the nonzero x = a[i][k] only (x = 1 unscaled): most entries are 0 or 1."""
    cols = list(zip(*b))
    out = []
    for row in a:
        acc = [0] * len(b)
        for x, col in compress(zip(row, cols), row):
            acc = list(map(add, acc, col)) if x == 1 else [s + x * c for s, c in zip(acc, col)]
        out.append(acc)
    return out


# --- the reference: Gauss-Jordan elimination over Q ----------------------------

def identity(n: int) -> Mat:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def transpose(mat: Mat) -> Mat:
    return tuple(zip(*mat)) if mat else ()


def rref(mat: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form with zero rows dropped, plus pivot
    columns: each pivot row is divided by its pivot, and that multiple
    of it is subtracted from every other row."""
    rows = [list(row) for row in to_fractions(mat)]
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        prow = rows[r] = [v / rows[r][c] for v in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                rows[i] = [v - f * w for v, w in zip(row, prow)]
        pivots.append(c)
    return tuple(tuple(row) for row in rows[:len(pivots)]), tuple(pivots)


def nullspace(mat: Mat) -> list[Vec]:
    """Basis of the right kernel, one vector per free column: 1 there,
    0 at the other free columns, and minus that column's RREF entries
    at the pivots."""
    red, pivots = rref(mat)
    ncols = len(mat[0]) if mat else 0
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [_ZERO] * ncols
        v[fc] = _ONE
        for row, c in zip(red, pivots):
            v[c] = -row[fc]
        basis.append(tuple(v))
    return basis


def mat_mul(a: Mat, b: Mat) -> Mat:
    cols = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col), _ZERO) for col in cols) for row in a)


def mat_vec(a: Mat, v: Sequence) -> Vec:
    (v,) = to_fractions((v,))
    return tuple(sum(map(mul, row, v), _ZERO) for row in a)


def subspace_basis(vectors: Iterable[Sequence]) -> Mat:
    """Canonical (RREF) basis of the span of the given row vectors."""
    return rref(vectors)[0]


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
    """Whether v reduces to zero against the RREF basis rows: each row's
    pivot is its first nonzero entry, 1, and no other row has an entry
    there, so one pass subtracts each row once."""
    (v,) = to_fractions((v,))
    for row in basis:
        f = v[next(i for i, x in enumerate(row) if x)]
        if f:
            v = [x - f * w for x, w in zip(v, row)]
    return not any(v)
