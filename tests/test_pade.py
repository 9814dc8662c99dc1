"""Pade fits by the extended Euclidean algorithm against the linear
system they replaced.

`cyclotomic._pade_at_order` reads the fit of a series off one row of
the extended Euclidean algorithm on (T^(K+1), series).  The reference
below is the earlier method: for each total degree d in increasing
order and each denominator degree, solve the linear system for the
denominator's coefficients by Gauss-Jordan elimination over Q(zeta_p)
and take the first solution.  Both must agree, None included, on
seeded series over Q(zeta_p) for p = 2, 3, 5 at the three orders
`linear_recurrence_reconstruct` uses.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from arith_lg.cyclotomic import CycloNum, CycloPoly, _pade_at_order


def solve_in_field(rows, rhs, p):
    """Any exact solution of rows * x = rhs, or None if inconsistent.

    Free variables are set to zero; plain Gaussian elimination since the
    scalars form a field.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    mat = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = []
    row = 0
    for col in range(ncols):
        sel = None
        for r in range(row, nrows):
            if mat[r][col]:
                sel = r
                break
        if sel is None:
            continue
        mat[row], mat[sel] = mat[sel], mat[row]
        inv = mat[row][col].inverse()
        mat[row] = [v * inv for v in mat[row]]
        for r in range(nrows):
            if r != row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[row])]
        pivots.append((row, col))
        row += 1
        if row == nrows:
            break
    for r in range(row, nrows):
        if mat[r][ncols]:
            return None
    x = [CycloNum.zero(p)] * ncols
    for r, c in pivots:
        x[c] = mat[r][ncols]
    return x


def pade_by_linear_system(ell, K, p):
    """Minimal-total-degree (N, D), N(0)=D(0)=1, with series match to
    order K; None when nothing of total degree <= (K-2)/2 matches."""
    zero = CycloNum.zero(p)
    for d in range(0, (K - 2) // 2 + 1):
        for d_den in range(0, d + 1):
            d_num = d - d_den
            rows = []
            rhs = []
            for n in range(d_num + 1, K + 1):
                rows.append([ell[n - j] if n - j >= 0 else zero
                             for j in range(1, d_den + 1)])
                rhs.append(-ell[n])
            if d_den > 0:
                sol = solve_in_field(rows, rhs, p)
                if sol is None:
                    continue
                den = [CycloNum.one(p)] + sol
            else:
                if any(rhs):
                    continue
                den = [CycloNum.one(p)]
            den_poly = CycloPoly(p, den)
            # numerator = truncation of ell * D at degree d_num
            num = []
            for i in range(d_num + 1):
                acc = zero
                for j in range(0, min(i, d_den) + 1):
                    acc = acc + den_poly.coefficient(j) * ell[i - j]
                num.append(acc)
            return CycloPoly(p, num), den_poly
    return None


def value(rng, p, irrational):
    """A small element of Q(zeta_p), zero one time in three."""
    if rng.random() < 1 / 3:
        return CycloNum.zero(p)
    coords = [Fraction(rng.randint(-2, 2))
              for _ in range(p - 1 if irrational else 1)]
    return CycloNum(p, coords + [0] * (p - 1 - len(coords)))


def series(rng, p, K, irrational):
    """ell_0 = 1, ell_1..ell_K: either the expansion of a random N/D with
    N(0) = D(0) = 1 of total degree at most 5 or, one time in four,
    random values."""
    if rng.random() < 0.25:
        return [CycloNum.one(p)] + [value(rng, p, irrational) for _ in range(K)]
    num = [CycloNum.one(p)] + [value(rng, p, irrational) for _ in range(rng.randint(0, 3))]
    den = [CycloNum.one(p)] + [value(rng, p, irrational) for _ in range(rng.randint(0, 2))]
    ell = []
    for n in range(K + 1):
        acc = num[n] if n < len(num) else CycloNum.zero(p)
        for j in range(1, min(n, len(den) - 1) + 1):
            acc = acc - den[j] * ell[n - j]
        ell.append(acc)
    return ell


# seeded series per (p, irrational values): 1000 in all
SERIES = {(2, False): 400, (3, False): 200, (3, True): 150, (5, False): 150, (5, True): 100}


def outcomes(p, irrational, seed):
    """(Euclid fit, reference fit) at orders K, K - 1, K - 2."""
    rng = random.Random(f"{p}-{irrational}-{seed}")
    K = rng.randint(4, 8 - p // 2 if irrational else 7)
    ell = series(rng, p, K, irrational)
    return [(_pade_at_order(ell[:k + 1], k, p), pade_by_linear_system(ell[:k + 1], k, p))
            for k in (K, K - 1, K - 2)]


@pytest.mark.parametrize("p,irrational", sorted(SERIES))
def test_euclid_fit_equals_the_linear_system_fit(p, irrational):
    count = SERIES[p, irrational]
    found = missing = 0
    for seed in range(count):
        for got, want in outcomes(p, irrational, seed):
            assert got == want, (p, irrational, seed)
            found += want is not None
            missing += want is None
    # both outcomes are exercised for every field and kind of value
    assert found >= count // 2 and missing >= count // 10
