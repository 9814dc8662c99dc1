"""The integer kernels of exactla against elimination over Q.

The oracles are the plain Fraction versions of rref, nullspace,
mat_mul and mat_vec.  The integer kernels must give the same Fractions
(the RREF is unique), the same pivots, and Fraction entries only.
"""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

from arith_lg import exactla
from arith_lg.exactla import (mat_mul, mat_vec, nullspace, rref,
                              subspace_basis, subspace_contains,
                              subspace_intersect, subspace_sum)


# --- oracles: elimination and products over Q ---------------------------------

def oracle_rref(mat):
    rows = [list(r) for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def oracle_nullspace(mat):
    """One kernel vector per free column: 1 there, 0 at the other free
    columns, minus the RREF entries of that column at the pivots."""
    red, pivots = oracle_rref(mat)
    ncols = len(mat[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def oracle_mat_mul(a, b):
    bt = tuple(zip(*b)) if b else ()
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def oracle_mat_vec(a, v):
    vv = [Fraction(x) for x in v]
    return tuple(sum(x * y for x, y in zip(row, vv)) for row in a)


def with_oracle(fn, *args):
    """fn as it behaves when every elimination is the oracle's."""
    with mock.patch.object(exactla, "rref", oracle_rref):
        return fn(*args)


# --- rational matrices: small denominators, zeros, every shape ----------------

ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
)


@st.composite
def matrices(draw, rows=None, cols=None):
    nrows = draw(st.integers(1, 7)) if rows is None else rows
    ncols = draw(st.integers(1, 7)) if cols is None else cols
    m = [draw(st.lists(ENTRY, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    # zero rows, zero columns, and one row a multiple of another
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
        m[i] = [Fraction(0)] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in m:
            row[j] = Fraction(0)
    if nrows > 1 and draw(st.booleans()):
        src, dst = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        k = draw(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 12)))
        m[dst] = [k * v for v in m[src]]
    return tuple(tuple(row) for row in m)


SHAPES = st.one_of(
    matrices(),
    matrices(rows=1),                              # 1 x n
    st.integers(1, 3).flatmap(lambda r: matrices(rows=r, cols=8)),  # wide
    st.integers(1, 3).flatmap(lambda c: matrices(rows=8, cols=c)),  # tall
)


def all_fractions(mat):
    return all(type(x) is Fraction for row in mat for x in row)


# --- kernels -----------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(SHAPES)
def test_rref_matches_oracle(m):
    red, piv = rref(m)
    assert (red, piv) == oracle_rref(m)
    assert all_fractions(red)


def test_rref_negative_pivots():
    m = ((Fraction(-3), Fraction(1, 2), Fraction(0)),
         (Fraction(-6, 7), Fraction(0), Fraction(-1)),
         (Fraction(0), Fraction(-5, 12), Fraction(-2)))
    assert rref(m) == oracle_rref(m)
    assert rref(m)[0] == exactla.identity(3)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda k: st.tuples(matrices(cols=k), st.integers(1, 6).flatmap(
        lambda c: matrices(rows=k, cols=c)))))
def test_mat_mul_matches_oracle(ab):
    a, b = ab
    out = mat_mul(a, b)
    assert out == oracle_mat_mul(a, b)
    assert all_fractions(out)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda k: st.tuples(matrices(cols=k), st.lists(ENTRY, min_size=k, max_size=k))))
def test_mat_vec_matches_oracle(av):
    a, v = av
    out = mat_vec(a, v)
    assert out == oracle_mat_vec(a, v)
    assert all(type(x) is Fraction for x in out)


def test_mat_vec_converts_plain_numbers():
    a = ((Fraction(1, 2), Fraction(3)), (Fraction(0), Fraction(-1, 3)))
    assert mat_vec(a, [2, "3/4"]) == oracle_mat_vec(a, [2, "3/4"])


# --- the layers built on rref ------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(SHAPES)
def test_nullspace_matches_oracle(m):
    basis = nullspace(m)
    assert basis == oracle_nullspace(m)
    assert all_fractions(basis)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(matrices(cols=n), matrices(cols=n))))
def test_subspace_intersect_matches_oracle(pair):
    b1, b2 = (subspace_basis(m) for m in pair)
    out = subspace_intersect(b1, b2)
    assert out == with_oracle(subspace_intersect, b1, b2)
    assert all_fractions(out)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(matrices(cols=n), st.lists(ENTRY, min_size=n, max_size=n))),
    st.booleans())
def test_subspace_contains_matches_oracle(mv, inside):
    m, v = mv
    basis = subspace_basis(m)
    if inside:  # a combination of the rows, so the answer is not always no
        v = [sum(row[j] for row in m) for j in range(len(v))]
    # the rank test: v is in the span iff adding it keeps the rank
    vv = tuple(Fraction(x) for x in v)
    assert subspace_contains(basis, v) == (
        len(oracle_rref(m + (vv,))[0]) == len(oracle_rref(m)[0]))
    if inside:
        assert subspace_contains(basis, v)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(matrices(cols=n), matrices(cols=n),
                        st.lists(ENTRY, min_size=n, max_size=n))))
def test_subspace_results_are_canonical(mmv):
    m1, m2, v = mmv
    u, w = subspace_basis(m1), subspace_basis(m2)
    meet, total = subspace_intersect(u, w), subspace_sum(u, w)
    for b in (u, w, meet, total):
        assert subspace_basis(b) == b
        assert all_fractions(b)
    vv = tuple(v)
    assert subspace_contains(u, vv) == (len(rref(m1 + (vv,))[0]) == len(rref(m1)[0]))
    assert len(meet) + len(total) == len(u) + len(w)
