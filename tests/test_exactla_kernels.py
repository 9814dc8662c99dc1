"""The integer kernels of exactla against its plain-Q reference.

The oracle is exactla's public Fraction API: rref, nullspace, mat_mul,
mat_vec and the subspace functions, Gauss-Jordan elimination over Q
that shares no code with the kernels (a scan below keeps it so).  Each
test names the public function that is its oracle.  The kernels must
give the same Fractions (the RREF is unique), the same pivots, the same
kernel vectors up to scale, products and memberships, and Fraction
entries only.
"""

from __future__ import annotations

import ast
import random
from fractions import Fraction
from operator import mul
from pathlib import Path

from hypothesis import given, settings, strategies as st

from arith_lg import acceptance, exactla
from arith_lg.exactla import (_det, _dots, _echelon, _fractions, _kernel, _lift, _reduces,
                              mat_mul, mat_vec, nullspace, rref, subspace_basis,
                              subspace_contains, subspace_intersect, subspace_sum,
                              to_fractions)

KERNELS = {"_lift", "_primitive", "_echelon", "_det", "_fractions", "_reduces", "_kernel",
           "_dots"}


def kernel_rref(m):
    """The RREF and pivots as the integer kernels make them."""
    rows, piv = _echelon(_lift(m)[0])
    return _fractions(rows, piv), tuple(piv)


def lifted(v):
    """v as an integer row with the same span."""
    return _lift(to_fractions((v,)))[0][0]


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
    assert kernel_rref(m) == (red, piv)
    assert all_fractions(red) and all_fractions(kernel_rref(m)[0])


def test_rref_negative_pivots():
    m = ((Fraction(-3), Fraction(1, 2), Fraction(0)),
         (Fraction(-6, 7), Fraction(0), Fraction(-1)),
         (Fraction(0), Fraction(-5, 12), Fraction(-2)))
    assert kernel_rref(m) == rref(m) == (exactla.identity(3), (0, 1, 2))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda k: st.tuples(matrices(cols=k), st.integers(1, 6).flatmap(
        lambda c: matrices(rows=k, cols=c)))))
def test_mat_mul_matches_oracle(ab):
    a, b = ab
    (ia, da), (ib, db) = _lift(a), _lift(b)
    out = mat_mul(a, b)
    assert out == tuple(tuple(Fraction(x, da * db) for x in row)
                        for row in _dots(ia, list(zip(*ib))))
    assert all_fractions(out)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda k: st.tuples(matrices(cols=k), st.lists(ENTRY, min_size=k, max_size=k))))
def test_mat_vec_matches_oracle(av):
    a, v = av
    (ia, da), ((iv,), dv) = _lift(a), _lift((v,))
    out = mat_vec(a, v)
    assert out == tuple(Fraction(x, da * dv) for x in _dots((iv,), ia)[0])
    assert all(type(x) is Fraction for x in out)


def dense_dots(a, b):
    """a * b^T, every product taken: the sparse kernel's own oracle."""
    return [[sum(map(mul, r, c)) for c in b] for r in a]


INT_ENTRY = st.one_of(st.just(0), st.just(1), st.integers(-40, 40))


@st.composite
def int_products(draw):
    """(a, b) with a k columns and b k columns: zero rows, all-zero and
    dense rows, negative entries, every shape including an empty a."""
    k = draw(st.integers(1, 7))
    a = draw(st.lists(st.lists(INT_ENTRY, min_size=k, max_size=k), max_size=7))
    b = draw(st.lists(st.lists(INT_ENTRY, min_size=k, max_size=k), min_size=1, max_size=7))
    if a and draw(st.booleans()):
        a[draw(st.integers(0, len(a) - 1))] = [0] * k
    return a, b


@settings(max_examples=200, deadline=None)
@given(int_products())
def test_dots_matches_every_product(ab):
    a, b = ab
    assert _dots(a, b) == dense_dots(a, b)


def test_dots_edge_shapes():
    b = [[1, -2, 0], [3, 0, -1]]
    cases = [[], [[0, 0, 0]], [[0, 0, 0], [0, 0, 0]], [[-5, 7, 2]], [[1, 1, 1], [0, 1, 0]]]
    for a in cases:
        assert _dots(a, b) == dense_dots(a, b)
    assert _dots([[0, 0, 0]], b) == [[0, 0]]
    assert _dots([[2, 0], [0, -1]], [[1, 2], [3, 4], [5, 6]]) == [[2, 6, 10], [-2, -4, -6]]


def test_mat_vec_converts_plain_numbers():
    a = ((Fraction(1, 2), Fraction(3)), (Fraction(0), Fraction(-1, 3)))
    out = mat_vec(a, [2, "3/4"])
    assert out == mat_vec(a, [Fraction(2), Fraction(3, 4)]) == (Fraction(13, 4), Fraction(-1, 4))
    assert all(type(x) is Fraction for x in out)


@settings(max_examples=80, deadline=None)
@given(SHAPES)
def test_nullspace_matches_oracle(m):
    basis = nullspace(m)
    rows, piv = _echelon(_lift(m)[0])
    ncols = len(m[0])
    free = [c for c in range(ncols) if c not in piv]
    # each integer kernel vector, divided by its entry at its free column
    assert basis == [tuple(Fraction(x, v[fc]) for x in v)
                     for fc, v in zip(free, _kernel(rows, piv, ncols))]
    assert all_fractions(basis)
    for v in basis:
        assert not any(mat_vec(m, v))


# --- the subspace layers -------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(matrices(cols=n), matrices(cols=n))))
def test_subspace_intersect_matches_oracle(pair):
    b1, b2 = (subspace_basis(m) for m in pair)
    meet = subspace_intersect(b1, b2)
    assert all_fractions(meet)
    assert kernel_rref(meet)[0] == meet
    for b in (b1, b2):
        rows, piv = _echelon(_lift(b)[0])
        assert all(_reduces(rows, piv, lifted(v)) for v in meet)
    # dim(U meet W) = dim U + dim W - dim(U + W)
    assert len(meet) == len(b1) + len(b2) - len(_echelon(_lift(b1 + b2)[0])[0])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(matrices(cols=n), st.lists(ENTRY, min_size=n, max_size=n))),
    st.booleans())
def test_subspace_contains_matches_oracle(mv, inside):
    m, v = mv
    basis = subspace_basis(m)
    if inside:  # a combination of the rows, so the answer is not always no
        v = [sum(row[j] for row in m) for j in range(len(v))]
    rows, piv = _echelon(_lift(m)[0])
    assert subspace_contains(basis, v) == _reduces(rows, piv, lifted(v))
    # the rank test: v is in the span iff adding it keeps the rank
    vv = tuple(Fraction(x) for x in v)
    assert subspace_contains(basis, v) == (len(rref(m + (vv,))[0]) == len(rref(m)[0]))
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


# --- the reference stays independent --------------------------------------------

def named(node) -> set[str]:
    """The names, attributes and imported names under node."""
    return {n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
            else n.name for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}



def fraction_det(rows):
    """The determinant by Gaussian elimination over Fraction, as polytope
    computed simplex volumes before exactla's Bareiss `_det`."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        sel = next((r for r in range(c, n) if m[r][c]), None)
        if sel is None:
            return Fraction(0)
        if sel != c:
            m[c], m[sel] = m[sel], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                m[r] = [v - f * w for v, w in zip(m[r], m[c])]
    return det


def test_det_matches_the_fraction_elimination():
    """Seeded 1-4-dimensional integer matrices: a third with a zero in the
    first pivot (a row swap), a third with the last row a combination of
    the others (singular, when n > 1)."""
    rng = random.Random(20261020)
    swaps = singular = 0
    for case in range(20_000):
        n = case % 4 + 1
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if case % 3 == 1:
            m[0][0] = 0
            swaps += any(row[0] for row in m)
        elif case % 3 == 2 and n > 1:
            coeffs = [rng.randint(-3, 3) for _ in range(n - 1)]
            m[-1] = [sum(a * row[j] for a, row in zip(coeffs, m)) for j in range(n)]
        frozen = [row[:] for row in m]
        want = fraction_det(m)
        got = _det(m)
        assert type(got) is int and got == want, m
        assert m == frozen  # the input is not modified
        singular += not want
    assert swaps > 4_000 and singular > 4_000
    assert _det([]) == 1

def test_the_reference_names_no_kernel():
    tree = ast.parse(Path(exactla.__file__).read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    private = {name for name in defs if name.startswith("_")}
    assert KERNELS <= private
    assert {"rref", "nullspace", "subspace_contains"} <= set(exactla.__all__) & set(defs)
    assert {name: named(defs[name]) & private for name in exactla.__all__
            if name in defs and named(defs[name]) & private} == {}
    # acceptance, whose criterion 8 is the shipped check, names no kernel either
    assert named(ast.parse(Path(acceptance.__file__).read_text())) & private == set()
