"""Exact rational linear algebra helpers."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from arith_lg.exactla import (identity, mat_mul, mat_vec, nullspace, rref,
                              subspace_basis, subspace_contains,
                              subspace_intersect, subspace_sum, to_fractions,
                              transpose)


def M(rows):
    return to_fractions(rows)


class TestRref:
    def test_identity_fixed(self):
        red, piv = rref(identity(3))
        assert red == identity(3)
        assert piv == (0, 1, 2)

    def test_rank_deficient(self):
        red, piv = rref(M([[1, 2], [2, 4]]))
        assert red == M([[1, 2]])
        assert piv == (0,)

    def test_rank(self):
        assert len(rref(M([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))[0]) == 2
        assert rref(M([[0, 0], [0, 0]])) == ((), ())


class TestSolveNullspace:
    def test_nullspace_dimension(self):
        basis = nullspace(M([[1, 2, 3]]))
        assert len(basis) == 2
        for v in basis:
            assert sum(a * b for a, b in zip((1, 2, 3), v)) == 0

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                    min_size=1, max_size=3))
    @settings(deadline=None, max_examples=40)
    def test_rank_nullity(self, rows):
        m = M(rows)
        assert len(rref(m)[0]) + len(nullspace(m)) == 3


class TestMatrixOps:
    def test_mul_and_pow(self):
        a = M([[1, 1], [0, 1]])
        power = identity(2)
        for _ in range(5):
            power = mat_mul(power, a)
        assert power == M([[1, 5], [0, 1]])
        assert mat_mul(a, identity(2)) == a

    def test_mat_vec(self):
        assert mat_vec(M([[1, 2], [3, 4]]), [1, 1]) == (Fraction(3), Fraction(7))

    def test_transpose(self):
        assert transpose(M([[1, 2, 3]])) == M([[1], [2], [3]])


class TestSubspaces:
    def test_canonical_basis_equality(self):
        b1 = subspace_basis([(1, 1, 0), (0, 0, 1)])
        b2 = subspace_basis([(1, 1, 1), (2, 2, 1)])
        assert b1 == b2

    def test_sum_and_intersection_dims(self):
        u = subspace_basis([(1, 0, 0), (0, 1, 0)])
        w = subspace_basis([(0, 1, 0), (0, 0, 1)])
        assert len(subspace_sum(u, w)) == 3
        meet = subspace_intersect(u, w)
        assert len(meet) == 1
        assert subspace_contains(meet, (0, 5, 0))

    def test_intersection_of_disjoint_lines(self):
        u = subspace_basis([(1, 0)])
        w = subspace_basis([(0, 1)])
        assert subspace_intersect(u, w) == ()

    def test_contains(self):
        b = subspace_basis([(1, 2, 3)])
        assert subspace_contains(b, (2, 4, 6))
        assert not subspace_contains(b, (1, 2, 4))
        assert subspace_contains(b, (0, 0, 0))
        assert subspace_contains((), (0, 0, 0))

    @given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                    min_size=1, max_size=3),
           st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                    min_size=1, max_size=3))
    @settings(deadline=None, max_examples=40)
    def test_modular_law_of_dimensions(self, rows_u, rows_w):
        u = subspace_basis(rows_u)
        w = subspace_basis(rows_w)
        assert len(subspace_sum(u, w)) + len(subspace_intersect(u, w)) == len(u) + len(w)

    @given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                    min_size=1, max_size=3))
    @settings(deadline=None, max_examples=30)
    def test_intersection_contained_in_both(self, rows):
        u = subspace_basis(rows)
        w = subspace_basis([(1, 1, 1), (1, 0, 0)])
        meet = subspace_intersect(u, w)
        for v in meet:
            assert subspace_contains(u, v)
            assert subspace_contains(w, v)
