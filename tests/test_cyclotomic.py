"""Cyclotomic arithmetic, characters, Newton identities, L reconstruction."""

from __future__ import annotations

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arith_lg.cyclotomic import (CycloNum, CycloPoly, all_embeddings,
                                 char_poly_from_power_sums, conj_sigma,
                                 embed_complex, linear_recurrence_reconstruct,
                                 psi, validate_power_sums)
from arith_lg.errors import InputError, VerificationError
from arith_lg.ffield import enumerate_torus, make_field


def rat(p, v):
    return CycloNum.from_rational(p, v)


ARITHMETIC = [operator.add, operator.sub, operator.mul, operator.truediv]


@st.composite
def cyclotomic_roots(draw):
    """p in (5, 7) and 1..3 roots in Z[zeta_p] with coordinates in
    -2..2, picked from a pool of two so that repeated roots are common."""
    p = draw(st.sampled_from((5, 7)))
    coords = st.lists(st.integers(-2, 2), min_size=p - 1, max_size=p - 1)
    pool = draw(st.lists(coords, min_size=1, max_size=2))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    return p, [CycloNum(p, c) for c in picks]


class TestCycloNum:
    def test_zeta_power_basis_reduction(self):
        z4 = CycloNum.zeta(5, 4)
        assert z4.coords == (Fraction(-1),) * 4
        assert CycloNum.zeta(5, 7) == CycloNum.zeta(5, 2)

    def test_zeta_sum_vanishes(self):
        for p in (2, 3, 5, 7):
            total = CycloNum.zero(p)
            for e in range(p):
                total = total + CycloNum.zeta(p, e)
            assert not total

    def test_p2_is_sign(self):
        assert CycloNum.zeta(2, 1) == -CycloNum.one(2)
        assert CycloNum.zeta(2, 1) * CycloNum.zeta(2, 1) == 1

    def test_multiplication_wraps(self):
        z = CycloNum.zeta(5, 1)
        assert z * CycloNum.zeta(5, 4) == 1
        assert z * z == CycloNum.zeta(5, 2)

    def test_rational_predicates(self):
        assert rat(5, Fraction(3, 7)).is_rational
        assert rat(5, Fraction(3, 7)).rational_value() == Fraction(3, 7)
        assert not CycloNum.zeta(5, 1).is_rational
        with pytest.raises(InputError):
            CycloNum.zeta(5, 1).rational_value()

    def test_cross_field_rational_equality(self):
        assert rat(5, 3) == rat(3, 3)
        assert rat(5, 3) == 3
        assert hash(rat(5, 3)) == hash(rat(7, 3)) == hash(Fraction(3))

    def test_cross_field_rational_arithmetic(self):
        a = rat(5, 2)
        b = rat(3, Fraction(1, 2))
        assert (a + b).rational_value() == Fraction(5, 2)
        assert (a * b) == 1

    def test_mixed_irrational_fields_raise(self):
        with pytest.raises(InputError):
            CycloNum.zeta(5, 1) + CycloNum.zeta(3, 1)
        for op in ARITHMETIC:
            with pytest.raises(InputError, match="mixed cyclotomic fields"):
                op(CycloNum.zeta(5, 1), CycloNum.zeta(3, 1))

    @pytest.mark.parametrize("op", ARITHMETIC)
    def test_mixed_rationals_land_in_the_left_field(self, op):
        a, b = rat(5, 2), rat(3, Fraction(1, 2))
        assert op(a, b).p == 5
        assert op(b, a).p == 3
        assert op(a, b) == op(2, Fraction(1, 2))

    @pytest.mark.parametrize("op", ARITHMETIC)
    def test_a_rational_of_another_field_lifts_into_an_irrational_one(self, op):
        z, r = CycloNum.zeta(5, 1) + 1, rat(3, 2)
        assert op(z, r).p == op(r, z).p == 5
        assert op(z, r) == op(z, 2)
        assert op(r, z) == op(2, z)

    @pytest.mark.parametrize("make", [
        CycloNum.zero, CycloNum.one, lambda p: CycloNum.from_rational(p, 2),
        lambda p: CycloNum.zeta(p, 1), lambda p: CycloNum.from_zeta_powers(p, [1] * p),
        lambda p: CycloNum(p, [0] * max(p - 1, 0))],
        ids=["zero", "one", "from_rational", "zeta", "from_zeta_powers", "init"])
    @pytest.mark.parametrize("p", [0, 1, 4])
    def test_every_constructor_checks_p(self, make, p):
        with pytest.raises(InputError, match=f"^{p} is not prime"):
            make(p)

    @pytest.mark.parametrize("acc", [[0] * 7 + [1], [1, 2], [], [0] * 4])
    def test_zeta_powers_need_exactly_p_sums(self, acc):
        # a longer list would drop zeta^7 = zeta^2 silently, a shorter one
        # would index past its end
        with pytest.raises(InputError, match="^need 5 zeta-power sums, got "):
            CycloNum.from_zeta_powers(5, acc)

    def test_zeta_powers_reduce_to_the_power_basis(self):
        # 3 + 2 zeta^2 + zeta^4 = (3 - 1) + 2 zeta^2 - (zeta + zeta^2 + zeta^3)
        assert CycloNum.from_zeta_powers(5, [3, 0, 2, 0, 1]) == CycloNum(5, [2, -1, 1, -1])

    def test_int_coercion(self):
        z = CycloNum.zeta(5, 1)
        assert (1 + z) - z == 1
        assert 2 * z == z + z
        assert (z / 1) == z
        assert (1 / z) == CycloNum.zeta(5, 4)

    small_rats = st.fractions(min_value=-3, max_value=3, max_denominator=4)

    @given(st.tuples(small_rats, small_rats, small_rats, small_rats))
    @settings(deadline=None, max_examples=50)
    def test_inverse_roundtrip(self, coords):
        z = CycloNum(5, coords)
        if z:
            assert z * z.inverse() == 1
            assert (1 / z) * z == 1

    @given(st.sampled_from((2, 3, 13)), small_rats.filter(bool))
    @settings(deadline=None, max_examples=50)
    def test_rational_inverse_is_the_reciprocal(self, p, c):
        assert CycloNum.from_rational(p, c).inverse() == CycloNum.from_rational(p, 1 / c)

    @given(st.sampled_from((3, 7, 13)), st.data())
    @settings(deadline=None, max_examples=50)
    def test_irrational_inverse_roundtrip(self, p, data):
        z = CycloNum(p, data.draw(st.lists(self.small_rats, min_size=p - 1,
                                           max_size=p - 1)))
        if not z.is_rational:
            assert z * z.inverse() == 1

    @given(st.tuples(small_rats, small_rats), st.tuples(small_rats, small_rats))
    @settings(deadline=None, max_examples=50)
    def test_ring_axioms_p3(self, a, b):
        x, y = CycloNum(3, a), CycloNum(3, b)
        assert x + y == y + x
        assert x * y == y * x
        assert x * (y + 1) == x * y + x

    def test_norm_is_rational(self):
        z = CycloNum(7, (1, 2, 0, 0, 3, 1))
        prod = CycloNum.one(7)
        for a in range(1, 7):
            prod = prod * conj_sigma(z, a)
        assert prod.is_rational


class TestGaloisAction:
    def test_sigma_one_is_identity(self):
        z = CycloNum(5, (1, 2, 3, 4))
        assert conj_sigma(z, 1) == z

    def test_sigma_fixes_rationals(self):
        assert conj_sigma(rat(5, Fraction(2, 3)), 3) == Fraction(2, 3)

    def test_sigma_on_zeta(self):
        assert conj_sigma(CycloNum.zeta(5, 1), 2) == CycloNum.zeta(5, 2)
        assert conj_sigma(CycloNum.zeta(5, 2), 3) == CycloNum.zeta(5, 6)

    def test_sigma_composition(self):
        z = CycloNum(7, (1, 0, 2, 0, 0, 5))
        assert conj_sigma(conj_sigma(z, 2), 3) == conj_sigma(z, 6)

    def test_sigma_is_ring_hom(self):
        x = CycloNum(5, (1, 2, 0, 1))
        y = CycloNum(5, (0, 1, 1, 3))
        assert conj_sigma(x * y, 3) == conj_sigma(x, 3) * conj_sigma(y, 3)
        assert conj_sigma(x + y, 3) == conj_sigma(x, 3) + conj_sigma(y, 3)

    def test_non_unit_rejected(self):
        with pytest.raises(InputError, match="^0 is not a unit mod 5"):
            conj_sigma(CycloNum.zeta(5, 1), 0)
        with pytest.raises(InputError, match="10 is not a unit mod 5"):
            conj_sigma(CycloNum.zeta(5, 1), 10)


class TestCharacter:
    def test_psi_is_additive_to_multiplicative(self):
        F = make_field(5, 2)
        a, b = F.element((1, 2)), F.element((3, 1))
        assert psi(a) * psi(b) == psi(a + b)

    def test_psi_inverse_power(self):
        # the inverse character: psi(-a) = sigma_{-1}(psi(a))
        F = make_field(5, 1)
        a = F.from_int(2)
        assert psi(-a) == conj_sigma(psi(a), -1) == conj_sigma(psi(a), 4)
        assert psi(a) * psi(-a) == 1

    def test_psi_char2(self):
        F4 = make_field(2, 2)
        vals = {psi(F4.element(t)).rational_value()
                for t in [(0, 0), (1, 0), (0, 1), (1, 1)]}
        assert vals == {1, -1}

    def test_kloosterman_sum_f5(self):
        # f = t + 1/t on the F_5 torus; values are {2, 0, 0, 3} as t runs
        # over 1..4, so the sum is 2 + zeta^2 + zeta^3
        F5 = make_field(5, 1)
        S = CycloNum.zero(5)
        for (t,) in enumerate_torus(F5, 1):
            S = S + psi(t + t.inverse())
        z = CycloNum.zeta
        assert S == 2 + z(5, 2) + z(5, 3)

    def test_full_field_character_sum_vanishes(self):
        # sum over all of F_q of psi is 0 (q/p elements per trace fiber)
        F9 = make_field(3, 2)
        total = CycloNum.zero(3)
        for i in range(3):
            for j in range(3):
                total = total + psi(F9.element((i, j)))
        assert not total


class TestComplexEmbeddings:
    def test_zeta_on_unit_circle(self):
        z = CycloNum.zeta(7, 1)
        for a in range(1, 7):
            assert abs(abs(embed_complex(z, a)) - 1) < 1e-12

    def test_golden_ratio_value(self):
        # zeta_5 + zeta_5^4 = 2 cos(2 pi / 5) = (sqrt(5) - 1) / 2
        z = CycloNum.zeta(5, 1) + CycloNum.zeta(5, 4)
        assert abs(embed_complex(z) - (5 ** 0.5 - 1) / 2) < 1e-12

    def test_kloosterman_embedding(self):
        z = CycloNum.zeta
        S = 2 + z(5, 2) + z(5, 3)
        assert abs(embed_complex(S) - 0.3819660112501051) < 1e-12

    def test_all_embeddings_are_conjugate_values(self):
        z = CycloNum(5, (1, 2, 0, 1))
        embs = all_embeddings(z)
        assert len(embs) == 4
        for a in range(1, 5):
            assert abs(embs[a - 1] - embed_complex(conj_sigma(z, a))) < 1e-12

    def test_rational_embeds_as_itself(self):
        assert abs(embed_complex(rat(5, Fraction(7, 3))) - 7 / 3) < 1e-15


class TestCycloPoly:
    def test_normalization_drops_leading_zeros(self):
        P = CycloPoly(5, [1, 2, 0, 0])
        assert P.degree == 1

    def test_evaluation(self):
        P = CycloPoly(5, [6, -5, 1])  # (T-2)(T-3)
        assert P(rat(5, 2)) == 0
        assert P(rat(5, 3)) == 0
        assert P(rat(5, 1)) == 2

    def test_divmod_roundtrip(self):
        A = CycloPoly(5, [1, 0, 2, 1])
        B = CycloPoly(5, [1, 1])
        q, r = A.divmod(B)
        assert q * B + r == A
        assert r.degree < B.degree

    def test_gcd(self):
        # (T-1)(T+1) and (T-1)^2 share exactly T-1
        A = CycloPoly(5, [-1, 0, 1])
        B = CycloPoly(5, [1, -2, 1])
        assert A.gcd(B) == CycloPoly(5, [-1, 1])

    def test_squarefree_part(self):
        # (T-1)^2 (T+3) -> (T-1)(T+3)
        sq = CycloPoly(5, [1, -2, 1]) * CycloPoly(5, [3, 1])
        assert sq.squarefree_part() == CycloPoly(5, [-1, 1]) * CycloPoly(5, [3, 1])

    def test_reversed_poly(self):
        P = CycloPoly(5, [1, 2, -3])
        assert P.reversed_poly() == CycloPoly(5, [-3, 2, 1])

    def test_conj_coeffs(self):
        z = CycloNum.zeta(5, 1)
        P = CycloPoly(5, [z, 1])
        assert P.conj_coeffs(2) == CycloPoly(5, [CycloNum.zeta(5, 2), 1])

    def test_coefficients_lift_into_its_field(self):
        z = CycloNum.zeta(5, 1)
        P = CycloPoly(5, [rat(3, 2), z, "1/2"])
        assert P == CycloPoly(5, [2, z, Fraction(1, 2)])
        assert {c.p for c in P.coeffs} == {5}
        with pytest.raises(InputError, match="mixed cyclotomic fields"):
            CycloPoly(5, [1, CycloNum.zeta(3, 1)])

    @pytest.mark.parametrize("coeffs", [[], [1], [CycloNum.zeta(5, 1)]],
                             ids=["empty", "rational", "cyclotomic"])
    def test_p_is_checked_prime(self, coeffs):
        with pytest.raises(InputError, match="^4 is not prime"):
            CycloPoly(4, coeffs)


class TestNewtonIdentities:
    def test_two_integer_roots(self):
        # roots 2, 3: p1 = 5, p2 = 13 -> T^2 - 5T + 6
        P = char_poly_from_power_sums([rat(2, 5), rat(2, 13)])
        assert P == CycloPoly(2, [6, -5, 1])

    def test_three_roots_with_multiplicity(self):
        # roots 1, 1, 2: p = (4, 6, 10) -> (T-1)^2 (T-2)
        P = char_poly_from_power_sums([rat(2, 4), rat(2, 6), rat(2, 10)])
        assert P == CycloPoly(2, [-1, 1]) * CycloPoly(2, [-1, 1]) * CycloPoly(2, [-2, 1])

    def test_cyclotomic_roots(self):
        # roots zeta_5, zeta_5^4: p1 = z + z^4, p2 = z^2 + z^3, product 1
        z = CycloNum.zeta
        ps = [z(5, 1) + z(5, 4), z(5, 2) + z(5, 3)]
        P = char_poly_from_power_sums(ps)
        assert P == CycloPoly(5, [1, -(z(5, 1) + z(5, 4)), 1])
        assert validate_power_sums(P, ps + [z(5, 3) + z(5, 2), z(5, 4) + z(5, 1)])

    def test_validate_extended_sums(self):
        P = CycloPoly(2, [6, -5, 1])
        good = [rat(2, v) for v in (5, 13, 35, 97, 275)]
        assert validate_power_sums(P, good)
        bad = good[:-1] + [rat(2, 276)]
        assert not validate_power_sums(P, bad)

    def test_validate_requires_monic(self):
        with pytest.raises(InputError):
            validate_power_sums(CycloPoly(2, [1, 2]), [rat(2, 1)])

    def test_too_few_sums_raises(self):
        with pytest.raises(InputError, match="rank must be >= 1"):
            char_poly_from_power_sums([])

    @given(st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=4))
    @settings(deadline=None, max_examples=40)
    def test_roundtrip_random_integer_roots(self, roots):
        ps = [rat(2, sum(r ** k for r in roots)) for k in range(1, len(roots) + 1)]
        P = char_poly_from_power_sums(ps)
        assert P.is_monic and P.degree == len(roots)
        for r in roots:
            assert P(rat(2, r)) == 0
        more = ps + [rat(2, sum(r ** k for r in roots))
                     for k in range(len(roots) + 1, 2 * len(roots) + 1)]
        assert validate_power_sums(P, more)

    @given(cyclotomic_roots())
    @settings(deadline=None, max_examples=40)
    def test_roundtrip_cyclotomic_integer_roots(self, drawn):
        p, roots = drawn
        r = len(roots)
        P = CycloPoly(p, [1])
        for a in roots:
            P = P * CycloPoly(p, [-a, 1])
        ps = []
        powers = [CycloNum.one(p)] * r
        for _ in range(2 * r):
            powers = [x * a for x, a in zip(powers, roots)]
            ps.append(sum(powers, CycloNum.zero(p)))
        assert char_poly_from_power_sums(ps[:r]) == P
        assert validate_power_sums(P, ps)
        for k in range(r + 1, 2 * r + 1):
            wrong = ps[:k - 1] + [ps[k - 1] + 1] + ps[k:]
            assert not validate_power_sums(P, wrong)


class TestReconstruction:
    def test_frozen_oracle(self):
        # c_k = -(1 + (-3)^k): L = (1 - T)(1 + 3T) = 1 + 2T - 3T^2
        fit = linear_recurrence_reconstruct([2, -10, 26, -82, 242, -730])
        assert fit.numerator == CycloPoly(2, [1, 2, -3])
        assert fit.denominator == CycloPoly(2, [1])
        assert not fit.stable  # degree 2 is undecidable from 4- and 5-term prefixes

    def test_frozen_oracle_stabilizes_with_more_terms(self):
        c = [-(1 + (-3) ** k) for k in range(1, 9)]
        fit = linear_recurrence_reconstruct(c)
        assert fit.numerator == CycloPoly(2, [1, 2, -3])
        assert fit.denominator == CycloPoly(2, [1])
        assert fit.stable

    def test_pure_denominator(self):
        # c_k = 3^k: L = 1 / (1 - 3T)
        fit = linear_recurrence_reconstruct([3 ** k for k in range(1, 7)])
        assert fit.numerator == CycloPoly(2, [1])
        assert fit.denominator == CycloPoly(2, [1, -3])
        assert fit.stable

    def test_repeated_root(self):
        # numerator (1 - 2T)^2: c_k = -2 * 2^k
        c = [-2 * 2 ** k for k in range(1, 8)]
        fit = linear_recurrence_reconstruct(c)
        assert fit.numerator == CycloPoly(2, [1, -4, 4])
        assert fit.denominator == CycloPoly(2, [1])

    def test_zero_sequence(self):
        fit = linear_recurrence_reconstruct([0, 0, 0, 0])
        assert fit.numerator == CycloPoly(2, [1])
        assert fit.denominator == CycloPoly(2, [1])
        assert fit.stable

    def test_cyclotomic_coefficients(self):
        # single Frobenius eigenvalue alpha = 1 + zeta_5: c_k = -alpha^k
        alpha = 1 + CycloNum.zeta(5, 1)
        c = []
        power = CycloNum.one(5)
        for _ in range(6):
            power = power * alpha
            c.append(-power)
        fit = linear_recurrence_reconstruct(c)
        assert fit.numerator == CycloPoly(5, [CycloNum.one(5), -alpha])
        assert fit.denominator == CycloPoly(5, [1])

    def test_rational_sums_of_one_field_stay_in_it(self):
        fit = linear_recurrence_reconstruct([rat(3, -(1 + (-3) ** k)) for k in range(1, 9)])
        assert fit.numerator.p == fit.denominator.p == 3
        assert fit.numerator == CycloPoly(3, [1, 2, -3])
        assert fit.denominator == CycloPoly(3, [1])

    @pytest.mark.parametrize("c, numerator", [
        # c_k = -zeta^k, with c_5 = -1 given over p = 3: L = 1 - zeta T
        ([rat(3, -1) if k == 5 else -CycloNum.zeta(5, k) for k in range(1, 9)],
         [1, -CycloNum.zeta(5, 1)]),
        # roots zeta and -zeta: c_k = 0 for odd k, given over p = 3, so the
        # first value is a rational of another field; L = 1 - zeta^2 T^2
        ([rat(3, 0) if k % 2 else -2 * CycloNum.zeta(5, k) for k in range(1, 9)],
         [1, 0, -CycloNum.zeta(5, 2)]),
    ], ids=["rational-later", "rational-first"])
    def test_the_first_irrational_sum_picks_the_field(self, c, numerator):
        fit = linear_recurrence_reconstruct(c)
        assert fit.numerator.p == fit.denominator.p == 5
        assert fit.numerator == CycloPoly(5, numerator)
        assert fit.denominator == CycloPoly(5, [1])

    def test_irrational_sums_of_two_fields_raise(self):
        with pytest.raises(InputError):
            linear_recurrence_reconstruct([CycloNum.zeta(5, 1), CycloNum.zeta(3, 1)])

    def test_too_short_raises(self):
        with pytest.raises(InputError, match="need at least two trace sums"):
            linear_recurrence_reconstruct([1])

    def test_undecidable_raises_unstable(self):
        with pytest.raises(VerificationError, match="no rational function of total degree <= 0"):
            linear_recurrence_reconstruct([1, 2])

    def test_kmax_truncation(self):
        c = [-(1 + (-3) ** k) for k in range(1, 12)]
        fit = linear_recurrence_reconstruct(c[:8])
        assert fit.numerator == CycloPoly(2, [1, 2, -3])

    @given(st.lists(st.integers(-3, 3).filter(bool), min_size=1, max_size=2, unique=True),
           st.lists(st.integers(-3, 3).filter(bool), min_size=0, max_size=2, unique=True))
    @settings(deadline=None, max_examples=30)
    def test_random_rational_functions(self, num_roots, den_roots):
        # L = prod(1 - aT) / prod(1 - bT) with disjoint root sets
        if set(num_roots) & set(den_roots):
            return
        K = 2 * (len(num_roots) + len(den_roots)) + 2
        c = [sum(b ** k for b in den_roots) - sum(a ** k for a in num_roots)
             for k in range(1, K + 1)]
        fit = linear_recurrence_reconstruct(c)
        expN = CycloPoly(2, [1])
        for a in num_roots:
            expN = expN * CycloPoly(2, [1, -a])
        expD = CycloPoly(2, [1])
        for b in den_roots:
            expD = expD * CycloPoly(2, [1, -b])
        assert fit.numerator == expN
        assert fit.denominator == expD
