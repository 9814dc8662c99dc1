"""Frobenius eigenvalue reports, L-functions of the tau-line, and the
monodromy filtration.

The filtration oracle is acceptance criterion 8's: it enumerates every
increasing filtration valued in the finite lattice generated by kernel
and image powers and checks the two defining properties directly; the
computed answer must be its only member.
"""

import random
from fractions import Fraction

import pytest

from arith_lg.acceptance import _filtration_oracle
from arith_lg.cyclotomic import CycloNum, CycloPoly, embed_complex
from arith_lg import frobdata
from arith_lg.errors import InputError
from arith_lg.exactla import mat_vec, subspace_contains, to_fractions
from arith_lg.expsum import family_sum, gkz_sum, tau_summed_trace, zero_count
from arith_lg.ffield import make_field
from arith_lg.frobdata import (FrobeniusReport, family_l_function,
                               frobenius_report, monodromy_filtration,
                               stalk_power_sums)
from arith_lg.laurent import Deformation, LaurentPoly, monomial_table

F3 = make_field(3, 1)
F5 = make_field(5, 1)


def kloosterman(field):
    one = field.from_int(1)
    f = LaurentPoly(1, [((1,), one), ((-1,), one)], field)
    g = LaurentPoly(1, [((1,), one)], field)
    return Deformation(f, (g,), "newton_preserving")


# the Kloosterman family t + 1/t + x t over Q (field None)
RATIONAL = Deformation(LaurentPoly(1, [((1,), 1), ((-1,), 1)]),
                       (LaurentPoly(1, [((1,), 1)]),), "newton_preserving")


@pytest.mark.parametrize("call", [
    lambda: family_sum(RATIONAL, 1, 1, (0,)),
    lambda: gkz_sum(monomial_table(RATIONAL), None, 1, (1, 0, 1)),
    lambda: zero_count(RATIONAL, 1, (0,)),
    lambda: tau_summed_trace(RATIONAL, 1, (0,)),
    lambda: stalk_power_sums(RATIONAL, (0,), 1, 2),
    lambda: frobenius_report(RATIONAL, (0,), 1),
    lambda: family_l_function(RATIONAL, (0,)),
], ids=["family_sum", "gkz_sum", "zero_count", "tau_summed_trace",
        "stalk_power_sums", "frobenius_report", "family_l_function"])
def test_rational_family_is_input_error(call):
    with pytest.raises(InputError, match="finite-field coefficients"):
        call()


def triple_point():
    one = F3.from_int(1)
    f = LaurentPoly(2, [((1, 0), one), ((0, 1), one), ((-1, -1), one)], F3)
    g = LaurentPoly(2, [((1, 0), one)], F3)
    return Deformation(f, (g,), "newton_preserving")


class TestStalkPowerSums:
    def test_sign_convention(self):
        # p_k = (-1)^n S_k; n = 1 here
        D = kloosterman(F5)
        x = (F5.from_int(0),)
        ps = stalk_power_sums(D, x, F5.from_int(1), 2)
        assert len(ps) == 4
        for k in (1, 2, 3, 4):
            S = family_sum(D, k, F5.from_int(1), x)
            assert ps[k - 1] == -S

    def test_rank_positive(self):
        D = kloosterman(F5)
        with pytest.raises(InputError):
            stalk_power_sums(D, (F5.from_int(0),), F5.from_int(1), 0)


class TestFrobeniusReport:
    def test_kloosterman_classic(self):
        # T^2 + (2 + z^2 + z^3) T + 5: constant term exactly q, middle
        # coefficient the negated sum
        D = kloosterman(F5)
        rep = frobenius_report(D, (F5.from_int(0),), F5.from_int(1))
        assert rep.rank == 2
        assert rep.weight == 1
        assert rep.char_poly.is_monic
        assert rep.char_poly.coefficient(0) == 5
        S1 = (CycloNum.from_rational(5, 2) + CycloNum.zeta(5, 2)
              + CycloNum.zeta(5, 3))
        assert rep.char_poly.coefficient(1) == S1
        assert rep.consistency_ok and rep.purity_ok
        assert rep.determinant_ok and rep.duality_ok
        assert rep.warnings == ()

    def test_kloosterman_golden_section(self):
        # |2 + z^2 + z^3| = (3 - sqrt 5)/2 under the defining embedding
        D = kloosterman(F5)
        rep = frobenius_report(D, (F5.from_int(0),), F5.from_int(1))
        c1 = rep.char_poly.coefficient(1)
        assert abs(abs(embed_complex(c1, 1)) - 0.3819660112501051) < 1e-12

    def test_purity_matches_eigenvalues(self):
        # every complex root has modulus q^{n/2} = sqrt 5
        D = kloosterman(F5)
        rep = frobenius_report(D, (F5.from_int(0),), F5.from_int(1))
        assert rep.purity_max_rel_dev < 1e-9
        assert rep.determinant_max_rel_dev < 1e-9

    def test_inverse_character_poly(self):
        D = kloosterman(F5)
        rep = frobenius_report(D, (F5.from_int(0),), F5.from_int(1))
        assert rep.char_poly_inverse_character == rep.char_poly.conj_coeffs(4)

    def test_duality_is_explicit_proportionality(self):
        # T^r P(q^n / T) = P(0) * P_inv(T), both sides expanded exactly
        D = kloosterman(F5)
        rep = frobenius_report(D, (F5.from_int(0),), F5.from_int(1))
        P = rep.char_poly
        r, qn = P.degree, 5
        transformed = CycloPoly(
            5, [P.coefficient(r - j) * Fraction(qn) ** (r - j)
                for j in range(r + 1)])
        assert transformed == rep.char_poly_inverse_character.scale(P.coefficient(0))

    @staticmethod
    def duality_polys():
        # a degree-2 P over Q(zeta_13), and a seeded random one over Q(zeta_7)
        z = CycloNum.zeta(13, 1)
        yield CycloPoly(13, [z * z + Fraction(3, 2), z + 5, 1]), 13
        rng = random.Random(0)
        yield CycloPoly(7, [CycloNum(7, [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                         for _ in range(6)])
                            for _ in range(5)] + [1]), 49

    def test_duality_transform_matches_formula(self):
        for P, qn in self.duality_polys():
            r = P.degree
            old = CycloPoly(P.p, [P.coefficient(r - j) * Fraction(qn) ** (r - j)
                                  for j in range(r + 1)])
            assert frobdata._duality_transform(P, qn) == old

    def test_duality_transform_takes_no_cyclotomic_product(self, monkeypatch):
        def no_product(self, other):
            raise AssertionError("CycloNum product taken")

        polys = list(self.duality_polys())
        monkeypatch.setattr(CycloNum, "__mul__", no_product)
        monkeypatch.setattr(CycloNum, "__rmul__", no_product)
        for P, qn in polys:
            frobdata._duality_transform(P, qn)

    def test_proportional_takes_no_inverse(self, monkeypatch):
        def no_inverse(self):
            raise AssertionError("inverse taken")

        monkeypatch.setattr(CycloNum, "inverse", no_inverse)
        z = CycloNum.zeta(7, 1)
        B = CycloPoly(7, [1, 0, z, 1])
        # ratios: not rational, rational, and 1
        for c in (z * z + 3, Fraction(3, 2), 1):
            A = CycloPoly(7, [c * b for b in B.coeffs])
            assert frobdata._proportional(A, B)
            assert not frobdata._proportional(A + CycloPoly(7, [1]), B)
            # same degree, zero in a different place
            other = CycloPoly(7, [c, c * z, 0, c])
            assert not frobdata._proportional(other, B)
            assert not frobdata._proportional(A, CycloPoly(7, [1, z, 0, 1]))
        assert not frobdata._proportional(CycloPoly(7, []), B)
        assert not frobdata._proportional(CycloPoly(7, [1, 1]), B)

    def test_triple_point_rank_three(self):
        # normalized volume of the standard simplex spanned at
        # (1,0), (0,1), (-1,-1) is 3; weight n = 2 so |alpha| = 3
        D = triple_point()
        rep = frobenius_report(D, (F3.from_int(0),), F3.from_int(1))
        assert rep.rank == 3
        assert rep.weight == 2
        assert rep.consistency_ok and rep.purity_ok
        assert rep.determinant_ok and rep.duality_ok
        assert abs(abs(embed_complex(rep.char_poly.coefficient(0), 1)) - 27) < 1e-6

    def test_deformed_point_still_pure(self):
        D = kloosterman(F5)
        rep = frobenius_report(D, (F5.from_int(2),), F5.from_int(3))
        assert rep.consistency_ok and rep.purity_ok and rep.duality_ok

    def test_collapsed_newton_polytope_warns_and_fails_purity(self):
        # x = -1 cancels the direction monomial: F_x = 1/t has rank 1,
        # eigenvalue 1, so the rank-2 pure report cannot hold
        D = kloosterman(F5)
        rep = frobenius_report(D, (F5.from_int(4),), F5.from_int(1))
        assert any("collapsed" in w for w in rep.warnings)
        assert not rep.purity_ok or not rep.determinant_ok

    @pytest.mark.parametrize("field, terms, x, warning", [
        # x = (4, 4) cancels both torus monomials of t + 1/t (+ 1)
        (F5, [((1,), 1), ((-1,), 1)], (4, 4),
         "specialized polynomial is zero: non-generic parameter"),
        (F5, [((1,), 1), ((-1,), 1), ((0,), 1)], (4, 4),
         "specialized polynomial is constant: non-generic parameter"),
        # t^2 + 1/t over F_2: the vertex t^2 has an exponent divisible by
        # p = 2, so its logarithmic derivative vanishes at t = 1 already
        (make_field(2, 1), [((2,), 1), ((-1,), 1)], (),
         "degenerate face found at search depth 1"),
    ], ids=["zero", "constant", "degenerate"])
    def test_non_generic_parameter_warns(self, field, terms, x, warning):
        one = field.one()
        f = LaurentPoly(1, [(w, c * one) for w, c in terms], field)
        directions = (LaurentPoly(1, [((1,), one)], field),
                      LaurentPoly(1, [((-1,), one)], field))[:len(x)]
        D = Deformation(f, directions, "newton_preserving")
        rep = frobenius_report(D, tuple(field.from_int(v) for v in x), one)
        assert rep.warnings == (warning,)
        assert not rep.purity_ok

    def test_non_strict_returns_flags(self):
        # failed checks come back as lowered flags of the report, not as
        # an exception
        D = kloosterman(F5)
        rep = frobenius_report(D, (F5.from_int(4),), F5.from_int(1))
        assert isinstance(rep, FrobeniusReport)
        assert not (rep.purity_ok and rep.determinant_ok)

    def test_max_rank_budget(self, monkeypatch):
        monkeypatch.setattr(frobdata, "MAX_RANK", 1)
        D = kloosterman(F5)
        with pytest.raises(InputError):
            frobenius_report(D, (F5.from_int(0),), F5.from_int(1))


class TestFamilyLFunction:
    def test_kloosterman_f3_l_function(self):
        # c_1..c_8 reconstruct to 1 + 2T - 3T^2 = (1 - T)(1 + 3T)
        D = kloosterman(F3)
        rep = family_l_function(D, (F3.from_int(0),), 8)
        assert [c.rational_value() for c in rep.numerator.coeffs] == [1, 2, -3]
        assert [c.rational_value() for c in rep.denominator.coeffs] == [1]
        assert rep.minus_chi_c == 2
        assert rep.rank == 2
        assert rep.swan_bound_ok
        assert rep.stable
        assert rep.trace_sums[0] == 2
        assert rep.trace_sums[1] == -10
        assert rep.warnings == ()

    def test_constant_specialization_flagged(self):
        # x = (-1, -1) cancels both torus monomials, leaving the
        # constant 1; the closed form still yields a clean L-function
        one = F5.from_int(1)
        f = LaurentPoly(1, [((1,), one), ((-1,), one), ((0,), one)], F5)
        g1 = LaurentPoly(1, [((1,), one)], F5)
        g2 = LaurentPoly(1, [((-1,), one)], F5)
        D = Deformation(f, (g1, g2), "newton_preserving")
        rep = family_l_function(D, (F5.from_int(4), F5.from_int(4)), 6)
        assert any("not lisse" in w for w in rep.warnings)
        assert [c.rational_value() for c in rep.numerator.coeffs] == [1, -1]
        assert [c.rational_value() for c in rep.denominator.coeffs] == [1, -5]
        assert rep.minus_chi_c == 0

    def test_default_window(self):
        D = kloosterman(F3)
        rep = family_l_function(D, (F3.from_int(0),))
        # default window is wide enough to re-derive the fit at the two
        # preceding orders, so stability is confirmed, not just hoped for
        assert len(rep.trace_sums) == 8
        assert rep.minus_chi_c == 2
        assert rep.stable

    def test_window_too_small(self):
        D = kloosterman(F3)
        with pytest.raises(InputError):
            family_l_function(D, (F3.from_int(0),), 4)


# --------------------------------------------------------------------------
# monodromy filtration

def jordan(sizes):
    d = sum(sizes)
    N = [[0] * d for _ in range(d)]
    pos = 0
    for s in sizes:
        for i in range(s - 1):
            N[pos + i][pos + i + 1] = 1
        pos += s
    return N


class TestMonodromyFiltration:
    def test_single_jordan_block_size_two(self):
        filt = monodromy_filtration(jordan([2]))
        assert filt.jumps == {-1: 1, 1: 1}
        assert [filt.gr_dimension(k) for k in (-1, 0, 1)] == [1, 0, 1]

    def test_mixed_blocks_two_one(self):
        filt = monodromy_filtration(jordan([2, 1]))
        assert [filt.gr_dimension(k) for k in (-1, 0, 1)] == [1, 1, 1]

    def test_single_block_size_three(self):
        filt = monodromy_filtration(jordan([3]))
        assert [filt.gr_dimension(k) for k in (-2, -1, 0, 1, 2)] == [1, 0, 1, 0, 1]

    def test_zero_operator(self):
        filt = monodromy_filtration([[0, 0], [0, 0]])
        assert filt.jumps == {0: 2}

    def test_gr_symmetric_under_basis_change(self):
        # conjugate of a size-2 block: same graded dimensions, basis in
        # the image line of N
        filt = monodromy_filtration([[-1, 1], [-1, 1]])
        assert [filt.gr_dimension(k) for k in (-1, 0, 1)] == [1, 0, 1]
        assert filt.level(-1) == ((Fraction(1), Fraction(1)),)

    def test_level_outside_range(self):
        filt = monodromy_filtration(jordan([2]))
        assert filt.level(-5) == ()
        assert len(filt.level(5)) == 2

    def test_not_nilpotent(self):
        with pytest.raises(InputError, match="matrix is not nilpotent"):
            monodromy_filtration([[1, 0], [0, 0]])

    @pytest.mark.parametrize("d", [1, 2, 3, 18])
    def test_not_nilpotent_message(self, d):
        # a single Jordan block closed into a cycle: N^d = I
        N = jordan([d])
        N[d - 1][0] = 1
        with pytest.raises(InputError, match=rf"^matrix is not nilpotent: N\^{d} != 0$"):
            monodromy_filtration(N)

    def test_powers_stop_at_the_first_zero(self, monkeypatch):
        # N = J(4) + J(4) + J(3) + ... has N^4 = 0 at dimension 18: the
        # powers N^1 .. N^4 take four integer products with N, not
        # eighteen; a product with N is a _dots call (a * b^T) whose b
        # is the transpose of N
        N = jordan([4, 4, 3, 3, 2, 1, 1])
        Nt = [list(col) for col in zip(*N)]
        calls = []
        real = frobdata._dots

        def counting(a, b):
            if [list(row) for row in b] == Nt:
                calls.append(a)
            return real(a, b)

        monkeypatch.setattr(frobdata, "_dots", counting)
        filt = monodromy_filtration(N)
        assert len(calls) == 4
        assert [filt.gr_dimension(k) for k in (-3, 3)] == [2, 2]

    def test_not_square(self):
        with pytest.raises(InputError):
            monodromy_filtration([[0, 1]])

    @pytest.mark.parametrize("sizes", [[1], [2], [3], [2, 1], [1, 1], [2, 2]])
    def test_brute_force_oracle(self, sizes):
        # among every lattice-valued increasing filtration, exactly one
        # satisfies both defining properties, and it is the one computed
        N = jordan(sizes)
        assert _filtration_oracle(to_fractions(N)) == (monodromy_filtration(N).levels, 1)

    def test_brute_force_oracle_non_jordan_basis(self):
        N = [[-1, 1], [-1, 1]]
        assert _filtration_oracle(to_fractions(N)) == (monodromy_filtration(N).levels, 1)

    def test_lowering_property_explicit(self):
        N = jordan([3, 1])
        filt = monodromy_filtration(N)
        NN = to_fractions(N)
        for k, basis in filt.levels:
            lower = filt.level(k - 2)
            for v in basis:
                assert subspace_contains(lower, mat_vec(NN, v))
