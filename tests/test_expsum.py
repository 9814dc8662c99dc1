"""Exponential sums over whole tori: frozen values, identities, and
the composition with the coefficient map."""

import itertools
import random

import pytest

from arith_lg import expsum, ffarray
from arith_lg.budget import scope
from arith_lg.cyclotomic import CycloNum, conj_sigma, embed_complex
from arith_lg.errors import BudgetExceeded, InputError, VerificationError
from arith_lg.expsum import family_sum, gkz_sum, tau_summed_trace, zero_count
from arith_lg.ffield import (embed, extension_field, field_from_modulus, make_field,
                             multiplicative_generator)
from arith_lg.laurent import (Deformation, LaurentPoly, evaluate, lift_into,
                              monomial_table, phi_map, specialize)

F3 = make_field(3, 1)
F5 = make_field(5, 1)


def kloosterman(field):
    one = field.from_int(1)
    f = LaurentPoly(1, [((1,), one), ((-1,), one)], field)
    g = LaurentPoly(1, [((1,), one)], field)
    return Deformation(f, (g,), "newton_preserving")


def zeta(p, e):
    return CycloNum.zeta(p, e)


def per_tau_loop(D, k, x):
    """Sum over tau in the extension torus of the family sums S_k(tau, x),
    one family_sum per tau: the independent oracle for the cross-check."""
    ext = extension_field(D.base.field, k)
    g = multiplicative_generator(ext)
    total = CycloNum.zero(D.base.field.p)
    tau = ext.one()
    for _ in range(ext.q - 1):
        total = total + family_sum(D, k, tau, x)
        tau = tau * g
    return total


def triple_point(field):
    one = field.from_int(1)
    f = LaurentPoly(2, [((1, 0), one), ((0, 1), one), ((-1, -1), one)], field)
    g = LaurentPoly(2, [((1, 0), one)], field)
    return Deformation(f, (g,), "newton_preserving")


K9 = field_from_modulus(3, (2, 1, 1))


def custom_f9_family(field, iso):
    """The two-variable F_9 family of TestCustomBase, coefficients mapped
    through iso from the custom model K9."""
    x = iso(K9.element((0, 1)))
    f = LaurentPoly(2, [((1, 0), x), ((0, 1), x + 1), ((-1, -1), iso(K9.one()))], field)
    g = LaurentPoly(2, [((1, 0), x * 2), ((0, 0), x)], field)
    return Deformation(f, (g,), "newton_preserving"), (x,)


class TestFamilySum:
    def test_kloosterman_f5(self):
        # by hand: t + 1/t on F_5^* takes values 2, 0, 0, 3 at t = 1..4,
        # so S_1 = zeta^2 + 1 + 1 + zeta^3
        D = kloosterman(F5)
        S = family_sum(D, 1, F5.from_int(1), (F5.from_int(0),))
        expected = CycloNum.from_rational(5, 2) + zeta(5, 2) + zeta(5, 3)
        assert S == expected

    def test_kloosterman_f3(self):
        # t + 1/t on F_3^*: values 2, 1 at t = 1, 2
        D = kloosterman(F3)
        S = family_sum(D, 1, F3.from_int(1), (F3.from_int(0),))
        assert S == zeta(3, 2) + zeta(3, 1)
        assert S == -1

    def test_linear_sum_is_minus_one(self):
        # orthogonality: sum of psi over a full torus line
        one = F5.from_int(1)
        f = LaurentPoly(1, [((1,), one)], F5)
        D = Deformation(f, (f,), "newton_preserving")
        for k in (1, 2):
            S = family_sum(D, k, one, (F5.from_int(0),))
            assert S == -1

    def test_deformed_value_matches_specialized_base(self):
        # moving x shifts the coefficient of the direction monomial;
        # compare against pointwise evaluation of the specialized poly
        D = kloosterman(F5)
        x = (F5.from_int(3),)
        S = family_sum(D, 1, F5.from_int(1), x)
        Fx = specialize(D, x)
        direct = CycloNum.zero(5)
        for t in range(1, 5):
            v = evaluate(Fx, (F5.from_int(t),))
            direct = direct + zeta(5, int(v.coords[0]))
        assert S == direct

    def test_tau_scales_argument(self):
        D = kloosterman(F5)
        x = (F5.from_int(0),)
        for tau in (2, 3, 4):
            S = family_sum(D, 1, F5.from_int(tau), x)
            direct = CycloNum.zero(5)
            for t in (1, 2, 3, 4):
                val = (tau * (t + pow(t, -1, 5))) % 5
                direct = direct + zeta(5, val)
            assert S == direct

    def test_extension_tau_allowed(self):
        # tau may live in any subfield of the enumeration field
        D = kloosterman(F5)
        F25 = extension_field(F5, 2)
        g = multiplicative_generator(F25)
        S = family_sum(D, 2, g, (F5.from_int(0),))
        assert S.p == 5

    def test_galois_stability(self):
        # substituting t -> t^q permutes the torus and fixes the trace,
        # so tau and tau^q give the same sum
        D = kloosterman(F5)
        F25 = extension_field(F5, 2)
        g = multiplicative_generator(F25)
        x = (F5.from_int(2),)
        assert family_sum(D, 2, g, x) == family_sum(D, 2, g ** 5, x)

    def test_inverse_character_is_sigma_conjugate(self):
        D = kloosterman(F5)
        x = (F5.from_int(1),)
        S = family_sum(D, 1, F5.from_int(1), x)
        S_inv = family_sum(D, 1, F5.from_int(1), x, psi_power=-1)
        assert S_inv == conj_sigma(S, -1)

    def test_inverse_character_is_tau_negation(self):
        # psi^{-1}(tau F) = psi((-tau) F)
        D = kloosterman(F5)
        x = (F5.from_int(1),)
        S_inv = family_sum(D, 1, F5.from_int(1), x, psi_power=-1)
        S_neg = family_sum(D, 1, F5.from_int(4), x)
        assert S_inv == S_neg

    def test_zero_tau_rejected(self):
        D = kloosterman(F5)
        with pytest.raises(InputError, match="tau must be a nonzero field element"):
            family_sum(D, 1, F5.from_int(0), (F5.from_int(0),))

    def test_character_power_multiple_of_p_rejected(self):
        D = kloosterman(F5)
        with pytest.raises(InputError, match="character power must be a unit mod p"):
            family_sum(D, 1, F5.from_int(1), (F5.from_int(0),), psi_power=5)

    def test_character_power_rejected_before_any_work(self):
        # a budget of 1 covers neither the table nor the torus
        D = kloosterman(F5)
        with pytest.raises(InputError, match="character power must be a unit"), scope(budget=1):
            family_sum(D, 1, F5.from_int(1), (F5.from_int(0),), psi_power=5)

    def test_budget_enforced(self):
        D = kloosterman(F5)
        with pytest.raises(BudgetExceeded), scope(budget=10):
            family_sum(D, 3, F5.from_int(1), (F5.from_int(0),))

    def test_wrong_parameter_count(self):
        D = kloosterman(F5)
        with pytest.raises(InputError):
            family_sum(D, 1, F5.from_int(1), (F5.from_int(0), F5.from_int(0)))


class TestGkzSum:
    def test_matches_family_sum_through_coefficient_map(self):
        # the family sum factors through the coefficient vector
        rng = random.Random(7)
        D = kloosterman(F5)
        table = monomial_table(D)
        for _ in range(60):
            k = rng.choice((1, 2))
            tau = F5.from_int(rng.randrange(1, 5))
            x = (F5.from_int(rng.randrange(5)),)
            y = phi_map(D, table, tau, x)
            assert gkz_sum(table, F5, k, y) == family_sum(D, k, tau, x)

    def test_kloosterman_direct(self):
        D = kloosterman(F5)
        table = monomial_table(D)
        one = F5.from_int(1)
        S = gkz_sum(table, F5, 1, (one, one, F5.from_int(0)))
        expected = CycloNum.from_rational(5, 2) + zeta(5, 2) + zeta(5, 3)
        assert S == expected

    def test_single_monomial_is_minus_one(self):
        # psi composed with a monomial sums to -1 on the torus
        D = kloosterman(F5)
        table = monomial_table(D)
        S = gkz_sum(table, F5, 1, (F5.from_int(1), F5.from_int(0), F5.from_int(0)))
        assert S == -1

    def test_all_zero_coefficients(self):
        # psi(0) summed over the torus
        D = kloosterman(F5)
        table = monomial_table(D)
        zero = F5.from_int(0)
        assert gkz_sum(table, F5, 1, (zero, zero, zero)) == 4
        assert gkz_sum(table, F5, 2, (zero, zero, zero)) == 24

    def test_constant_term_scales_by_character_value(self):
        D = kloosterman(F5)
        table = monomial_table(D)
        one = F5.from_int(1)
        zero = F5.from_int(0)
        base = gkz_sum(table, F5, 1, (one, one, zero))
        shifted = gkz_sum(table, F5, 1, (one, one, F5.from_int(2)))
        assert shifted == base * zeta(5, 2)

    def test_length_mismatch(self):
        D = kloosterman(F5)
        table = monomial_table(D)
        with pytest.raises(InputError):
            gkz_sum(table, F5, 1, (F5.from_int(1),))



class TestZeroCountAndTraceSum:
    def test_kloosterman_f3_zero_counts(self):
        # t + 1/t never vanishes on F_3^* (values 2, 1); over F_9 the
        # equation t^2 = -1 has the two solutions adjoined there
        D = kloosterman(F3)
        x = (F3.from_int(0),)
        assert zero_count(D, 1, x) == 0
        assert zero_count(D, 2, x) == 2

    def test_kloosterman_f3_trace_sums(self):
        # c_k = (-1)^n (q^k Z_k - (q^k - 1)^n); double enumeration is
        # active at these sizes and cross-checks every value
        D = kloosterman(F3)
        x = (F3.from_int(0),)
        assert tau_summed_trace(D, 1, x) == 2
        assert tau_summed_trace(D, 2, x) == -10

    def test_trace_sum_closed_form(self):
        D = kloosterman(F5)
        x = (F5.from_int(2),)
        for k in (1, 2):
            Z = zero_count(D, k, x)
            q_k = 5 ** k
            expected = -(q_k * Z - (q_k - 1))
            assert tau_summed_trace(D, k, x) == expected

    def test_trace_sum_equals_direct_tau_loop(self):
        # c_k is (-1)^n times the sum of S_k(tau) over the extension
        # torus; here n = 1 and the specialized poly 2t + 1/t vanishes
        # identically on the F_3 points, an extreme case worth pinning
        D = kloosterman(F3)
        x = (F3.from_int(1),)
        for k in (1, 2):
            assert tau_summed_trace(D, k, x) == -per_tau_loop(D, k, x)

    def test_triple_point_trace_sums(self):
        # frozen: the two-torus family with a triple point has c_k = -1
        D = triple_point(F3)
        x = (F3.from_int(0),)
        assert tau_summed_trace(D, 1, x) == -1
        assert tau_summed_trace(D, 2, x) == -1

    def test_double_enum_cap_zero_skips_cross_check(self, monkeypatch):
        D = kloosterman(F3)
        x = (F3.from_int(0),)
        b = tau_summed_trace(D, 1, x)
        monkeypatch.setattr(expsum, "DOUBLE_ENUM_CAP", 0)
        real = expsum.charge
        charged = []
        monkeypatch.setattr(expsum, "charge",
                            lambda what, points: charged.append(points) or real(what, points))
        assert tau_summed_trace(D, 1, x) == b
        assert charged == [2]  # the zero count's F_3 torus only, no (n + 1)-torus


class TestExtensionPlumbing:
    def test_extension_field_tower(self):
        F25 = extension_field(F5, 2)
        assert F25.q == 25
        assert extension_field(F5, 1) is F5

    def test_lift_roundtrip(self):
        F25 = extension_field(F5, 2)
        a = F5.from_int(3)
        lifted = lift_into(a, F25)
        assert lifted.field == F25
        assert lifted == embed(a, F25)
        assert lift_into(7, F25) == F25.from_int(7)

    def test_bad_degree(self):
        with pytest.raises(InputError):
            extension_field(F5, 0)


class TestCustomBase:
    def test_family_sum_matches_the_standard_model(self):
        # tau in F_3 over a custom F_9: the same sums as over make_field(3, 2)
        # with every coefficient mapped by an isomorphism found by brute force
        C9 = make_field(3, 2)
        r = next(z for z in (C9.element(t) for t in itertools.product(range(3), repeat=2))
                 if z * z + z + 2 == 0)
        custom = custom_f9_family(K9, lambda c: c)
        standard = custom_f9_family(C9, lambda c: r * c.coords[1] + c.coords[0])
        for k in (1, 2):
            for tau in (1, 2):
                assert (family_sum(custom[0], k, K9.from_int(tau), custom[1])
                        == family_sum(standard[0], k, C9.from_int(tau), standard[1]))


F4 = make_field(2, 2)

CROSS_CHECK_CASES = {
    "kloosterman-f3": (kloosterman(F3), (F3.from_int(2),)),
    "kloosterman-f5": (kloosterman(F5), (F5.from_int(3),)),
    "triple-point-f3": (triple_point(F3), (F3.from_int(1),)),
    "kloosterman-f4": (kloosterman(F4), (multiplicative_generator(F4),)),
    "custom-f9": custom_f9_family(K9, lambda c: c),
}


class TestTauSumCrossCheck:
    """The cross-check is one torus sum of s * F_x(t) in n + 1 variables;
    it must equal the sum of the per-tau family sums it replaced."""

    @pytest.fixture
    def reductions(self, monkeypatch):
        seen = []
        real = expsum.torus_trace_counts

        def recording(poly, ext, tau):
            out = real(poly, ext, tau)
            seen.append((poly.n, out))
            return out

        monkeypatch.setattr(expsum, "torus_trace_counts", recording)
        return seen

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("case", list(CROSS_CHECK_CASES))
    def test_direct_sum_equals_per_tau_loop(self, reductions, case, k):
        D, x = CROSS_CHECK_CASES[case]
        n, p = D.base.n, D.base.field.p
        value = tau_summed_trace(D, k, x)
        [(cross_n, counts)] = reductions  # the zero count walks no trace counts
        assert cross_n == n + 1
        direct = CycloNum.from_zeta_powers(p, counts)
        assert direct == per_tau_loop(D, k, x)
        assert value == (direct if n % 2 == 0 else -direct)

    def test_wrong_zero_count_fails_the_cross_check(self, monkeypatch):
        D, x = CROSS_CHECK_CASES["kloosterman-f5"]
        real = expsum.zero_count
        monkeypatch.setattr(expsum, "zero_count", lambda *args: real(*args) + 1)
        with pytest.raises(VerificationError, match="orthogonality cross-check failed"):
            tau_summed_trace(D, 1, x)
        monkeypatch.setattr(expsum, "DOUBLE_ENUM_CAP", 0)
        tau_summed_trace(D, 1, x)

    @pytest.mark.parametrize("case", ["kloosterman-f5", "triple-point-f3"])
    def test_charges_exactly_both_tori(self, monkeypatch, case):
        D, x = CROSS_CHECK_CASES[case]
        k = 2
        q1 = D.base.field.q ** k - 1
        n = D.base.n
        need = q1 ** n + q1 ** (n + 1)
        # tables and embeddings charge too: a first call builds them
        expected = tau_summed_trace(D, k, x)
        charged = []
        real_charge = expsum.charge

        def recording(description, required):
            charged.append((description, required))
            real_charge(description, required)

        monkeypatch.setattr(expsum, "charge", recording)
        with scope(budget=need):
            assert tau_summed_trace(D, k, x) == expected
        assert charged == [("torus sum", q1 ** n), ("torus sum", q1 ** (n + 1))]

        def zero_count_only(real):
            def kernel(self, nvars, *args, **kwargs):
                assert nvars == n, "cross-check kernel ran past the budget"
                return real(self, nvars, *args, **kwargs)
            return kernel

        for name in ("common_zeros", "trace_counts"):
            monkeypatch.setattr(ffarray.PowerTable, name,
                                zero_count_only(getattr(ffarray.PowerTable, name)))
        with pytest.raises(BudgetExceeded) as exc, scope(budget=need - 1):
            tau_summed_trace(D, k, x)
        assert (exc.value.required, exc.value.budget) == (need, need - 1)


class TestPurityEnvelope:
    def test_kloosterman_sums_bounded_by_weight(self):
        # |S_1(tau)| <= 2 sqrt(5) over every complex embedding
        D = kloosterman(F5)
        bound = 2 * 5 ** 0.5 + 1e-9
        for tau in range(1, 5):
            S = family_sum(D, 1, F5.from_int(tau), (F5.from_int(0),))
            for a in range(1, 5):
                assert abs(embed_complex(S, a)) <= bound
