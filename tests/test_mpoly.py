"""Exact polynomial and rational-function layer for the connection
calculus."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arith_lg.errors import InputError
from arith_lg import mpoly
from arith_lg.mpoly import MPoly, RatFunc

NV = 3


def c(v):
    return MPoly.const(NV, v)


def var(i):
    return MPoly.variable(NV, i)


t, x, y = var(0), var(1), var(2)


def small_polys():
    terms = st.lists(
        st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
                  st.integers(-4, 4)),
        max_size=4)
    return terms.map(lambda ts: MPoly(NV, ts))


class TestMPoly:
    def test_zero_collapse(self):
        p = MPoly(NV, [((1, 0, 0), 1), ((1, 0, 0), -1)])
        assert p.is_zero
        assert not p

    def test_duplicate_collection(self):
        p = MPoly(NV, [((0, 1, 0), 2), ((0, 1, 0), 3)])
        assert p == x * 5

    def test_negative_exponent_rejected(self):
        with pytest.raises(InputError):
            MPoly(NV, [((-1, 0, 0), 1)])

    def test_arity_mismatch(self):
        with pytest.raises(InputError):
            MPoly(NV, [((1, 0), 1)])

    def test_string_coefficients(self):
        p = MPoly(NV, [((0, 0, 0), "3/2")])
        assert p == Fraction(3, 2)

    def test_arithmetic(self):
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert (x + 1) ** 2 == x * x + 2 * x + 1

    def test_partial(self):
        p = x * x * y + t
        assert p.partial(1) == 2 * x * y
        assert p.partial(2) == x * x
        assert p.partial(0) == 1

    @given(small_polys(), small_polys())
    @settings(max_examples=60, deadline=None)
    def test_partial_is_leibniz(self, p, q):
        lhs = (p * q).partial(1)
        rhs = p.partial(1) * q + p * q.partial(1)
        assert lhs == rhs

    def test_degrees_and_valuations(self):
        p = t * t * x + t * t * t
        assert p.min_deg(0) == 2
        assert p.max_deg(0) == 3
        assert p.involves(1)
        assert not p.involves(2)

    def test_shift_out(self):
        p = t * t * x + t * t * t
        assert p.shift_out(0, 2) == x + t
        assert p.shift_out(0, -1) == p * t  # a negative power multiplies
        with pytest.raises(InputError):
            p.shift_out(0, 3)

    def test_subs_zero(self):
        p = t * x + y + 1
        assert p.subs_zero(0) == y + 1

    def test_reverse_in(self):
        p = t * t + x
        assert p.reverse_in(0, 2) == 1 + t * t * x
        with pytest.raises(InputError):
            p.reverse_in(0, 1)

    def test_eval(self):
        p = t * x + y * y
        assert p.eval([2, 3, 4]) == 22

    def test_eval_matches_fraction_evaluation(self):
        # eval sums on the stored integers; the oracle sums Fractions term
        # by term over the Fraction view
        rng = random.Random(5)
        values = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
        for _ in range(200):
            p = MPoly(NV, [((rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 8)))
                           for _ in range(rng.randint(0, 5))])
            point = [rng.choice(values) for _ in range(NV)]
            want = sum((c * point[0] ** e[0] * point[1] ** e[1] * point[2] ** e[2]
                        for e, c in p.terms.items()), Fraction(0))
            got = p.eval(point)
            assert got == want and type(got) is Fraction
            assert p.eval([str(v) for v in point]) == want


class TestRatFunc:
    def test_operands_share_the_entry_lift(self):
        # the operators take what a connection matrix entry takes:
        # polynomials, ints, Fractions and strings Fraction reads
        f = RatFunc(x, t)
        assert f + "1/2" == f + Fraction(1, 2) == Fraction(1, 2) + f
        assert f * x == f * RatFunc(x)
        assert RatFunc.const(NV, 2) == "2" and f != "2"
        # comparison never raises on a string: one that reads as no
        # number is unequal, as for MPoly and CycloNum
        assert not (f == "x") and f != "x" and f not in ["x", "1/0"]
        with pytest.raises(InputError, match="mixed variable counts"):
            f + MPoly.const(NV + 1, 1)
        with pytest.raises(InputError, match="cannot read 'x' as a rational number"):
            f + "x"
        with pytest.raises(TypeError):
            f + 0.5

    def test_monomial_cancellation(self):
        f = RatFunc(t * t * x, t * x * x)
        assert f.num == t
        assert f.den == x

    def test_denominator_made_monic(self):
        f = RatFunc(c(2), c(4) * x)
        assert f.den == x
        assert f.num == Fraction(1, 2)

    def test_zero_canonical(self):
        f = RatFunc(MPoly(NV), t * x)
        assert f.is_zero
        assert f.den == 1

    def test_zero_denominator(self):
        with pytest.raises(InputError):
            RatFunc(x, MPoly(NV))

    def test_cross_multiplication_equality(self):
        # same function, different representatives
        a = RatFunc(x * x - y * y, x - y)
        b = RatFunc((x + y) * (x + y), x + y)
        assert a == b

    def test_arithmetic(self):
        f = RatFunc(c(1), t)
        g = RatFunc(x, t)
        assert f + g == RatFunc(1 + x, t)
        assert f * g == RatFunc(x, t * t)
        assert f - f == RatFunc(MPoly(NV))
        assert (f / g) == RatFunc(c(1), x)

    def test_division_by_zero(self):
        with pytest.raises(InputError):
            RatFunc(x) / RatFunc(MPoly(NV))

    def test_partial_quotient_rule(self):
        f = RatFunc(x, t)
        assert f.partial(0) == RatFunc(-x, t * t)
        assert f.partial(1) == RatFunc(c(1), t)

    def test_t_order_and_pole(self):
        assert RatFunc(x, t * t).t_order() == -2
        assert RatFunc(x, t * t).t_pole_order() == 2
        assert RatFunc(t * x).t_order() == 1
        assert RatFunc(MPoly(NV)).t_order() is None
        assert RatFunc(MPoly(NV)).t_pole_order() == 0

    def test_regularity(self):
        # regular along t = 0 means t_order >= 0, and only then eval_t0 works
        regular = RatFunc(x, c(1) + x)
        assert regular.t_order() == 0
        assert regular.eval_t0() == regular
        assert RatFunc(x, t).t_order() == -1
        with pytest.raises(InputError):
            RatFunc(x, t).eval_t0()

    def test_mixed_denominator_rejected(self):
        f = RatFunc(c(1), t + x)
        with pytest.raises(InputError, match="denominator does not factor as a t-power"):
            f.t_order()

    def test_t_power_times_t_free_accepted(self):
        f = RatFunc(c(1), t * t * (x + 1))
        assert f.t_pole_order() == 2

    def test_eval_t0(self):
        f = RatFunc(x + t * y, c(1) + x)
        g = f.eval_t0()
        assert g == RatFunc(x, c(1) + x)
        assert RatFunc(t * x, c(1)).eval_t0().is_zero
        with pytest.raises(InputError):
            RatFunc(x, t).eval_t0()

    def test_eval_t0_cancels_shared_power(self):
        f = RatFunc(t * x + t * t, t)
        assert f.eval_t0() == RatFunc(x)

    def test_mul_t_power(self):
        f = RatFunc(x, t)
        assert f.mul_t_power(2) == RatFunc(x * t)
        assert f.mul_t_power(-1) == RatFunc(x, t * t)

    def test_subs_t_inverse(self):
        # t -> 1/s: t^2 -> 1/s^2, 1/t -> s
        f = RatFunc(t * t)
        assert f.subs_t_inverse() == RatFunc(c(1), t * t)
        g = RatFunc(x, t)
        assert g.subs_t_inverse() == RatFunc(x * t)

    def test_subs_t_inverse_involution(self):
        f = RatFunc(t * t * x + 1, t * (x + 2))
        assert f.subs_t_inverse().subs_t_inverse() == f

    def test_eval(self):
        f = RatFunc(x + 1, t)
        assert f.eval([2, 3, 0]) == 2
        assert f.eval(iter([2, 3, 0])) == 2  # the point is read once
        assert RatFunc(x + 1).eval(iter([2, Fraction(1, 2), 0])) == Fraction(3, 2)
        with pytest.raises(InputError):
            f.eval([0, 1, 1])

    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=40, deadline=None)
    def test_distributivity(self, a, b, d):
        lhs = (RatFunc(a) + RatFunc(b)) * RatFunc(d)
        rhs = RatFunc(a) * RatFunc(d) + RatFunc(b) * RatFunc(d)
        assert lhs == rhs


# --- trusted result path ------------------------------------------------------

def rational_polys():
    terms = st.lists(
        st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)),
                  st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))),
        max_size=5)
    return terms.map(lambda ts: MPoly(NV, ts))


def assert_canonical(p):
    """p is exactly what the validating constructor makes of its terms."""
    again = MPoly(p.nvars, list(p.terms.items()))
    assert p == again and p.terms == again.terms
    assert all(type(c) is Fraction and c for c in p.terms.values())
    assert all(type(e) is tuple and len(e) == NV for e in p.terms)


def normalized(num, den):
    """The full RatFunc normalization, run whatever the denominator."""
    if num.is_zero:
        den = MPoly.const(num.nvars, 1)
    else:
        for i in range(num.nvars):
            k = min(num.min_deg(i), den.min_deg(i))
            if k:
                num, den = num.shift_out(i, k), den.shift_out(i, k)
    lc = den.terms[max(den.coeffs)]  # the lex-largest term's coefficient
    return num * (1 / lc), den * (1 / lc)


class TestTrustedResults:
    @given(rational_polys(), rational_polys())
    @settings(max_examples=80, deadline=None)
    def test_ring_operations(self, p, q):
        pairs = [(e1, c1, e2, c2) for e1, c1 in p.terms.items()
                 for e2, c2 in q.terms.items()]
        product = MPoly(NV, [(tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                             for e1, c1, e2, c2 in pairs])
        both = list(p.terms.items())
        for r, expected in [
                (p + q, MPoly(NV, both + list(q.terms.items()))),
                (p - q, MPoly(NV, both + [(e, -c) for e, c in q.terms.items()])),
                (-p, MPoly(NV, [(e, -c) for e, c in p.terms.items()])),
                (p * q, product)]:
            assert_canonical(r)
            assert r == expected

    @given(rational_polys(), st.integers(0, NV - 1))
    @settings(max_examples=80, deadline=None)
    def test_unary_operations(self, p, i):
        def moved(e, v):
            return e[:i] + (v,) + e[i + 1:]

        depth = p.max_deg(i) + 1
        low = p.min_deg(i)
        for r, expected in [
                (p.partial(i), MPoly(NV, [(moved(e, e[i] - 1), c * e[i])
                                          for e, c in p.terms.items() if e[i]])),
                (p.shift_out(i, low), MPoly(NV, [(moved(e, e[i] - low), c)
                                                 for e, c in p.terms.items()])),
                (p.subs_zero(i), MPoly(NV, [(e, c) for e, c in p.terms.items()
                                            if not e[i]])),
                (p.reverse_in(i, depth), MPoly(NV, [(moved(e, depth - e[i]), c)
                                                    for e, c in p.terms.items()]))]:
            assert_canonical(r)
            assert r == expected

    @given(rational_polys(), rational_polys())
    @settings(max_examples=40, deadline=None)
    def test_product_with_one_shares_nothing_mutable(self, p, q):
        snapshot = dict(p.terms)
        for r in (p * MPoly.const(NV, 1), MPoly.const(NV, 1) * p, p * 1):
            assert r == p
            _ = (r + q, r - q, r * q, -r, r.partial(1),
                 r.reverse_in(0, r.max_deg(0)), r.shift_out(2, r.min_deg(2)),
                 RatFunc(r) + RatFunc(q), RatFunc(q) * RatFunc(r))
        assert p.terms == snapshot

    @given(rational_polys(), rational_polys())
    @settings(max_examples=60, deadline=None)
    def test_ratfunc_normalization(self, num, den):
        one = MPoly.const(NV, 1)
        for f in (RatFunc(num), RatFunc(num, one)):
            assert (f.num, f.den) == normalized(num, one)
            assert f.num.terms == num.terms and f.den.terms == one.terms
        if den:
            f = RatFunc(num, den)
            assert (f.num.terms, f.den.terms) == tuple(
                g.terms for g in normalized(num, den))


# --- sums of products -----------------------------------------------------------

H = x * y + Fraction(2, 3) * x + 1  # free of t
DENS = [c(1), t, t * t, H, t * H]


def random_poly(rng, max_terms=4):
    return MPoly(NV, [((rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)),
                       Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
                      for _ in range(rng.randint(0, max_terms))])


def random_ratfunc(rng):
    return RatFunc(random_poly(rng), rng.choice(DENS))


class TestSumsOfProducts:
    @pytest.mark.parametrize("seed", range(60))
    def test_dot_is_the_sequential_sum(self, seed):
        rng = random.Random(seed)
        pairs = [(random_ratfunc(rng), random_ratfunc(rng))
                 for _ in range(rng.randint(1, 6))]
        f = RatFunc.dot(pairs)
        assert f == sum((a * b for a, b in pairs), RatFunc.const(NV, 0))
        f.require_t_factored()
        assert_canonical(f.num)
        assert_canonical(f.den)

    def test_dot_of_zeros_is_the_zero(self):
        zero = RatFunc.const(NV, 0)
        for pairs in ([(zero, zero)], [(zero, RatFunc(x, t)), (RatFunc(H), zero)],
                      [(RatFunc(x, t), RatFunc(y)), (RatFunc(-x, t), RatFunc(y))]):
            f = RatFunc.dot(pairs)
            assert f.is_zero and f.den == 1 and f.nvars == NV

    def test_dot_rejects_empty_and_mixed_inputs(self):
        with pytest.raises(InputError):
            RatFunc.dot([])
        with pytest.raises(InputError):
            RatFunc.dot([(RatFunc(x), RatFunc(MPoly.variable(2, 1)))])

    @pytest.mark.parametrize("seed", range(40))
    def test_kernel_is_the_brute_force_sum(self, seed):
        rng = random.Random(seed)
        pairs = [(random_poly(rng), random_poly(rng)) for _ in range(rng.randint(1, 4))]
        expected = MPoly(NV, [(tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                              for p, q in pairs for e1, c1 in p.terms.items()
                              for e2, c2 in q.terms.items()])
        total = mpoly._sum_products(NV, pairs)
        assert_canonical(total)
        assert total == expected


class TestPartial:
    @pytest.mark.parametrize("seed", range(20))
    def test_partial_is_the_full_quotient_rule(self, seed):
        # H is free of t and involves x and y: RatFunc.partial keeps it by
        # t and applies the quotient rule by x and y
        rng = random.Random(seed)
        for den in DENS:
            f = RatFunc(random_poly(rng), den)
            n, d = f.num, f.den
            for i in range(NV):
                df = f.partial(i)
                assert df == RatFunc(n.partial(i) * d - n * d.partial(i), d * d)
                assert_canonical(df.num)
                assert_canonical(df.den)

    def test_denominator_free_of_the_variable_is_kept(self):
        f = RatFunc(x * x * t, H)
        assert f.partial(0).den == H
        assert f.partial(0) == RatFunc(x * x, H)
        assert f.partial(1) == RatFunc((2 * x * H - x * x * H.partial(1)) * t, H * H)


class TestPublicConstructorValidates:
    @pytest.mark.parametrize("terms", [
        [((1, 0), 1)],                       # wrong arity
        [((1, 0, 0, 0), 1)],
        {(0, -1, 0): 2},                     # negative exponent
        [((0, 0, 0), 1.5)],                  # float coefficient
        {(1, 1, 1): 0.25},
    ])
    def test_rejects(self, terms):
        with pytest.raises(InputError):
            MPoly(NV, terms)

    def test_const_rejects(self):
        with pytest.raises(InputError):
            MPoly.const(NV, 0.5)
        with pytest.raises(InputError):
            MPoly.const(0, 1)
