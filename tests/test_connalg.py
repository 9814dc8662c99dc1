"""Connection forms: curvature, pole ranks, restrictions, assembly,
and the structure-condition checks."""

import itertools
import random
from fractions import Fraction

import pytest

from arith_lg import connalg, mpoly
from arith_lg.acceptance import _random_structure_tuple
from arith_lg.connalg import (FTSTuple, MatForm, assemble_nabla, curvature,
                              poincare_rank, to_infinity_chart, verify_connection,
                              verify_fts, verify_metric)
from arith_lg.errors import InputError
from arith_lg.mpoly import MPoly, RatFunc

NV = 3


def c(v):
    return MPoly.const(NV, v)


def var(i):
    return MPoly.variable(NV, i)


t, x, y = var(0), var(1), var(2)

ZERO2 = [[0, 0], [0, 0]]
E12 = [[0, 1], [0, 0]]
I2 = [[1, 0], [0, 1]]


def as_rf_matrix(rows, nvars=NV):
    def conv(v):
        if isinstance(v, RatFunc):
            return v
        if isinstance(v, MPoly):
            return RatFunc(v)
        return RatFunc.const(nvars, v)
    return tuple(tuple(conv(v) for v in row) for row in rows)


def mats_equal(a, b):
    return all(u == v for ra, rb in zip(a, b) for u, v in zip(ra, rb))


# --- reference: compose each identity as a whole matrix, then test it -------
#
# connalg decides an identity entry by entry on numerators: it sums each
# entry's terms per denominator, cross-multiplies the group sums, and stops
# at the first nonzero entry; curvature builds each entry as one rational
# function from the same groups.  The reference builds every intermediate
# matrix in full, from sequential sums of products and the full quotient
# rule, and tests the finished matrix.

def _quotient_rule(f, i):
    n, d = f.num, f.den
    return RatFunc(n.partial(i) * d - n * d.partial(i), d * d)


def _madd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _msub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mneg(a):
    return tuple(tuple(-x for x in row) for row in a)


def _mmul(a, b):
    zero = RatFunc.const(a[0][0].nvars, 0)
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), zero)
                       for col in zip(*b)) for row in a)


def _mtrans(a):
    return tuple(zip(*a))


def _mcomm(a, b):
    return _msub(_mmul(a, b), _mmul(b, a))


def _mpartial(a, i):
    return tuple(tuple(_quotient_rule(x, i) for x in row) for row in a)


def _mzero(a):
    return all(x.is_zero for row in a for x in row)


def _meq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _curl(X, Y, a, b):
    return _madd(_msub(_mpartial(Y, a), _mpartial(X, b)), _mcomm(X, Y))


def _mshift(a, k):
    return tuple(tuple(x.mul_t_power(k) for x in row) for row in a)


def reference_assemble(T):
    """A + Phi/t + (R_0/t - R_inf) dt/t as sums of rational functions."""
    comps = {(i + 1,): _madd(T.A[i], _mshift(T.phi[i], -1)) for i in range(T.m)}
    comps[(0,)] = _msub(_mshift(T.r0, -2), _mshift(T.rinf, -1))
    return MatForm(T.nvars, 1, comps, T.size)


def reference_curvature(A):
    """Every dz_a^dz_b component (a < b) of dA + A^A, zero ones included."""
    parts = [A.component((a,)) for a in range(A.nvars)]
    return {(a, b): _curl(parts[a], parts[b], a, b)
            for a in range(A.nvars) for b in range(a + 1, A.nvars)}


def reference_flat(A):
    return all(_mzero(F) for F in reference_curvature(A).values())


def reference_conditions(T):
    m, A, phi, r0, rinf = T.m, T.A, T.phi, T.r0, T.rinf
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    return {
        "base_connection_flat": all(
            _mzero(_curl(A[i], A[j], i + 1, j + 1)) for i, j in pairs),
        "rinf_horizontal": all(
            _mzero(_madd(_mpartial(rinf, i + 1), _mcomm(A[i], rinf)))
            for i in range(m)),
        "higgs_wedge_zero": all(_mzero(_mcomm(phi[i], phi[j])) for i, j in pairs),
        "higgs_commutes_r0": all(_mzero(_mcomm(phi[i], r0)) for i in range(m)),
        "higgs_horizontal": all(
            _mzero(_madd(_msub(_mpartial(phi[j], i + 1), _mpartial(phi[i], j + 1)),
                         _msub(_mcomm(A[i], phi[j]), _mcomm(A[j], phi[i]))))
            for i, j in pairs),
        "r0_transport": all(
            _mzero(_msub(_madd(_madd(_mpartial(r0, i + 1), _mcomm(A[i], r0)), phi[i]),
                         _mcomm(phi[i], rinf)))
            for i in range(m)),
    }


def reference_metric(T):
    """(higgs_self_adjoint, r0_self_adjoint, rinf_skew_adjoint, pairing_flat)"""
    g = T.g
    return (
        all(_meq(_mmul(_mtrans(p), g), _mmul(g, p)) for p in T.phi),
        _meq(_mmul(_mtrans(T.r0), g), _mmul(g, T.r0)),
        _meq(_mmul(_mtrans(T.rinf), g), _mneg(_mmul(g, T.rinf))),
        all(_meq(_mpartial(g, i + 1), _madd(_mmul(_mtrans(A), g), _mmul(g, A)))
            for i, A in enumerate(T.A)),
    )


def assert_curvature_matches(A):
    F = curvature(A)
    for key, expected in reference_curvature(A).items():
        assert mats_equal(F.component(key), expected), key


class TestMatForm:
    def test_zero_components_dropped(self):
        A = MatForm(NV, 1, {(1,): ZERO2, (2,): E12}, 2)
        assert (1,) not in A.comps
        assert (2,) in A.comps
        assert not A.is_zero

    def test_component_default_zero(self):
        A = MatForm(NV, 1, {(2,): E12}, 2)
        assert all(v.is_zero for row in A.component((1,)) for v in row)

    def test_key_validation(self):
        with pytest.raises(InputError):
            MatForm(NV, 2, {(1, 1): E12}, 2)
        with pytest.raises(InputError):
            MatForm(NV, 1, {(5,): E12}, 2)
        with pytest.raises(InputError):
            MatForm(NV, 1, {(1, 2): E12}, 2)

    def test_size_inference_needs_content(self):
        with pytest.raises(InputError):
            MatForm(NV, 1, {})

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            MatForm(NV, 1, {(1,): [[0, 1]]})

    def test_entries_are_lifted_by_the_one_mpoly_lift(self):
        # RatFunc, MPoly, int, Fraction and str entries all enter Q(t, x);
        # a polynomial or rational function of another variable count and
        # a value of any other type are input errors
        A = MatForm(NV, 1, {(1,): [[RatFunc(x, t), x], [Fraction(1, 2), "3/4"]]}, 2)
        assert A.component((1,))[1][1] == RatFunc.const(NV, Fraction(3, 4))
        for bad in (MPoly.const(NV + 1, 1), RatFunc(MPoly.variable(2, 1)), 0.5, None):
            with pytest.raises(InputError):
                MatForm(NV, 1, {(1,): [[bad]]}, 1)
        with pytest.raises(InputError, match="mixed variable counts"):
            connalg._mat([[MPoly.const(3, 1)]], 2)

    def test_equality_ignores_representation(self):
        A = MatForm(NV, 1, {(1,): [[RatFunc(t, t * t), 0], [0, 0]]}, 2)
        B = MatForm(NV, 1, {(1,): [[RatFunc(c(1), t), 0], [0, 0]]}, 2)
        assert A == B


class TestCurvature:
    def test_zero(self):
        A = MatForm(NV, 1, {(1,): ZERO2}, 2)
        assert curvature(A).is_zero

    def test_constant_single_variable(self):
        A = MatForm(NV, 1, {(1,): [[1, 2], [3, 4]]}, 2)
        assert curvature(A).is_zero

    def test_hand_expanded_example(self):
        # A = E12 x dy + E21 y dx has curvature
        # (E12 - E21 + xy(E22 - E11)) dx^dy
        A = MatForm(NV, 1, {(2,): [[0, x], [0, 0]], (1,): [[0, 0], [y, 0]]}, 2)
        F = curvature(A)
        xy = x * y
        expected = as_rf_matrix([[-xy, c(1)], [c(-1), xy]])
        assert mats_equal(F.component((1, 2)), expected)
        assert all(v.is_zero for i in (1, 2)
                   for row in F.component((0, i)) for v in row)

    def test_commutator_term_orientation(self):
        # constant noncommuting dx and dy parts: curvature = [M, N] dx^dy
        M = [[0, 1], [0, 0]]
        N = [[0, 0], [1, 0]]
        A = MatForm(NV, 1, {(1,): M, (2,): N}, 2)
        F = curvature(A)
        expected = as_rf_matrix([[1, 0], [0, -1]])
        assert mats_equal(F.component((1, 2)), expected)

    def test_dt_component(self):
        # A = x dt: dt^dx coefficient is -d_x(x) = -1
        A = MatForm(NV, 1, {(0,): [[x, 0], [0, 0]]}, 2)
        F = curvature(A)
        assert F.component((0, 1))[0][0] == -1

    def test_gauge_transform_of_zero_is_flat(self):
        # A = U^{-1} dU for polynomial-invertible U: exactly flat
        rng = random.Random(11)
        for _ in range(10):
            U = [[c(1), c(0)], [c(0), c(1)]]
            Uinv = [[c(1), c(0)], [c(0), c(1)]]
            for _ in range(3):
                i, j = rng.sample((0, 1), 2)
                coef = rng.randint(-2, 2)
                mono = [c(1), x, y, x * y][rng.randrange(4)]
                E = [[c(1), c(0)], [c(0), c(1)]]
                E[i][j] = coef * mono
                Einv = [[c(1), c(0)], [c(0), c(1)]]
                Einv[i][j] = -coef * mono
                U = poly_matmul(E, U)
                Uinv = poly_matmul(Uinv, Einv)
            comps = {}
            for k in (1, 2):
                dU = [[e.partial(k) for e in row] for row in U]
                comps[(k,)] = poly_matmul(Uinv, dU)
            A = MatForm(NV, 1, comps, 2)
            assert curvature(A).is_zero

    def test_wrong_degree(self):
        A = MatForm(NV, 0, {(): I2}, 2)
        with pytest.raises(InputError):
            curvature(A)


def poly_matmul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), MPoly(NV))
             for j in range(n)] for i in range(n)]


class TestPoincareRank:
    def test_logarithmic(self):
        A = MatForm(NV, 1, {(0,): [[RatFunc(x, t), 0], [0, 0]]}, 2)
        assert poincare_rank(A) == 0

    def test_rank_one(self):
        A = MatForm(NV, 1, {(1,): [[RatFunc(c(1), t), 0], [0, 0]],
                            (0,): [[RatFunc(c(1), t * t), 0], [0, 0]]}, 2)
        assert poincare_rank(A) == 1

    def test_holomorphic_is_minus_one(self):
        A = MatForm(NV, 1, {(1,): [[1, 2], [3, 4]]}, 2)
        assert poincare_rank(A) == -1

    def test_regular_dt_part_is_minus_one(self):
        A = MatForm(NV, 1, {(0,): [[x, 0], [0, 1]]}, 2)
        assert poincare_rank(A) == -1

    def test_dx_pole_alone(self):
        A = MatForm(NV, 1, {(1,): [[RatFunc(c(1), t), 0], [0, 0]]}, 2)
        assert poincare_rank(A) == 1

    def test_regular_dx_with_log_dt(self):
        A = MatForm(NV, 1, {(1,): [[x, 0], [0, 0]],
                            (0,): [[RatFunc(c(1), t), 0], [0, 0]]}, 2)
        assert poincare_rank(A) == 0

    def test_mixed_denominator_rejected(self):
        A = MatForm(NV, 1, {(0,): [[RatFunc(c(1), t + x), 0], [0, 0]]}, 2)
        with pytest.raises(InputError, match="denominator does not factor as a t-power"):
            poincare_rank(A)


class TestLogRestriction:
    """The report's residue data, present for a flat form of rank <= 0."""

    def test_constant_residue(self):
        A = MatForm(NV, 1, {(0,): [[RatFunc(c(5), t), RatFunc(c(1), t)],
                                   [0, RatFunc(c(2), t)]]}, 2)
        rep = verify_connection(A)
        assert rep.poincare_rank == 0
        assert rep.residue[0][0] == 5
        assert rep.residue[0][1] == 1
        assert rep.residue[1][1] == 2
        assert rep.residue_horizontal
        assert rep.higgs is None and rep.r0 is None

    def test_nonconstant_residue_without_dx_is_not_flat(self):
        # horizontality would force the residue constant
        A = MatForm(NV, 1, {(0,): [[RatFunc(x, t), 0], [0, RatFunc(y, t)]]}, 2)
        rep = verify_connection(A)
        assert not rep.flat
        assert rep.poincare_rank == 0
        assert rep.residue is None and rep.logarithmic_at_infinity is None

    def test_rank_one_rejected(self):
        T = FTSTuple(2, 2, A=[ZERO2, ZERO2], phi=[E12, ZERO2], r0=I2,
                     rinf=[[0, 0], [0, 1]])
        rep = verify_connection(assemble_nabla(T))
        assert rep.flat and rep.poincare_rank == 1
        assert rep.residue is None and rep.residue_horizontal is None

    def test_holomorphic_accepted_with_zero_residue(self):
        A = MatForm(NV, 1, {(1,): [[1, 0], [0, 1]]}, 2)
        rep = verify_connection(A)
        assert rep.poincare_rank == -1
        assert all(v.is_zero for row in rep.residue for v in row)


class TestRank1Restriction:
    """The report's Higgs data, present for a flat form of rank 1."""

    def test_round_trip(self):
        T = FTSTuple(2, 1, A=[ZERO2], phi=[E12], r0=I2, rinf=[[0, 0], [0, 1]])
        rep = verify_connection(assemble_nabla(T))
        assert mats_equal(rep.higgs[0], as_rf_matrix(E12, 2))
        assert mats_equal(rep.r0, as_rf_matrix(I2, 2))
        assert rep.higgs_squares_zero and rep.higgs_commutes_r0
        assert rep.residue is None

    def test_round_trip_polynomial_entries(self):
        phi = [[x, y], [c(0), x]]
        r0 = [[x * y, c(0)], [c(0), x * y]]
        T = FTSTuple(2, 2, A=[ZERO2, ZERO2],
                     phi=[phi, ZERO2], r0=r0, rinf=ZERO2)
        # flatness of this particular tuple is not automatic; the Higgs
        # field is reported only when it holds
        rep = verify_connection(assemble_nabla(T))
        if rep.flat:
            assert mats_equal(rep.higgs[0], as_rf_matrix(phi))
        else:
            assert rep.higgs is None

    def test_curved_form_rejected(self):
        A = MatForm(NV, 1, {(1,): [[RatFunc(y, t), 0], [0, 0]],
                            (2,): [[0, 0], [0, 0]]}, 2)
        rep = verify_connection(A)
        assert not rep.flat and rep.poincare_rank == 1
        assert rep.higgs is None and rep.r0 is None

    def test_log_pole_rejected(self):
        A = MatForm(NV, 1, {(0,): [[RatFunc(c(5), t), 0], [0, 0]]}, 2)
        rep = verify_connection(A)
        assert rep.flat and rep.poincare_rank == 0
        assert rep.higgs is None and rep.higgs_squares_zero is None

    def test_scalar_case(self):
        # scalar flatness forces phi = -dr0/dx, commutators all vanish
        x1 = MPoly.variable(2, 1)
        T = FTSTuple(1, 1, A=[[[0]]], phi=[[[1]]], r0=[[-x1]], rinf=[[3]])
        rep = verify_connection(assemble_nabla(T))
        assert rep.higgs_squares_zero and rep.higgs_commutes_r0
        assert rep.higgs[0][0][0] == RatFunc.const(2, 1)
        assert rep.r0[0][0] == RatFunc(-x1)


class TestConnectionReport:
    def test_one_flatness_pass_per_report(self, monkeypatch):
        calls = []
        real = connalg._flat

        def counted(A):
            calls.append(A)
            return real(A)

        def no_curvature(A):
            raise AssertionError("the report builds no curvature form")

        monkeypatch.setattr(connalg, "_flat", counted)
        monkeypatch.setattr(connalg, "curvature", no_curvature)
        T = FTSTuple(2, 1, A=[ZERO2], phi=[E12], r0=I2, rinf=[[0, 0], [0, 1]])
        assert verify_connection(assemble_nabla(T)).flat
        assert len(calls) == 1

    def test_round_trip_over_random_tuples(self):
        # the seeded generator of acceptance criterion 7 reaches all three
        # cases (flat of rank 1, flat of rank <= 0, not flat) in its first
        # four tuples
        rng = random.Random(20260816)
        seen = set()
        for _ in range(20):
            T = _random_structure_tuple(rng)
            rep = verify_connection(assemble_nabla(T))
            assert rep.flat == verify_fts(T).all_conditions_ok
            if not rep.flat:
                seen.add("curved")
                continue
            assert rep.logarithmic_at_infinity
            assert mats_equal(rep.residue_at_infinity, T.rinf)
            if rep.poincare_rank == 1:
                seen.add("rank 1")
                assert all(mats_equal(a, b) for a, b in zip(rep.higgs, T.phi))
                assert mats_equal(rep.r0, T.r0)
            else:
                seen.add("logarithmic")
                assert mats_equal(rep.residue, [[-v for v in row] for row in T.rinf])
            if len(seen) == 3:
                break
        assert seen == {"curved", "rank 1", "logarithmic"}


class TestAssembly:
    def test_zero_tuple(self):
        T = FTSTuple(2, 1, A=[ZERO2], phi=[ZERO2], r0=ZERO2, rinf=ZERO2)
        assert assemble_nabla(T).is_zero

    def test_explicit_shape(self):
        T = FTSTuple(2, 1, A=[ZERO2], phi=[E12], r0=I2, rinf=[[0, 0], [0, 1]])
        A = assemble_nabla(T)
        nv = T.nvars
        tt = MPoly.variable(nv, 0)
        assert A.component((1,))[0][1] == RatFunc(MPoly.const(nv, 1), tt)
        At = A.component((0,))
        assert At[0][0] == RatFunc(MPoly.const(nv, 1), tt * tt)
        assert At[1][1] == RatFunc(1 - tt, tt * tt)

    def test_dt_over_t_squared_coefficient_is_r0(self):
        T = FTSTuple(2, 1, A=[ZERO2], phi=[E12],
                     r0=[[2, 1], [0, 2]], rinf=[[0, 0], [0, 1]])
        A = assemble_nabla(T)
        back = [[v.mul_t_power(2).eval_t0() for v in row]
                for row in A.component((0,))]
        assert mats_equal(back, as_rf_matrix([[2, 1], [0, 2]], T.nvars))

    def test_poincare_rank_at_most_one(self):
        T = FTSTuple(2, 2, A=[ZERO2, [[0, 0], [0, 1]]], phi=[E12, ZERO2],
                     r0=I2, rinf=ZERO2)
        assert poincare_rank(assemble_nabla(T)) <= 1

    def test_infinity_chart_is_logarithmic(self):
        T = FTSTuple(2, 1, A=[ZERO2], phi=[E12], r0=I2, rinf=[[0, 0], [0, 1]])
        B = to_infinity_chart(assemble_nabla(T))
        assert poincare_rank(B) == 0

    def test_residue_at_infinity_is_rinf(self):
        rinf = [[3, 1], [0, 4]]
        T = FTSTuple(2, 1, A=[ZERO2], phi=[E12], r0=I2, rinf=rinf)
        rep = verify_connection(assemble_nabla(T))
        assert rep.logarithmic_at_infinity
        assert mats_equal(rep.residue_at_infinity, as_rf_matrix(rinf, T.nvars))

    def test_chart_change_involution(self):
        T = FTSTuple(2, 1, A=[ZERO2], phi=[E12], r0=I2, rinf=[[0, 0], [0, 1]])
        A = assemble_nabla(T)
        assert to_infinity_chart(to_infinity_chart(A)) == A


def random_entry_tuple(rng, polynomial=False):
    """A tuple whose entries are zero, polynomials with integer or
    Fraction coefficients, or (unless polynomial) rational functions with
    t-free denominators, 1/x1 among them."""
    size, m = rng.choice((1, 2, 3)), rng.choice((1, 2))
    nv = m + 1
    xs = [MPoly.variable(nv, i) for i in range(1, nv)]
    one = MPoly.const(nv, 1)

    def poly():
        p = MPoly.const(nv, rng.choice((0, 1, -2, Fraction(1, 2), Fraction(-3, 4))))
        for _ in range(rng.randrange(3)):
            p = p + rng.choice((1, -1, 3, Fraction(2, 3))) * rng.choice(xs) ** rng.randrange(3)
        return RatFunc(p)

    def entry():
        kind = rng.random()
        if kind < 0.2:
            return RatFunc.const(nv, 0)
        if polynomial or kind < 0.6:
            return poly()
        if kind < 0.8:
            return RatFunc(one, xs[0])
        return poly() / RatFunc(one + rng.choice((1, 2, Fraction(1, 3))) * rng.choice(xs))

    def mat():
        return [[entry() for _ in range(size)] for _ in range(size)]

    return FTSTuple(size, m, A=[mat() for _ in range(m)], phi=[mat() for _ in range(m)],
                    r0=mat(), rinf=mat())


class TestAssembleByShifts:
    """assemble_nabla against the sums of rational functions it replaces."""

    def test_equals_the_sum_construction(self):
        rng = random.Random(20261020)
        tuples = [random_entry_tuple(rng) for _ in range(150)]
        # A = Phi = 1/x1: a + b/t = (t + 1)/(t x1) only once x1 cancels
        inv_x1 = RatFunc(MPoly.const(2, 1), MPoly.variable(2, 1))
        tuples.append(FTSTuple(1, 1, A=[[[inv_x1]]], phi=[[[inv_x1]]],
                               r0=[[inv_x1]], rinf=[[inv_x1]]))
        for T in tuples:
            got, want = assemble_nabla(T), reference_assemble(T)
            assert got == want and set(got.comps) == set(want.comps)
        tt, x1 = MPoly.variable(2, 0), MPoly.variable(2, 1)
        assert got.component((1,))[0][0] == RatFunc(tt + 1, tt * x1)

    def test_polynomial_entries_give_the_normalized_pair(self):
        # over the constant 1 the closed form is the stored pair the
        # normalizing sum gives, not only an equal function
        rng = random.Random(20261021)
        for _ in range(150):
            T = random_entry_tuple(rng, polynomial=True)
            got, want = assemble_nabla(T), reference_assemble(T)
            assert set(got.comps) == set(want.comps)
            for key, mat in want.comps.items():
                for row, ref_row in zip(got.comps[key], mat):
                    assert [(v.num, v.den) for v in row] == [(v.num, v.den) for v in ref_row]

    def test_polynomial_entries_are_shifted_not_normalized(self, monkeypatch):
        calls = []
        init, kernel = RatFunc.__init__, mpoly._sum_products

        def counted_init(self, *args):
            calls.append("RatFunc")
            init(self, *args)

        def counted_kernel(*args):
            calls.append("_sum_products")
            return kernel(*args)

        rng = random.Random(20261022)
        polynomial = [random_entry_tuple(rng, polynomial=True) for _ in range(20)]
        rational = random_entry_tuple(random.Random(3))
        monkeypatch.setattr(RatFunc, "__init__", counted_init)
        monkeypatch.setattr(mpoly, "_sum_products", counted_kernel)
        monkeypatch.setattr(connalg, "_sum_products", counted_kernel)
        for T in polynomial:
            assemble_nabla(T)
        assert calls == []
        # the guard can fail: rational entries go through the RatFunc sum
        assemble_nabla(rational)
        assert "RatFunc" in calls


class TestFTSTuple:
    def test_t_dependence_rejected(self):
        bad = [[t, c(0)], [c(0), c(0)]]
        with pytest.raises(InputError):
            FTSTuple(2, 1, A=[bad], phi=[ZERO2], r0=ZERO2, rinf=ZERO2)

    def test_asymmetric_pairing_rejected(self):
        with pytest.raises(InputError):
            FTSTuple(2, 1, A=[ZERO2], phi=[ZERO2], r0=ZERO2, rinf=ZERO2,
                     g=E12)

    def test_wrong_component_count(self):
        with pytest.raises(InputError):
            FTSTuple(2, 2, A=[ZERO2], phi=[ZERO2, ZERO2], r0=ZERO2, rinf=ZERO2)


class TestVerifyFTS:
    def test_known_pass_instance(self):
        T = FTSTuple(2, 1, A=[ZERO2], phi=[E12], r0=I2, rinf=[[0, 0], [0, 1]])
        rep = verify_fts(T)
        assert rep.all_conditions_ok and rep.assembled_flat
        assert all(rep.conditions.values())

    def test_known_fail_instance(self):
        # doubling the diagonal breaks only the transport condition
        T = FTSTuple(2, 1, A=[ZERO2], phi=[E12], r0=I2, rinf=[[0, 0], [0, 2]])
        rep = verify_fts(T)
        assert not rep.all_conditions_ok and not rep.assembled_flat
        failed = [k for k, v in rep.conditions.items() if not v]
        assert failed == ["r0_transport"]

    def test_zero_tuple_passes(self):
        T = FTSTuple(2, 1, A=[ZERO2], phi=[ZERO2], r0=ZERO2, rinf=ZERO2)
        rep = verify_fts(T)
        assert rep.all_conditions_ok and rep.assembled_flat

    def test_two_variable_pass(self):
        # commuting constant Higgs components with scalar r0
        phi1 = [[0, 1], [0, 0]]
        phi2 = [[0, 2], [0, 0]]
        T = FTSTuple(2, 2, A=[ZERO2, ZERO2], phi=[phi1, phi2],
                     r0=[[3, 0], [0, 3]], rinf=[[0, 0], [0, 1]])
        rep = verify_fts(T)
        assert rep.all_conditions_ok and rep.assembled_flat

    def test_random_equivalence(self):
        # the six conditions and assembled flatness always agree
        rng = random.Random(23)
        agree = 0
        for _ in range(40):
            T = random_tuple(rng)
            rep = verify_fts(T)
            assert rep.all_conditions_ok == rep.assembled_flat
            agree += 1
        assert agree == 40


def random_tuple(rng, with_metric=False):
    r = rng.choice((1, 2, 3))
    m = rng.choice((1, 2))
    nv = m + 1
    kind = rng.random()

    def rand_poly(max_deg=2):
        p = MPoly(nv)
        for _ in range(rng.randrange(3)):
            exps = [0] * nv
            for _ in range(max_deg):
                i = rng.randrange(1, nv)
                if rng.random() < 0.6:
                    exps[i] += 1
            p = p + MPoly(nv, [(tuple(exps), rng.randint(-2, 2))])
        return p

    def rand_mat():
        return [[rand_poly() for _ in range(r)] for _ in range(r)]

    def zmat():
        return [[MPoly(nv) for _ in range(r)] for _ in range(r)]

    def cmat(scale):
        return [[MPoly.const(nv, scale if i == j else 0) for j in range(r)]
                for i in range(r)]

    if kind < 0.35:
        # flat by construction: zero Higgs, constant commuting data
        T = FTSTuple(r, m, A=[zmat() for _ in range(m)],
                     phi=[zmat() for _ in range(m)],
                     r0=cmat(rng.randint(-2, 2)), rinf=cmat(rng.randint(-2, 2)),
                     g=cmat(1) if with_metric else None)
    elif kind < 0.5 and r == 2:
        # flat nilpotent template: phi = c E12, scalar r0,
        # rinf = diag(d, d+1)
        cval = rng.randint(1, 3)
        d = rng.randint(-2, 2)
        phi = [[MPoly.const(nv, 0), MPoly.const(nv, cval)],
               [MPoly.const(nv, 0), MPoly.const(nv, 0)]]
        rinf = [[MPoly.const(nv, d), MPoly.const(nv, 0)],
                [MPoly.const(nv, 0), MPoly.const(nv, d + 1)]]
        T = FTSTuple(2, m, A=[zmat() for _ in range(m)],
                     phi=[phi] + [zmat() for _ in range(m - 1)],
                     r0=cmat(rng.randint(-2, 2)), rinf=rinf,
                     g=cmat(1) if with_metric else None)
    else:
        T = FTSTuple(r, m, A=[rand_mat() for _ in range(m)],
                     phi=[rand_mat() for _ in range(m)],
                     r0=rand_mat(), rinf=rand_mat(),
                     g=cmat(1) if with_metric else None)
    return T


def assembled_pairing_flat(T):
    """Flatness of the pairing <a(t), b(-t)> through g on the assembled
    family, decided on the full (t, x)-chart.

    Writing A' for the assembled form, the pairing is flat iff
    d_i g = A'_i(t)^T g + g A'_i(-t) for every i and
    A'_t(t)^T g = g A'_t(-t); this is the disjoint-path counterpart of
    the four identities in verify_metric.
    """
    A = assemble_nabla(T)
    g = T.g

    def minus_t(poly):
        return MPoly(poly.nvars, [(e, -c if e[0] % 2 else c) for e, c in poly.terms.items()])

    def flip(mat):
        return tuple(tuple(RatFunc(minus_t(v.num), minus_t(v.den)) for v in row)
                     for row in mat)

    for i in range(1, T.m + 1):
        Ai = A.component((i,))
        rhs = _madd(_mmul(_mtrans(Ai), g), _mmul(g, flip(Ai)))
        if not _meq(_mpartial(g, i), rhs):
            return False
    At = A.component((0,))
    return _meq(_mmul(_mtrans(At), g), _mmul(g, flip(At)))


class TestVerifyMetric:
    def test_trivial_all_pass(self):
        T = FTSTuple(2, 1, A=[ZERO2], phi=[ZERO2], r0=ZERO2, rinf=ZERO2, g=I2)
        rep = verify_metric(T)
        assert rep.all_ok

    def test_skew_rinf_passes(self):
        T = FTSTuple(2, 1, A=[ZERO2], phi=[ZERO2], r0=ZERO2,
                     rinf=[[0, 1], [-1, 0]], g=I2)
        assert verify_metric(T).rinf_skew_adjoint

    def test_e12_r0_fails_self_adjointness(self):
        T = FTSTuple(2, 1, A=[ZERO2], phi=[ZERO2], r0=E12, rinf=ZERO2, g=I2)
        rep = verify_metric(T)
        assert not rep.r0_self_adjoint
        assert not rep.all_ok

    def test_missing_metric(self):
        T = FTSTuple(2, 1, A=[ZERO2], phi=[ZERO2], r0=ZERO2, rinf=ZERO2)
        with pytest.raises(InputError):
            verify_metric(T)

    def test_singular_metric(self):
        T = FTSTuple(2, 1, A=[ZERO2], phi=[ZERO2], r0=ZERO2, rinf=ZERO2,
                     g=[[1, 1], [1, 1]])
        with pytest.raises(InputError, match="pairing matrix has zero determinant"):
            verify_metric(T)

    def test_nonconstant_flat_metric(self):
        # g = diag(1, x1): flatness needs A with A^T g + g A = dg;
        # A = diag(0, 1/(2 x1)) dx is rational but not polynomial, so
        # instead check failure with A = 0
        T = FTSTuple(2, 1, A=[ZERO2], phi=[ZERO2], r0=ZERO2, rinf=ZERO2,
                     g=[[MPoly.const(2, 1), MPoly.const(2, 0)],
                        [MPoly.const(2, 0), MPoly.variable(2, 1)]])
        rep = verify_metric(T)
        assert not rep.pairing_flat

    def test_metric_equivalence_with_assembled_pairing(self):
        # the four identities hold exactly when the t/-t pairing on the
        # assembled family is flat, computed by disjoint paths
        rng = random.Random(37)
        for _ in range(30):
            T = random_tuple(rng, with_metric=True)
            assert verify_metric(T).all_ok == assembled_pairing_flat(T)

    def test_assembled_pairing_on_known_instances(self):
        T = FTSTuple(2, 1, A=[ZERO2], phi=[[[0, 1], [1, 0]]], r0=I2,
                     rinf=ZERO2, g=I2)
        assert assembled_pairing_flat(T)
        T2 = FTSTuple(2, 1, A=[ZERO2], phi=[E12], r0=I2, rinf=ZERO2, g=I2)
        assert not assembled_pairing_flat(T2)


# --- the pairing's determinant: a certificate at one point, else cofactors ----

def leibniz_det(mat):
    """The determinant as the signed sum over permutations of RatFunc
    products, shared with neither the certificate nor connalg._det."""
    n = len(mat)
    total = RatFunc.const(mat[0][0].nvars, 0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = RatFunc.const(mat[0][0].nvars, -1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * mat[i][j]
        total = total + term
    return total


X1 = MPoly.variable(2, 1)  # the base coordinate of an m = 1 tuple, 2 at the point (1, 2)


def pairing(g):
    return FTSTuple(2, 1, A=[ZERO2], phi=[ZERO2], r0=ZERO2, rinf=ZERO2, g=g).g


class TestPairingCertificate:
    """_nonsingular decides det g != 0 by the rank of g at (1, 2, ...),
    and by connalg._det only when that value is singular or a pole."""

    @pytest.fixture
    def det_calls(self, monkeypatch):
        calls = []
        real = connalg._det

        def counting(mat):
            calls.append(mat)
            return real(mat)

        monkeypatch.setattr(connalg, "_det", counting)
        return calls

    @pytest.mark.parametrize("name, g, nonsingular, fallback", [
        ("regular", [[1, X1], [X1, 0]], True, False),
        ("singular-at-the-point", [[X1 - 2, 0], [0, 1]], True, True),
        ("identically-singular", [[X1, X1], [X1, X1]], False, True),
        ("pole-at-the-point", [[RatFunc(MPoly.const(2, 1), X1 - 2), 0], [0, 1]],
         True, True),
    ])
    def test_each_path(self, det_calls, name, g, nonsingular, fallback):
        g = pairing(g)
        assert connalg._nonsingular(g) is nonsingular
        assert (leibniz_det(g) != 0) is nonsingular
        assert bool(det_calls) is fallback  # _det recurses: any call is a fallback

    def test_fallback_accepts_a_pairing_singular_at_the_point(self, det_calls):
        T = FTSTuple(2, 1, A=[ZERO2], phi=[ZERO2], r0=ZERO2, rinf=ZERO2,
                     g=[[X1 - 2, 0], [0, 1]])
        verify_metric(T)
        assert det_calls

    def test_identically_singular_pairing_is_refused(self):
        T = FTSTuple(2, 1, A=[ZERO2], phi=[ZERO2], r0=ZERO2, rinf=ZERO2,
                     g=[[X1, X1], [X1, X1]])
        with pytest.raises(InputError, match="pairing matrix has zero determinant"):
            verify_metric(T)

    def test_random_pairings(self):
        rng = random.Random(11)
        nv = 3
        seen = set()
        for _ in range(40):
            size = rng.randint(1, 4)
            g = random_pairing(rng, size, nv)
            if rng.random() < 0.3:  # make one row a multiple of another
                i, j = rng.sample(range(size), 2) if size > 1 else (0, 0)
                rows = [list(row) for row in g]
                rows[i] = [v * 2 for v in rows[j]]
                g = tuple(tuple(row) for row in rows)
            verdict = connalg._nonsingular(g)
            assert verdict == (leibniz_det(g) != 0)
            seen.add(verdict)
        assert seen == {True, False}


# --- the entry-wise evaluator against the reference --------------------------

def t_free_denominator(nv):
    """1 + 2 x_1 + x_m^2: free of t and not a monomial, so RatFunc.partial
    keeps it by t and applies the quotient rule by the base variables."""
    one, x1, xm = MPoly.const(nv, 1), MPoly.variable(nv, 1), MPoly.variable(nv, nv - 1)
    return one + 2 * x1 + xm * xm


def random_pairing(rng, size, nv):
    """P^T D P: symmetric with determinant prod(D); P is unipotent upper
    triangular, constant for about half the tuples."""
    base = [MPoly.const(nv, 1)] if rng.random() < 0.5 else \
        [MPoly.const(nv, 1), MPoly.variable(nv, 1), MPoly.variable(nv, nv - 1)]
    P = as_rf_matrix([[1 if i == j else rng.randint(-1, 1) * rng.choice(base) if i < j else 0
                       for j in range(size)] for i in range(size)], nv)
    D = as_rf_matrix([[rng.choice((1, -1, 2)) if i == j else 0 for j in range(size)]
                      for i in range(size)], nv)
    return _mmul(_mmul(_mtrans(P), D), P)


@pytest.fixture(scope="module")
def reference_sample():
    """120 seeded tuples of acceptance's generator, flat and not, each with
    a pairing; every third one has its base connection divided by a t-free,
    non-monomial denominator."""
    rng = random.Random(20261019)
    out = []
    for k in range(120):
        T = _random_structure_tuple(rng)
        nv = T.nvars
        A = T.A
        if k % 3 == 2:
            h = RatFunc(MPoly.const(nv, 1), t_free_denominator(nv))
            A = [[[v * h for v in row] for row in mat] for mat in A]
        out.append(FTSTuple(T.size, T.m, A, T.phi, T.r0, T.rinf,
                            g=random_pairing(rng, T.size, nv)))
    return out


class TestAgainstReference:
    def test_conditions_and_assembled_flatness(self, reference_sample):
        flats = set()
        for T in reference_sample:
            rep = verify_fts(T)
            assert rep.conditions == reference_conditions(T)
            assert rep.assembled_flat == reference_flat(assemble_nabla(T))
            flats.add(rep.assembled_flat)
        assert flats == {True, False}

    def test_metric_flags(self, reference_sample):
        seen = set()
        for T in reference_sample:
            rep = verify_metric(T)
            flags = (rep.higgs_self_adjoint, rep.r0_self_adjoint,
                     rep.rinf_skew_adjoint, rep.pairing_flat)
            assert flags == reference_metric(T)
            seen.update(enumerate(flags))
        # every flag takes both values over the sample
        assert seen == {(k, v) for k in range(4) for v in (True, False)}

    def test_curvature_entry_by_entry(self, reference_sample):
        for T in reference_sample:
            assert_curvature_matches(assemble_nabla(T))

    @pytest.mark.parametrize("seed", range(12))
    def test_rational_connection_forms(self, seed):
        # entries over 1, t, t^2, h and t h with h t-free and not a monomial;
        # the first form is arbitrary, the second flat by construction:
        # A = E12 df + I dg, for rational f and g
        rng = random.Random(seed)
        h = t_free_denominator(NV)
        dens = [c(1), t, t * t, h, t * h]

        def rand_rf():
            p = MPoly(NV, [((rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)),
                            rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))])
            return RatFunc(p, rng.choice(dens))

        free = MatForm(NV, 1, {(a,): [[rand_rf() for _ in range(2)] for _ in range(2)]
                               for a in range(NV)}, 2)
        f, g = rand_rf(), rand_rf()
        flat = MatForm(NV, 1, {(a,): [[g.partial(a), f.partial(a)], [0, g.partial(a)]]
                               for a in range(NV)}, 2)
        for A in (free, flat):
            assert_curvature_matches(A)
            assert connalg._flat(A) == reference_flat(A) == curvature(A).is_zero
        assert connalg._flat(flat)


# --- the numerator reduction against the reference ----------------------------
#
# Each identity below is zero or not by construction and by the reference;
# `_vanishes` must agree.  The zero ones need every part of the reduction:
# groups that cancel only after cross-multiplication, both signs, and the
# plain terms.

H1, H2 = x + 1, x + 2


def rf_mat(entries, size=2):
    """A size x size matrix with the given entries in its first row, then
    zeros: an identity on it reduces to its first row."""
    zero = RatFunc.const(NV, 0)
    row = tuple(entries) + (zero,) * (size - len(entries))
    return (row,) + ((zero,) * size,) * (size - 1)


def shifted(a, k):
    return tuple(tuple(v.mul_t_power(k) for v in row) for row in a)


def gauge_tuple(rng, size, broken):
    """A flat tuple in the gauge G = D U, or one broken in r0_transport.

    Before the gauge: A = 0, Phi_i = d_i f * N with N the nilpotent shift,
    R_0 = a + b N, R_inf = diag(0, ..., size - 1), so [Phi_i, R_inf] =
    Phi_i; broken adds a constant with a nonzero bottom-left entry to
    Phi_1.  D = diag((1 + x)^k) puts non-monomial denominators into every
    transformed matrix, U is unipotent upper triangular and polynomial.
    """
    m, nv = 2, NV
    N = as_rf_matrix([[1 if j == i + 1 else 0 for j in range(size)]
                      for i in range(size)])
    f = MPoly(nv, [((0, rng.randint(0, 2), rng.randint(0, 2)), rng.randint(1, 3)),
                   ((0, 1, 1), rng.randint(1, 3))])
    phi = [tuple(tuple(RatFunc(f.partial(i + 1)) * v for v in row) for row in N)
           for i in range(m)]
    if broken:
        phi[0] = _madd(phi[0], as_rf_matrix([[1 if (i, j) == (size - 1, 0) else 0
                                              for j in range(size)] for i in range(size)]))
    a, b = rng.randint(-2, 2), rng.randint(1, 2)
    r0 = _madd(as_rf_matrix([[a if i == j else 0 for j in range(size)]
                             for i in range(size)]),
               tuple(tuple(v * b for v in row) for row in N))
    rinf = as_rf_matrix([[i if i == j else 0 for j in range(size)] for i in range(size)])
    D = as_rf_matrix([[RatFunc(H1 ** i) if i == j else 0 for j in range(size)]
                      for i in range(size)])
    Dinv = as_rf_matrix([[RatFunc(c(1), H1 ** i) if i == j else 0 for j in range(size)]
                         for i in range(size)])
    W = as_rf_matrix([[rng.choice((0, 1, -1)) * rng.choice((c(1), x, y)) if i < j else 0
                       for j in range(size)] for i in range(size)])  # U - 1, nilpotent
    I = as_rf_matrix([[1 if i == j else 0 for j in range(size)] for i in range(size)])
    U, Uinv, power = _madd(I, W), I, I
    for _ in range(size - 1):
        power = _mneg(_mmul(power, W))
        Uinv = _madd(Uinv, power)
    G, Ginv = _mmul(D, U), _mmul(Uinv, Dinv)

    def conj(X):
        return _mmul(_mmul(Ginv, X), G)

    A = [_mmul(Ginv, _mpartial(G, i + 1)) for i in range(m)]
    return FTSTuple(size, m, A, [conj(X) for X in phi], conj(r0), conj(rinf))


class TestNumeratorReduction:
    def test_groups_cancel_only_after_cross_multiplication(self):
        # 1/(x+1) - (x+2)/((x+1)(x+2)): neither group sums to zero alone
        one, other = RatFunc(c(1), H1), RatFunc(H2, H1 * H2)
        M, N = rf_mat([one]), rf_mat([other])
        groups = next(connalg._groups([(1, M, None), (-1, N, None)]))
        assert len(groups) == 2 and all(
            not mpoly._sum_products(NV, pairs).is_zero for pairs in groups.values())
        assert _mzero(_msub(M, N))
        assert connalg._vanishes([(1, M, None), (-1, N, None)])
        assert not connalg._vanishes([(1, M, None), (1, N, None)])
        assert not connalg._vanishes(
            [(1, M, None), (-1, rf_mat([RatFunc(x + 3, H1 * H2)]), None)])

    def test_product_denominators_cancel_across_groups(self):
        # (x+2)/(x+1) * 1/(x+2) + 1/(x+1) * (-1): one group over the
        # product (x+1)(x+2), the other over x+1
        X = rf_mat([RatFunc(H2, H1), RatFunc(c(1), H1)])
        Y = as_rf_matrix([[RatFunc(c(1), H2), 0], [-1, 0]])
        assert _mzero(_mmul(X, Y))
        assert connalg._vanishes((), [(1, X, Y)])
        assert not connalg._vanishes((), [(1, X, as_rf_matrix([[Y[0][0], 0], [1, 0]]))])

    def test_a_verdict_on_products_builds_no_rational_function(self, monkeypatch):
        X = rf_mat([RatFunc(H2, H1), RatFunc(c(1), H1)])
        Y = as_rf_matrix([[RatFunc(c(1), H2), 0], [-1, 0]])

        def refuse(*args):
            raise AssertionError("a RatFunc was built or added")

        for name in ("__init__", "__add__", "__radd__", "__neg__", "__mul__"):
            monkeypatch.setattr(RatFunc, name, refuse)
        monkeypatch.setattr(mpoly, "_ratfunc", refuse)
        assert connalg._vanishes((), [(1, X, Y), (-1, Y, X), (1, Y, X)])
        assert not connalg._vanishes((), [(1, X, X)])

    @pytest.mark.parametrize("seed", range(6))
    def test_signed_products_against_their_expansion(self, seed):
        # s XY - s Z with Z = XY expanded by the reference over other
        # denominators, for both signs s
        rng = random.Random(seed)
        dens = [c(1), H1, H1 * H2, t_free_denominator(NV)]

        def rand_rf():
            p = MPoly(NV, [((0, rng.randint(0, 2), rng.randint(0, 2)), rng.randint(-3, 3))
                           for _ in range(rng.randint(1, 3))])
            return RatFunc(p, rng.choice(dens))

        X, Y = ([[rand_rf() for _ in range(3)] for _ in range(3)] for _ in range(2))
        X, Y = as_rf_matrix(X), as_rf_matrix(Y)
        Z = _mmul(X, Y)
        for s in (1, -1):
            assert connalg._vanishes([(-s, Z, None)], [(s, X, Y)])
            assert connalg._vanishes([(-s, Z, None)], [(s, X, Y), (1, Y, X), (-1, Y, X)])
            assert connalg._vanishes((), [(s, X, Y), (-s, X, Y)])
        if not _mzero(Z):
            assert not connalg._vanishes([(1, Z, None)], [(1, X, Y)])
        if not _mzero(_mcomm(X, Y)):
            assert not connalg._vanishes((), connalg._comm(X, Y))

    @pytest.mark.parametrize("seed", range(4))
    def test_t_derivatives_of_assembled_entries(self, seed):
        # d_t (Phi/t) = -Phi/t^2 and d_t (R_0/t^2 - R_inf/t) =
        # -2 R_0/t^3 + R_inf/t^2: the derivative's denominator t^4 h^2
        # against the pieces' t^3 h and t^2 h
        T = gauge_tuple(random.Random(seed), 2 + seed % 2, broken=False)
        B = assemble_nabla(T)
        At = B.component((0,))
        r0, rinf = shifted(T.r0, -3), shifted(T.rinf, -2)
        expected = [(1, r0, None), (1, r0, None), (-1, rinf, None)]
        assert connalg._vanishes([(1, At, 0)] + expected)
        assert _mzero(_madd(_madd(_mpartial(At, 0), _madd(r0, r0)), _mneg(rinf)))
        assert not connalg._vanishes([(1, At, 0)] + expected[1:])
        for i in range(T.m):
            Ax, phi = B.component((i + 1,)), shifted(T.phi[i], -2)
            assert connalg._vanishes([(1, Ax, 0), (1, phi, None)])
            assert connalg._vanishes([(1, Ax, 0)]) == _mzero(phi)
            assert connalg._vanishes([(1, Ax, 0), (-1, phi, None)]) == _mzero(phi)
            assert connalg._vanishes([(1, Ax, 0), (-1, _mpartial(Ax, 0), None)])

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("broken", [False, True], ids=["flat", "broken"])
    def test_gauge_transformed_tuples(self, seed, broken):
        T = gauge_tuple(random.Random(seed), 2 + seed % 2, broken)
        expected = reference_conditions(T)
        assert expected["r0_transport"] is not broken
        assert all(expected.values()) is not broken
        rep = verify_fts(T)
        assert rep.conditions == expected
        assert rep.assembled_flat is not broken
        assert rep.assembled_flat == reference_flat(assemble_nabla(T))


class TestEarlyStop:
    @pytest.fixture
    def decided(self, monkeypatch):
        """The entries a verdict decides: each one `connalg._groups` yields."""
        decided = []
        real = connalg._groups

        def counting(*terms):
            for groups in real(*terms):
                decided.append(groups)
                yield groups

        monkeypatch.setattr(connalg, "_groups", counting)
        return decided

    @staticmethod
    def entries(A):
        return A.nvars * (A.nvars - 1) // 2 * A.size ** 2

    def test_curved_form_stops_at_the_first_nonzero_entry(self, decided):
        # doubling the diagonal of rinf breaks r0_transport; the dt^dx
        # curvature is -E12 dt^dx / t^2, nonzero in entry (0, 1)
        T = FTSTuple(2, 1, A=[ZERO2], phi=[E12], r0=I2, rinf=[[0, 0], [0, 2]])
        A = assemble_nabla(T)
        assert not connalg._flat(A)
        assert len(decided) == 2 < self.entries(A)

    def test_curved_report_stops_early(self, decided):
        M, N = [[0, 1], [0, 0]], [[0, 0], [1, 0]]
        A = MatForm(NV, 1, {(1,): M, (2,): N}, 2)
        assert not verify_connection(A).flat
        assert 0 < len(decided) < self.entries(A)

    def test_flat_form_makes_one_call_per_entry(self, decided):
        T = FTSTuple(2, 2, A=[ZERO2, ZERO2], phi=[E12, [[0, 2], [0, 0]]],
                     r0=[[3, 0], [0, 3]], rinf=[[0, 0], [0, 1]])
        A = assemble_nabla(T)
        assert connalg._flat(A)
        assert len(decided) == self.entries(A) == 12
