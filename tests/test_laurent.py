"""Laurent polynomials, deformations, degeneracy search, critical points."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arith_lg import ffarray, laurent
from arith_lg.budget import scope
from arith_lg.errors import BudgetExceeded, InputError
from arith_lg.ffield import (enumerate_torus, extension_field, make_field,
                             multiplicative_generator)
from arith_lg.laurent import (Deformation, LaurentPoly, check_nondegenerate,
                              default_search_depth, evaluate, face_restrict,
                              log_derivative, monomial_table, phi_map,
                              specialize, torus_trace_counts, torus_zeros)
from arith_lg.polytope import faces_not_containing_origin, normalized_volume

F3 = make_field(3, 1)
F5 = make_field(5, 1)


def kloosterman(field):
    return LaurentPoly(1, [((1,), 1), ((-1,), 1)], field)


def triple_point(field):
    return LaurentPoly(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)], field)


class TestLaurentPoly:
    def test_zero_coefficients_dropped(self):
        f = LaurentPoly(1, [((1,), 5), ((2,), 3)], F5)
        assert f.support == ((2,),)

    def test_duplicate_exponents_collected(self):
        f = LaurentPoly(1, [((1,), 2), ((1,), 3)], F5)
        assert f.coefficient((1,)) == F5.zero()
        assert not f

    def test_insertion_order_preserved(self):
        f = LaurentPoly(2, [((1, 0), 1), ((-1, -1), 1), ((0, 1), 1)], F5)
        assert f.support == ((1, 0), (-1, -1), (0, 1))

    def test_rational_mode(self):
        f = LaurentPoly(1, [((1,), Fraction(1, 2))])
        assert f.field is None
        assert f.coefficient((1,)) == Fraction(1, 2)
        assert f.coefficient((5,)) == Fraction(0)

    def test_field_mismatch_rejected(self):
        with pytest.raises(InputError):
            LaurentPoly(1, [((1,), F3.one())], F5)

    def test_wrong_exponent_length(self):
        with pytest.raises(InputError):
            LaurentPoly(2, [((1,), 1)], F5)


class TestEvaluate:
    def test_kloosterman_at_two(self):
        # 2 + 2^{-1} = 2 + 3 = 0 in F_5
        f = kloosterman(F5)
        assert evaluate(f, (F5.from_int(2),)) == F5.zero()

    def test_zero_polynomial(self):
        f = LaurentPoly(1, [], F5)
        assert evaluate(f, (F5.one(),)) == F5.zero()

    def test_constant(self):
        f = LaurentPoly(1, [((0,), 3)], F5)
        assert evaluate(f, (F5.from_int(4),)) == F5.from_int(3)

    def test_zero_coordinate_rejected(self):
        with pytest.raises(InputError, match="evaluation point has a zero coordinate"):
            evaluate(kloosterman(F5), (F5.zero(),))

    def test_rational_evaluation(self):
        f = LaurentPoly(1, [((1,), 1), ((-1,), 1)])
        assert evaluate(f, (Fraction(2),)) == Fraction(5, 2)


class TestLogDerivative:
    def test_monomial(self):
        F7 = make_field(7, 1)
        f = LaurentPoly(2, [((1, 2), 1)], F7)
        d = log_derivative(f, 2)
        assert d.terms == {(1, 2): F7.from_int(2)}

    def test_kloosterman(self):
        d = log_derivative(kloosterman(F5), 1)
        assert d.coefficient((1,)) == F5.one()
        assert d.coefficient((-1,)) == F5.from_int(-1)

    def test_char_p_kills_exponent(self):
        f = LaurentPoly(1, [((5,), 1)], F5)
        assert not log_derivative(f, 1)

    def test_axis_out_of_range(self):
        with pytest.raises(InputError):
            log_derivative(kloosterman(F5), 2)

    @pytest.mark.parametrize("field", [make_field(3, 2), None], ids=["F9", "Q"])
    def test_vanishing_exponents_drop_out(self, field):
        # exponents divisible by 3 vanish in F_9 and only 0 vanishes in Q;
        # the constructor drops exactly those terms, with no filter
        a = field.element((1, 2)) if field else Fraction(2, 3)
        f = LaurentPoly(2, [((3, 1), a), ((-6, 0), 1), ((0, -3), a), ((2, 5), 1),
                            ((-1, 3), -1), ((4, 0), a)], field)
        char = 3 if field else None
        for i in (1, 2):
            want = {w: c * w[i - 1] for w, c in f.terms.items()
                    if w[i - 1] and (char is None or w[i - 1] % char)}
            assert log_derivative(f, i).terms == want

    @given(st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 4)),
                    min_size=1, max_size=3),
           st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 4)),
                    min_size=1, max_size=3))
    @settings(deadline=None, max_examples=40)
    def test_leibniz_rule(self, fterms, gterms):
        f = LaurentPoly(1, [((w,), c) for w, c in fterms], F5)
        g = LaurentPoly(1, [((w,), c) for w, c in gterms], F5)
        lhs = log_derivative(f * g, 1)
        rhs = f * log_derivative(g, 1) + g * log_derivative(f, 1)
        assert lhs == rhs


class TestDeformation:
    def test_subdiagram_accepts_interior(self):
        D = Deformation(kloosterman(F5), [LaurentPoly(1, [((0,), 1)], F5)])
        assert D.m == 1

    def test_subdiagram_rejects_boundary(self):
        with pytest.raises(InputError):
            Deformation(kloosterman(F5), [LaurentPoly(1, [((1,), 1)], F5)],
                        kind="subdiagram")

    def test_newton_preserving_accepts_boundary(self):
        D = Deformation(kloosterman(F5), [LaurentPoly(1, [((1,), 1)], F5)],
                        kind="newton_preserving")
        assert D.kind == "newton_preserving"

    def test_newton_preserving_rejects_outside(self):
        with pytest.raises(InputError):
            Deformation(kloosterman(F5), [LaurentPoly(1, [((2,), 1)], F5)],
                        kind="newton_preserving")

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            Deformation(kloosterman(F5), [], kind="other")

    def test_specialize_at_zero_is_base(self):
        D = Deformation(kloosterman(F5), [LaurentPoly(1, [((0,), 1)], F5)])
        assert specialize(D, (F5.zero(),)) == kloosterman(F5)

    def test_specialize_collects_terms(self):
        f = kloosterman(F5)
        D = Deformation(f, [LaurentPoly(1, [((0,), 1)], F5)])
        Fx = specialize(D, (F5.from_int(2),))
        assert Fx.coefficient((0,)) == F5.from_int(2)
        assert Fx.coefficient((1,)) == F5.one()

    def test_specialize_cancellation_allowed(self):
        f = LaurentPoly(1, [((1,), 1), ((-1,), 1)], F5)
        D = Deformation(f, [LaurentPoly(1, [((1,), 1)], F5)], kind="newton_preserving")
        Fx = specialize(D, (F5.from_int(-1),))
        assert Fx.coefficient((1,)) == F5.zero()

    def test_affine_linearity(self):
        f = triple_point(F5)
        g1 = LaurentPoly(2, [((0, 0), 1)], F5)
        D = Deformation(f, [g1])
        x1, x2 = (F5.from_int(2),), (F5.from_int(4),)
        both = (F5.from_int(6),)
        lhs = specialize(D, both) + f
        rhs = specialize(D, x1) + specialize(D, x2)
        assert lhs == rhs


class TestMonomialTable:
    def test_order_base_then_directions_then_rest(self):
        D = Deformation(kloosterman(F5), [LaurentPoly(1, [((0,), 1)], F5)])
        assert monomial_table(D).points == ((1,), (-1,), (0,))

    def test_covers_all_lattice_points(self):
        D = Deformation(triple_point(F5), [LaurentPoly(2, [((0, 0), 1)], F5)])
        tab = monomial_table(D)
        assert set(tab.points) == {(1, 0), (0, 1), (-1, -1), (0, 0)}



class TestPhiMap:
    def test_worked_example(self):
        # f = t + 1/t, g_1 = 1, table (1, -1, 0): phi(tau, c) = (tau, tau, tau*c)
        D = Deformation(kloosterman(F5), [LaurentPoly(1, [((0,), 1)], F5)])
        tab = monomial_table(D)
        tau, c = F5.from_int(2), F5.from_int(3)
        assert phi_map(D, tab, tau, (c,)) == (tau, tau, tau * c)

    def test_zero_tau_rejected(self):
        D = Deformation(kloosterman(F5), [])
        with pytest.raises(InputError, match="tau must be a unit"):
            phi_map(D, monomial_table(D), F5.zero(), ())

    def test_unused_entries_zero(self):
        D = Deformation(triple_point(F5), [])
        tab = monomial_table(D)
        out = phi_map(D, tab, F5.one(), ())
        assert out[tab.points.index((0, 0))] == F5.zero()

    def test_function_level_consistency(self):
        # tau * F_x(t) = <phi(tau, x), monomials(t)> on random inputs
        D = Deformation(triple_point(F5),
                        [LaurentPoly(2, [((0, 0), 1)], F5)])
        tab = monomial_table(D)
        import random
        rng = random.Random(7)
        pts = list(enumerate_torus(F5, 2))
        for _ in range(100):
            tau = F5.from_int(rng.randrange(1, 5))
            x = (F5.from_int(rng.randrange(5)),)
            t = rng.choice(pts)
            y = phi_map(D, tab, tau, x)
            lhs = tau * evaluate(specialize(D, x), t)
            rhs = F5.zero()
            for yj, w in zip(y, tab.points):
                term = yj
                for ti, wi in zip(t, w):
                    term = term * ti ** wi
                rhs = rhs + term
            assert lhs == rhs


class TestNondegeneracy:
    def test_kloosterman_conclusive(self):
        v = check_nondegenerate(kloosterman(F5))
        assert v.kind == "verified_up_to"
        assert v.conclusive  # both faces are vertices with unit exponents

    def test_monomial_power_of_p_degenerate(self):
        f = LaurentPoly(1, [((3,), 1), ((-3,), 1)], F3)
        v = check_nondegenerate(f)
        assert v.degenerate
        assert v.witness_degree == 1
        assert all(x == F3.one() for x in v.witness)

    def test_triple_point_searched(self):
        v = check_nondegenerate(triple_point(F3), K=2)
        assert v.kind == "verified_up_to"
        assert not v.conclusive
        assert v.checked_up_to == 2

    def test_no_witness_on_square_over_f2(self):
        # f = t1 + t2 + t1t2 over F_2: each boundary edge restriction has
        # one derivative equal to a single monomial, so no common zero
        # exists at any depth; bounded search stays honest about that
        F2 = make_field(2, 1)
        f = LaurentPoly(2, [((1, 0), 1), ((0, 1), 1), ((1, 1), 1)], F2)
        v = check_nondegenerate(f, K=2)
        assert v.kind == "verified_up_to"
        assert not v.conclusive
        assert v.checked_up_to == 2

    def test_degenerate_edge_witness_is_genuine(self):
        # f = t1^2 + t1t2 + t2^2 over F_3: on the edge through (2,0),
        # (1,1), (0,2) the derivative system degenerates to t1 = t2, so a
        # witness exists at k=1 and must zero every derivative exactly
        f = LaurentPoly(2, [((2, 0), 1), ((1, 1), 1), ((0, 2), 1)], F3)
        v = check_nondegenerate(f)
        assert v.degenerate
        assert v.face.dim == 1
        assert v.witness_degree == 1
        fs = face_restrict(f, v.face)
        ext = v.witness[0].field
        for i in (1, 2):
            d = log_derivative(fs, i)
            lifted = LaurentPoly(2, [(w, embed_coeff(c, ext)) for w, c in d.terms.items()],
                                 ext)
            assert evaluate(lifted, v.witness) == ext.zero()

    def test_degenerate_edge_found(self):
        # f = (t1 - t2)(t1t2 - 1)/..., simplest: f = t1 + t2 + t1^-1 + t2^-1
        # over F_2: edge conv{(1,0),(0,1)}: f_sigma = t1 + t2, derivs t1, t2
        # never zero; try a crafted degenerate: f_sigma = t1 + t2 + t1t2^-1.. .
        # Direct known case: f = t1^2 + t2 over F_2 (vertex (2,0): 2 = 0 mod 2
        # only in first coordinate, second coord 0 -> all divisible by 2? (2,0):
        # w = (2,0), p=2: both components even -> degenerate vertex
        F2 = make_field(2, 1)
        f = LaurentPoly(2, [((2, 0), 1), ((0, 1), 1)], F2)
        v = check_nondegenerate(f)
        assert v.degenerate
        assert v.face.dim == 0
        assert v.face.generators == ((2, 0),)

    def test_budget(self):
        with pytest.raises(BudgetExceeded), scope(budget=100):
            check_nondegenerate(triple_point(F3), K=7)

    def test_default_depth(self, monkeypatch):
        assert default_search_depth(3, 2) == 7
        assert default_search_depth(5, 1) == 10
        assert default_search_depth(10 ** 8, 1) == 1
        monkeypatch.setattr(laurent, "SEARCH_CAP", 80)
        assert default_search_depth(3, 1) == 4  # 3^4 - 1 = 80 points


class TestFaceRestrict:
    def test_vertex_restrict(self):
        f = kloosterman(F5)
        faces = {s.generators: s for s in faces_not_containing_origin(f.newton())}
        r = face_restrict(f, faces[((1,),)])
        assert r.terms == {(1,): F5.one()}

    def test_edge_restrict(self):
        f = triple_point(F5)
        faces = faces_not_containing_origin(f.newton())
        edge = next(s for s in faces if set(s.generators) == {(1, 0), (0, 1)})
        r = face_restrict(f, edge)
        assert set(r.support) == {(1, 0), (0, 1)}

    def test_constant_dropped(self):
        f = LaurentPoly(1, [((1,), 1), ((-1,), 1), ((0,), 2)], F5)
        faces = {s.generators: s for s in faces_not_containing_origin(f.newton())}
        r = face_restrict(f, faces[((1,),)])
        assert r.support == ((1,),)

    def test_face_of_other_polytope_rejected(self):
        f = triple_point(F5)
        g = LaurentPoly(2, [((2, 0), 1), ((0, 1), 1), ((-1, -1), 1)], F5)
        faces = faces_not_containing_origin(g.newton())
        bad = next(s for s in faces if (2, 0) in s.generators and s.dim == 0)
        with pytest.raises(InputError, match="face has generators outside the support"):
            face_restrict(f, bad)

    def test_restricted_support_on_face(self):
        f = triple_point(F5)
        for s in faces_not_containing_origin(f.newton()):
            r = face_restrict(f, s)
            assert all(face_contains_ok(s, w) for w in r.support)
            assert set(r.support) == set(f.support) & set_on_face(f, s)


def embed_coeff(c, ext):
    from arith_lg.ffield import embed
    return embed(c, ext)


def face_contains_ok(face, w):
    from arith_lg.polytope import face_contains
    return face_contains(face, w)


def set_on_face(f, face):
    from arith_lg.polytope import face_contains
    return {w for w in f.support if face_contains(face, w)}


def critical_count(f, k=1):
    """Common zeros of every logarithmic derivative of f on (F_{q^k}^*)^n."""
    derivs = [log_derivative(f, i) for i in range(1, f.n + 1)]
    return torus_zeros(derivs, extension_field(f.field, k))[0]


def brute_common_zeros(f, k):
    """Points of (F_{q^k}^*)^n where every log derivative of f vanishes,
    in itertools.product order of the generator exponents."""
    base = f.field
    ext = base if k == 1 else make_field(base.p, base.m * k)
    g = multiplicative_generator(ext)
    derivs = [LaurentPoly(f.n, [(w, embed_coeff(c, ext))
                                for w, c in log_derivative(f, i).terms.items()], ext)
              for i in range(1, f.n + 1)]
    out = []
    for e in itertools.product(range(ext.q - 1), repeat=f.n):
        pt = tuple(g ** ei for ei in e)
        if all(evaluate(d, pt) == ext.zero() for d in derivs):
            out.append(pt)
    return out


# the degenerate examples of TestNondegeneracy (a vertex with every
# exponent divisible by p, the F_3 edge t1^2 + t1t2 + t2^2, a vertex over
# F_2), plus the F_5 edge (t1 + t2)^2, whose first common zero (1, -1)
# is not at exponent 0, and the F_5 edge (t1^2 - 2 t2^2)^2, whose common
# zeros t1 = +-sqrt(2) t2 lie over F_25 only, found by a walk over the
# Frobenius orbits of t1
DEGENERATE = [
    (3, [((3,), 1), ((-3,), 1)]),
    (3, [((2, 0), 1), ((1, 1), 1), ((0, 2), 1)]),
    (2, [((2, 0), 1), ((0, 1), 1)]),
    (5, [((2, 0), 1), ((1, 1), 2), ((0, 2), 1)]),
    (5, [((4, 0), 1), ((2, 2), 1), ((0, 4), 4), ((-1, -1), 1)]),
]


@pytest.mark.parametrize("p,terms", DEGENERATE)
def test_witness_is_first_common_zero(p, terms):
    f = LaurentPoly(len(terms[0][0]), terms, make_field(p, 1))
    v = check_nondegenerate(f)
    assert v.degenerate
    fs = face_restrict(f, v.face)
    for k in range(1, v.witness_degree):
        assert brute_common_zeros(fs, k) == []
    assert v.witness == brute_common_zeros(fs, v.witness_degree)[0]
    for g in (f, fs):
        for k in (1, 2):
            assert critical_count(g, k) == len(brute_common_zeros(g, k))


@pytest.fixture
def searches(monkeypatch):
    """Each zero search (the points of the torus it walks, the polynomials
    it searched, the lanes its batches covered, each weighted by the size
    of its first coordinate's Frobenius orbit) and each "torus search"
    charge."""
    calls, charged = [], []
    real_zeros, real_batches = ffarray.PowerTable.common_zeros, ffarray.PowerTable._batches
    real_charge = laurent.charge

    def common_zeros(self, n, polys, **kwargs):
        calls.append({"points": self.order ** n, "polys": len(polys), "lanes": 0})
        return real_zeros(self, n, polys, **kwargs)

    def batches(self, n, runs):
        for nrows, count, pieces in real_batches(self, n, runs):
            calls[-1]["lanes"] += sum((b - a) * w for a, b, w in pieces)
            yield nrows, count, pieces

    def charge(description, required):
        if description == "torus search":
            charged.append(required)
        real_charge(description, required)

    monkeypatch.setattr(ffarray.PowerTable, "common_zeros", common_zeros)
    monkeypatch.setattr(ffarray.PowerTable, "_batches", batches)
    monkeypatch.setattr(laurent, "charge", charge)
    return calls, charged


@pytest.mark.parametrize("p,terms", DEGENERATE)
def test_search_walks_each_torus_once(searches, p, terms):
    # one kernel call per (face, k) searched, over the whole torus of the
    # degree-k extension; every walk but the last, which found the
    # witness, visits all of it
    calls, charged = searches
    f = LaurentPoly(len(terms[0][0]), terms, make_field(p, 1))
    assert check_nondegenerate(f).degenerate
    assert [call["points"] for call in calls] == charged
    assert all(1 <= call["polys"] <= f.n for call in calls)
    assert all(call["lanes"] == call["points"] for call in calls[:-1])
    if calls:
        assert 0 < calls[-1]["lanes"] <= calls[-1]["points"]


def test_search_without_witness_walks_every_torus(searches):
    # the triple point's three edges at k = 1, 2: six whole walks
    calls, charged = searches
    assert not check_nondegenerate(triple_point(F3), K=2).degenerate
    assert [call["points"] for call in calls] == charged == [4, 64] * 3
    assert all(call["lanes"] == call["points"] for call in calls)


class TestCriticalCount:
    def test_kloosterman_two_points(self):
        assert critical_count(kloosterman(F5)) == 2
        assert critical_count(kloosterman(F5), 2) == 2

    def test_pure_monomial_none(self):
        assert critical_count(LaurentPoly(1, [((1,), 1)], F5)) == 0

    def test_triple_point_char3(self):
        f = triple_point(F3)
        assert [critical_count(f, k) for k in (1, 2, 3)] == [1, 1, 1]

    def test_monotone_in_divisibility(self):
        f = kloosterman(F3)
        c1, c2, c4 = (critical_count(f, k) for k in (1, 2, 4))
        assert c1 <= c2 <= c4

    def test_kouchnirenko_bound(self):
        # count <= n! vol whenever no degeneracy witness was found
        for f in (kloosterman(F5), triple_point(F5), triple_point(F3)):
            v = check_nondegenerate(f, K=1)
            if not v.degenerate:
                vol = normalized_volume(f.newton())
                for k in (1, 2):
                    assert critical_count(f, k) <= vol

    def test_rank_confirmed_at_small_degree(self):
        # the bound is attained for the Kloosterman example already at k=1
        f = kloosterman(F5)
        assert critical_count(f, 1) == normalized_volume(f.newton()) == 2

    def test_budget(self):
        # the search charges (5 - 1)^2 points for its first edge at k = 1
        with pytest.raises(BudgetExceeded), scope(budget=10):
            check_nondegenerate(triple_point(F5), K=4)

    def test_rational_coefficients_rejected(self):
        f = LaurentPoly(1, [((1,), 1), ((-1,), 1)])
        with pytest.raises(InputError):
            check_nondegenerate(f)
        with pytest.raises(InputError):
            torus_zeros([log_derivative(f, 1)], F5)
        with pytest.raises(InputError):
            torus_trace_counts(f, F5, 1)
