"""The byte-lane torus kernel and the torus walks against brute-force
evaluation.

PowerTable.trace_counts (the trace counts) and PowerTable.common_zeros
(the number of common zeros and the first of them) are checked against
f's value at every point of the whole torus: the trace histogram, the
zero count, first zero and first-only walk of f and, over small fields,
of f - c for every field element c (so the count and the first point of
every level set).  The values come from the definition of the canonical
order, f(g^e_1, ..., g^e_n) = sum_j c_j g^<w_j, e>, with each c_j g^k
tabulated once by field arithmetic, and agree with laurent.evaluate at
every point of a small torus and, on a large one, at its first and last
points and around the carry into every axis.  The batch constant is
shrunk so that a walk crosses batch boundaries and odometer carries,
with batches of one row or a few.  The fields cover byte lanes, byte
lanes whose sums need a reduction between terms (J (p - 1) >= 256), and
wider lanes (p = 131, p = 257).  laurent.torus_zeros is checked on one
polynomial and on its system of logarithmic derivatives, count and first
zero, and expsum.family_sum against a brute-force sum over an extension.
Walks the kernel compresses by a Frobenius are checked the same way, and
the lanes they walk are metered at PowerTable._batches.
"""

import itertools
import random

import numpy as np
import pytest

from arith_lg import ffarray
from arith_lg.cyclotomic import CycloNum
from arith_lg.expsum import family_sum
from arith_lg.ffarray import PowerTable
from arith_lg.ffield import (discrete_table, embed, enumerate_torus, extension_field,
                             frobenius_orbits, make_field, multiplicative_generator,
                             trace_to_prime)
from arith_lg.laurent import (Deformation, LaurentPoly, evaluate, log_derivative,
                              specialize, torus_trace_counts, torus_zeros)


@pytest.fixture
def small_batches(monkeypatch):
    monkeypatch.setattr(ffarray, "BATCH", 7)
    # the kernel reads the patched constant: the 16 points of (F_5^*)^2
    # come as rows of 4 points, one a batch
    table = discrete_table(make_field(5, 1))
    assert [lanes for _, lanes, _ in table._batches(2, [(0, 4, 1)])] == [4, 4, 4, 4]


@pytest.fixture
def walked(monkeypatch):
    """The lanes each kernel walk covers, one entry a walk, metered at
    PowerTable._batches."""
    lanes = []
    real = ffarray.PowerTable._batches

    def batches(self, n, runs):
        lanes.append(0)
        for nrows, count, pieces in real(self, n, runs):
            lanes[-1] += count
            yield nrows, count, pieces
    monkeypatch.setattr(ffarray.PowerTable, "_batches", batches)
    return lanes


def random_poly(field, n, nterms, seed, span=3):
    rng = random.Random(seed)
    exps = set()
    while len(exps) < nterms:
        exps.add(tuple(rng.randint(-span, span) for _ in range(n)))
    terms = []
    for w in sorted(exps):
        coords = [0] * field.m
        while not any(coords):
            coords = [rng.randrange(field.p) for _ in range(field.m)]
        terms.append((w, field.element(coords)))
    return LaurentPoly(n, terms, field)


def torus_values(f):
    """The coordinates of f at each point of its torus, in canonical
    order, one row a point: sum_j c_j g^<w_j, e> at (g^e_1, ..., g^e_n)."""
    F, n = f.field, f.n
    Q = F.q - 1
    powers = [F.one()]
    while len(powers) < Q:
        powers.append(powers[-1] * multiplicative_generator(F))
    axes = [np.arange(Q).reshape((Q,) + (1,) * (n - 1 - i)) for i in range(n)]
    assert len(f.terms) * (F.p - 1) < 1 << 15  # the int16 sums cannot wrap
    acc = np.zeros((Q,) * n + (F.m,), dtype=np.int16)
    for w, c in f.terms.items():
        acc += np.array([(c * x).coords for x in powers], dtype=np.int16)[
            sum(wi * axis for wi, axis in zip(w, axes)) % Q]
    values = (acc % F.p).reshape(-1, F.m)
    # the tabulated values are f's values: everywhere on a small torus,
    # else at the ends and around the carry into every axis
    total = len(values)
    points = set(range(min(40, total))) | set(range(max(total - 5, 0), total))
    for axis in range(1, n):
        points |= set(range(Q ** axis - 5, min(Q ** axis + 5, total)))
    for L in range(total) if total <= 1000 else sorted(points):
        point = [powers[L // Q ** (n - 1 - i) % Q] for i in range(n)]
        assert evaluate(f, point).coords == tuple(values[L])
    return values


def histogram(values, field):
    """How often the trace takes each value of F_p, given the coordinates
    of the values at the points of a torus, one row a point."""
    basis = np.array([trace_to_prime(field.element([int(i == j) for j in range(field.m)]))
                      for i in range(field.m)])
    traces = values.astype(np.int64) @ basis % field.p
    return np.bincount(traces, minlength=field.p).tolist()


def check_kernel_zeros(table, n, system, zero):
    """table.common_zeros of a kernel system against `zero`, whether the
    system vanishes at each point of the torus in canonical order: the
    count, the first zero's exponents and the first-only walk."""
    N = table.order
    hits = np.flatnonzero(np.asarray(zero, dtype=bool))
    first = None
    if len(hits):
        first = tuple(int(hits[0]) // N ** (n - 1 - i) % N for i in range(n))
    assert table.common_zeros(n, system) == (len(hits), first)
    assert table.common_zeros(n, system, first_only=True) == (min(len(hits), 1), first)


def check_level_sets(table, n, logs, weights, values):
    """The level sets of sum_j h^logs[j] t^weights[j], given its value at
    each point of the torus: for each field element c, the common zeros
    of the sum minus c against the points where the value is c."""
    field = table.field
    for enc in range(field.q):
        c = field.element([enc // field.p ** i % field.p for i in range(field.m)])
        if c:
            system = [(list(logs) + [table.log(-c)], list(weights) + [(0,) * n])]
        else:
            system = [(logs, weights)]
        check_kernel_zeros(table, n, system, [v == c for v in values])


def check(f):
    """Both reductions of f over its torus against its values."""
    F = f.field
    table = discrete_table(F)
    logs = [table.log(c) for c in f.terms.values()]
    weights = list(f.terms)
    values = torus_values(f)
    assert table.trace_counts(f.n, logs, weights) == histogram(values, F)
    check_kernel_zeros(table, f.n, [(logs, weights)], ~values.any(axis=1))
    if F.q <= 32:
        check_level_sets(table, f.n, logs, weights, [F.element(v) for v in values.tolist()])


def brute_zeros(polys, field):
    n = polys[0].n
    return [pt for pt in enumerate_torus(field, n)
            if all(not evaluate(f, pt) for f in polys)]


def check_zeros(polys, field):
    """torus_zeros of polys, and of their log-derivative system when there
    is one poly, against brute force; returns the zero count of polys."""
    systems = [polys]
    if len(polys) == 1:
        systems.append([log_derivative(polys[0], i) for i in range(1, polys[0].n + 1)])
    for system in systems:
        want = brute_zeros(system, field)
        first = want[0] if want else None
        assert torus_zeros(system, field) == (len(want), first)
        assert torus_zeros(system, field, first_only=True) == (min(len(want), 1), first)
    return torus_zeros(polys, field)[0]


RANDOM_CASES = [
    (5, 1, 1, 1), (5, 1, 2, 3), (5, 1, 3, 6),
    (2, 2, 1, 2), (2, 2, 2, 4), (2, 2, 3, 5),
    (3, 2, 1, 3), (3, 2, 2, 6), (3, 2, 3, 4),
    (2, 7, 1, 6), (2, 7, 2, 3), (2, 7, 3, 2),
    # rows along the last axis only (N > 256), coordinates packed or not
    (2, 9, 1, 5), (3, 6, 1, 3),
    # wide lanes: 2 bytes for p = 131, 4 bytes for p = 257
    (131, 1, 1, 3), (131, 1, 2, 2), (257, 1, 1, 4), (257, 1, 2, 2),
]


@pytest.mark.parametrize("p,m,n,nterms", RANDOM_CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_random_polys_match_brute_force(small_batches, p, m, n, nterms, seed):
    F = make_field(p, m)
    f = random_poly(F, n, nterms, seed)
    check(f)
    if (F.q - 1) ** n <= 2000:
        check_zeros([f], F)


@pytest.mark.parametrize("p,nterms", [(13, 25), (131, 3)])
def test_sums_past_one_byte(small_batches, p, nterms):
    # J (p - 1) >= 256: byte lanes reduce between terms (p = 13), wide
    # lanes hold the sum (p = 131)
    F = make_field(p, 1)
    f = random_poly(F, 2, nterms, p, span=30)
    assert nterms * (p - 1) >= 256
    check(f)


@pytest.mark.parametrize("p,m,n,nterms", [(5, 1, 3, 6), (2, 2, 3, 5), (3, 2, 2, 6), (131, 1, 2, 2)])
def test_several_rows_a_batch(monkeypatch, p, m, n, nterms):
    # 50-lane batches: several rows of the trailing axes, or of the last
    # axis on wide lanes, to a batch
    monkeypatch.setattr(ffarray, "BATCH", 50)
    F = make_field(p, m)
    check(random_poly(F, n, nterms, 5))


def test_default_chunk_size_agrees():
    F = make_field(3, 2)
    check(random_poly(F, 3, 5, 7))


@pytest.mark.parametrize("p,m,n,terms,want_zeros", [
    # t^4 - 1 vanishes on all of F_5^*
    (5, 1, 1, [((4,), 1), ((0,), -1)], 4),
    # t1^4 - t2^4 vanishes everywhere, so the sum is its last term t1
    (5, 1, 2, [((4, 0), 1), ((0, 4), -1), ((1, 0), 1)], 0),
    # t1 + t2 cancels on the diagonal in characteristic 2, then + t3;
    # t3 = t1 + t2 is a unit exactly when t1 != t2
    (2, 2, 3, [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)], 3 * 2),
    # t1 - t2 over F_9 cancels on the diagonal
    (3, 2, 2, [((1, 0), 1), ((0, 1), -1)], 8),
    # t1 - t2 over F_131 and F_257, on wide lanes
    (131, 1, 2, [((1, 0), 1), ((0, 1), -1)], 130),
    (257, 1, 1, [((256,), 1), ((0,), -1)], 256),
])
def test_cancelling_sums(small_batches, p, m, n, terms, want_zeros):
    F = make_field(p, m)
    f = LaurentPoly(n, terms, F)
    if (F.q - 1) ** n <= 2000:
        assert check_zeros([f], F) == want_zeros
    else:
        assert torus_zeros([f], F)[0] == want_zeros
    check(f)


def test_no_terms_is_zero_everywhere(small_batches):
    table = discrete_table(make_field(5, 1))
    assert table.trace_counts(2, [], []) == [16, 0, 0, 0, 0]
    F5 = make_field(5, 1)
    zero, f = LaurentPoly(2, [], F5), LaurentPoly(2, [((1, 0), 1)], F5)
    first = (F5.one(), F5.one())
    assert torus_zeros([zero], F5) == (16, first)
    assert torus_zeros([zero], F5, first_only=True) == (1, first)
    assert torus_zeros([zero, f], F5) == (0, None)


def brute_family_sum(D, k, tau, x):
    ext = extension_field(D.base.field, k)
    Fx = specialize(D, x)
    lifted = LaurentPoly(Fx.n, [(w, embed(c, ext)) for w, c in Fx.terms.items()], ext)
    tau_e = embed(tau, ext)
    p = ext.p
    counts = [0] * p
    for pt in enumerate_torus(ext, Fx.n):
        counts[trace_to_prime(tau_e * evaluate(lifted, pt))] += 1
    return CycloNum(p, [c - counts[p - 1] for c in counts[:p - 1]])


@pytest.mark.parametrize("p,m,k", [(2, 2, 2), (3, 2, 1), (5, 1, 2)])
def test_family_sum_matches_brute_force(small_batches, p, m, k):
    # the walk lifts F_x and tau from the base field into the extension
    F = make_field(p, m)
    base = LaurentPoly(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)], F)
    direction = LaurentPoly(2, [((0, 0), 1)], F)
    D = Deformation(base, (direction,), "subdiagram")
    tau = F.from_int(1) if F.m == 1 else F.element((0, 1))
    x = (F.from_int(2 % p),)
    assert family_sum(D, k, tau, x) == brute_family_sum(D, k, tau, x)


# --------------------------------------------------------------------------
# walks over Frobenius orbits of the first axis
#
# When n >= 2 and a power of the Frobenius, short of the identity on the
# table's exponents, fixes every coefficient, the kernel visits only the
# fibres over the least element of each of its orbits on the first axis,
# ascending, and weights each by its orbit's size.  Every check below is
# against the values at every point of the whole torus, and the lanes
# walked against the orbits of the least subfield that holds the
# coefficients, found by field arithmetic.

def lifted(f, ext, tau=1):
    """tau f, its coefficients embedded in ext."""
    return LaurentPoly(f.n, [(w, embed(c, ext) * tau) for w, c in f.terms.items()], ext)


def expected_lanes(coeffs, ext, n):
    """The lanes a walk of (ext^*)^n with these coefficients (elements of
    ext) covers: when n >= 2 and F_{p^d}, the least subfield that holds
    them, is proper, the fibres over one first coordinate per orbit of the
    p^d-power Frobenius; else the whole torus."""
    p, N = ext.p, ext.q - 1
    d = next(d for d in range(1, ext.m + 1) if all(c ** p ** d == c for c in coeffs))
    if n < 2 or d == ext.m:
        return N ** n
    return len(frobenius_orbits(N, p ** d)) * N ** (n - 1)


# (p, m, k, n): f over F_{p^m}, walked on the torus of its degree-k
# extension over the orbits of the Frobenius of its coefficients' field
ORBIT_CASES = [(2, 1, 4, 2), (2, 1, 3, 3), (3, 1, 2, 2), (3, 1, 3, 2), (5, 1, 2, 2),
               (2, 2, 2, 2), (2, 2, 2, 3), (3, 2, 2, 2),
               # rows along the last axis only (N > 256)
               (2, 1, 9, 2)]


@pytest.mark.parametrize("batch", [7, 300, 1 << 16], ids=["axis-rows", "two-axis-rows", "whole-rows"])
@pytest.mark.parametrize("p,m,k,n", ORBIT_CASES)
def test_orbit_walks_match_brute_force(monkeypatch, walked, batch, p, m, k, n):
    # 7-lane batches: rows of one axis, lead axes >= 1; 300: rows of two
    # axes when they fit, so (F_16^*)^2 is one row; 2^16: whole-torus
    # rows (lead 0), the orbits' pattern blocks joined, up to N^n = 6400
    monkeypatch.setattr(ffarray, "BATCH", batch)
    F = make_field(p, m)
    ext = extension_field(F, k)
    for seed in (0, 1):
        f = lifted(random_poly(F, n, 4, seed), ext)
        want = expected_lanes(f.terms.values(), ext, n)
        assert want < (ext.q - 1) ** n
        walked.clear()
        check(f)
        # the trace counts and the whole zero walk
        assert walked[:2] == [want, want]


def test_wide_lanes_over_orbits(small_batches, walked):
    # 2-byte lanes: the power table of h of order 66 in F_{131^2}.  The
    # 131-power Frobenius maps h^e to h^(131 e) = h^-e and fixes the
    # coefficients 1 = h^0 and -1 = h^33, so the walks visit the first
    # axis by the orbits {0}, {33} and the 32 pairs {e, -e}: weights 1
    # and 2
    F = make_field(131, 2)
    h = multiplicative_generator(F) ** ((F.q - 1) // 66)
    table = PowerTable(F, h, 66)
    assert table.width == 2
    powers = [F.one()]
    while len(powers) < 66:
        powers.append(powers[-1] * h)
    # t1 + t1^-1 - t2 - t2^-1 vanishes where t1 = t2 or t1 t2 = 1; then
    # with t1 t2^2 added
    f = [(0, (1, 0)), (0, (-1, 0)), (33, (0, 1)), (33, (0, -1))]
    for terms in (f, f + [(0, (1, 2))]):
        logs, weights = [lg for lg, _ in terms], [w for _, w in terms]
        values = [sum((powers[(lg + w1 * e1 + w2 * e2) % 66] for lg, (w1, w2) in terms),
                      F.zero()) for e1, e2 in itertools.product(range(66), repeat=2)]
        counts = [0] * 131
        for v in values:
            counts[trace_to_prime(v)] += 1
        walked.clear()
        assert table.trace_counts(2, logs, weights) == counts
        check_kernel_zeros(table, 2, [(logs, weights)], [not v for v in values])
        assert walked[:2] == [34 * 66] * 2


def test_orbit_walks_need_a_second_axis(walked):
    # the coefficients lie in F_2, but on one axis the whole walk is
    # cheaper than the orbits: it visits all 15 exponents
    F = make_field(2, 4)
    f = LaurentPoly(1, [((1,), 1), ((3,), 1), ((0,), 1)], F)
    check(f)
    assert walked[:2] == [15, 15]


def test_frobenius_orbits():
    # 3^4 - 1 = 80: the orbits of e -> 3e rotate the 4 ternary digits of
    # e, so they are the 24 necklaces less 2222, which is 0 mod 80; 3e = e
    # for e = 0, 40 and 9e = e for the multiples of 10
    orbits = frobenius_orbits(80, 3)
    assert sum(orbits.values()) == 80 and len(orbits) == 23
    assert all(e == min(e * 3 ** j % 80 for j in range(4)) for e in orbits)
    assert list(orbits) == sorted(orbits)
    assert {e: s for e, s in orbits.items() if s < 4} == {0: 1, 10: 2, 20: 2, 40: 1, 50: 2}


def brute_zeros_in(polys, ext):
    """The common zeros of polys on the torus of ext, in canonical order,
    from their lifts' values at every point."""
    n, Q = polys[0].n, ext.q - 1
    zero = np.ones(Q ** n, dtype=bool)
    for f in polys:
        zero &= ~torus_values(lifted(f, ext)).any(axis=1)
    g = multiplicative_generator(ext)
    return [tuple(g ** (L // Q ** (n - 1 - i) % Q) for i in range(n))
            for L in np.flatnonzero(zero).tolist()]


def trace_histogram(f, ext, tau):
    """How often Tr(tau f) takes each value on the torus of ext, from the
    values at every point."""
    return histogram(torus_values(lifted(f, ext, tau)), ext)


# (p, m, k, n) with k >= 2 and a base field of at least 3 elements
WALK_CASES = [(3, 1, 2, 2), (3, 1, 3, 2), (5, 1, 2, 3), (2, 2, 2, 2), (2, 2, 2, 3), (3, 2, 2, 2)]


@pytest.mark.parametrize("p,m,k,n", WALK_CASES)
def test_trace_counts_over_orbits(small_batches, walked, p, m, k, n):
    # tau in the base field: a walk over orbits; tau a generator of the
    # extension: the whole torus
    F = make_field(p, m)
    ext = extension_field(F, k)
    f = random_poly(F, n, 4, p + n)
    for tau, compressed in ((embed(F.element([1] * m), ext), True),
                            (multiplicative_generator(ext), False)):
        assert torus_trace_counts(f, ext, tau) == trace_histogram(f, ext, tau)
        want = expected_lanes([tau * embed(c, ext) for c in f.terms.values()], ext, n)
        assert walked.pop() == want
        assert (want < (ext.q - 1) ** n) == compressed


@pytest.mark.parametrize("p,m,k,n", WALK_CASES)
def test_zeros_over_orbits(small_batches, walked, p, m, k, n):
    # the norm t1^((q^k - 1)/(q - 1)) = c (c != 0, 1) with the other
    # coordinates tied to t1, whose zeros have t1 off the base field, and
    # a random polynomial with its log-derivative system: count, first
    # zero and first-only witness against the canonical brute-force scan
    F = make_field(p, m)
    ext = extension_field(F, k)
    c = F.element([2 % p] + [1] * (m - 1))
    assert c not in (F.zero(), F.one())
    norm = (ext.q - 1) // (F.q - 1)
    tied = [LaurentPoly(n, [(tuple(norm if i == 0 else 0 for i in range(n)), 1),
                            ((0,) * n, -c)], F)]
    for axis in range(1, n):
        tied.append(LaurentPoly(n, [(tuple(int(i == axis) for i in range(n)), 1),
                                    (tuple(int(i == axis - 1) for i in range(n)), -1)], F))
    f = random_poly(F, n, 3, 7 * p + n)
    systems = [tied, [f], [log_derivative(f, i) for i in range(1, n + 1)]]
    for system in systems:
        zeros = brute_zeros_in(system, ext)
        first = zeros[0] if zeros else None
        assert torus_zeros(system, ext) == (len(zeros), first)
        assert torus_zeros(system, ext, first_only=True) == (min(len(zeros), 1), first)
        want = expected_lanes([embed(c, ext) for g in system for c in g.terms.values()], ext, n)
        assert want < (ext.q - 1) ** n
        assert walked[-2] == want and walked[-1] <= want
        if system is tied:  # the first zero lies over an orbit of size > 1
            assert first is not None and first[0] ** F.q != first[0]


def test_tau_outside_the_family_field(walked):
    # t1 + t2 + 1/(t1 t2) over F_3 at k = 6, twisted by tau in F_9 \ F_3:
    # the 9-power Frobenius fixes every twisted coefficient, so the walk
    # visits the 248 orbits of e -> 9e on the 728 exponents, about a
    # third of the torus
    F3 = make_field(3, 1)
    ext = extension_field(F3, 6)
    f = LaurentPoly(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)], F3)
    tau = embed(make_field(3, 2).element((0, 1)), ext)
    assert tau ** 3 != tau and tau ** 9 == tau
    want = trace_histogram(f, ext, tau)
    walked.clear()
    assert torus_trace_counts(f, ext, tau) == want
    assert walked == [248 * 728]
    assert len(frobenius_orbits(728, 9)) == 248


def test_coefficients_in_a_subfield_of_the_family_field(walked):
    # the same polynomial over F_9 at k = 1: its coefficients lie in F_3,
    # so the walks visit the orbits {0}, {1, 3}, {2, 6}, {4}, {5, 7} of
    # e -> 3e on the 8 exponents, 40 of the 64 points
    F9 = make_field(3, 2)
    f = LaurentPoly(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)], F9)
    D = Deformation(f, (LaurentPoly(2, [((0, 0), 1)], F9),), "subdiagram")
    for x in (F9.zero(), F9.one()):
        want = brute_family_sum(D, 1, F9.one(), (x,))
        walked.clear()
        assert family_sum(D, 1, F9.one(), (x,)) == want
        assert walked == [40]
    Fx = specialize(D, (F9.one(),))
    want = brute_zeros([Fx], F9)
    walked.clear()
    assert torus_zeros([Fx], F9) == (len(want), want[0] if want else None)
    assert walked == [40]
    check_zeros([Fx], F9)


def test_first_zero_in_a_later_batch_of_mixed_weights(monkeypatch, walked):
    # over F_4 the 2-power Frobenius fixes coefficients in F_2, so a walk
    # of (F_4^*)^3 visits the fibres over t1 = 1 (weight 1) and t1 = g
    # (the orbit {g, g^2}, weight 2).  With 7-lane batches the rows are
    # 3 lanes and a batch two rows, so the middle batch ends the first
    # fibre and starts the second.  t1^2 + t1 + 1, t2 + 1 and t3 + t1
    # vanish together at (g, 1, g) and (g^2, 1, g^2) only: the first zero
    # lies in the middle batch, in its weight-2 piece, and counts twice
    monkeypatch.setattr(ffarray, "BATCH", 7)
    F4 = make_field(2, 2)
    system = [LaurentPoly(3, [((2, 0, 0), 1), ((1, 0, 0), 1), ((0, 0, 0), 1)], F4),
              LaurentPoly(3, [((0, 1, 0), 1), ((0, 0, 0), 1)], F4),
              LaurentPoly(3, [((0, 0, 1), 1), ((1, 0, 0), 1)], F4)]
    pieces = []
    real = ffarray.PowerTable._batches

    def batches(self, n, runs):
        for batch in real(self, n, runs):
            pieces.append(batch[2])
            yield batch
    monkeypatch.setattr(ffarray.PowerTable, "_batches", batches)
    g = multiplicative_generator(F4)
    first = (g, F4.one(), g)
    assert brute_zeros(system, F4) == [first, (g ** 2, F4.one(), g ** 2)]
    assert torus_zeros(system, F4) == (2, first)
    assert torus_zeros(system, F4, first_only=True) == (1, first)
    # the whole walk, then the first-only walk stopping in the middle batch
    assert pieces == [[(0, 6, 1)], [(0, 3, 1), (3, 6, 2)], [(0, 6, 2)],
                      [(0, 6, 1)], [(0, 3, 1), (3, 6, 2)]]
    assert walked == [18, 12]
