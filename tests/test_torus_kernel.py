"""The byte-lane torus kernel and the torus walks against brute-force
evaluation.

PowerTable.window_counts (the trace counts) and PowerTable.zero_flags
(the zero set) each walk a whole torus.  They are checked against f's
value at every point of it: the trace histogram, the zero flag at each
point and, over small fields, the value at each point (the c for which
f - c is flagged zero).  The values come from the definition of the
canonical order, f(g^e_1, ..., g^e_n) = sum_j c_j g^<w_j, e>, with each
c_j g^k tabulated once by field arithmetic, and agree with
laurent.evaluate at every point of a small torus and, on a large one,
at its first and last points and around the carry into every axis.
The batch constant is shrunk so that a walk crosses batch boundaries and
odometer carries, with batches of one row or a few.  The fields cover
byte lanes, byte lanes whose sums need a reduction between terms
(J (p - 1) >= 256), and wider lanes (p = 131, p = 257).
laurent.torus_zeros is checked on one polynomial and on its system of
logarithmic derivatives, count and first zero, and expsum.family_sum
against a brute-force sum over an extension.
"""

import random
from collections.abc import Mapping

import numpy as np
import pytest

from arith_lg import ffarray
from arith_lg.cyclotomic import CycloNum
from arith_lg.expsum import extension_field, family_sum
from arith_lg.errors import InputError
from arith_lg.ffield import (discrete_table, embed, enumerate_torus, frobenius_orbits,
                             make_field, multiplicative_generator, trace_to_prime)
from arith_lg.laurent import (Deformation, LaurentPoly, evaluate, log_derivative,
                              specialize, torus_trace_counts, torus_zeros)


@pytest.fixture
def small_batches(monkeypatch):
    monkeypatch.setattr(ffarray, "BATCH", 7)
    # the kernel reads the patched constant: the 16 points of (F_5^*)^2
    # come as rows of 4 points, one a batch
    table = discrete_table(make_field(5, 1))
    batches = [(lo, len(flags)) for lo, flags in table.zero_flags(2, [([0], [(1, 0)])])]
    assert batches == [(0, 4), (4, 4), (8, 4), (12, 4)]


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


def kernel_values(table, n, logs, weights):
    """The value of sum_j g^logs[j] t^weights[j] at each point of the
    torus, read off the zero flags of the sum minus each field element."""
    field = table.field
    values = [None] * table.order ** n
    for enc in range(field.q):
        c = field.element([enc // field.p ** i % field.p for i in range(field.m)])
        if c:
            system = [(list(logs) + [table.log(-c)], list(weights) + [(0,) * n])]
        else:
            system = [(logs, weights)]
        for lo, flags in table.zero_flags(n, system):
            for i, flag in enumerate(flags):
                if not flag:
                    assert values[lo + i] is None
                    values[lo + i] = c
    return values


def check(f):
    """Both reductions of f over its whole torus against its values."""
    F = f.field
    table = discrete_table(F)
    logs = [table.log(c) for c in f.terms.values()]
    weights = list(f.terms)
    values = torus_values(f)
    basis = np.array([trace_to_prime(F.element([int(i == j) for j in range(F.m)]))
                      for i in range(F.m)])
    traces = values.astype(np.int64) @ basis % F.p
    counts = table.window_counts(f.n, logs, weights)
    assert counts == np.bincount(traces, minlength=F.p).tolist()
    batches, lo = [], 0
    for first, batch in table.zero_flags(f.n, [(logs, weights)]):
        assert first == lo and 0 < len(batch) <= max(ffarray.BATCH, table.order)
        batches.append(batch)
        lo += len(batch)
    flags = np.frombuffer(b"".join(batches), dtype=np.uint8)
    assert np.array_equal(flags == 0, ~values.any(axis=1))
    if F.q <= 32:
        got = kernel_values(table, f.n, logs, weights)
        assert [v.coords for v in got] == [tuple(row) for row in values.tolist()]


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
    assert table.window_counts(2, [], []) == [16, 0, 0, 0, 0]
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
# A walk over the orbits of e -> q e on the first axis visits the fibres
# over each orbit's least element only, ascending; window_counts weights
# each point by its orbit's size and zero_flags' pieces lie over orbits
# of one size.  Every check below is against f's value at every point of
# the whole torus.

def lifted(f, ext, tau=1):
    """tau f, its coefficients embedded in ext."""
    return LaurentPoly(f.n, [(w, embed(c, ext) * tau) for w, c in f.terms.items()], ext)


def check_orbit_walk(f, orbits):
    """Both reductions of f over orbits of its torus's first axis against
    its values on the whole torus; returns the lanes walked."""
    F, n = f.field, f.n
    table = discrete_table(F)
    logs, weights = [table.log(c) for c in f.terms.values()], list(f.terms)
    values = torus_values(f)
    basis = np.array([trace_to_prime(F.element([int(i == j) for j in range(F.m)]))
                      for i in range(F.m)])
    traces = values.astype(np.int64) @ basis % F.p
    counts = table.window_counts(n, logs, weights, orbits)
    assert counts == np.bincount(traces, minlength=F.p).tolist()
    zero, fibre = ~values.any(axis=1), table.order ** (n - 1)
    walked = []
    for lo, flags in table.zero_flags(n, [(logs, weights)], orbits):
        first, last = lo // fibre, (lo + len(flags) - 1) // fibre
        assert {orbits[e] for e in range(first, last + 1)} == {orbits[first]}
        assert np.array_equal(np.frombuffer(flags, dtype=np.uint8) == 0,
                              zero[lo:lo + len(flags)])
        walked.extend(range(lo, lo + len(flags)))
    assert walked == [e * fibre + x for e in orbits for x in range(fibre)]
    return len(walked)


# (p, m, k, n): f over F_{p^m}, walked on the torus of its degree-k
# extension over the orbits of the q-power Frobenius, q = p^m
ORBIT_CASES = [(2, 1, 4, 2), (2, 1, 3, 3), (3, 1, 2, 2), (3, 1, 3, 2), (5, 1, 2, 2),
               (2, 2, 2, 2), (2, 2, 2, 3), (3, 2, 2, 2),
               # rows along the last axis only (N > 256)
               (2, 1, 9, 2)]


@pytest.mark.parametrize("batch", [7, 300, 1 << 16], ids=["axis-rows", "two-axis-rows", "whole-rows"])
@pytest.mark.parametrize("p,m,k,n", ORBIT_CASES)
def test_orbit_walks_match_brute_force(monkeypatch, batch, p, m, k, n):
    # 7-lane batches: rows of one axis, lead axes >= 1; 300: rows of two
    # axes when they fit, so (F_16^*)^2 is one row; 2^16: whole-torus
    # rows (lead 0), the orbits' pattern blocks joined, up to N^n = 6400
    monkeypatch.setattr(ffarray, "BATCH", batch)
    F = make_field(p, m)
    ext = extension_field(F, k)
    orbits = frobenius_orbits(ext.q - 1, F.q)
    assert len(orbits) < ext.q - 1
    for seed in (0, 1):
        f = lifted(random_poly(F, n, 4, seed), ext)
        walked = check_orbit_walk(f, orbits)
        assert walked == len(orbits) * (ext.q - 1) ** (n - 1)


def test_wide_lanes_over_orbits(small_batches):
    # F_131 on 2-byte lanes: f is fixed by t -> t^-1, so the orbits of
    # e -> -e mod 130 ({0}, {65} and pairs) partition its first axis
    # into fibres of equal counts
    F = make_field(131, 1)
    terms = [((1, 0), 1), ((-1, 0), 1), ((0, 1), 3), ((0, -1), 3), ((2, 1), 5), ((-2, -1), 5)]
    f = LaurentPoly(2, terms, F)
    orbits = frobenius_orbits(130, 129)
    assert sorted(set(orbits.values())) == [1, 2] and len(orbits) == 66
    check_orbit_walk(f, orbits)
    g = f + LaurentPoly(2, [((0, 0), 7)], F)  # with a constant, so that it has zeros
    check_orbit_walk(g, orbits)


def test_orbit_walks_need_a_second_axis():
    table = discrete_table(make_field(2, 4))
    with pytest.raises(InputError, match="second axis"):
        table.window_counts(1, [0], [(1,)], frobenius_orbits(15, 2))


def test_frobenius_orbits():
    # 3^4 - 1 = 80: the orbits of e -> 3e rotate the 4 ternary digits of
    # e, so they are the 24 necklaces less 2222, which is 0 mod 80; 3e = e
    # for e = 0, 40 and 9e = e for the multiples of 10
    orbits = frobenius_orbits(80, 3)
    assert sum(orbits.values()) == 80 and len(orbits) == 23
    assert all(e == min(e * 3 ** j % 80 for j in range(4)) for e in orbits)
    assert list(orbits) == sorted(orbits)
    assert {e: s for e, s in orbits.items() if s < 4} == {0: 1, 10: 2, 20: 2, 40: 1, 50: 2}


@pytest.fixture
def kernel_orbits(monkeypatch):
    """Whether each kernel call walked over orbits."""
    calls = []
    for name in ("zero_flags", "window_counts"):
        real = getattr(ffarray.PowerTable, name)

        def recording(self, n, *args, real=real):
            calls.append(isinstance(args[-1], Mapping))
            return real(self, n, *args)
        monkeypatch.setattr(ffarray.PowerTable, name, recording)
    return calls


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


# (p, m, k, n) with k >= 2 and a base field of at least 3 elements
WALK_CASES = [(3, 1, 2, 2), (3, 1, 3, 2), (5, 1, 2, 3), (2, 2, 2, 2), (2, 2, 2, 3), (3, 2, 2, 2)]


@pytest.mark.parametrize("p,m,k,n", WALK_CASES)
def test_trace_counts_over_orbits(small_batches, kernel_orbits, p, m, k, n):
    # tau in the base field: one walk over orbits; tau only in the
    # extension: the whole torus
    F = make_field(p, m)
    ext = extension_field(F, k)
    f = random_poly(F, n, 4, p + n)
    basis = np.array([trace_to_prime(ext.element([int(i == j) for j in range(ext.m)]))
                      for i in range(ext.m)])
    for tau, over_orbits in ((embed(F.element([1] * m), ext), True),
                             (multiplicative_generator(ext), False)):
        traces = torus_values(lifted(f, ext, tau)).astype(np.int64) @ basis % p
        assert torus_trace_counts(f, ext, tau) == np.bincount(traces, minlength=p).tolist()
        assert kernel_orbits.pop() == over_orbits


@pytest.mark.parametrize("p,m,k,n", WALK_CASES)
def test_zeros_over_orbits(small_batches, kernel_orbits, p, m, k, n):
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
        assert kernel_orbits[-2:] == [True, True]
        if system is tied:  # the first zero lies over an orbit of size > 1
            assert first is not None and first[0] ** F.q != first[0]
