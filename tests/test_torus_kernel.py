"""The byte-lane torus kernel and the torus walks against brute-force
evaluation.

PowerTable.window_counts (the trace counts) and PowerTable.zero_flags
(the zero set) are checked against enumerate_torus + laurent.evaluate +
trace_to_prime: the counts of a whole window, the trace at each point
(as the counts of one-point windows), the zero flag at each point and,
over small fields, the value at each point (the c for which f - c is
flagged zero).
The windows start and stop inside rows and batches and cross odometer
carries, with the batch constant shrunk so that batches hold one row or
a few.  The fields cover byte lanes, byte lanes whose sums need a
reduction between terms (J (p - 1) >= 256), and wider lanes (p = 131,
p = 257).  laurent.torus_zeros is checked on one polynomial and on its
system of logarithmic derivatives, count and first zero, under one to
three partitions.
"""

import random

import pytest

from arith_lg import ffarray
from arith_lg.budget import scope
from arith_lg.cyclotomic import CycloNum
from arith_lg.expsum import extension_field, family_sum
from arith_lg.ffield import discrete_table, embed, enumerate_torus, make_field, trace_to_prime
from arith_lg.laurent import (Deformation, LaurentPoly, evaluate, log_derivative,
                              specialize, torus_zeros)


@pytest.fixture
def small_batches(monkeypatch):
    monkeypatch.setattr(ffarray, "BATCH", 7)
    # the kernel reads the patched constant: a window of 10 points of
    # (F_5^*)^2 comes as rows of 4 points, one a batch
    table = discrete_table(make_field(5, 1))
    batches = [(lo, len(flags)) for lo, flags in table.zero_flags(2, [([0], [(1, 0)])], 0, 10)]
    assert batches == [(0, 4), (4, 4), (8, 2)]


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


def windows(Q, n):
    """The full torus plus windows that start and stop inside rows and
    cross the carry into every axis."""
    total = Q ** n
    out = [(0, total)]
    for axis in range(1, n):
        carry = Q ** axis
        out.append((max(carry - 5, 0), min(carry + 11, total)))
    out.append((min(3, total), total - min(2, total - 3)))
    return out


def brute(f, start, stop):
    """The value of f at each point of the window."""
    return [evaluate(f, pt) for pt in enumerate_torus(f.field, f.n, start=start, stop=stop)]


def kernel_values(table, n, logs, weights, start, stop):
    """The value of sum_j g^logs[j] t^weights[j] at each point of the
    window, read off the zero flags of the sum minus each field element."""
    field = table.field
    values = [None] * (stop - start)
    for enc in range(field.q):
        c = field.element([enc // field.p ** i % field.p for i in range(field.m)])
        if c:
            system = [(list(logs) + [table.log(-c)], list(weights) + [(0,) * n])]
        else:
            system = [(logs, weights)]
        for lo, flags in table.zero_flags(n, system, start, stop):
            for i, flag in enumerate(flags):
                if not flag:
                    assert values[lo - start + i] is None
                    values[lo - start + i] = c
    return values


def check(f, start, stop, pointwise=40):
    table = discrete_table(f.field)
    logs = [table.log(c) for c in f.terms.values()]
    weights = list(f.terms)
    want_values = brute(f, start, stop)
    want_traces = [trace_to_prime(v) for v in want_values]
    want_zeros = [not v for v in want_values]
    counts = table.window_counts(f.n, logs, weights, start, stop)
    assert counts == [want_traces.count(v) for v in range(f.field.p)]
    flags, lo = [], start
    for first, batch in table.zero_flags(f.n, [(logs, weights)], start, stop):
        assert first == lo and 0 < len(batch) <= max(ffarray.BATCH, table.order)
        flags += [b == 0 for b in batch]
        lo += len(batch)
    assert flags == want_zeros
    # the trace at each point, as the counts of a one-point window
    for i, want in enumerate(want_traces[:pointwise]):
        one = table.window_counts(f.n, logs, weights, start + i, start + i + 1)
        assert one == [int(v == want) for v in range(f.field.p)]
    if f.field.q <= 32 and stop - start <= 400:
        assert kernel_values(table, f.n, logs, weights, start, stop) == want_values


def brute_zeros(polys, field):
    n = polys[0].n
    return [pt for pt in enumerate_torus(field, n)
            if all(not evaluate(f, pt) for f in polys)]


def check_zeros(polys, field):
    """torus_zeros of polys, and of their log-derivative system when there
    is one poly, against brute force under 1-3 partitions; returns the
    zero count of polys."""
    systems = [polys]
    if len(polys) == 1:
        systems.append([log_derivative(polys[0], i) for i in range(1, polys[0].n + 1)])
    for system in systems:
        want = brute_zeros(system, field)
        first = want[0] if want else None
        for parts in (1, 2, 3):
            with scope(partitions=parts):
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
    Q = F.q - 1
    for start, stop in windows(Q, n):
        if Q ** n > 2000 and stop - start > 400:
            continue  # the brute-force side is slow on the full large tori
        check(f, start, stop)
    if Q ** n <= 2000:
        check_zeros([f], F)


@pytest.mark.parametrize("p,nterms", [(13, 25), (131, 3)])
def test_sums_past_one_byte(small_batches, p, nterms):
    # J (p - 1) >= 256: byte lanes reduce between terms (p = 13), wide
    # lanes hold the sum (p = 131)
    F = make_field(p, 1)
    f = random_poly(F, 2, nterms, p, span=30)
    assert nterms * (p - 1) >= 256
    for start, stop in windows(F.q - 1, 2):
        if stop - start <= 400:
            check(f, start, stop)
    check(f, 0, min(300, (p - 1) ** 2))


@pytest.mark.parametrize("p,m,n,nterms", [(5, 1, 3, 6), (2, 2, 3, 5), (3, 2, 2, 6), (131, 1, 2, 2)])
def test_several_rows_a_batch(monkeypatch, p, m, n, nterms):
    # 50-lane batches: several rows of the trailing axes, or of the last
    # axis on wide lanes, to a batch
    monkeypatch.setattr(ffarray, "BATCH", 50)
    F = make_field(p, m)
    f = random_poly(F, n, nterms, 5)
    for start, stop in windows(F.q - 1, n):
        if stop - start <= 400:
            check(f, start, stop)


def test_windows_split_rows_and_batches(monkeypatch):
    # F_5, n = 4 with 50-lane batches: rows span the last two axes (16
    # points) and a batch holds 3 rows; the window [20, 90) starts inside
    # row 1 and ends inside row 5, so its batches are rows 1-3 and rows
    # 4-5, each cut to the window
    monkeypatch.setattr(ffarray, "BATCH", 50)
    F = make_field(5, 1)
    f = random_poly(F, 4, 4, 11)
    table = discrete_table(F)
    logs = [table.log(c) for c in f.terms.values()]
    batches = [(lo, len(flags)) for lo, flags in
               table.zero_flags(4, [(logs, list(f.terms))], 20, 90)]
    assert batches == [(20, 44), (64, 26)]
    check(f, 20, 90, pointwise=70)


def test_default_chunk_size_agrees():
    F = make_field(3, 2)
    f = random_poly(F, 3, 5, 7)
    check(f, 0, 512)


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
    for start, stop in windows(F.q - 1, n):
        if stop - start <= 400:
            check(f, start, stop)


def test_no_terms_is_zero_everywhere(small_batches):
    table = discrete_table(make_field(5, 1))
    assert table.window_counts(2, [], [], 3, 14) == [11, 0, 0, 0, 0]
    F5 = make_field(5, 1)
    zero, f = LaurentPoly(2, [], F5), LaurentPoly(2, [((1, 0), 1)], F5)
    first = (F5.one(), F5.one())
    assert torus_zeros([zero], F5) == (16, first)
    assert torus_zeros([zero], F5, first_only=True) == (1, first)
    assert torus_zeros([zero, f], F5) == (0, None)


def test_empty_window_yields_nothing():
    table = discrete_table(make_field(5, 1))
    assert list(table.zero_flags(1, [([0], [(1,)])], 2, 2)) == []
    assert table.window_counts(1, [0], [(1,)], 2, 2) == [0] * 5


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
def test_family_sum_partitions(small_batches, p, m, k):
    F = make_field(p, m)
    base = LaurentPoly(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)], F)
    direction = LaurentPoly(2, [((0, 0), 1)], F)
    D = Deformation(base, (direction,), "subdiagram")
    tau = F.from_int(1) if F.m == 1 else F.element((0, 1))
    x = (F.from_int(2 % p),)
    want = brute_family_sum(D, k, tau, x)
    for parts in range(1, 8):
        with scope(partitions=parts):
            assert family_sum(D, k, tau, x) == want
