"""The log-domain torus kernel and the torus walks against brute-force
evaluation.

DiscreteTable.log_values is checked point by point, and through the
trace-bucket counts of DiscreteTable.window_counts, against enumerate_torus +
laurent.evaluate + trace_to_prime, on windows whose ends fall inside
chunks and that cross odometer carries.  laurent.torus_zeros is checked
on one polynomial and on its system of logarithmic derivatives, count
and first zero, under one to three partitions, whose window ends fall
inside chunks too.
"""

import random

import numpy as np
import pytest

from arith_lg import ffarray
from arith_lg.budget import scope
from arith_lg.cyclotomic import CycloNum
from arith_lg.expsum import extension_field, family_sum
from arith_lg.ffield import discrete_table, embed, enumerate_torus, make_field, trace_to_prime
from arith_lg.laurent import (Deformation, LaurentPoly, evaluate, log_derivative,
                              specialize, torus_zeros)


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(ffarray, "TORUS_CHUNK", 7)
    # the kernel reads the patched constant: a window of 10 comes as 7 + 3
    table = discrete_table(make_field(5, 1))
    assert [c.size for c in table.log_values(2, [0], [(1, 0)], 0, 10)] == [7, 3]


def random_poly(field, n, nterms, seed):
    rng = random.Random(seed)
    exps = set()
    while len(exps) < nterms:
        exps.add(tuple(rng.randint(-3, 3) for _ in range(n)))
    terms = []
    for w in sorted(exps):
        coords = [0] * field.m
        while not any(coords):
            coords = [rng.randrange(field.p) for _ in range(field.m)]
        terms.append((w, field.element(coords)))
    return LaurentPoly(n, terms, field)


def windows(Q, n):
    """The full torus plus windows that start and stop mid-chunk and
    cross the carry into every axis."""
    total = Q ** n
    out = [(0, total)]
    for axis in range(1, n):
        carry = Q ** axis
        out.append((max(carry - 5, 0), min(carry + 11, total)))
    out.append((min(3, total), total - min(2, total - 3)))
    return out


def brute(f, table, start, stop):
    logs, traces = [], []
    for pt in enumerate_torus(f.field, f.n, start=start, stop=stop):
        v = evaluate(f, pt)
        lg = table.log(v)
        logs.append(-1 if lg is None else lg)
        traces.append(trace_to_prime(v))
    return logs, traces


def check(f, start, stop):
    table = discrete_table(f.field)
    logs = [table.log(c) for c in f.terms.values()]
    weights = list(f.terms)
    chunks = list(table.log_values(f.n, logs, weights, start, stop))
    assert all(c.dtype == np.int64 for c in chunks)
    assert all(c.size == ffarray.TORUS_CHUNK for c in chunks[:-1])
    assert all(0 < c.size <= ffarray.TORUS_CHUNK for c in chunks[-1:])
    got = np.concatenate(chunks).tolist() if chunks else []
    want_logs, want_traces = brute(f, table, start, stop)
    assert got == want_logs
    counts = table.window_counts(f.n, logs, weights, start, stop)
    assert counts == [want_traces.count(v) for v in range(f.field.p)]


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
]


@pytest.mark.parametrize("p,m,n,nterms", RANDOM_CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_random_polys_match_brute_force(small_chunks, p, m, n, nterms, seed):
    F = make_field(p, m)
    f = random_poly(F, n, nterms, seed)
    Q = F.q - 1
    for start, stop in windows(Q, n):
        if Q ** n > 2000 and stop - start > 400:
            continue  # the brute-force side is slow on the full F_128 tori
        check(f, start, stop)
    if Q ** n <= 2000:
        check_zeros([f], F)


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
])
def test_cancelling_sums(small_chunks, p, m, n, terms, want_zeros):
    F = make_field(p, m)
    f = LaurentPoly(n, terms, F)
    assert check_zeros([f], F) == want_zeros
    for start, stop in windows(F.q - 1, n):
        check(f, start, stop)


def test_no_terms_is_zero_everywhere(small_chunks):
    table = discrete_table(make_field(5, 1))
    vals = np.concatenate(list(table.log_values(2, [], [], 3, 14)))
    assert vals.tolist() == [-1] * 11
    assert table.window_counts(2, [], [], 3, 14) == [11, 0, 0, 0, 0]
    F5 = make_field(5, 1)
    zero, f = LaurentPoly(2, [], F5), LaurentPoly(2, [((1, 0), 1)], F5)
    first = (F5.one(), F5.one())
    assert torus_zeros([zero], F5) == (16, first)
    assert torus_zeros([zero], F5, first_only=True) == (1, first)
    assert torus_zeros([zero, f], F5) == (0, None)


def test_empty_window_yields_nothing():
    table = discrete_table(make_field(5, 1))
    assert list(table.log_values(1, [0], [(1,)], 2, 2)) == []


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
def test_family_sum_partitions(small_chunks, p, m, k):
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
