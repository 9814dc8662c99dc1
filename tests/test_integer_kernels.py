"""The integer-coefficient kernels of mpoly and of the monodromy
filtration against the Fraction implementations they replaced.

The oracles are the Fraction versions: polynomials as exponent ->
Fraction term dicts with every product and sum made term by term over
Q, rational functions normalized as before (shared monomial factor
cancelled, denominator's leading coefficient made 1), and the monodromy
filtration built as before, its products, eliminations, kernels and
membership tests made by exactla's public Fraction functions, the
plain-Q reference that shares no code with the integer kernels.  The
integer code must give the same Fractions term for term, the same
normalized numerator and denominator, the same canonical level bases,
and the same errors.

`RatFunc.mul_t_power` shifts t-exponents; its oracle is the product by
t^k it replaced, and the stored parts must agree.  `polytope` takes its
ranks and facet normals from the integer echelon kernels; its oracle is
the Fraction path it replaced, with its ranks and kernels from the
same reference.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from arith_lg import frobdata, mpoly, polytope
from arith_lg.errors import InputError, VerificationError
from arith_lg.exactla import (identity, mat_mul, nullspace, rref, subspace_basis,
                              subspace_contains, to_fractions, transpose)
from arith_lg.frobdata import Filtration, monodromy_filtration
from arith_lg.mpoly import MPoly, RatFunc

NV = 3


# --- oracles: polynomials and rational functions over Q, term by term --------

def oracle_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def oracle_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def oracle_scale(p: dict, c: Fraction) -> dict:
    return {e: v * c for e, v in p.items() if v * c}


def oracle_partial(p: dict, i: int) -> dict:
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in p.items() if e[i]}


def oracle_ratfunc(num: dict, den: dict) -> tuple[dict, dict]:
    """The normalized (numerator, denominator) pair."""
    one = {(0,) * NV: Fraction(1)}
    if not num:
        return {}, one
    if den == one:
        return num, den
    for i in range(NV):
        k = min(min(e[i] for e in num), min(e[i] for e in den))
        if k:
            num = {e[:i] + (e[i] - k,) + e[i + 1:]: c for e, c in num.items()}
            den = {e[:i] + (e[i] - k,) + e[i + 1:]: c for e, c in den.items()}
    inv = 1 / den[max(den)]
    return oracle_scale(num, inv), oracle_scale(den, inv)


def oracle_rat_add(f: tuple, g: tuple) -> tuple:
    (n1, d1), (n2, d2) = f, g
    return oracle_ratfunc(oracle_add(oracle_mul(n1, d2), oracle_mul(n2, d1)),
                          oracle_mul(d1, d2))


def oracle_dot(pairs) -> tuple:
    """Products grouped by denominator, each group's numerators summed,
    the group sums added as rational functions."""
    groups: dict = {}
    for (n1, d1), (n2, d2) in pairs:
        if n1 and n2:
            key = tuple(sorted(oracle_mul(d1, d2).items()))
            total = groups.get(key, {})
            groups[key] = oracle_add(total, oracle_mul(n1, n2))
    parts = [oracle_ratfunc(num, dict(den)) for den, num in groups.items()]
    if not parts:
        return oracle_ratfunc({}, {})
    total = parts[0]
    for part in parts[1:]:
        total = oracle_rat_add(total, part)
    return total


# --- seeded rational polynomials: small denominators, shared factors ----------

def random_terms(rng, max_terms=5) -> dict:
    terms: dict = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, 2) for _ in range(NV))
        terms[e] = terms.get(e, 0) + Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 9]))
    # a common factor in every coefficient, so content and denominator meet
    k = Fraction(rng.choice([1, 2, 3, 6]), rng.choice([1, 2, 3, 5]))
    return {e: c * k for e, c in terms.items() if c}


def random_t_free(rng) -> dict:
    while True:
        terms = {(0,) + e[1:]: c for e, c in random_terms(rng).items()}
        if terms:
            return terms


def random_den(rng) -> dict:
    """A t-power, a t-free polynomial, or their product."""
    t_power = {(rng.randint(0, 2), 0, 0): Fraction(rng.choice([1, -2, 3]), rng.choice([1, 4]))}
    kind = rng.choice(["t", "free", "both"])
    if kind == "t":
        return t_power
    h = random_t_free(rng)
    return h if kind == "free" else oracle_mul(t_power, h)


def as_ratfunc(pair) -> RatFunc:
    num, den = pair
    return RatFunc(MPoly(NV, num), MPoly(NV, den))


@pytest.mark.parametrize("seed", range(60))
def test_ring_operations_match_oracle(seed):
    rng = random.Random(seed)
    p, q = random_terms(rng), random_terms(rng)
    c = Fraction(rng.randint(-6, 6), rng.randint(1, 8))
    P, Q = MPoly(NV, p), MPoly(NV, q)
    assert P.terms == p
    assert (P + Q).terms == oracle_add(p, q)
    assert (P - Q).terms == oracle_add(p, oracle_scale(q, Fraction(-1)))
    assert (P * Q).terms == oracle_mul(p, q)
    assert (P * c).terms == (c * P).terms == oracle_scale(p, c)
    for i in range(NV):
        assert P.partial(i).terms == oracle_partial(p, i)


@pytest.mark.parametrize("seed", range(60))
def test_normalization_matches_oracle(seed):
    rng = random.Random(seed)
    num, den = random_terms(rng), random_den(rng)
    f = RatFunc(MPoly(NV, num), MPoly(NV, den))
    assert (f.num.terms, f.den.terms) == oracle_ratfunc(num, den)
    assert ((-f).num.terms, (-f).den.terms) == oracle_ratfunc(oracle_scale(num, Fraction(-1)), den)


@pytest.mark.parametrize("seed", range(80))
def test_dot_matches_oracle(seed):
    rng = random.Random(seed)
    pairs = []
    for _ in range(rng.randint(1, 6)):
        x = oracle_ratfunc(random_terms(rng), random_den(rng))
        y = oracle_ratfunc(random_terms(rng), random_den(rng))
        pairs.append((x, y))
    f = RatFunc.dot([(as_ratfunc(x), as_ratfunc(y)) for x, y in pairs])
    assert (f.num.terms, f.den.terms) == oracle_dot(pairs)


def old_mul_t_power(f: RatFunc, k: int) -> RatFunc:
    """The product-based body mul_t_power had: multiply by t^k as a
    polynomial, then normalize."""
    t = MPoly.variable(f.nvars, 0)
    if k >= 0:
        return RatFunc(f.num * t ** k, f.den)
    return RatFunc(f.num, f.den * t ** (-k))


def stored(f: RatFunc) -> tuple:
    return (f.num.coeffs, f.num.denom, f.den.coeffs, f.den.denom)


@pytest.mark.parametrize("seed", range(60))
def test_mul_t_power_matches_the_product(seed, monkeypatch):
    rng = random.Random(seed)
    num, den = random_terms(rng), random_den(rng)
    f = as_ratfunc((num, den))
    cases = [(k, old_mul_t_power(f, k)) for k in range(-4, 5)]
    # the shift multiplies no polynomials
    monkeypatch.setattr(mpoly, "_sum_products", None)
    for k, want in cases:
        got = f.mul_t_power(k)
        assert stored(got) == stored(want)
        t_k = {(k, 0, 0): Fraction(1)} if k >= 0 else {(-k, 0, 0): Fraction(1)}
        oracle = (oracle_ratfunc(oracle_mul(num, t_k), den) if k >= 0
                  else oracle_ratfunc(num, oracle_mul(den, t_k)))
        assert (got.num.terms, got.den.terms) == oracle_ratfunc(*oracle)


def test_mul_t_power_edge_cases():
    one, t = MPoly.const(NV, 1), MPoly.variable(NV, 0)
    for f in [RatFunc.const(NV, 0), RatFunc.const(NV, Fraction(-2, 3)), RatFunc(t * t),
              RatFunc(one, t * t), RatFunc(MPoly.variable(NV, 1), t + one)]:
        for k in (-3, -2, -1, 0, 1, 2, 7):
            assert stored(f.mul_t_power(k)) == stored(old_mul_t_power(f, k))


# --- oracle: the monodromy filtration on exactla's plain-Q reference -----------

def oracle_filtration(Nmat) -> Filtration:
    N = to_fractions(Nmat)
    d = len(N)
    if d == 0 or any(len(row) != d for row in N):
        raise InputError("need a nonempty square matrix")
    powers = [identity(d)]
    while any(any(row) for row in powers[-1]):
        if len(powers) > d:
            raise InputError(f"matrix is not nilpotent: N^{d} != 0")
        powers.append(mat_mul(powers[-1], N))
    e = len(powers) - 1
    kernels = [nullspace(P) for P in powers]

    def M(k):
        # vectors are rows, so N^j maps v to v (N^j)^T
        return subspace_basis([row for j in range(max(0, -k), e)
                               for row in mat_mul(kernels[min(k + 2 * j + 1, e)],
                                                  transpose(powers[j]))])

    levels = tuple((k, M(k)) for k in range(-e, e))
    filtration = Filtration(d, levels)
    prev = ()
    for k, basis in levels:
        if not all(subspace_contains(basis, v) for v in prev):
            raise VerificationError("filtration is not increasing")
        prev = basis
    if levels[0][1] or len(levels[-1][1]) != d:
        raise VerificationError("filtration does not start at zero or exhaust")
    for k, basis in levels:
        lower = filtration.level(k - 2)
        if not all(subspace_contains(lower, v) for v in mat_mul(basis, transpose(N))):
            raise VerificationError("N does not lower the filtration by two")
    for k in range(1, e):
        gk = filtration.gr_dimension(k)
        if gk != filtration.gr_dimension(-k):
            raise VerificationError("graded pieces fail the symmetry")
        below = filtration.level(-k - 1)
        mapped = mat_mul(filtration.level(k), transpose(powers[k]))
        if len(subspace_basis(mapped + below)) - len(below) != gk:
            raise VerificationError("N^k does not induce an isomorphism of gradeds")
    return filtration


def jordan(sizes):
    d = sum(sizes)
    N = [[Fraction(0)] * d for _ in range(d)]
    pos = 0
    for s in sizes:
        for i in range(s - 1):
            N[pos + i][pos + i + 1] = Fraction(1)
        pos += s
    return N


def conjugated(rng, N, scale):
    """scale * E N E^-1 for a product E of d elementary matrices with
    rational entries; scale is a rational, so the result is not integral."""
    N = [list(row) for row in N]
    d = len(N)
    for _ in range(d if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        c = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3, 7]))
        N[i] = [a + c * b for a, b in zip(N[i], N[j])]
        for row in N:
            row[j] -= c * row[i]
    return [[scale * v for v in row] for row in N]


def random_partition(rng, d):
    sizes = []
    while d:
        s = rng.randint(1, d)
        sizes.append(s)
        d -= s
    return sorted(sizes, reverse=True)


@pytest.mark.parametrize("seed", range(40))
def test_filtration_matches_oracle(seed):
    rng = random.Random(seed)
    d = rng.randint(1, 18)
    sizes = random_partition(rng, d)
    N = conjugated(rng, jordan(sizes), Fraction(rng.choice([1, -2, 5]), rng.choice([1, 3, 4])))
    got = monodromy_filtration(N)
    assert got == oracle_filtration(N)
    # the graded pieces are the Jordan type's: one dimension per block of
    # size at least |k| + 1 of the right parity
    for k in range(-max(sizes), max(sizes) + 1):
        want = sum(1 for s in sizes if s > abs(k) and (s - 1 - abs(k)) % 2 == 0)
        assert got.gr_dimension(k) == want


@pytest.mark.parametrize("sizes", [[18], [4, 4, 3, 3, 2, 1, 1], [1] * 18, [9, 9]])
def test_filtration_matches_oracle_at_dimension_18(sizes):
    N = conjugated(random.Random(str(sizes)), jordan(sizes), Fraction(2, 3))
    assert monodromy_filtration(N) == oracle_filtration(N)


@pytest.mark.parametrize("d", [1, 2, 5, 18])
def test_not_nilpotent_message_matches_oracle(d):
    # J + c e_{d,1} has characteristic polynomial x^d - c, so no power vanishes
    J = jordan([d])
    J[d - 1][0] = Fraction(3, 5)
    N = conjugated(random.Random(d), J, Fraction(1, 2))
    with pytest.raises(InputError) as want:
        oracle_filtration(N)
    with pytest.raises(InputError) as got:
        monodromy_filtration(N)
    assert str(got.value) == str(want.value) == f"matrix is not nilpotent: N^{d} != 0"


def test_the_filtration_builds_no_fraction_before_its_levels(monkeypatch):
    # everything before Filtration.levels runs on integers: the only
    # Fractions made are the N read in and the RREF levels
    calls = []
    real = frobdata._fractions

    def recording(rows, pivots):
        assert all(type(v) is int for row in rows for v in row)
        calls.append(len(rows))
        return real(rows, pivots)

    monkeypatch.setattr(frobdata, "_fractions", recording)
    filt = monodromy_filtration(conjugated(random.Random(0), jordan([3, 2]), Fraction(1, 3)))
    assert calls == [len(b) for _, b in filt.levels]


# --- polytope on the integer kernels, against the old Fraction path -----------

def rank(rows) -> int:
    return len(rref(rows)[0])


def oracle_normal(points) -> tuple | None:
    """The Fraction normal: the one kernel vector over Q, cleared of
    denominators and made primitive."""
    base = points[0]
    rows = [tuple(x - b for x, b in zip(p, base)) for p in points[1:]]
    if not rows:
        return (1,) if len(base) == 1 else None
    kern = nullspace(rows)
    if len(kern) != 1:
        return None
    den = lcm(*[f.denominator for f in kern[0]])
    v = [int(f * den) for f in kern[0]]
    g = gcd(*v)
    return tuple(x // g for x in v)


def oracle_hull(support) -> tuple:
    """(generators, vertices, facets, degenerate) as newton_polyhedron
    found them with Fraction ranks and normals."""
    n = len(support[0])
    generators = tuple(sorted(set(map(tuple, support)) | {(0,) * n}))
    if rank(generators) < n:
        return generators, (), (), True
    facets = set()
    for subset in itertools.combinations(generators, n):
        normal = oracle_normal(list(subset))
        if normal is None:
            continue
        c = sum(a * x for a, x in zip(normal, subset[0]))
        values = [sum(a * x for a, x in zip(normal, g)) for g in generators]
        if all(v >= c for v in values):
            facets.add((normal, c))
        elif all(v <= c for v in values):
            facets.add((tuple(-a for a in normal), -c))
    facets = tuple(sorted(facets))
    vertices = tuple(g for g in generators
                     if rank([a for a, c in facets
                                     if sum(x * y for x, y in zip(a, g)) == c]) == n)
    return generators, vertices, facets, False


def random_support(rng, n) -> list:
    """A few small lattice points; sometimes all in a hyperplane through
    0, or on one line, so that subsets and whole hulls are degenerate."""
    pts = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, n + 3))]
    kind = rng.choice(["free", "free", "hyperplane", "line"])
    if kind == "hyperplane" and n > 1:
        pts = [p[:-1] + (0,) for p in pts]
    elif kind == "line":
        d = tuple(rng.randint(-2, 2) for _ in range(n))
        pts = [tuple(rng.randint(-2, 2) * v for v in d) for _ in pts] + [d]
    return pts


@pytest.mark.parametrize("seed", range(80))
def test_polytope_matches_the_fraction_path(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    support = random_support(rng, n)
    P = polytope.newton_polyhedron(support)
    assert (P.generators, P.vertices, P.facets, P.degenerate) == oracle_hull(support)
    # every n-subset, affinely dependent ones included
    for subset in itertools.combinations(P.generators, min(n, len(P.generators))):
        assert polytope._integer_normal(list(subset)) == oracle_normal(list(subset))
        rows = [tuple(x - b for x, b in zip(p, subset[0])) for p in subset[1:]]
        assert polytope._face_dim(subset) == rank(rows)
    if not P.degenerate:
        for face in polytope.all_proper_faces(P):
            base = face.generators[0]
            assert face.dim == rank([tuple(x - b for x, b in zip(g, base))
                                            for g in face.generators[1:]])


def test_polytope_supports_reach_every_case():
    # the seeded supports above give full-dimensional hulls in every
    # dimension, degenerate hulls, and affinely dependent n-subsets
    full, degenerate, dependent = set(), 0, 0
    for seed in range(80):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        P = polytope.newton_polyhedron(random_support(rng, n))
        if P.degenerate:
            degenerate += 1
        else:
            full.add(n)
        dependent += any(oracle_normal(list(s)) is None
                         for s in itertools.combinations(P.generators, n))
    assert full == {1, 2, 3, 4} and degenerate and dependent
