"""Seeded request generators for the arith-lg benchmark workloads.

Every workload is a fixed list of request slots.  The slots fix what a
request costs (field, extension degree, torus dimension, polytope shape,
matrix sizes); the seed only fills in coefficients, gauge transforms and
Jordan types, so two seeds give different inputs of the same size.

A request carries its CLI arguments, the JSON input files it reads, the
exit code it must end with, the facts an independent oracle can check
in its output, and the budget charges (points, table elements) that its
enumerations must make.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

DOUBLE_ENUM_CAP = 10 ** 7  # arith_lg.expsum.DOUBLE_ENUM_CAP


@dataclass
class Request:
    label: str
    argv: list[str]
    files: dict[str, object] = field(default_factory=dict)
    expect_exit: int = 0
    oracle: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


# --- Laurent families ---------------------------------------------------------

@dataclass(frozen=True)
class Shape:
    """A Newton polytope with the origin inside and unimodular-enough
    edges: a family supported on its vertices (plus interior points) is
    nondegenerate for every prime outside bad_primes, whatever the
    nonzero coefficients."""

    n: int
    vertices: tuple
    interior: tuple
    faces: int          # faces of positive dimension that miss the origin
    volume: int         # normalized volume = Frobenius rank
    bad_primes: tuple = ()


SEGMENT = Shape(1, ((1,), (-1,)), ((0,),), 0, 2)
TRIANGLE = Shape(2, ((1, 0), (0, 1), (-1, -1)), ((0, 0),), 3, 3)
DIAMOND = Shape(2, ((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 0),), 4, 4)
SQUARE = Shape(2, ((2, 1), (-1, 2), (-2, -1), (1, -2)),
               tuple(product((-1, 0, 1), repeat=2)), 4, 20, (5,))
SIMPLEX3 = Shape(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
                 ((0, 0, 0),), 10, 4)


def _nonzero_element(rng: random.Random, p: int, m: int):
    while True:
        coords = [rng.randrange(p) for _ in range(m)]
        if any(coords):
            break
    if m == 1:
        return str(coords[0])
    return [str(c) for c in coords]


def _family(rng, shape: Shape, p: int, m: int, extra: int) -> dict:
    """Problem file: every vertex plus `extra` random interior points,
    all with random nonzero coefficients."""
    if p in shape.bad_primes:
        raise ValueError(f"shape is not generically nondegenerate mod {p}")
    support = list(shape.vertices) + rng.sample(list(shape.interior), extra)
    field_obj = {"p": str(p)} if m == 1 else {"p": str(p), "m": m}
    return {
        "field": field_obj,
        "n": shape.n,
        "f": [{"c": _nonzero_element(rng, p, m), "w": list(w)} for w in support],
    }


def _tau(rng, p: int) -> str:
    return str(rng.randrange(1, p))


def _torus(q: int, k: int, n: int) -> int:
    return (q ** k - 1) ** n


def expsum(rng, shape, p, k, *, m=1, extra=1, threads=1, brute=False) -> Request:
    q = p ** m
    tau = _tau(rng, p)
    argv = ["expsum", "family.json", "--k", str(k), "--tau", tau,
            "--threads", str(threads)]
    oracle = {"k": k}
    if brute:
        oracle["brute_force"] = True
    return Request(
        f"expsum F_{q} n={shape.n} k={k}", argv,
        {"family.json": _family(rng, shape, p, m, extra)}, 0, oracle,
        {"expsum.points": _torus(q, k, shape.n),
         "laurent.points": 0,
         "ffield.table_elems": q ** k})


def frobenius(rng, shape, p, *, m=1, extra=1, threads=1) -> Request:
    q = p ** m
    r = shape.volume
    argv = ["frobenius", "family.json", "--tau", _tau(rng, p),
            "--threads", str(threads)]
    return Request(
        f"frobenius F_{q} n={shape.n} r={r}", argv,
        {"family.json": _family(rng, shape, p, m, extra)}, 0, {"rank": r},
        {"expsum.points": sum(_torus(q, k, shape.n) for k in range(1, 2 * r + 1)),
         "laurent.points": shape.faces * _torus(q, 1, shape.n),
         "ffield.table_elems": sum(q ** k for k in range(1, 2 * r + 1))})


def nondegenerate(rng, shape, p, depth, *, extra=1, threads=1) -> Request:
    argv = ["check-nondegenerate", "family.json", "--depth", str(depth),
            "--threads", str(threads)]
    return Request(
        f"check-nondegenerate F_{p} n={shape.n} depth={depth}", argv,
        {"family.json": _family(rng, shape, p, 1, extra)}, 0, {"depth": depth},
        {"expsum.points": 0,
         "laurent.points": shape.faces * sum(_torus(p, k, shape.n)
                                             for k in range(1, depth + 1)),
         "ffield.table_elems": sum(p ** k for k in range(1, depth + 1))})


def l_function(rng, shape, p, kmax, *, extra=1) -> Request:
    argv = ["l-function", "family.json", "--kmax", str(kmax)]
    n = shape.n
    points = 0
    for k in range(1, kmax + 1):
        points += _torus(p, k, n)                      # zero count
        if (p ** k - 1) ** (n + 1) <= DOUBLE_ENUM_CAP:  # tau-sum cross-check
            points += (p ** k - 1) * _torus(p, k, n)
    return Request(
        f"l-function F_{p} n={n} kmax={kmax}", argv,
        {"family.json": _family(rng, shape, p, 1, extra)}, 0,
        {"rank": shape.volume},
        {"expsum.points": points, "laurent.points": 0,
         "ffield.table_elems": sum(p ** k for k in range(1, kmax + 1))})


# --- exact layers: structure tuples, connections, nilpotent matrices ----------
#
# Polynomials in x1..xm are dicts {exponent tuple: Fraction}; matrices are
# lists of rows.  Only what the generators need.

def _padd(a, b):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _pmul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def _pscale(a, c):
    return {e: v * c for e, v in a.items()} if c else {}


def _pdiff(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
    return out


def _const(m, c):
    return {(0,) * m: Fraction(c)} if c else {}


def _mzero(s):
    return [[{} for _ in range(s)] for _ in range(s)]


def _mident(s, m, c=1):
    out = _mzero(s)
    for i in range(s):
        out[i][i] = _const(m, c)
    return out


def _mmul(a, b):
    s = len(a)
    out = _mzero(s)
    for i in range(s):
        for j in range(s):
            acc = {}
            for k in range(s):
                if a[i][k] and b[k][j]:
                    acc = _padd(acc, _pmul(a[i][k], b[k][j]))
            out[i][j] = acc
    return out


def _madd(a, b):
    return [[_padd(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mscale(a, c):
    return [[_pscale(x, c) for x in row] for row in a]


def _mmap(fn, a):
    return [[fn(x) for x in row] for row in a]


def _mtrans(a):
    return [list(col) for col in zip(*a)]


def _random_poly(rng, m, degree, terms, span):
    """`terms` distinct monomials of degree <= `degree`, with nonzero
    coefficients in [-span, span]: the size is fixed, the values are not."""
    monomials = [e for e in product(range(degree + 1), repeat=m) if sum(e) <= degree]
    return {e: Fraction(rng.choice([c for c in range(-span, span + 1) if c]))
            for e in rng.sample(monomials, terms)}


def _gauge(rng, s, m):
    """Unipotent upper-triangular G with two-term linear entries, and
    its inverse."""
    U = _mzero(s)
    for i in range(s):
        for j in range(i + 1, s):
            U[i][j] = _random_poly(rng, m, 1, 2, 1)
    G = _madd(_mident(s, m), U)
    negU = _mscale(U, -1)
    inv = _mident(s, m)
    power = _mident(s, m)
    for _ in range(s - 1):
        power = _mmul(power, negU)
        inv = _madd(inv, power)
    return G, inv


def _structure_tuple(rng, s, m, flat):
    """A gauge transform of the tuple A = 0, Phi_i = d_i h * N,
    R_0 = a + b N + c N^2, R_inf = diag(0..s-1) - (s-1)/2, pairing J
    (antidiagonal), which satisfies all six conditions and the four
    pairing identities.  A non-flat tuple adds to Phi_1 a constant
    matrix E with E[s-1][0] != 0, which breaks r0_transport in every
    gauge."""
    N = _mzero(s)
    for i in range(s - 1):
        N[i][i + 1] = _const(m, 1)
    h = _random_poly(rng, m, 2, 3, 2)
    phi = [_mmap(lambda v, g=_pdiff(h, i): _pmul(v, g) if v else {}, N)
           for i in range(m)]
    r0 = _madd(_mident(s, m, rng.randint(-2, 2)),
               _mscale(N, Fraction(rng.randint(-2, 2))))
    r0 = _madd(r0, _mscale(_mmul(N, N), Fraction(rng.randint(-2, 2))))
    rinf = _mzero(s)
    for i in range(s):
        rinf[i][i] = _const(m, Fraction(2 * i - (s - 1), 2))
    J = _mzero(s)
    for i in range(s):
        J[i][s - 1 - i] = _const(m, 1)
    if not flat:
        E = _mzero(s)
        for i, j in rng.sample(list(product(range(s), repeat=2)), s):
            E[i][j] = _const(m, rng.choice((-2, -1, 1, 2)))
        E[s - 1][0] = _const(m, rng.choice((-2, -1, 1, 2)))
        phi[0] = _madd(phi[0], E)
    G, Ginv = _gauge(rng, s, m)

    def conj(mat):
        return _mmul(Ginv, _mmul(mat, G))

    A = [_mmul(Ginv, _mmap(lambda v, i=i: _pdiff(v, i), G)) for i in range(m)]
    return {
        "A": A,
        "phi": [conj(x) for x in phi],
        "r0": conj(r0),
        "rinf": conj(rinf),
        "g": _mmul(_mtrans(G), _mmul(J, G)),
    }


def _terms(poly, names):
    out = []
    for e in sorted(poly):
        term = {"c": str(poly[e])}
        deg = {nm: d for nm, d in zip(names, e) if d}
        if deg:
            term["deg"] = deg
        out.append(term)
    return out


def _matrix_json(mat, names):
    return [[_terms(v, names) for v in row] for row in mat]


def verify_fts(rng, s, m, flat) -> Request:
    T = _structure_tuple(rng, s, m, flat)
    names = [f"x{i + 1}" for i in range(m)]
    doc = {"size": s, "m": m,
           "A": [_matrix_json(a, names) for a in T["A"]],
           "phi": [_matrix_json(a, names) for a in T["phi"]],
           "r0": _matrix_json(T["r0"], names),
           "rinf": _matrix_json(T["rinf"], names),
           "g": _matrix_json(T["g"], names)}
    return Request(f"verify-fts size={s} m={m} {'flat' if flat else 'nonflat'}",
                   ["verify-fts", "tuple.json"], {"tuple.json": doc},
                   0 if flat else 1, {"flat": flat})


def verify_connection(rng, s, m, flat) -> Request:
    """The assembled family A + Phi/t + (R_0/t - R_inf) dt/t of a
    structure tuple, as a connection file."""
    T = _structure_tuple(rng, s, m, flat)
    names = ["t"] + [f"x{i + 1}" for i in range(m)]
    lift = lambda poly, tdeg: {(tdeg,) + e: c for e, c in poly.items()}

    def entry(num, tpow):
        den = [{"c": "1", "deg": {"t": tpow}}]
        return {"num": _terms(num, names) or [{"c": "0"}], "den": den}

    dx = []
    for a, ph in zip(T["A"], T["phi"]):
        dx.append([[entry(_padd(lift(x, 1), lift(y, 0)), 1)
                    for x, y in zip(ra, rp)] for ra, rp in zip(a, ph)])
    dt = [[entry(_padd(lift(x, 0), _pscale(lift(y, 1), -1)), 2)
           for x, y in zip(r0, ri)] for r0, ri in zip(T["r0"], T["rinf"])]
    doc = {"m": m, "size": s, "dt": dt, "dx": dx}
    return Request(f"verify-connection size={s} m={m} {'flat' if flat else 'nonflat'}",
                   ["verify-connection", "connection.json"],
                   {"connection.json": doc}, 0 if flat else 1, {"flat": flat})


def _partition(d, largest):
    """Jordan block sizes largest, largest-1, ..., 1, largest, ... summing to d."""
    sizes, size = [], largest
    while sum(sizes) < d:
        sizes.append(min(size, d - sum(sizes)))
        size = size - 1 or largest
    return sorted(sizes, reverse=True)


def monodromy(rng, d, largest) -> Request:
    """A nilpotent matrix of known Jordan type; the seed picks the
    conjugating matrix."""
    sizes = _partition(d, largest)
    M = [[0] * d for _ in range(d)]
    pos = 0
    for s in sizes:
        for i in range(s - 1):
            M[pos + i][pos + i + 1] = 1
        pos += s
    # conjugate by d random elementary matrices E = I + c e_ij:
    # M <- E M E^-1 is row_i += c row_j, then col_j -= c col_i
    for _ in range(d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        M[i] = [a + c * b for a, b in zip(M[i], M[j])]
        for row in M:
            row[j] -= c * row[i]
    return Request(f"monodromy d={d} e={largest}", ["monodromy", "matrix.json"],
                   {"matrix.json": {"matrix": [[str(v) for v in row] for row in M]}},
                   0, {"jordan": sizes})


# --- workloads -----------------------------------------------------------------

def cli_sums(rng) -> list[Request]:
    """Long enumerations over prime fields; per-point kernel cost dominates.
    Eight requests of about the same cost sit in the middle, so that the
    median latency falls inside a cluster rather than between two."""
    return [
        expsum(rng, TRIANGLE, 3, 6, threads=2),
        expsum(rng, SIMPLEX3, 3, 4, threads=2),
        frobenius(rng, TRIANGLE, 3, threads=2),
        expsum(rng, TRIANGLE, 5, 4, threads=2),
        expsum(rng, TRIANGLE, 2, 9, threads=2),
        expsum(rng, DIAMOND, 2, 9, threads=2),
        expsum(rng, SQUARE, 2, 9, extra=2, threads=2),
        expsum(rng, SQUARE, 2, 9, extra=1, threads=2),
        expsum(rng, SIMPLEX3, 2, 6, threads=2),
        nondegenerate(rng, DIAMOND, 2, 8, threads=2),
        nondegenerate(rng, SIMPLEX3, 2, 5, threads=2),
        frobenius(rng, DIAMOND, 2, threads=2),
        nondegenerate(rng, TRIANGLE, 3, 5, threads=2),
        # small sums, checked against brute-force enumeration
        expsum(rng, TRIANGLE, 5, 2, threads=2, brute=True),
        expsum(rng, DIAMOND, 13, 1, threads=2, brute=True),
        expsum(rng, SIMPLEX3, 5, 1, threads=2, brute=True),
        expsum(rng, SEGMENT, 2, 8, threads=2, brute=True),
    ]


def cli_families(rng) -> list[Request]:
    """Many short enumerations plus field set-up: tau-sum cross-checks,
    large discrete-log tables, embeddings from non-prime base fields.
    Most requests compute for longer than the interpreter takes to start,
    so the median is not a start-up time."""
    return [
        frobenius(rng, SEGMENT, 2, m=2),
        l_function(rng, SEGMENT, 2, 10),
        l_function(rng, SEGMENT, 2, 9),
        l_function(rng, SEGMENT, 2, 8),
        expsum(rng, SEGMENT, 3, 4, m=2),
        expsum(rng, SEGMENT, 3, 9),
        expsum(rng, SEGMENT, 5, 6),
        expsum(rng, SEGMENT, 2, 5, m=2),
        expsum(rng, SEGMENT, 2, 3, m=3),
        expsum(rng, SEGMENT, 5, 2, m=2),
        frobenius(rng, SEGMENT, 13),
        frobenius(rng, DIAMOND, 2),
    ]


def cli_exact(rng) -> list[Request]:
    """Symbolic layers only: mpoly, exactla, connalg; no torus."""
    reqs = []
    for s, m in ((4, 2), (4, 3), (5, 2), (5, 3)):
        reqs.append(verify_fts(rng, s, m, True))
        reqs.append(verify_fts(rng, s, m, False))
    for s, m in ((4, 3),):
        reqs.append(verify_connection(rng, s, m, True))
        reqs.append(verify_connection(rng, s, m, False))
    for d, e in ((10, 4), (12, 3), (14, 4), (16, 5), (18, 4)):
        reqs.append(monodromy(rng, d, e))
    return reqs


def acceptance(rng) -> list[Request]:
    """The acceptance suite; its oracles are frozen, the seed is unused."""
    return [Request("acceptance", ["acceptance"], {}, 0, {"all_ok": True})]


WORKLOADS = {
    "cli-sums": cli_sums,
    "cli-families": cli_families,
    "cli-exact": cli_exact,
    "acceptance": acceptance,
}


BLOCK_SECONDS = 8  # one pass over a CLI workload's slots, at the seed commit


def generate(workload: str, seed: int, blocks: int = 1) -> list[Request]:
    """`blocks` copies of the workload's slot list, each with fresh inputs;
    a list of more blocks starts with the list of fewer.  The acceptance
    suite is always one request."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "acceptance":
        blocks = 1
    return [req for _ in range(blocks) for req in WORKLOADS[workload](rng)]
