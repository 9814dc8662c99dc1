"""Field set-up: power tables, discrete-log tables, embedding root
searches, and the embedding coordinates they lead to.

ffarray.PowerTable builds the coordinate columns of the powers of one
element by doubling in chunks of BATCH lanes; the discrete-log table is
the power table of the generator, and ffield._roots finds one root with
a first-only common_zeros on the power table of a subfield's unit
generator and the others as its Frobenius conjugates.  All three
are checked against plain FqElem arithmetic, with BATCH shrunk so that
chunk boundaries fall mid-range.  The embedding pins hold the
coordinates embed gives in a fresh process, and the same coordinates
come out step by step along fixed tower sequences in one process.
PowerTable.log is checked against brute force on every element of
small fields, scalar products and _apply_hom against field products,
and a count of field products bounds the work of a table build.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arith_lg import ffarray, ffield
from arith_lg.errors import InputError
from arith_lg.ffarray import PowerTable
from arith_lg.ffield import (discrete_table, embed, field_from_modulus, make_field,
                             multiplicative_generator)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def columns(table):
    """The table's coordinate columns, decoded: one tuple per exponent."""
    W = table.width
    return [tuple(int.from_bytes(col[e * W:(e + 1) * W], sys.byteorder) for col in table.columns)
            for e in range(table.order)]


# F_{2^13} has q - 1 = 8191 prime; F_12289 has q - 1 = 3 * 4096; F_29 has
# q - 1 = 4 * 7 and F_8 has q - 1 = 7; F_131 and F_7919 have wide lanes
TABLE_FIELDS = [(2, 13), (3, 7), (5, 5), (7919, 1), (2, 2), (12289, 1), (29, 1), (2, 3),
                (131, 2)]


# a prime field, a canonical extension and a field_from_modulus field
POWER_FIELDS = {"F29": make_field(29, 1), "F243": make_field(3, 5),
                "K64": field_from_modulus(2, (1, 0, 0, 0, 0, 1, 1))}


@pytest.mark.parametrize("batch", [None, 1, 7])
@pytest.mark.parametrize("name", sorted(POWER_FIELDS))
def test_power_blocks_are_the_powers(monkeypatch, name, batch):
    if batch is not None:
        monkeypatch.setattr(ffarray, "BATCH", batch)
    field = POWER_FIELDS[name]
    g = multiplicative_generator(field)
    # 50 is a multiple of neither 7 nor the default batch
    for h, count in [(g, field.q - 1), (g ** 3, 50), (g, 1)]:
        table = PowerTable(field, h, count)
        assert columns(table) == [(h ** k).coords for k in range(count)]


@pytest.mark.parametrize("batch", [None, 7])
@pytest.mark.parametrize("p,m", TABLE_FIELDS)
def test_table_build_matches_walk(monkeypatch, p, m, batch):
    if batch is not None:
        monkeypatch.setattr(ffarray, "BATCH", batch)
    field = make_field(p, m)
    g = multiplicative_generator(field)
    walk, cur = [], field.one()
    for _ in range(field.q - 1):
        walk.append(cur.coords)
        cur = cur * g
    table = discrete_table.__wrapped__(field)
    assert columns(table) == walk


def brute_roots(modulus, target):
    """Every element of the target at which the modulus vanishes."""
    roots = []
    for enc in range(target.q):
        z = target.element([enc // target.p ** i % target.p for i in range(target.m)])
        acc = target.zero()
        for c in reversed(modulus):
            acc = acc * z + c
        if not acc:
            roots.append(z)
    return roots


@pytest.mark.parametrize("batch", [None, 7])
@pytest.mark.parametrize("p,a,L", [(2, 4, 8), (2, 6, 12), (3, 2, 6), (3, 4, 8), (5, 2, 4),
                                   # L given as the modulus of a field_from_modulus target
                                   pytest.param(2, 3, (1, 0, 0, 0, 0, 1, 1), id="2-3-K64"),
                                   pytest.param(3, 2, (1, 0, 1, 1, 1), id="3-2-K81")])
def test_roots_in_matches_brute_force(monkeypatch, p, a, L, batch):
    if batch is not None:
        monkeypatch.setattr(ffarray, "BATCH", batch)
    modulus = make_field(p, a).modulus
    target = make_field(p, L) if isinstance(L, int) else field_from_modulus(p, L)
    roots = ffield._roots(modulus, a, target)
    assert sorted(r.coords for r in roots) == sorted(r.coords for r in brute_roots(modulus, target))
    assert len(roots) == a
    assert set(roots) == {roots[0] ** (p ** i) for i in range(a)}


def test_int64_bound_is_checked_before_allocating():
    # p (p - 1) >= 2^63 for p > 2^32: refused, not built in 137 GB
    field = make_field(4294967311, 1)
    with pytest.raises(InputError, match="64-bit lanes"):
        PowerTable(field, multiplicative_generator(field), field.q - 1)


# generator X of F_{p^a} embedded into F_{p^b}, each recorded in a fresh
# process
EMBED_PINS = {
    (2, 2, 4): [0, 1, 1, 0],
    (2, 2, 6): [0, 1, 0, 1, 1, 1],
    (2, 2, 8): [1, 0, 1, 1, 1, 1, 0, 1],
    (2, 3, 6): [0, 1, 1, 1, 0, 0],
    (2, 3, 12): [0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0],
    (2, 4, 8): [0, 0, 0, 0, 0, 1, 1, 1],
    (2, 4, 12): [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    (2, 6, 12): [1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1],
    (3, 2, 4): [0, 1, 2, 2],
    (3, 2, 6): [0, 1, 2, 1, 1, 0],
    (3, 2, 8): [0, 0, 2, 0, 1, 0, 1, 0],
    (3, 3, 6): [0, 0, 1, 2, 1, 0],
    (3, 4, 8): [0, 0, 0, 0, 0, 0, 1, 0],
    (5, 2, 4): [0, 0, 1, 0],
    (5, 2, 6): [0, 2, 2, 0, 1, 3],
    (5, 3, 6): [0, 3, 2, 1, 3, 4],
}

# step sequences run in one process: embeddings are history-free, so
# every step gives its fresh-process pin whatever came before it
EMBED_SEQUENCES = {
    "f9_into_f729_fresh": [(3, 2, 6)],
    "f9_into_f729_after_f81": [(3, 2, 4), (3, 2, 6)],
    "f2_tower_up": [(2, 2, 4), (2, 4, 8), (2, 2, 6), (2, 6, 12), (2, 4, 12), (2, 3, 12),
                    (2, 2, 8)],
    "f2_tower_down": [(2, 6, 12), (2, 4, 12), (2, 3, 6), (2, 4, 8), (2, 2, 8), (2, 2, 4)],
    "f5_tower": [(5, 2, 4), (5, 3, 6), (5, 2, 6)],
    "f3_tower": [(3, 3, 6), (3, 4, 8), (3, 2, 8)],
}

EMBED_SCRIPT = """
import json, sys
from arith_lg.ffield import embed, make_field
out = []
for p, a, b in json.loads(sys.argv[1]):
    x = make_field(p, a).element([0, 1] + [0] * (a - 2))
    out.append(list(embed(x, make_field(p, b)).coords))
print(json.dumps(out))
"""


def run_fresh(script, arg):
    """Run a script in a fresh interpreter on the package sources; its
    stdout parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", script, json.dumps(arg)],
                         capture_output=True, text=True, env=env, timeout=120, check=True)
    return json.loads(run.stdout)


@pytest.mark.parametrize("step", sorted(EMBED_PINS), ids=lambda s: "%d-%d-%d" % s)
def test_embedding_pin_is_the_fresh_process_image(step):
    assert run_fresh(EMBED_SCRIPT, [step]) == [EMBED_PINS[step]]


@pytest.mark.parametrize("name", sorted(EMBED_SEQUENCES))
def test_embedding_coordinates_pinned(name):
    steps = EMBED_SEQUENCES[name]
    assert run_fresh(EMBED_SCRIPT, steps) == [EMBED_PINS[s] for s in steps]


def evaluate_at(coords, r):
    """sum c_i r^i: the image of c_0 + c_1 X + ... under X -> r."""
    acc = r.field.zero()
    for c in reversed(coords):
        acc = acc * r + c
    return acc


def test_standard_rule_by_brute_force():
    # C_12 over F_2 has the maximal subfields C_6 and C_4, meeting in C_2:
    # X_6 goes to the lex-first root of its modulus, X_4 to the lex-first
    # root that agrees with it on C_2, and C_2, C_3 map through C_6
    p = 2
    C = {d: make_field(p, d) for d in (2, 3, 4, 6, 12)}
    X = {d: C[d].element([0, 1] + [0] * (d - 2)) for d in (2, 3, 4, 6)}
    x6 = min(brute_roots(C[6].modulus, C[12]), key=lambda r: r.coords)
    x2 = evaluate_at(embed(X[2], C[6]).coords, x6)
    x4 = min((r for r in brute_roots(C[4].modulus, C[12])
              if evaluate_at(embed(X[2], C[4]).coords, r) == x2),
             key=lambda r: r.coords)
    assert embed(X[6], C[12]) == x6
    assert embed(X[4], C[12]) == x4
    assert embed(X[2], C[12]) == x2
    assert embed(X[3], C[12]) == evaluate_at(embed(X[3], C[6]).coords, x6)


COHERENCE_SCRIPT = """
import json, sys
from arith_lg.ffield import embed, make_field
p, top = json.loads(sys.argv[1])
C = {d: make_field(p, d) for d in range(1, top + 1)}
bad = []
for c in range(2, top + 1):
    for b in [d for d in range(2, c + 1) if c % d == 0]:
        for a in [d for d in range(2, b + 1) if b % d == 0]:
            x = C[a].element([0, 1] + [0] * (a - 2))
            y = embed(x, C[b])
            root = C[b].zero()
            for coeff in reversed(C[a].modulus):
                root = root * y + coeff
            if root or embed(x ** (a + 1), C[b]) != y ** (a + 1):
                bad.append(["hom", a, b])
            if embed(y, C[c]) != embed(x, C[c]):
                bad.append(["tower", a, b, c])
print(json.dumps(bad))
"""


@pytest.mark.parametrize("p,top", [(2, 12), (3, 8), (5, 4)])
def test_tower_coherence_over_every_divisor_chain(p, top):
    # every chain a | b | c with c <= top, in one fresh process: the
    # generator's image is a root of its modulus with the powers of a
    # ring hom, and two steps agree with one
    assert run_fresh(COHERENCE_SCRIPT, [p, top]) == []


BUDGET_SCRIPT = """
import json, sys
from arith_lg.budget import scope
from arith_lg.ffield import embed, make_field
x = make_field(2, 2).element([0, 1])
with scope(budget=json.loads(sys.argv[1])):
    print(json.dumps([list(embed(x, make_field(2, b)).coords) for b in (4, 6, 8, 10)]))
"""


def test_embedding_searches_only_subfields_of_the_target():
    # in a fresh process the F_4 generator goes into F_{2^4}, F_{2^6},
    # F_{2^8} and F_{2^10} for a few hundred subfield elements in all; a
    # closure over every degree touched would search inside F_{2^24}
    images = run_fresh(BUDGET_SCRIPT, 1000)
    assert images[:3] == [EMBED_PINS[(2, 2, b)] for b in (4, 6, 8)]


def every_element(field):
    """All q elements of the field, zero first."""
    p, m = field.p, field.m
    return [field.element([enc // p ** i % p for i in range(m)]) for enc in range(field.q)]


LOG_FIELDS = [(2, k) for k in range(1, 9)] + [(3, k) for k in range(1, 6)] + [(13, 2)]


@pytest.mark.parametrize("batch", [None, 7])
@pytest.mark.parametrize("p,m", LOG_FIELDS)
def test_log_is_the_brute_force_exponent(monkeypatch, p, m, batch):
    # every element, zero included; an element of the subfield F_{p^d}
    # sits at a multiple of (q - 1) / (p^d - 1), d its least such degree
    if batch is not None:
        monkeypatch.setattr(ffarray, "BATCH", batch)
    field = make_field(p, m)
    g = multiplicative_generator(field)
    table = PowerTable(field, g, field.q - 1)
    exponent, cur = {}, field.one()
    for e in range(field.q - 1):
        exponent[cur.coords] = e
        cur = cur * g
    degrees = set()
    for a in every_element(field):
        e = table.log(a)
        assert e == exponent.get(a.coords)
        if a:
            d = next(d for d in range(1, m + 1) if a ** (p ** d) == a)
            assert e % ((field.q - 1) // (p ** d - 1)) == 0
            degrees.add(d)
    assert degrees == {d for d in range(1, m + 1) if m % d == 0}
    with pytest.raises(InputError, match="different field"):
        table.log(make_field(p, m + 1).one())


@pytest.mark.parametrize("p,a,b", [(2, 4, 8), (3, 2, 4), (2, 3, 6)])
def test_log_on_a_subfield_unit_table(p, a, b):
    # the table ffield._roots searches: order p^a - 1 inside F_{p^b}
    target = make_field(p, b)
    g = multiplicative_generator(target)
    count = p ** a - 1
    w = g ** ((target.q - 1) // count)
    table = PowerTable(target, w, count)
    for e in range(count):
        assert table.log(w ** e) == e
    assert table.log(target.zero()) is None
    with pytest.raises(InputError, match="not a power"):
        table.log(g)


@pytest.mark.parametrize("p,m", [(5, 1), (3, 2), (2, 5), (13, 2)])
def test_scalar_products_scale_the_coordinates(p, m):
    field = make_field(p, m)
    for x in every_element(field)[:40]:
        for c in (0, 1, 3, -1, p + 2):
            assert x * c == x * field.from_int(c) == c * x


def products_oracle(a, image_powers):
    """sum_i a_i image_powers[i], one field product per coordinate."""
    target = image_powers[0].field
    acc = target.zero()
    for c, pw in zip(a.coords, image_powers):
        if c:
            acc = acc + pw * target.from_int(c)
    return acc


@pytest.mark.parametrize("p,a,b", [(2, 4, 8), (3, 2, 6), (5, 2, 4), (2, 3, 12)])
def test_apply_hom_is_the_sum_of_products(p, a, b):
    source, target = make_field(p, a), make_field(p, b)
    powers = ffield._image_powers(source, target)
    for x in every_element(source):
        assert ffield._apply_hom(x, powers) == products_oracle(x, powers)


@pytest.mark.parametrize("p,m", [(3, 9), (2, 10), (13, 4)])
def test_power_table_takes_logarithmically_many_field_products(monkeypatch, p, m):
    # the images step * X^j come from shifts of the coordinates; only
    # the doubling steps' squarings are field products
    field = make_field(p, m)
    g = multiplicative_generator(field)
    calls, product = [], ffield._pmulmod

    def counted(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(ffield, "_pmulmod", counted)
    table = PowerTable(field, g, field.q - 1)
    assert len(calls) <= field.q.bit_length()
    assert table.elem(field.q - 2) == g ** (field.q - 2)
