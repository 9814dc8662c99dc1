"""Finite field construction, embeddings, torus enumeration, discrete-log tables."""

from __future__ import annotations

import itertools
import math
import random
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arith_lg import ffield
from arith_lg.budget import scope
from arith_lg.errors import BudgetExceeded, InputError
from arith_lg.ffarray import lane_width, table_bytes
from arith_lg.ffield import (_is_irreducible, _minus_x, _pgcd, _ppowmod, _prime_factors,
                             _is_prime, discrete_table, embed, enumerate_torus,
                             field_from_modulus, make_field, multiplicative_generator,
                             torus_size, trace_to_prime)
from test_torus_kernel import check_level_sets


def poly_eval_mod(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def independent_first_irreducible(p, m):
    """Oracle: scan monic degree-m polynomials in ascending integer
    encoding sum(c_i p^i) and return the first irreducible one, deciding
    irreducibility by trial division against all lower-degree monics."""
    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    monics = {d: [list(t) + [1] for t in itertools.product(range(p), repeat=d)]
              for d in range(1, m)}
    for enc in range(p ** m):
        coeffs = [(enc // p ** i) % p for i in range(m)] + [1]
        reducible = False
        for d in range(1, m // 2 + 1):
            for f in monics.get(d, []):
                for g in monics.get(m - d, []):
                    if poly_mul(f, g) == coeffs:
                        reducible = True
                        break
                if reducible:
                    break
            if reducible:
                break
        if not reducible:
            return tuple(coeffs)
    raise AssertionError("no irreducible found")


class TestFieldConstruction:
    def test_prime_field_modulus_is_x(self):
        assert make_field(5, 1).modulus == (0, 1)
        assert make_field(2, 1).modulus == (0, 1)

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)])
    def test_canonical_modulus_matches_exhaustive_scan(self, p, m):
        assert make_field(p, m).modulus == independent_first_irreducible(p, m)

    def test_known_moduli(self):
        # frozen values, independently recomputable by the scan oracle
        assert make_field(2, 2).modulus == (1, 1, 1)      # x^2 + x + 1
        assert make_field(2, 3).modulus == (1, 1, 0, 1)   # x^3 + x + 1
        assert make_field(3, 2).modulus == (1, 0, 1)      # x^2 + 1
        assert make_field(5, 2).modulus == (2, 0, 1)      # x^2 + 2

    def test_rejects_composite_characteristic(self):
        with pytest.raises(InputError, match="6 is not prime"):
            make_field(6, 1)
        with pytest.raises(InputError, match="^1 is not prime"):
            make_field(1, 2)

    def test_rejects_degree_zero(self):
        with pytest.raises(InputError, match="extension degree must be >= 1, got 0"):
            make_field(5, 0)

    def test_field_from_modulus_validates(self):
        f = field_from_modulus(2, (1, 1, 1))
        assert f.q == 4
        with pytest.raises(Exception):
            field_from_modulus(2, (1, 0, 1))  # (x+1)^2, reducible

    def test_element_coordinate_validation(self):
        F9 = make_field(3, 2)
        with pytest.raises(Exception):
            F9.element((1, 2, 0))
        assert F9.element((4, -1)).coords == (1, 2)

    def test_from_int(self):
        F9 = make_field(3, 2)
        assert F9.from_int(7).coords == (1, 0)
        assert F9.from_int(-1) == F9.from_int(2)


def divides(g, f, p):
    """Whether the monic g divides f over F_p, by long division."""
    rem = list(f)
    d = len(g) - 1
    for shift in range(len(f) - 1 - d, -1, -1):
        c = rem[shift + d]
        for i, gi in enumerate(g):
            rem[shift + i] = (rem[shift + i] - c * gi) % p
    return not any(rem)


def monics(p, m):
    return [low + (1,) for low in itertools.product(range(p), repeat=m)]


def irreducible_by_trial_division(f, p):
    m = len(f) - 1
    return not any(divides(g, f, p) for d in range(1, m // 2 + 1) for g in monics(p, d))


# monic irreducibles of degree m over F_p: (1/m) sum_{d | m} mu(d) p^(m/d)
IRREDUCIBLE_COUNTS = {(2, 1): 2, (2, 2): 1, (2, 3): 2, (2, 4): 3, (2, 5): 6,
                      (3, 1): 3, (3, 2): 3, (3, 3): 8, (3, 4): 18, (3, 5): 48,
                      (5, 1): 5, (5, 2): 10, (5, 3): 40}


def rabin_is_irreducible(f, p):
    """Reference: Rabin's test for a monic f of degree m >= 1 over F_p.
    f is irreducible iff x^(p^m) = x mod f and gcd(x^(p^(m/l)) - x, f) = 1
    for every prime l dividing m; all m Frobenius powers come first."""
    m = len(f) - 1
    if m == 1:
        return True
    frob = [(0, 1)]
    for _ in range(m):
        frob.append(_ppowmod(frob[-1], p, f, p))
    if _minus_x(frob[m], p):
        return False
    return all(_pgcd(_minus_x(frob[m // ell], p), f, p) == (1,) for ell in _prime_factors(m))


# every (p, m), m >= 2, with p^m <= 10^6
SMALL_FIELDS = [(p, m) for p in range(2, 1001) if _is_prime(p)
                for m in range(2, 20) if p ** m <= 10 ** 6]


class TestIrreducibility:
    """Ben-Or's test, behind make_field and field_from_modulus, against
    trial division on every monic polynomial of small degree, and against
    Rabin's test, the reference, on the moduli scans of small fields."""

    @pytest.mark.parametrize("p,m", sorted(IRREDUCIBLE_COUNTS))
    def test_rabin_agrees_with_trial_division(self, p, m):
        verdicts = {f: irreducible_by_trial_division(f, p) for f in monics(p, m)}
        assert sum(verdicts.values()) == IRREDUCIBLE_COUNTS[p, m]
        assert {f: rabin_is_irreducible(f, p) for f in verdicts} == verdicts
        assert {f: _is_irreducible(f, p) for f in verdicts} == verdicts

    def test_moduli_scans_agree_with_rabin(self):
        # make_field's scan, replayed under the reference: each candidate
        # before the first irreducible one is refused by field_from_modulus,
        # and the first is make_field's modulus
        assert len(SMALL_FIELDS) > 200
        for p, m in SMALL_FIELDS:
            for code in itertools.count():
                f = tuple(code // p ** i % p for i in range(m)) + (1,)
                if rabin_is_irreducible(f, p):
                    break
                with pytest.raises(InputError, match="not irreducible"):
                    field_from_modulus(p, f)
            assert make_field(p, m).modulus == f, (p, m)

    @pytest.mark.parametrize("p,m", [pm for pm in sorted(IRREDUCIBLE_COUNTS) if pm[1] >= 2])
    def test_field_from_modulus_accepts_exactly_the_irreducibles(self, p, m):
        for f in monics(p, m):
            if irreducible_by_trial_division(f, p):
                assert field_from_modulus(p, f).modulus == f
            else:
                with pytest.raises(InputError, match="not irreducible"):
                    field_from_modulus(p, f)

    @pytest.mark.parametrize("p,m", [(2, 4), (3, 3)])
    def test_gcd_is_the_largest_monic_common_divisor(self, p, m):
        rng = random.Random(p)
        polys = [c for d in range(m + 1) for c in itertools.product(range(p), repeat=d + 1)
                 if c[-1]]
        divisors = [g for d in range(m + 1) for g in monics(p, d)]
        for _ in range(300):
            a, b = rng.choice(polys), rng.choice(polys)
            common = [g for g in divisors if divides(g, a, p) and divides(g, b, p)]
            assert _pgcd(a, b, p) == max(common, key=len)


# ffield._CANONICAL holds every canonical field with m >= 2 and q up to
# this bound; TABLED lists them from the table's own layout
TABLE_BOUND = 2 ** 16
TABLED = [(p, m) for p, row in ffield._CANONICAL.items() for m in range(2, 2 + len(row) // 2)]


def encode(digits, p):
    """sum(d_i p^i) over the digits, lowest first: _digits's inverse."""
    return sum(d * p ** i for i, d in enumerate(digits))


def regenerated_table():
    """_CANONICAL rebuilt by calling the two searches directly."""
    rows = {}
    for p in range(2, math.isqrt(TABLE_BOUND) + 1):
        if _is_prime(p):
            row, m = [], 2
            while p ** m <= TABLE_BOUND:
                modulus = ffield._first_irreducible(p, m)
                g = ffield._first_generator(ffield.FieldSpec(p, m, modulus))
                row += [encode(modulus[:-1], p), encode(g.coords[::-1], p)]
                m += 1
            rows[p] = tuple(row)
    return rows


def table_literal(rows, width=88):
    """The _CANONICAL assignment as it stands in ffield.py: whole entries
    packed into lines of at most width characters, an entry too long for
    one line wrapped on lines of its own."""
    lines, line = [], "   "
    for p, codes in rows.items():
        entry = f"{p}: ({', '.join(map(str, codes))}),"
        if len(line) + 1 + len(entry) <= width:
            line += " " + entry
            continue
        lines.append(line)
        line, *rest = textwrap.wrap(entry, width, initial_indent="    ",
                                    subsequent_indent="        ")
        if rest:
            lines += [line, *rest]
            line = "   "
    lines.append(line)
    return "\n".join(["_CANONICAL = {", *(ln for ln in lines if ln.strip()), "}"])


def counting(monkeypatch, *names):
    """Calls to the named ffield functions from here on, by name."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _real=getattr(ffield, name)):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(ffield, name, counted)
    return counts


class TestCanonicalTable:
    """make_field and multiplicative_generator read fields with
    p^m <= TABLE_BOUND from _CANONICAL; above it, and for a
    field_from_modulus field with another modulus, they search."""

    def test_table_is_what_the_searches_find(self):
        rows = regenerated_table()
        assert (len(rows), sum(len(row) // 2 for row in rows.values())) == (54, 93)
        assert ffield._CANONICAL == rows, (
            "regenerated table, to paste into ffield.py:\n" + table_literal(rows))

    def test_table_literal_reproduces_the_source(self):
        source = Path(ffield.__file__).read_text()
        assert table_literal(ffield._CANONICAL) + "\n" in source

    @pytest.mark.parametrize("p,m", TABLED)
    def test_tabled_fields_make_no_field_products(self, monkeypatch, p, m):
        counts = counting(monkeypatch, "_pmulmod", "_is_irreducible")
        field = make_field.__wrapped__(p, m)
        g = multiplicative_generator.__wrapped__(field)
        assert counts == {"_pmulmod": 0, "_is_irreducible": 0}
        codes = ffield._canonical_codes(p, m)
        assert (encode(field.modulus[:-1], p), encode(g.coords[::-1], p)) == codes

    @pytest.mark.parametrize("p,m", [(2, 17), (3, 11), (257, 2)])
    def test_fields_past_the_bound_search(self, monkeypatch, p, m):
        assert p ** m > TABLE_BOUND and not ffield._canonical_codes(p, m)
        counts = counting(monkeypatch, "_pmulmod", "_is_irreducible")
        field = make_field.__wrapped__(p, m)
        assert counts["_is_irreducible"] > 0
        for code in itertools.count():
            f = ffield._digits(code, p, m) + (1,)
            if rabin_is_irreducible(f, p):
                break
        assert field.modulus == f
        before = counts["_pmulmod"]
        g = multiplicative_generator.__wrapped__(field)
        assert counts["_pmulmod"] > before
        assert all(g ** ((field.q - 1) // ell) != 1 for ell in _prime_factors(field.q - 1))

    def test_other_moduli_search(self, monkeypatch):
        K64 = field_from_modulus(2, (1, 0, 0, 0, 0, 1, 1))
        assert ffield._canonical_codes(2, 6) and K64 != make_field(2, 6)
        counts = counting(monkeypatch, "_pmulmod")
        g = multiplicative_generator.__wrapped__(K64)
        assert counts["_pmulmod"] > 0
        assert g == ffield._first_generator(K64)

    @pytest.mark.parametrize("p,m", [(2, 6), (3, 4), (251, 2)])
    def test_canonical_modulus_given_explicitly_reads_the_table(self, monkeypatch, p, m):
        field = field_from_modulus(p, make_field(p, m).modulus)
        counts = counting(monkeypatch, "_pmulmod")
        g = multiplicative_generator.__wrapped__(field)
        assert counts["_pmulmod"] == 0
        assert encode(g.coords[::-1], p) == ffield._canonical_codes(p, m)[1]
        assert g == ffield._first_generator(field)


coords9 = st.tuples(st.integers(0, 2), st.integers(0, 2))
coords8 = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))


class TestArithmetic:
    @given(coords9, coords9, coords9)
    @settings(deadline=None, max_examples=60)
    def test_ring_axioms_f9(self, a, b, c):
        F = make_field(3, 2)
        x, y, z = F.element(a), F.element(b), F.element(c)
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x + y == y + x
        assert x * y == y * x
        assert x - y == x + (-y) and 1 - x == F.one() + (-x)

    @given(coords8)
    @settings(deadline=None, max_examples=30)
    def test_inverse_f8(self, a):
        F = make_field(2, 3)
        x = F.element(a)
        if x:
            assert x * x.inverse() == F.one()
            assert x ** -1 == x.inverse() == 1 / x
        else:
            with pytest.raises(ZeroDivisionError):
                x.inverse()

    @given(coords9, coords9)
    @settings(deadline=None, max_examples=40)
    def test_frobenius_is_additive(self, a, b):
        F = make_field(3, 2)
        x, y = F.element(a), F.element(b)
        assert (x + y) ** 3 == x ** 3 + y ** 3

    def test_pow_matches_repeated_multiplication(self):
        F = make_field(5, 2)
        g = multiplicative_generator(F)
        acc = F.one()
        for k in range(10):
            assert g ** k == acc
            acc = acc * g

    def test_prime_field_division(self):
        F7 = make_field(7, 1)
        assert F7.from_int(3) / F7.from_int(5) == F7.from_int(2)  # 3 * 5^{-1} = 3*3 = 2


def frobenius_traces(field):
    """Reference for ffield._basis_traces: Tr(X^j) as the Frobenius sum
    X^j + (X^j)^p + ... + (X^j)^(p^(m-1)), which lands in F_p."""
    out = []
    for j in range(field.m):
        x = field.element(tuple(int(i == j) for i in range(field.m)))
        acc = field.zero()
        for _ in range(field.m):
            acc, x = acc + x, x ** field.p
        assert not any(acc.coords[1:])
        out.append(acc.coords[0])
    return tuple(out)


def small_fields(qmax):
    """(p, m) of every canonical field F_{p^m}, m >= 2, with p^m <= qmax."""
    for p in range(2, math.isqrt(qmax) + 1):
        if ffield._is_prime(p):
            yield from ((p, m) for m in range(2, qmax.bit_length()) if p ** m <= qmax)


class TestTrace:
    def test_basis_traces_are_the_frobenius_sums(self):
        fields = [make_field(p, m) for p, m in small_fields(10 ** 6)]
        fields += [make_field(p, m) for p, m in [(131, 3), (131, 4), (257, 3)]]
        fields += [field_from_modulus(2, (1, 1, 1)), field_from_modulus(3, (2, 1, 1)),
                   field_from_modulus(3, (1, 0, 1, 1, 1)),
                   field_from_modulus(2, (1, 0, 0, 0, 0, 1, 1))]
        assert len(fields) > 200
        for F in fields:
            assert ffield._basis_traces(F) == frobenius_traces(F), F

    def test_trace_of_f4_generator(self):
        F4 = make_field(2, 2)
        g = multiplicative_generator(F4)
        assert trace_to_prime(g) == 1
        assert trace_to_prime(F4.one()) == 0  # 1 + 1 = 0 in char 2

    def test_trace_of_one_is_degree_mod_p(self):
        for p, m in [(2, 3), (3, 2), (3, 3), (5, 2), (7, 2)]:
            F = make_field(p, m)
            assert trace_to_prime(F.one()) == m % p

    @given(coords9, coords9)
    @settings(deadline=None, max_examples=40)
    def test_trace_linear_f9(self, a, b):
        F = make_field(3, 2)
        x, y = F.element(a), F.element(b)
        assert trace_to_prime(x + y) == (trace_to_prime(x) + trace_to_prime(y)) % 3

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 2)])
    def test_trace_fibers_have_equal_size(self, p, m):
        F = make_field(p, m)
        counts = [0] * p
        for t in itertools.product(range(p), repeat=m):
            counts[trace_to_prime(F.element(t))] += 1
        assert counts == [p ** (m - 1)] * p

    @given(coords9)
    @settings(deadline=None, max_examples=30)
    def test_trace_frobenius_invariant(self, a):
        F = make_field(3, 2)
        x = F.element(a)
        assert trace_to_prime(x ** 3) == trace_to_prime(x)


class TestEmbeddings:
    def test_identity(self):
        F9 = make_field(3, 2)
        x = F9.element((1, 2))
        assert embed(x, F9) is x

    def test_prime_field_embeds_as_constants(self):
        F3, F9 = make_field(3, 1), make_field(3, 2)
        assert embed(F3.from_int(2), F9) == F9.from_int(2)

    def test_wrong_characteristic_raises(self):
        with pytest.raises(InputError, match="cannot embed characteristic 2 into characteristic 3"):
            embed(make_field(2, 1).one(), make_field(3, 2))

    def test_non_divisible_degree_raises(self):
        with pytest.raises(InputError, match=r"GF\(2\^3\) is not an extension of GF\(2\^2\)"):
            embed(make_field(2, 2).one(), make_field(2, 3))

    def test_embedding_is_ring_hom(self):
        F9, F81 = make_field(3, 2), make_field(3, 4)
        els = [F9.element(t) for t in itertools.product(range(3), repeat=2)]
        for x in els:
            for y in els:
                assert embed(x + y, F81) == embed(x, F81) + embed(y, F81)
                assert embed(x * y, F81) == embed(x, F81) * embed(y, F81)

    def test_embedding_injective(self):
        F4, F16 = make_field(2, 2), make_field(2, 4)
        images = {embed(F4.element(t), F16).coords
                  for t in itertools.product(range(2), repeat=2)}
        assert len(images) == 4

    def test_tower_composition_coherent(self):
        F4, F16, F256 = make_field(2, 2), make_field(2, 4), make_field(2, 8)
        for t in itertools.product(range(2), repeat=2):
            a = F4.element(t)
            assert embed(embed(a, F16), F256) == embed(a, F256)

    def test_tower_composition_coherent_char3(self):
        F3, F9, F81 = make_field(3, 1), make_field(3, 2), make_field(3, 4)
        for k in range(3):
            a = F3.from_int(k)
            assert embed(embed(a, F9), F81) == embed(a, F81)

    def test_trace_compatible_with_towers(self):
        # Tr_{F81/F3} = Tr_{F9/F3} o Tr_{F81/F9}; restricted to F9 the inner
        # trace doubles, so Tr81(embed(a)) = Tr9(2a)
        F9, F81 = make_field(3, 2), make_field(3, 4)
        for t in itertools.product(range(3), repeat=2):
            a = F9.element(t)
            assert trace_to_prime(embed(a, F81)) == trace_to_prime(a + a)

    def test_image_satisfies_source_modulus(self):
        F9, F81 = make_field(3, 2), make_field(3, 4)
        x = embed(F9.element((0, 1)), F81)
        # x^2 + 1 = 0 must transport
        assert x * x + F81.one() == F81.zero()


class TestCustomModuli:
    """Fields from field_from_modulus as embedding sources and targets."""

    K9 = field_from_modulus(3, (2, 1, 1))         # X^2 + X + 2
    K81 = field_from_modulus(3, (1, 0, 1, 1, 1))  # X^4 + X^3 + X^2 + 1
    C9, C81 = make_field(3, 2), make_field(3, 4)

    def elements(self, field):
        return [field.element(t) for t in itertools.product(range(3), repeat=field.m)]

    @pytest.mark.parametrize("target", ["C81", "K81"])
    def test_ring_hom(self, target):
        T = getattr(self, target)
        els = self.elements(self.K9)
        assert len({embed(x, T) for x in els}) == 9
        for x in els:
            for y in els:
                assert embed(x + y, T) == embed(x, T) + embed(y, T)
                assert embed(x * y, T) == embed(x, T) * embed(y, T)

    @pytest.mark.parametrize("custom,standard", [("K9", "C9"), ("K81", "C81")])
    def test_round_trip(self, custom, standard):
        K, C = getattr(self, custom), getattr(self, standard)
        for x in self.elements(K):
            assert embed(embed(x, C), K) == x
        for y in self.elements(C):
            assert embed(embed(y, K), C) == y

    def test_coherent_with_the_standard_tower(self):
        for x in self.elements(self.K9):
            via_c9 = embed(x, self.C9)
            assert embed(x, self.C81) == embed(via_c9, self.C81) == embed(embed(x, self.K81), self.C81)
            assert embed(x, self.K81) == embed(via_c9, self.K81) == embed(embed(x, self.C81), self.K81)
        for y in self.elements(self.C9):
            assert embed(y, self.K81) == embed(embed(y, self.C81), self.K81)


class TestGenerator:
    def test_prime_field_generators(self):
        assert multiplicative_generator(make_field(5, 1)).coords == (2,)
        assert multiplicative_generator(make_field(7, 1)).coords == (3,)

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 2), (2, 4)])
    def test_generator_has_full_order(self, p, m):
        F = make_field(p, m)
        g = multiplicative_generator(F)
        q = F.q
        assert g ** (q - 1) == F.one()
        seen = set()
        acc = F.one()
        for _ in range(q - 1):
            seen.add(acc.coords)
            acc = acc * g
        assert len(seen) == q - 1

    def test_generator_is_first_in_lex_order(self):
        # on every tabled field with q <= 2^10, element orders by repeated
        # multiplication, not by the search's cofactor test
        def order(x):
            k, acc = 1, x
            while acc != x.field.one():
                acc, k = acc * x, k + 1
            return k

        small = [(p, m) for p, m in TABLED if p ** m <= 2 ** 10]
        assert len(small) == 26
        for p, m in small:
            F = make_field(p, m)
            g = multiplicative_generator(F)
            assert order(g) == F.q - 1
            for t in itertools.product(range(p), repeat=m):
                if t == g.coords:
                    break
                if any(t):
                    assert order(F.element(t)) < F.q - 1, f"{t} generates but precedes {g.coords}"


class TestTorusEnumeration:
    def test_cardinality(self):
        F5 = make_field(5, 1)
        assert torus_size(F5, 2) == 16
        pts = list(enumerate_torus(F5, 2))
        assert len(pts) == 16
        assert len({tuple(x.coords for x in pt) for pt in pts}) == 16

    def test_no_zero_coordinates(self):
        F4 = make_field(2, 2)
        for pt in enumerate_torus(F4, 3):
            assert all(x for x in pt)

    def test_budget_enforced(self):
        F5 = make_field(5, 1)
        with pytest.raises(BudgetExceeded) as exc, scope(budget=1000):
            list(enumerate_torus(F5, 8))
        assert exc.value.required > exc.value.budget

    def test_deterministic_order(self):
        F7 = make_field(7, 1)
        a = [tuple(x.coords for x in pt) for pt in enumerate_torus(F7, 2)]
        b = [tuple(x.coords for x in pt) for pt in enumerate_torus(F7, 2)]
        assert a == b


class TestDiscreteTable:
    @pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 1), (5, 2)])
    def test_log_exp_roundtrip(self, p, m):
        F = make_field(p, m)
        tab = discrete_table(F)
        g = multiplicative_generator(F)
        for e in range(F.q - 1):
            assert tab.elem(e) == g ** e
            assert tab.log(g ** e) == e
        assert tab.log(F.zero()) is None

    def test_two_term_sums_oracle(self):
        # g^e1 + g^e2 is the two-term polynomial t1 + t2 at (g^e1, g^e2):
        # the kernel's level sets of t1 + t2 are those of these values
        F = make_field(3, 2)
        tab = discrete_table(F)
        g = multiplicative_generator(F)
        check_level_sets(tab, 2, [0, 0], [(1, 0), (0, 1)],
                         [g ** e1 + g ** e2 for e1, e2 in itertools.product(range(8), repeat=2)])

    def test_trace_by_exp(self):
        # the trace column, on byte lanes and on 2- and 4-byte lanes
        for p, m in [(5, 2), (2, 6), (131, 1), (257, 1)]:
            F = make_field(p, m)
            tab = discrete_table(F)
            g = multiplicative_generator(F)
            W = tab.width
            lanes = tab.trace_column()
            assert len(lanes) == (F.q - 1) * W
            for e in range(F.q - 1):
                lane = int.from_bytes(lanes[e * W:(e + 1) * W], sys.byteorder)
                assert lane == trace_to_prime(g ** e)

    def test_sum_terms_matches_elementwise(self):
        F = make_field(3, 2)
        tab = discrete_table(F)
        g = multiplicative_generator(F)
        logs = [0, 3, 5]
        weights = [(1, 2), (2, 1), (1, 1)]
        check_level_sets(tab, 2, logs, weights,
                         [sum((g ** ((lg + sum(w * x for w, x in zip(ws, e))) % 8)
                               for lg, ws in zip(logs, weights)), F.zero())
                          for e in itertools.product(range(8), repeat=2)])

    @pytest.mark.parametrize("p,m,width", [(2, 3, 1), (127, 1, 1), (131, 1, 2),
                                           (181, 1, 2), (191, 1, 4), (257, 1, 4)])
    def test_lane_widths(self, p, m, width):
        # one byte while two residues fit it, then room for a product of
        # two residues plus one, with the top bit spare
        assert lane_width(p) == width
        F = make_field(p, m)
        tab = discrete_table(F)
        assert tab.width == width
        g = multiplicative_generator(F)
        for e in range(0, F.q - 1, max(1, (F.q - 1) // 40)):
            assert tab.elem(e) == g ** e
            assert tab.log(g ** e) == e

    def test_table_refused_past_physical_memory(self, monkeypatch):
        # the probe is replaced: GF(7^3) needs 4 lanes of a byte for each
        # of its 343 elements, 1372 bytes, and the machine is given 1371
        F = make_field(7, 3)
        assert table_bytes(F) == 1372
        discrete_table.cache_clear()
        monkeypatch.setattr(ffield, "_physical_memory", lambda: 1371)
        with pytest.raises(BudgetExceeded) as exc, scope(budget=10 ** 6):
            discrete_table(F)
        assert "GF(7^3)" in str(exc.value)
        assert (exc.value.required, exc.value.budget) == (1372, 1371)
        monkeypatch.setattr(ffield, "_physical_memory", lambda: 1372)
        with scope(budget=10 ** 6):
            tab = discrete_table(F)
        assert sum(map(len, tab.columns)) + len(tab.trace_column()) <= table_bytes(F)
