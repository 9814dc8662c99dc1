import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from arith_lg.cyclotomic import CycloNum, CycloPoly
from arith_lg.errors import InputError, ParseError
from arith_lg.ffield import make_field
from arith_lg.mpoly import MPoly, RatFunc
from arith_lg.problemio import (ProblemFile, _decimal, _fraction, _is_decimal,
                                _parse_mpoly, _var_index, jsonable, load_json_file,
                                parse_connection, parse_element_arg,
                                parse_field, parse_fts_tuple,
                                parse_nilpotent_matrix, parse_point_arg,
                                parse_problem)

KLOOSTERMAN = {
    "field": {"p": "5"},
    "n": 1,
    "f": [{"c": "1", "w": [1]}, {"c": "1", "w": [-1]}],
    "deformations": [[{"c": "1", "w": [0]}]],
}


def path_of(excinfo) -> str:
    return excinfo.value.path


class TestParseField:
    def test_canonical(self):
        F = parse_field({"p": "5", "m": 2})
        assert F.p == 5 and F.m == 2

    def test_prime_default(self):
        assert parse_field({"p": "7"}).m == 1

    def test_explicit_modulus(self):
        F = parse_field({"p": "5", "m": 2, "modulus": ["2", "0", "1"]})
        assert F.modulus == (2, 0, 1)

    def test_degree_one_modulus_is_x(self):
        assert parse_field({"p": "5", "m": 1, "modulus": ["0", "1"]}) == parse_field({"p": "5"})

    def test_modulus_length_mismatch(self):
        with pytest.raises(ParseError) as e:
            parse_field({"p": "5", "m": 2, "modulus": ["2", "1"]})
        assert "modulus" in path_of(e)

    def test_p_must_be_string(self):
        with pytest.raises(ParseError) as e:
            parse_field({"p": 5})
        assert path_of(e) == "field.p"

    def test_unknown_key(self):
        with pytest.raises(ParseError) as e:
            parse_field({"p": "5", "degree": 2})
        assert path_of(e) == "field.degree"

    def test_bool_is_not_a_size(self):
        with pytest.raises(ParseError):
            parse_field({"p": "5", "m": True})

    def test_composite_characteristic(self):
        with pytest.raises(ParseError):
            parse_field({"p": "6"})


class TestParseProblem:
    def test_kloosterman(self):
        pf = parse_problem(KLOOSTERMAN)
        assert isinstance(pf, ProblemFile)
        assert pf.field.q == 5 and pf.deformation.base.n == 1 and pf.m == 1
        assert pf.deformation.kind == "subdiagram"
        assert pf.budget is None and pf.tolerance is None

    def test_no_deformations(self):
        obj = {"field": {"p": "3"}, "n": 1, "f": KLOOSTERMAN["f"]}
        pf = parse_problem(obj)
        assert pf.m == 0

    def test_extension_coefficients(self):
        obj = {"field": {"p": "5", "m": 2}, "n": 1,
               "f": [{"c": ["1", "2"], "w": [1]}, {"c": "1", "w": [-1]}]}
        pf = parse_problem(obj)
        w = pf.deformation.base.coefficient((1,))
        assert w.coords == (1, 2)

    def test_explicit_table(self):
        # no command reads a monomial table, so a file may not give one,
        # even a valid one
        with pytest.raises(ParseError, match="unknown key") as e:
            parse_problem(dict(KLOOSTERMAN, table=[[1], [-1], [0]]))
        assert path_of(e) == "$.table"

    def test_duplicate_table_point(self):
        obj = dict(KLOOSTERMAN, table=[[1], [1]])
        with pytest.raises(ParseError) as e:
            parse_problem(obj)
        assert "table" in path_of(e)

    def test_direction_outside_polytope(self):
        obj = dict(KLOOSTERMAN, deformations=[[{"c": "1", "w": [2]}]])
        with pytest.raises(ParseError):
            parse_problem(obj)

    def test_bad_kind(self):
        obj = dict(KLOOSTERMAN, kind="linear")
        with pytest.raises(ParseError) as e:
            parse_problem(obj)
        assert path_of(e) == "$.kind"

    def test_budget(self):
        obj = dict(KLOOSTERMAN, budget="1000")
        assert parse_problem(obj).budget == 1000

    def test_command_line_budget_comes_first(self):
        # the command's budget is resolved once: the flag, else the file's
        assert parse_problem(dict(KLOOSTERMAN, budget="1000"), budget=7).budget == 7
        assert parse_problem(KLOOSTERMAN, budget=7).budget == 7

    def test_budget_positive(self):
        with pytest.raises(ParseError):
            parse_problem(dict(KLOOSTERMAN, budget="0"))
        with pytest.raises(ParseError):  # checked even when a flag overrides it
            parse_problem(dict(KLOOSTERMAN, budget="0"), budget=7)

    def test_field_is_the_base_field(self):
        pf = parse_problem({"field": {"p": "5", "m": 2}, "n": 1, "f": KLOOSTERMAN["f"]})
        assert pf.field is pf.deformation.base.field and pf.field.q == 25

    def test_tolerance(self):
        obj = dict(KLOOSTERMAN, tolerance="1e-9")
        assert parse_problem(obj).tolerance == 1e-9

    def test_tolerance_must_be_string(self):
        with pytest.raises(ParseError):
            parse_problem(dict(KLOOSTERMAN, tolerance=1e-9))

    @pytest.mark.parametrize("raw", ["nan", "inf", "Infinity", "1e999", "-inf"])
    def test_tolerance_must_be_finite(self, raw):
        # nan fails every float verdict and inf passes every one
        with pytest.raises(ParseError, match="finite") as e:
            parse_problem(dict(KLOOSTERMAN, tolerance=raw))
        assert path_of(e) == "$.tolerance"

    def test_unknown_key(self):
        with pytest.raises(ParseError) as e:
            parse_problem(dict(KLOOSTERMAN, extra=1))
        assert path_of(e) == "$.extra"

    def test_term_paths(self):
        obj = {"field": {"p": "5"}, "n": 1, "f": [{"c": "1", "w": [1, 2]}]}
        with pytest.raises(ParseError) as e:
            parse_problem(obj)
        assert path_of(e) == "$.f[0].w"

    def test_n_is_structural(self):
        obj = dict(KLOOSTERMAN, n="1")
        with pytest.raises(ParseError) as e:
            parse_problem(obj)
        assert path_of(e) == "$.n"


CONN = {
    "m": 1, "size": 1,
    "dt": [[{"num": [{"c": "1", "deg": {"x1": 1}}],
             "den": [{"c": "1", "deg": {"t": 2}}]}]],
    "dx": [[[{"num": [{"c": "-1"}], "den": [{"c": "1", "deg": {"t": 1}}]}]]],
}


class TestParsePolynomials:
    def test_connection(self):
        A = parse_connection(CONN)
        assert A.size == 1 and A.nvars == 2 and A.degree == 1
        t = MPoly.variable(2, 0)
        x = MPoly.variable(2, 1)
        assert A.component((0,))[0][0] == RatFunc(x, t * t)
        assert A.component((1,))[0][0] == RatFunc(MPoly.const(2, -1), t)

    def test_fraction_coefficient(self):
        obj = {"m": 1, "size": 1, "dx": [[[[{"c": "3/2", "deg": {"x1": 2}}]]]]}
        A = parse_connection(obj)
        x = MPoly.variable(2, 1)
        assert A.component((1,))[0][0] == RatFunc(x * x * Fraction(3, 2))

    def test_unknown_variable(self):
        obj = {"m": 1, "size": 1, "dx": [[[[{"c": "1", "deg": {"x0": 1}}]]]]}
        with pytest.raises(ParseError) as e:
            parse_connection(obj)
        assert "deg.x0" in path_of(e)

    def test_variable_out_of_range(self):
        obj = {"m": 1, "size": 1, "dx": [[[[{"c": "1", "deg": {"x2": 1}}]]]]}
        with pytest.raises(ParseError) as e:
            parse_connection(obj)
        assert "x2" in path_of(e)

    def test_negative_degree(self):
        obj = {"m": 1, "size": 1, "dx": [[[[{"c": "1", "deg": {"t": -1}}]]]]}
        with pytest.raises(ParseError):
            parse_connection(obj)

    def test_zero_denominator(self):
        obj = {"m": 1, "size": 1, "dx": [[[{"num": [{"c": "1"}], "den": []}]]]}
        with pytest.raises(ParseError) as e:
            parse_connection(obj)
        assert path_of(e).endswith("den")

    def test_wrong_matrix_count(self):
        obj = {"m": 2, "size": 1, "dx": [[[[{"c": "1"}]]]]}
        with pytest.raises(ParseError) as e:
            parse_connection(obj)
        assert path_of(e) == "$.dx"

    def test_ragged_row(self):
        obj = {"m": 1, "size": 2, "dt": [[[{"c": "1"}]], [[{"c": "1"}]]]}
        with pytest.raises(ParseError):
            parse_connection(obj)


COEFFS = ["0", "-0", "1", "-1", "2", "-3", "007", "12", "3/2", "-4/8", "1/3", "6/3", "-0/5"]


def random_term_list(rng, m):
    """Terms over few exponents, so that some repeat; some come with their
    negation, so that they cancel; about one list in three draws from the
    Fraction coefficients too."""
    names = ["t"] + [f"x{i}" for i in range(1, m + 1)]
    coeffs = COEFFS if rng.random() < 0.35 else COEFFS[:8]
    terms = []
    for _ in range(rng.randrange(7)):
        deg = {name: rng.randrange(3) for name in rng.sample(names, rng.randrange(len(names) + 1))}
        c = rng.choice(coeffs)
        terms.append({"c": c, "deg": deg} if deg or rng.random() < 0.5 else {"c": c})
        if rng.random() < 0.25:
            terms.append(dict(terms[-1], c=c[1:] if c.startswith("-") else "-" + c))
    return terms


def mpoly_oracle(terms, m):
    """The public constructor on the same terms."""
    index = {"t": 0, **{f"x{i}": i for i in range(1, m + 1)}}
    out = []
    for term in terms:
        exps = [0] * (m + 1)
        for name, d in term.get("deg", {}).items():
            exps[index[name]] = d
        out.append((exps, Fraction(term["c"])))
    return MPoly(m + 1, out)


class TestParseMPoly:
    def test_direct_parse_is_the_constructor(self):
        rng = random.Random(20261020)
        lists = [[], [{"c": "0"}, {"c": "-0", "deg": {"t": 1}}],
                 [{"c": "2", "deg": {"x1": 1}}, {"c": "-2", "deg": {"x1": 1}}]]
        lists += [random_term_list(rng, 2) for _ in range(400)]
        for terms in lists:
            got, want = _parse_mpoly(terms, 2, "$"), mpoly_oracle(terms, 2)
            assert (got.nvars, got.denom, got.coeffs) == (want.nvars, want.denom, want.coeffs)
            assert all(type(c) is int for c in got.coeffs.values())

    def test_integer_terms_call_no_constructor(self, monkeypatch):
        calls = []
        init = MPoly.__init__

        def counted(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(MPoly, "__init__", counted)
        T = parse_fts_tuple(dict(TUPLE, g=[[[{"c": "1"}]]]))
        parse_connection(CONN)
        assert (T.r0[0][0].num, calls) == (-MPoly.variable(2, 1), [])
        # the guard can fail: a Fraction coefficient goes through MPoly(...)
        parse_fts_tuple(dict(TUPLE, rinf=[[[{"c": "3/2"}]]]))
        assert len(calls) == 1


ZERO1 = [[{"c": "0"}]]
TUPLE = {
    "size": 1, "m": 1,
    "A": [[ZERO1]],
    "phi": [[[[{"c": "1"}]]]],
    "r0": [[[{"c": "-1", "deg": {"x1": 1}}]]],
    "rinf": [[[{"c": "3"}]]],
}


class TestParseFtsTuple:
    def test_happy(self):
        T = parse_fts_tuple(TUPLE)
        assert T.size == 1 and T.m == 1 and T.g is None

    def test_metric(self):
        T = parse_fts_tuple(dict(TUPLE, g=[[[{"c": "1"}]]]))
        assert T.g is not None

    def test_t_dependence_rejected(self):
        bad = dict(TUPLE, r0=[[[{"c": "1", "deg": {"t": 1}}]]])
        with pytest.raises(ParseError):
            parse_fts_tuple(bad)

    def test_wrong_component_count(self):
        bad = dict(TUPLE, A=[[ZERO1], [ZERO1]])
        with pytest.raises(ParseError) as e:
            parse_fts_tuple(bad)
        assert path_of(e) == "$.A"

    def test_missing_key(self):
        bad = {k: v for k, v in TUPLE.items() if k != "rinf"}
        with pytest.raises(ParseError) as e:
            parse_fts_tuple(bad)
        assert "rinf" in str(e.value)


def entry(*terms, m=1):
    """A one-entry connection whose dx entry is the given term list."""
    return {"m": m, "size": 1, "dx": [[[list(terms)]]]}


# a bad polynomial entry and the whole ParseError message it gets
TERM_ERRORS = {
    "entry-type": ({"m": 1, "size": 1, "dx": [[["x"]]]},
                   "$.dx[0][0][0]: expected a term list or {num, den}"),
    "num-type": ({"m": 1, "size": 1, "dx": [[[{"num": 5}]]]},
                 "$.dx[0][0][0].num: expected a list of terms"),
    "term-type": (entry(5), "$.dx[0][0][0][0]: expected an object, got int"),
    "term-list": (entry([]), "$.dx[0][0][0][0]: expected an object, got list"),
    "missing-c": (entry({"deg": {}}), "$.dx[0][0][0][0]: missing required key 'c'"),
    "unknown-key": (entry({"c": "1", "e": 1}), "$.dx[0][0][0][0].e: unknown key"),
    "c-int": (entry({"c": 1}),
              '$.dx[0][0][0][0].c: expected a rational string like "3/2", got 1'),
    "c-decimal-point": (entry({"c": "1", "deg": {}}, {"c": "1.5"}),
                        '$.dx[0][0][0][1].c: expected a rational string like "3/2", got \'1.5\''),
    "c-zero-denominator": (entry({"c": "1/0"}), "$.dx[0][0][0][0].c: zero denominator in '1/0'"),
    "deg-type": (entry({"c": "1", "deg": [1]}),
                 "$.dx[0][0][0][0].deg: expected an object of variable degrees"),
    "unknown-variable": (entry({"c": "1", "deg": {"x0": 1}}),
                         "$.dx[0][0][0][0].deg.x0: unknown variable"),
    "variable-out-of-range": (entry({"c": "1", "deg": {"x2": 1}}),
                              "$.dx[0][0][0][0].deg.x2: variable out of range for m = 1"),
    "negative-degree": (entry({"c": "1", "deg": {"t": -1}}),
                        "$.dx[0][0][0][0].deg.t: expected an integer >= 0, got -1"),
    "string-degree": (entry({"c": "1", "deg": {"x1": "1"}}),
                      "$.dx[0][0][0][0].deg.x1: expected an integer, got '1'"),
    "bool-degree": (entry({"c": "1", "deg": {"x1": True}}),
                    "$.dx[0][0][0][0].deg.x1: expected an integer, got True"),
    "zero-den": ({"m": 1, "size": 1, "dx": [[[{"num": [{"c": "1"}], "den": [{"c": "-0"}]}]]]},
                 "$.dx[0][0][0].den: denominator is zero"),
    "c-plus": (entry({"c": "+1"}),
               '$.dx[0][0][0][0].c: expected a rational string like "3/2", got \'+1\''),
    "c-negative-denominator": (entry({"c": "3/-2"}),
                               '$.dx[0][0][0][0].c: expected a rational string like "3/2", '
                               "got '3/-2'"),
    "leading-zero-variable": (entry({"c": "1", "deg": {"x01": 1}}),
                              "$.dx[0][0][0][0].deg.x01: unknown variable"),
    "wide-variable-out-of-range": (entry({"c": "1", "deg": {"x10": 1}}),
                                   "$.dx[0][0][0][0].deg.x10: variable out of range for m = 1"),
}


class TestParseErrorMessages:
    """Each bad polynomial entry is refused with its whole message pinned."""

    @pytest.mark.parametrize("case", list(TERM_ERRORS))
    def test_message(self, case):
        obj, message = TERM_ERRORS[case]
        with pytest.raises(ParseError) as e:
            parse_connection(obj)
        assert str(e.value) == message

    @pytest.mark.parametrize("c, value", [("-0", 0), ("007", 7), ("-12", -12),
                                          ("3/6", Fraction(1, 2)), ("-0/5", 0)])
    def test_coefficient_values(self, c, value):
        x = MPoly.variable(2, 1)
        A = parse_connection(entry({"c": c, "deg": {"x1": 1}}, {"c": "1"}))
        assert A.component((1,))[0][0] == RatFunc(x * value + 1)


# the grammar of exact strings as regular expressions: the oracle the
# parser's character tests must agree with
DECIMAL = re.compile(r"-?[0-9]+\Z")
FRACTION = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")
VARIABLE = re.compile(r"(t|x[1-9][0-9]*)\Z")

GRAMMAR_EDGES = ["", "-", "--1", "+1", " 1", "1 ", "1\n", "007", "-0", "٣", "²", "1_0",
                 "3/", "/2", "3/-2", "3/0", "-0/5", "1/2/3", "x0", "x01", "x10", "x",
                 "T", "t", "t1", "xx1", "x1\n", "x²", "x٣"]


def grammar_corpus(count=50000, seed=20261020):
    rng = random.Random(seed)
    alphabet = "0123456789" * 3 + "-/+ _\nxtT²٣"
    return [''.join(rng.choice(alphabet) for _ in range(rng.randrange(8)))
            for _ in range(count)]


def fraction_or_error(s):
    try:
        return _fraction(s, "$")
    except ParseError as exc:
        return str(exc)


class TestStringGrammar:
    """The parser reads exact strings with character tests; the regular
    expressions above are the grammar they must agree with, on the edge
    cases and on a seeded random corpus."""

    @pytest.mark.parametrize("strings", [GRAMMAR_EDGES, grammar_corpus()],
                             ids=["edges", "corpus"])
    def test_character_tests_agree_with_the_regular_expressions(self, strings):
        for s in strings:
            assert _is_decimal(s) == bool(DECIMAL.match(s)), s
            assert (_var_index(s) is not None) == bool(VARIABLE.match(s)), s
            if VARIABLE.match(s):
                assert _var_index(s) == (0 if s == "t" else int(s[1:]))
            if not FRACTION.match(s):
                expected = f'$: expected a rational string like "3/2", got {s!r}'
            elif "/" in s and not int(s.split("/")[1]):
                expected = f"$: zero denominator in {s!r}"
            else:
                expected = Fraction(s)
            got = fraction_or_error(s)
            assert (got, type(got)) == (expected, type(expected)), s

    def test_decimal_values_and_messages(self):
        assert _decimal("-007", "$") == -7
        for s in ("+1", " 1", "1_0", "²", ""):
            with pytest.raises(ParseError) as e:
                _decimal(s, "$.p")
            assert str(e.value) == f"$.p: expected a decimal string, got {s!r}"


class TestParseNilpotentMatrix:
    def test_happy(self):
        N = parse_nilpotent_matrix({"matrix": [["0", "1/2"], ["0", "0"]]})
        assert N == ((Fraction(0), Fraction(1, 2)), (Fraction(0), Fraction(0)))

    def test_ragged(self):
        with pytest.raises(ParseError) as e:
            parse_nilpotent_matrix({"matrix": [["0", "1"], ["0"]]})
        assert "matrix[1]" in path_of(e)

    def test_not_a_number(self):
        with pytest.raises(ParseError) as e:
            parse_nilpotent_matrix({"matrix": [["0", "a"], ["0", "0"]]})
        assert "[0][1]" in path_of(e)

    def test_zero_denominator(self):
        with pytest.raises(ParseError) as e:
            parse_nilpotent_matrix({"matrix": [["0", "1/0"], ["0", "0"]]})
        assert str(e.value) == "$.matrix[0][1]: zero denominator in '1/0'"

    def test_entry_values(self):
        N = parse_nilpotent_matrix({"matrix": [["-0", "007"], ["3/6", "-4/8"]]})
        assert N == ((0, 7), (Fraction(1, 2), Fraction(-1, 2)))
        assert all(type(x) is Fraction for row in N for x in row)


class TestElementArgs:
    def test_plain_integer(self):
        F5 = make_field(5, 1)
        assert parse_element_arg("3", F5) == F5.from_int(3)
        assert parse_element_arg("-1", F5) == F5.from_int(4)

    def test_extension_coordinates(self):
        F25 = make_field(5, 2)
        assert parse_element_arg("1:2", F25) == F25.element([1, 2])

    def test_wrong_coordinate_count(self):
        with pytest.raises(ParseError):
            parse_element_arg("1:2", make_field(5, 1))

    def test_not_an_integer(self):
        with pytest.raises(ParseError):
            parse_element_arg("x", make_field(5, 1))

    @pytest.mark.parametrize("s", ["٢", " 2", "2 ", "+2", "0_2", "2\n",
                                   "1:+2", "1: 2", "1:٢"])
    def test_coordinates_follow_the_file_grammar(self, s):
        # int() alone takes each of these (Arabic-Indic digits, padding,
        # a sign, digit separators); a problem file refuses them
        with pytest.raises(ParseError) as e:
            parse_element_arg(s, make_field(5, 2), "tau")
        assert str(e.value) == f"tau: not an element: {s!r}"

    def test_point_coordinates_follow_the_file_grammar(self):
        with pytest.raises(ParseError) as e:
            parse_point_arg("0,+2", make_field(5, 1), 2)
        assert str(e.value) == "x[1]: not an element: '+2'"

    def test_point(self):
        F5 = make_field(5, 1)
        assert parse_point_arg("0,2", F5, 2) == (F5.from_int(0), F5.from_int(2))
        assert parse_point_arg("", F5, 0) == ()

    def test_point_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_point_arg("0,2", make_field(5, 1), 1)


class TestLoadJsonFile:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError) as e:
            load_json_file(str(tmp_path / "absent.json"))
        assert "absent.json" in path_of(e)

    def test_malformed_carries_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"field": {"p": "5"\n')
        with pytest.raises(ParseError) as e:
            load_json_file(str(bad))
        assert path_of(e).endswith(":2:1")

    def test_undecodable_bytes(self, tmp_path):
        bad = tmp_path / "latin.json"
        bad.write_bytes(b"\xc3\x28{}")
        with pytest.raises(ParseError) as e:
            load_json_file(str(bad))
        assert path_of(e) == str(bad)

    def test_nesting_too_deep(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        with pytest.raises(ParseError) as e:
            load_json_file(str(deep))
        assert path_of(e) == str(deep)

    def test_round_trip(self, tmp_path):
        f = tmp_path / "ok.json"
        f.write_text(json.dumps(KLOOSTERMAN))
        assert parse_problem(load_json_file(str(f))) == parse_problem(KLOOSTERMAN)


class TestJsonable:
    def test_exact_scalars_become_strings(self):
        assert jsonable(5) == "5"
        assert jsonable(Fraction(3, 2)) == "3/2"
        assert jsonable(-7) == "-7"

    def test_inexact_scalars_stay_numbers(self):
        assert jsonable(1.5) == 1.5
        assert jsonable(True) is True
        assert jsonable(None) is None

    def test_complex(self):
        assert jsonable(1 + 2j) == {"re": 1.0, "im": 2.0}

    def test_field_elements(self):
        F5 = make_field(5, 1)
        F25 = make_field(5, 2)
        assert jsonable(F5.from_int(3)) == "3"
        assert jsonable(F25.element([1, 2])) == ["1", "2"]

    def test_cyclotomic(self):
        z = CycloNum.zeta(5, 2)
        assert jsonable(z) == {"p": "5", "coords": ["0", "0", "1", "0"]}
        P = CycloPoly(5, [CycloNum.from_rational(5, 5), z])
        assert jsonable(P)["coeffs"][0]["coords"][0] == "5"

    def test_polynomials(self):
        t = MPoly.variable(2, 0)
        x = MPoly.variable(2, 1)
        assert jsonable(t * x * 2) == [{"c": "2", "deg": {"t": 1, "x1": 1}}]
        assert jsonable(MPoly.const(2, 1)) == [{"c": "1"}]
        r = RatFunc(MPoly.const(2, 1), t)
        assert jsonable(r) == {"num": [{"c": "1"}],
                               "den": [{"c": "1", "deg": {"t": 1}}]}
        assert jsonable(RatFunc(x)) == [{"c": "1", "deg": {"x1": 1}}]

    def test_containers(self):
        assert jsonable({"a": (1, 2)}) == {"a": ["1", "2"]}

    def test_unknown_type(self):
        with pytest.raises(InputError):
            jsonable(object())


FORMATS = Path(__file__).resolve().parents[1] / "docs" / "formats.md"

# section title in docs/formats.md -> its parser and the path it gives the
# top-level object
DOCUMENTED_FORMATS = {
    "Field object": (parse_field, "field"),
    "Problem file (a family of exponential sums)": (parse_problem, "$"),
    "Connection file": (parse_connection, "$"),
    "Structure tuple file": (parse_fts_tuple, "$"),
    "Nilpotent matrix file": (parse_nilpotent_matrix, "$"),
}
# the tuple example writes each matrix as <matrix>; the 2 x 2 identity fits
IDENTITY2 = '[[[{"c": "1"}], [{"c": "0"}]], [[{"c": "0"}], [{"c": "1"}]]]'
KEY_BULLET = re.compile(r"\* ((?:`\w+`(?:, )?)+) \((required|optional)")


def documented_format(title):
    """A section of docs/formats.md: its example with the most keys, and
    {key: required} from its key bullets.  A section without key bullets
    (the nilpotent matrix file) requires every key of its example."""
    text = FORMATS.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    block = text.split("```json\n", 1)[1].split("```", 1)[0].replace("<matrix>", IDENTITY2)
    try:
        examples = [json.loads(block)]
    except json.JSONDecodeError:  # one example a line
        examples = [json.loads(line) for line in block.splitlines()]
    example = max(examples, key=len)
    keys = {}
    for line in text.splitlines():
        bullet = KEY_BULLET.match(line)
        if bullet:
            for key in re.findall(r"`(\w+)`", bullet.group(1)):
                keys[key] = bullet.group(2) == "required"
    return example, keys or dict.fromkeys(example, True)


class TestFormatDocs:
    """The keys docs/formats.md lists for each input file are the keys its
    parser reads."""

    @pytest.mark.parametrize("title", list(DOCUMENTED_FORMATS))
    def test_documented_keys_are_the_parsed_keys(self, title):
        parse, root = DOCUMENTED_FORMATS[title]
        example, keys = documented_format(title)
        assert set(example) == set(keys)  # the example shows every listed key
        parse(example)  # each documented key is accepted
        required = {k: example[k] for k, needed in keys.items() if needed}
        parse(required)  # and the optional ones may be left out
        for key in required:
            with pytest.raises(ParseError, match=re.escape(f"missing required key {key!r}")) as e:
                parse({k: v for k, v in required.items() if k != key})
            assert path_of(e) == root
        with pytest.raises(ParseError, match="unknown key") as e:
            parse(dict(example, undocumented="1"))
        assert path_of(e) == f"{root}.undocumented"
