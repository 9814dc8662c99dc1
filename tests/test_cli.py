import argparse
import ast
import atexit
import doctest
import gc
import io
import json
import os
import random
import resource
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import pytest

from arith_lg import acceptance, cli, expsum, ffield
from arith_lg.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
# a child's stdout is block-buffered, as under a user's shell, so a request
# that does not flush its report before exit loses it
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])

KLOOSTERMAN5 = {
    "field": {"p": "5"},
    "n": 1,
    "f": [{"c": "1", "w": [1]}, {"c": "1", "w": [-1]}],
    "kind": "newton_preserving",
    "deformations": [[{"c": "1", "w": [1]}]],
}

KLOOSTERMAN3 = dict(KLOOSTERMAN5, field={"p": "3"})

DEGENERATE3 = {
    "field": {"p": "3"},
    "n": 1,
    "f": [{"c": "1", "w": [3]}, {"c": "1", "w": [-3]}],
}

FLAT_CONN = {
    "m": 1, "size": 1,
    "dt": [[{"num": [{"c": "1", "deg": {"x1": 1}}],
             "den": [{"c": "1", "deg": {"t": 2}}]}]],
    "dx": [[[{"num": [{"c": "-1"}], "den": [{"c": "1", "deg": {"t": 1}}]}]]],
}

# dt = C/t with C = [[5, 1], [0, 2]]: a logarithmic pole at t = 0
LOG_CONN = {
    "m": 1, "size": 2,
    "dt": [[{"num": [{"c": "5"}], "den": [{"c": "1", "deg": {"t": 1}}]},
            {"num": [{"c": "1"}], "den": [{"c": "1", "deg": {"t": 1}}]}],
           [[{"c": "0"}],
            {"num": [{"c": "2"}], "den": [{"c": "1", "deg": {"t": 1}}]}]],
}

# FLAT_CONN plus t dt: still flat of rank 1, but no longer logarithmic
# at t = oo
IRREGULAR_INF_CONN = {
    "m": 1, "size": 1,
    "dt": [[{"num": [{"c": "1", "deg": {"x1": 1}}, {"c": "1", "deg": {"t": 3}}],
             "den": [{"c": "1", "deg": {"t": 2}}]}]],
    "dx": [[[{"num": [{"c": "-1"}], "den": [{"c": "1", "deg": {"t": 1}}]}]]],
}

CURVED_CONN = {
    "m": 1, "size": 1,
    "dt": [[[{"c": "1", "deg": {"x1": 1}}]]],
    "dx": [[[[{"c": "0"}]]]],
}

ZERO2 = [[[{"c": "0"}], [{"c": "0"}]], [[{"c": "0"}], [{"c": "0"}]]]
E12 = [[[{"c": "0"}], [{"c": "1"}]], [[{"c": "0"}], [{"c": "0"}]]]
EYE2 = [[[{"c": "1"}], [{"c": "0"}]], [[{"c": "0"}], [{"c": "1"}]]]


def fts_tuple(rinf_corner):
    return {
        "size": 2, "m": 1,
        "A": [ZERO2], "phi": [E12], "r0": EYE2,
        "rinf": [[[{"c": "0"}], [{"c": "0"}]],
                 [[{"c": "0"}], [{"c": rinf_corner}]]],
    }


JORDAN3 = {"matrix": [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]]}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = {}
    for name, obj in [("k5", KLOOSTERMAN5), ("k3", KLOOSTERMAN3),
                      ("deg3", DEGENERATE3), ("flat", FLAT_CONN),
                      ("log", LOG_CONN), ("irregular_inf", IRREGULAR_INF_CONN),
                      ("curved", CURVED_CONN), ("fts_ok", fts_tuple("1")),
                      ("fts_bad", fts_tuple("2")),
                      ("fts_metric", dict(fts_tuple("1"), g=EYE2)),
                      ("jordan3", JORDAN3)]:
        p = root / f"{name}.json"
        p.write_text(json.dumps(obj))
        out[name] = str(p)
    broken = root / "broken.json"
    broken.write_text('{"field": {"p": "5"\n')
    out["broken"] = str(broken)
    return out


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


class TestAnalyzePolytope:
    def test_text(self, files, capsys):
        code, out = run(capsys, "analyze-polytope", files["k5"])
        assert code == 0
        assert 'normalized_volume: "2"' in out
        assert "convenient: true" in out

    def test_json(self, files, capsys):
        code, doc = run_json(capsys, "analyze-polytope", files["k5"])
        assert code == 0
        assert doc["command"] == "analyze-polytope"
        assert doc["vertices"] == [["-1"], ["1"]]
        assert doc["face_count"] == "2"
        assert "generated_at" in doc

    @pytest.mark.parametrize("flag", ["--threads", "--budget"])
    def test_rejects_work_flags(self, files, capsys, flag):
        # the report enumerates nothing, so it takes no work-scope flags
        with pytest.raises(SystemExit) as exc:
            main(["analyze-polytope", files["k5"], flag, "0"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 0" in capsys.readouterr().err


class TestCheckNondegenerate:
    def test_nondegenerate(self, files, capsys):
        code, doc = run_json(capsys, "check-nondegenerate", files["k5"])
        assert code == 0
        assert doc["kind"] == "verified_up_to"
        assert doc["conclusive"] is True

    def test_degenerate_exits_one(self, files, capsys):
        code, doc = run_json(capsys, "check-nondegenerate", files["deg3"])
        assert code == 1
        assert doc["kind"] == "degenerate_at"
        assert doc["witness"] == ["1"]


class TestExpsum:
    def test_kloosterman_exact(self, files, capsys):
        code, doc = run_json(capsys, "expsum", files["k5"], "--tau", "1")
        assert code == 0
        assert doc["exact"] == {"p": "5", "coords": ["2", "0", "1", "1"]}
        assert doc["bound_ok"] is True

    def test_extension_twist(self, files, capsys):
        code, doc = run_json(capsys, "expsum", files["k5"], "--k", "2",
                             "--tau", "1:2")
        assert code == 0
        assert doc["k"] == "2"

    def test_inverse_character(self, files, capsys):
        _, plain = run_json(capsys, "expsum", files["k5"], "--tau", "2")
        _, inv = run_json(capsys, "expsum", files["k5"], "--tau", "2",
                          "--psi-power", "-1")
        _, neg = run_json(capsys, "expsum", files["k5"], "--tau", "-2")
        # psi^-1 twisted by tau equals psi twisted by -tau; for this f the
        # substitution t -> -t also makes both agree with the plain sum, so
        # only the first equality is a safe assertion
        assert inv["exact"] == neg["exact"]

    def test_zero_tau_is_input_error(self, files, capsys):
        code, out = run(capsys, "expsum", files["k5"], "--tau", "0")
        assert code == 2
        assert "nonzero" in out

    @pytest.mark.parametrize("tau", ["+2", " 2", "٢", "0_2"])
    def test_tau_follows_the_file_grammar(self, files, capsys, tau):
        # int() would read each of these as 2
        code, out = run(capsys, "expsum", files["k5"], "--tau", tau)
        assert (code, out) == (2, f"error (input): tau: not an element: {tau!r}\n")

    def test_bad_character_power_is_input_error_before_work(self, files, capsys):
        # rejected before the budget sees the table or the torus
        code, out = run(capsys, "expsum", files["k5"], "--tau", "1",
                        "--psi-power", "5", "--budget", "1")
        assert code == 2
        assert "character power" in out

    def test_budget_flag(self, files, capsys):
        code, out = run(capsys, "expsum", files["k5"], "--tau", "1",
                        "--budget", "2")
        assert code == 3
        assert "budget" in out

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("argv, code", [(["--tau", "0"], 2),
                                            (["--tau", "1", "--budget", "2"], 3)],
                             ids=["exit-2", "exit-3"])
    def test_errors_go_to_stdout(self, files, capsys, fmt, argv, code):
        assert main(["expsum", files["k5"], *argv, *fmt]) == code
        captured = capsys.readouterr()
        assert "error" in captured.out
        assert captured.err == ""

    def test_budget_env(self, files, capsys, monkeypatch):
        monkeypatch.setenv("ARITH_LG_BUDGET", "3")
        code, _ = run(capsys, "expsum", files["k5"], "--tau", "1")
        assert code == 3

    def test_threads_do_not_change_output(self, files, capsys):
        docs = []
        for threads in ("1", "3"):
            _, out = run(capsys, "expsum", files["k5"], "--k", "2",
                         "--tau", "3", "--threads", threads, "--json")
            docs.append("\n".join(line for line in out.splitlines()
                                  if "generated_at" not in line))
        assert docs[0] == docs[1]


class TestTolerance:
    @pytest.mark.parametrize("command", ["expsum", "frobenius"])
    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_tolerance_is_input_error(self, tmp_path, capsys, command, raw):
        # nan would fail every float verdict (exit 1), inf pass every one (exit 0)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(dict(KLOOSTERMAN5, tolerance=raw)))
        code, out = run(capsys, command, str(path), "--tau", "1")
        assert code == 2
        assert out == f"error (input): {path}.tolerance: tolerance must be positive and finite\n"

    @pytest.mark.parametrize("command", ["expsum", "frobenius"])
    def test_default_is_purity_tol(self, files, capsys, monkeypatch, command):
        # a file without a tolerance gets cyclotomic.PURITY_TOL in every
        # archimedean check, and -inf fails every one of them
        monkeypatch.setattr(cli, "PURITY_TOL", float("-inf"))
        code, _ = run(capsys, command, files["k5"], "--tau", "1")
        assert code == 1


class TestCommandBudget:
    """The budget caps the work of a whole command, not of each charge."""

    def problem(self, tmp_path, field, budget):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(dict(KLOOSTERMAN5, field=field,
                                        budget=budget)))
        return str(path)

    def test_l_function_charges_add_up(self, files, capsys, monkeypatch):
        # every single charge is below 7000, the command visits ~5.4M points;
        # it stops at k = 4: 980 for k <= 3, the k = 4 zero count and the
        # tables, then the 80^2 = 6400 points of the tau-sum cross-check
        monkeypatch.delenv("ARITH_LG_BUDGET", raising=False)
        ffield.discrete_table.cache_clear()
        code, out = run(capsys, "l-function", files["k3"], "--budget", "7000")
        assert code == 3
        assert "torus sum (required 7380, budget 7000)" in out

    def test_table_build_counts_against_file_budget(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.delenv("ARITH_LG_BUDGET", raising=False)
        # a fresh process builds the table; drop tables built by other tests
        ffield.discrete_table.cache_clear()
        # 511 torus points plus 512 table elements exceed 600
        path = self.problem(tmp_path, {"p": "2", "m": 9}, "600")
        code, out = run(capsys, "expsum", path, "--tau", "1")
        assert code == 3
        assert "required 1023, budget 600" in out

    def test_table_build_sees_file_budget(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("ARITH_LG_BUDGET", raising=False)
        # within a 10^12 budget the sums and the table are admitted (the
        # default 10^9 would refuse the torus sum first), and the table is
        # refused for memory: 2 lanes of 16 bytes for each of 4294967311
        # elements, against the 8 GiB the probe reports
        monkeypatch.setattr(ffield, "_physical_memory", lambda: 8 << 30)
        path = self.problem(tmp_path, {"p": "4294967311"}, "1000000000000")
        code, out = run(capsys, "expsum", path, "--tau", "1")
        assert code == 3
        assert out == ("error (budget): memory for the discrete log table of "
                       "GF(4294967311), in bytes (required 137438953952, "
                       "budget 8589934592)\n")

    def test_extension_past_the_budget_is_refused_before_its_modulus(
            self, files, capsys, monkeypatch):
        # F_{5^90} has 5^90 - 1 units, far past 1000; the modulus search it
        # would start (tens of seconds) must not run, so it fails here
        monkeypatch.delenv("ARITH_LG_BUDGET", raising=False)

        def no_search(f, p):
            raise AssertionError("the modulus search ran")

        monkeypatch.setattr(ffield, "_is_irreducible", no_search)
        code, out = run(capsys, "expsum", files["k5"], "--tau", "1", "--k", "90",
                        "--budget", "1000")
        assert code == 3
        assert out == (f"error (budget): units of GF(5^90) (required {5 ** 90 - 1}, "
                       "budget 1000)\n")

    @pytest.mark.parametrize("where", ["flag", "file", "env"])
    def test_base_field_past_the_budget_is_refused_before_its_modulus(
            self, tmp_path, capsys, monkeypatch, where):
        # the file's own F_{5^40} has 5^40 - 1 units, far past 1000: the
        # limit resolves (flag, then file, then env) before the modulus
        # search, which must not run
        monkeypatch.delenv("ARITH_LG_BUDGET", raising=False)

        def no_search(f, p):
            raise AssertionError("the modulus search ran")

        monkeypatch.setattr(ffield, "_is_irreducible", no_search)
        argv = ["expsum", "--tau", "1"]
        budget = None
        if where == "flag":
            argv += ["--budget", "1000"]
        elif where == "file":
            budget = "1000"
        else:
            monkeypatch.setenv("ARITH_LG_BUDGET", "1000")
        obj = dict(KLOOSTERMAN5, field={"p": "5", "m": 40})
        if budget is not None:
            obj["budget"] = budget
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(obj))
        code, out = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 3
        assert out == (f"error (budget): units of GF(5^40) (required {5 ** 40 - 1}, "
                       "budget 1000)\n")

    @pytest.mark.parametrize("argv", [["check-nondegenerate"],
                                      ["expsum", "--tau", "1"],
                                      ["frobenius", "--tau", "1"],
                                      ["l-function"]], ids=lambda a: a[0])
    def test_zero_threads_is_input_error(self, files, capsys, argv):
        code, out = run(capsys, argv[0], files["k5"], *argv[1:],
                        "--threads", "0")
        assert (code, out) == (2, "error (input): --threads must be at least 1\n")


class TestFrobenius:
    def test_kloosterman(self, files, capsys):
        code, doc = run_json(capsys, "frobenius", files["k5"], "--tau", "1")
        assert code == 0
        assert doc["rank"] == "2"
        # constant coefficient is the rational number 5
        assert doc["char_poly"]["coeffs"][0]["coords"] == ["5", "0", "0", "0"]
        assert doc["purity_ok"] and doc["duality_ok"]

    def test_collapsed_parameter_fails(self, files, capsys):
        # x = 4 kills the t term of t + 1/t + x*t over F_5
        code, doc = run_json(capsys, "frobenius", files["k5"],
                             "--tau", "1", "--x", "4")
        assert code == 1
        assert any("collapsed" in w for w in doc["warnings"])
        assert not doc["determinant_ok"]

    def test_rerun_is_byte_identical(self, files, capsys):
        outs = []
        for _ in range(2):
            _, out = run(capsys, "frobenius", files["k5"], "--tau", "3",
                         "--json")
            outs.append("\n".join(line for line in out.splitlines()
                                  if "generated_at" not in line))
        assert outs[0] == outs[1]


class TestLFunction:
    def test_kloosterman_f3(self, files, capsys):
        code, doc = run_json(capsys, "l-function", files["k3"], "--kmax", "8")
        assert code == 0
        assert doc["minus_chi_c"] == "2"
        coeffs = [c["coords"][0] for c in doc["numerator"]["coeffs"]]
        assert coeffs == ["1", "2", "-3"]
        assert doc["denominator"]["coeffs"] == [{"p": "3", "coords": ["1", "0"]}]
        assert doc["trace_sums"][0]["coords"] == ["2", "0"]
        assert doc["swan_bound_ok"] and doc["stable"]

    def test_failed_cross_check_is_a_verification_error(self, files, capsys,
                                                         monkeypatch):
        real = expsum.zero_count
        monkeypatch.setattr(expsum, "zero_count", lambda *args: real(*args) + 1)
        code, doc = run_json(capsys, "l-function", files["k3"], "--kmax", "6")
        assert code == 1
        assert doc["error"]["kind"] == "verification"
        assert "orthogonality cross-check failed" in doc["error"]["message"]


class TestVerifyConnection:
    def test_flat(self, files, capsys):
        code, doc = run_json(capsys, "verify-connection", files["flat"])
        assert code == 0
        assert doc["flat"] is True
        assert doc["poincare_rank"] == "1"
        assert doc["higgs"] == [[[[{"c": "-1"}]]]]
        assert doc["r0"] == [[[{"c": "1", "deg": {"x1": 1}}]]]

    def test_curved_exits_one(self, files, capsys):
        code, doc = run_json(capsys, "verify-connection", files["curved"])
        assert code == 1
        assert doc["flat"] is False

    @pytest.mark.parametrize("name, doc, text", [
        ("log", {
            "command": "verify-connection",
            "flat": True,
            "poincare_rank": "0",
            "residue": [[[{"c": "5"}], [{"c": "1"}]], [[], [{"c": "2"}]]],
            "residue_horizontal": True,
            "logarithmic_at_infinity": True,
            "residue_at_infinity": [[[{"c": "-5"}], [{"c": "-1"}]],
                                    [[], [{"c": "-2"}]]],
        }, (
            'flat: true\n'
            'poincare_rank: "0"\n'
            'residue: [[[{"c": "5"}], [{"c": "1"}]], [[], [{"c": "2"}]]]\n'
            'residue_horizontal: true\n'
            'logarithmic_at_infinity: true\n'
            'residue_at_infinity: [[[{"c": "-5"}], [{"c": "-1"}]], '
            '[[], [{"c": "-2"}]]]\n'
        )),
        ("irregular_inf", {
            "command": "verify-connection",
            "flat": True,
            "poincare_rank": "1",
            "higgs": [[[[{"c": "-1"}]]]],
            "r0": [[[{"c": "1", "deg": {"x1": 1}}]]],
            "higgs_squares_zero": True,
            "higgs_commutes_r0": True,
            "logarithmic_at_infinity": False,
        }, (
            'flat: true\n'
            'poincare_rank: "1"\n'
            'higgs: [[[[{"c": "-1"}]]]]\n'
            'r0: [[[{"c": "1", "deg": {"x1": 1}}]]]\n'
            'higgs_squares_zero: true\n'
            'higgs_commutes_r0: true\n'
            'logarithmic_at_infinity: false\n'
        )),
    ])
    def test_pole_branches(self, files, capsys, name, doc, text):
        code, got = run_json(capsys, "verify-connection", files[name])
        del got["generated_at"]
        assert (code, got) == (0, doc)
        assert run(capsys, "verify-connection", files[name]) == (0, text)


class TestVerifyFts:
    def test_pass_instance(self, files, capsys):
        code, doc = run_json(capsys, "verify-fts", files["fts_ok"])
        assert code == 0
        assert doc["all_conditions_ok"] and doc["assembled_flat"]

    def test_fail_instance(self, files, capsys):
        code, doc = run_json(capsys, "verify-fts", files["fts_bad"])
        assert code == 1
        failing = [k for k, v in doc["conditions"].items() if not v]
        assert failing == ["r0_transport"]
        assert doc["assembled_flat"] is False


class TestTextKeyOrder:
    """The text form lists a report's fields in field order: the order of
    `vars(report)`."""

    @pytest.mark.parametrize("argv, code, keys", [
        pytest.param(["frobenius", "k5", "--tau", "1"], 0,
                     ["tau", "x", "q", "n", "rank", "weight", "char_poly",
                      "char_poly_inverse_character", "power_sums", "consistency_ok",
                      "purity_max_rel_dev", "purity_ok", "determinant_max_rel_dev",
                      "determinant_ok", "duality_ok", "warnings"], id="frobenius"),
        pytest.param(["verify-fts", "fts_metric"], 1,
                     ["conditions", "all_conditions_ok", "assembled_flat", "metric"],
                     id="verify-fts-metric"),
    ])
    def test_keys(self, files, capsys, argv, code, keys):
        got, out = run(capsys, *[files.get(a, a) for a in argv])
        assert got == code
        assert [line.split(":")[0] for line in out.splitlines()] == keys


class TestMonodromy:
    def test_jordan_block(self, files, capsys):
        code, doc = run_json(capsys, "monodromy", files["jordan3"])
        assert code == 0
        assert doc["jumps"] == {"-2": "1", "0": "1", "2": "1"}
        assert doc["levels"][0] == {"k": "-3", "dim": "0"}

    def test_not_nilpotent(self, files, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"matrix": [["1"]]}))
        code, out = run(capsys, "monodromy", str(p))
        assert code == 2

    def test_fresh_process_zero_denominator_is_an_input_error(self, tmp_path):
        # "1/0" passes the rational-string pattern; it must not escape as
        # a ZeroDivisionError traceback with the verification exit code
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"matrix": [["0", "1/0"], ["0", "0"]]}))
        child = subprocess.run([sys.executable, "-m", "arith_lg.cli", "monodromy",
                                str(p), "--json"], capture_output=True, text=True,
                               env=CHILD_ENV, timeout=120)
        assert (child.returncode, child.stderr) == (2, "")
        message = f"{p}.matrix[0][1]: zero denominator in '1/0'"
        assert json.loads(child.stdout) == {"error": {"kind": "input", "message": message}}


class TestInputErrors:
    def test_malformed_json_carries_position(self, files, capsys):
        code, out = run(capsys, "analyze-polytope", files["broken"])
        assert code == 2
        assert ":2:1" in out

    def test_missing_file(self, capsys):
        code, out = run(capsys, "frobenius", "/nonexistent.json", "--tau", "1")
        assert code == 2
        assert "nonexistent" in out

    def test_unknown_key_path(self, tmp_path, capsys):
        p = tmp_path / "extra.json"
        p.write_text(json.dumps(dict(KLOOSTERMAN5, extra=1)))
        code, out = run(capsys, "analyze-polytope", str(p))
        assert code == 2
        assert "extra" in out and "unknown key" in out

    @pytest.mark.parametrize("content", [b"\xc3\x28{}", b"[" * 100000],
                             ids=["undecodable", "too-deep"])
    @pytest.mark.parametrize("command", ["monodromy", "analyze-polytope"])
    def test_unreadable_json_is_input_error(self, tmp_path, capsys, command, content):
        p = tmp_path / "m.json"
        p.write_bytes(content)
        code, out = run(capsys, command, str(p))
        assert code == 2
        assert str(p) in out

    def test_json_error_rendering(self, files, capsys):
        code, doc = run_json(capsys, "expsum", files["k5"], "--tau", "0")
        assert code == 2
        assert doc["error"]["kind"] == "input"


FLAT2 = {"field": {"p": "5"}, "n": 2,
         "f": [{"c": "1", "w": [1, 0]}, {"c": "1", "w": [-1, 0]}]}

# command, input document, extra arguments, message ({path} is the input file)
INPUT_ERROR_PATHS = {
    "not-prime": ("analyze-polytope", dict(KLOOSTERMAN5, field={"p": "4"}), [],
                  "{path}.field: 4 is not prime"),
    "not-prime-modulus": ("analyze-polytope",
                          dict(KLOOSTERMAN5, field={"p": "4", "m": 1, "modulus": ["1", "1"]}),
                          [], "{path}.field: 4 is not prime"),
    "dimension-cap": ("analyze-polytope",
                      {"field": {"p": "5"}, "n": 5,
                       "f": [{"c": "1", "w": [1, 0, 0, 0, 0]},
                             {"c": "1", "w": [-1, 0, 0, 0, 0]}]},
                      [], "{path}: ambient dimension 5 exceeds 4"),
    "flat-polytope": ("analyze-polytope", FLAT2, [],
                      "{path}: polytope spans less than 2 dimensions"),
    "flat-polytope-nondegenerate": ("check-nondegenerate", FLAT2, [],
                                    "{path}: polytope spans less than 2 dimensions"),
    "zero-tau": ("expsum", KLOOSTERMAN5, ["--tau", "0"],
                 "tau must be a nonzero field element"),
    "psi-power": ("expsum", KLOOSTERMAN5, ["--tau", "1", "--psi-power", "5"],
                  "character power must be a unit mod p"),
    "degree-zero": ("expsum", KLOOSTERMAN5, ["--tau", "1", "--k", "0"],
                    "extension degree must be at least 1"),
    "not-nilpotent": ("monodromy", {"matrix": [["1"]]}, [],
                      "matrix is not nilpotent: N^1 != 0"),
    "mixed-denominator": ("verify-connection",
                          {"m": 1, "size": 1,
                           "dt": [[{"num": [{"c": "1"}],
                                    "den": [{"c": "1", "deg": {"t": 1}},
                                            {"c": "1", "deg": {"x1": 1}}]}]],
                           "dx": [[[[{"c": "0"}]]]]},
                          [], "denominator does not factor as a t-power times a t-free part"),
    "singular-metric": ("verify-fts",
                        dict(fts_tuple("1"), phi=[ZERO2], r0=ZERO2, rinf=ZERO2,
                             g=[[[{"c": "1"}], [{"c": "1"}]], [[{"c": "1"}], [{"c": "1"}]]]),
                        [], "pairing matrix has zero determinant"),
    "kmax-too-small": ("l-function", KLOOSTERMAN5, ["--kmax", "1"],
                       "need at least 6 trace sums for rank 2"),
    "zero-denominator-term": ("verify-fts", dict(fts_tuple("1"), r0=[[[{"c": "0"}], [{"c": "0"}]],
                                                                 [[{"c": "1/0"}], [{"c": "0"}]]]),
                              [], "{path}.r0[1][0][0].c: zero denominator in '1/0'"),
    "depth-zero": ("check-nondegenerate", KLOOSTERMAN5, ["--depth", "0"],
                   "search depth must be at least 1"),
    "modulus-not-list": ("analyze-polytope",
                         dict(KLOOSTERMAN5, field={"p": "5", "m": 2, "modulus": "2,0,1"}), [],
                         "{path}.field.modulus: expected a list of decimal strings"),
    "modulus-not-monic": ("analyze-polytope",
                          dict(KLOOSTERMAN5, field={"p": "5", "m": 2, "modulus": ["2", "0", "2"]}),
                          [], "{path}.field: modulus must be monic"),
    "degree-one-modulus": ("analyze-polytope",
                           dict(KLOOSTERMAN5, field={"p": "5", "m": 1, "modulus": ["1", "1"]}),
                           [], "{path}.field: degree-1 modulus must be X (prime field convention)"),
    "element-coordinates": ("analyze-polytope",
                            dict(KLOOSTERMAN5, field={"p": "5", "m": 2},
                                 f=[{"c": ["1"], "w": [1]}, {"c": "1", "w": [-1]}]),
                            [], "{path}.f[0].c: expected 2 coordinates, got 1"),
    "element-type": ("analyze-polytope",
                     dict(KLOOSTERMAN5, f=[{"c": 1, "w": [1]}, {"c": "1", "w": [-1]}]), [],
                     "{path}.f[0].c: expected a decimal string or a coordinate list"),
    "f-not-list": ("analyze-polytope", dict(KLOOSTERMAN5, f={"c": "1", "w": [1]}), [],
                   "{path}.f: expected a list of terms"),
    "deformations-not-list": ("analyze-polytope",
                              dict(KLOOSTERMAN5, deformations={"c": "1", "w": [1]}), [],
                              "{path}.deformations: expected a list of term lists"),
    "tolerance-not-number": ("analyze-polytope", dict(KLOOSTERMAN5, tolerance="abc"), [],
                             "{path}.tolerance: not a number: 'abc'"),
    "connection-rows": ("verify-connection",
                        {"m": 1, "size": 1, "dt": [[[{"c": "1"}]], [[{"c": "1"}]]]}, [],
                        "{path}.dt: expected 1 rows"),
    "empty-nilpotent": ("monodromy", {"matrix": []}, [],
                        "{path}.matrix: expected a non-empty list of rows"),
}


class TestExitCodeContract:
    """Each input error reaches the user as one `error (input): ...` line,
    or as {"error": {"kind": "input", ...}} under --json, with exit 2."""

    @pytest.mark.parametrize("case", list(INPUT_ERROR_PATHS))
    def test_input_error_path(self, tmp_path, capsys, case):
        command, doc, extra, message = INPUT_ERROR_PATHS[case]
        p = tmp_path / "in.json"
        p.write_text(json.dumps(doc))
        message = message.format(path=p)
        assert run(capsys, command, str(p), *extra) == (2, f"error (input): {message}\n")
        assert run_json(capsys, command, str(p), *extra) == (
            2, {"error": {"kind": "input", "message": message}})

    @pytest.mark.parametrize("value, message", [
        ("abc", "ARITH_LG_BUDGET must be an integer, got 'abc'"),
        ("0", "ARITH_LG_BUDGET must be positive, got 0")])
    def test_budget_variable_error(self, files, capsys, monkeypatch, value, message):
        monkeypatch.setenv("ARITH_LG_BUDGET", value)
        assert run(capsys, "expsum", files["k5"], "--tau", "1") == (
            2, f"error (input): {message}\n")


class TestOutOfMemory:
    """A command that runs out of memory exits 3, the budget code, with
    one line: running out is work refused, never a verdict."""

    # F_{2^24}: the table takes 25 lanes of a byte for each of its 2^24
    # elements, 419 MB, which a child limited to 256 MB of address space
    # cannot map although the machine could hold it
    FAMILY = dict(KLOOSTERMAN5, field={"p": "2"})

    def test_address_space_limit_is_a_budget_exit(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(self.FAMILY))
        limit = 256 << 20

        def limit_child():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        run = subprocess.run(
            [sys.executable, "-m", "arith_lg.cli", "expsum", str(path), "--tau", "1",
             "--k", "24"],
            capture_output=True, text=True, env=CHILD_ENV, timeout=120,
            preexec_fn=limit_child)
        assert run.returncode == 3, run.stdout + run.stderr
        lines = run.stdout.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error (budget): "), run.stdout
        assert "Traceback" not in run.stdout + run.stderr

    def test_memory_error_is_one_line(self, files, capsys, monkeypatch):
        def out_of_memory(f, ext, tau):
            raise MemoryError

        monkeypatch.setattr(expsum, "torus_trace_counts", out_of_memory)
        assert run(capsys, "expsum", files["k5"], "--tau", "1") == (
            3, "error (budget): out of memory\n")
        assert run_json(capsys, "expsum", files["k5"], "--tau", "1") == (
            3, {"error": {"kind": "budget", "message": "out of memory"}})


class TestHugeSizes:
    """A size far past what can be formed is refused within seconds, in a
    child capped at 256 MB of address space: an extension degree by the
    budget (exit 3) without forming q^k, a connection or tuple file's m
    by its parser (exit 2) before any term is built."""

    CONN = {"m": 1, "size": 1, "dt": [[[{"c": "1", "deg": {"t": 1}}]]], "dx": [[["0"]]]}
    UNITS = "error (budget): units of GF(5^{e}) (required 5^{e} - 1, budget {b})\n"
    TOO_MANY = "error (input): {path}.m: expected an integer <= 32, got {m}\n"
    CASES = {
        "field-degree": (["analyze-polytope"], dict(KLOOSTERMAN5, field={"p": "5", "m": 10 ** 11}),
                         3, UNITS.format(e=10 ** 11, b=10 ** 9)),
        "extension-degree": (["expsum", "--tau", "1", "--k", str(10 ** 11)], KLOOSTERMAN5,
                             3, UNITS.format(e=10 ** 11, b=10 ** 9)),
        # 5^10000 - 1 has more decimal digits than Python prints from an int
        "unprintable-count": (["expsum", "--tau", "1", "--k", "10000", "--budget", "1000"],
                              KLOOSTERMAN5, 3, UNITS.format(e=10000, b=1000)),
        "connection-m-overflow": (["verify-connection"], dict(CONN, m=10 ** 20),
                                  2, TOO_MANY.format(path="{path}", m=10 ** 20)),
        "connection-m-huge": (["verify-connection"], dict(CONN, m=10 ** 9),
                              2, TOO_MANY.format(path="{path}", m=10 ** 9)),
        "tuple-m-huge": (["verify-fts"], dict(fts_tuple("1"), m=10 ** 9),
                         2, TOO_MANY.format(path="{path}", m=10 ** 9)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_refused_within_seconds(self, tmp_path, case):
        argv, doc, code, message = self.CASES[case]
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        limit = 256 << 20

        def limit_child():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        env = {k: v for k, v in CHILD_ENV.items() if k != "ARITH_LG_BUDGET"}
        child = subprocess.run(
            [sys.executable, "-m", "arith_lg.cli", argv[0], str(path), *argv[1:]],
            capture_output=True, text=True, env=env, timeout=20, preexec_fn=limit_child)
        assert (child.returncode, child.stdout, child.stderr) == (
            code, message.format(path=path), "")


class TestProcessEntry:
    """`python -m arith_lg.cli` and `arith-lg` start through cli.run, which
    runs the atexit callbacks, flushes stdio and leaves through os._exit
    after the command; in-process main only returns its code."""

    REQUESTS = [
        (["expsum", "k5", "--tau", "1"], 0),
        (["verify-fts", "fts_bad"], 1),
        (["analyze-polytope", "broken"], 2),
        (["expsum", "k5", "--tau", "1", "--budget", "1"], 3),
    ]

    @pytest.mark.parametrize("argv, code", REQUESTS,
                             ids=[f"exit-{c}" for _, c in REQUESTS])
    def test_fresh_process_matches_in_process(self, files, capsys, argv, code):
        args = [files.get(a, a) for a in argv] + ["--json"]
        child = subprocess.run([sys.executable, "-m", "arith_lg.cli", *args],
                               capture_output=True, text=True, env=CHILD_ENV,
                               timeout=120)
        assert child.returncode == code, child.stdout + child.stderr
        assert child.stderr == ""
        got = json.loads(child.stdout)  # the whole of stdout is one document
        want_code, want = run_json(capsys, *args)
        assert want_code == code
        got.pop("generated_at", None)
        want.pop("generated_at", None)
        assert got == want

    def test_main_never_freezes(self, files, capsys):
        before = gc.get_freeze_count()
        for argv, code in self.REQUESTS:
            assert run(capsys, *[files.get(a, a) for a in argv])[0] == code
        assert gc.get_freeze_count() == before

    class Exited(Exception):
        pass

    class Stream(io.StringIO):
        """A stdio stand-in that logs each flush with what it holds."""

        def __init__(self, name, log):
            super().__init__()
            self.name, self.log = name, log

        def flush(self):
            self.log.append((f"flush {self.name}", self.getvalue()))
            super().flush()

    # the last two end in argparse's SystemExit: --help, a usage error
    @pytest.mark.parametrize("argv, code", [(["expsum", "k5", "--tau", "1"], 0),
                                            (["expsum", "k5", "--tau", "0"], 2),
                                            (["--help"], 0),
                                            (["expsum", "k5"], 2)])
    def test_run_exits_hard_after_main(self, files, monkeypatch, argv, code):
        argv = [files.get(a, a) for a in argv]
        log = []

        def exit_(status):
            log.append(("exit", status))
            raise self.Exited

        monkeypatch.setattr(os, "_exit", exit_)
        monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: log.append(("atexit",)))
        monkeypatch.setattr(sys, "stdout", self.Stream("stdout", log))
        monkeypatch.setattr(sys, "stderr", self.Stream("stderr", log))
        monkeypatch.setattr(sys, "argv", ["arith-lg", *argv])
        with pytest.raises(self.Exited):
            cli.run()
        # what main writes when called in process, for comparison
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        monkeypatch.setattr(sys, "stderr", io.StringIO())
        try:
            assert main(argv) == code
        except SystemExit as exc:
            assert exc.code == code
        out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        assert out or err
        # atexit first, as interpreter shutdown orders it, then both
        # streams flushed whole, then one exit with main's code
        assert [entry[0] for entry in log] == ["atexit", "flush stdout", "flush stderr",
                                               "exit"]
        assert log[3] == ("exit", code)
        assert (log[1][1], log[2][1]) == (out, err)

    HOOKED = """
import atexit, sys
atexit.register(print, "hook ran")
from arith_lg import cli
sys.argv = ["arith-lg", *sys.argv[1:]]
cli.run()
"""

    def test_fresh_process_runs_atexit_hooks(self, files, capsys):
        child = subprocess.run([sys.executable, "-c", self.HOOKED, "monodromy",
                                files["jordan3"], "--json"], capture_output=True,
                               text=True, env=CHILD_ENV, timeout=120)
        assert (child.returncode, child.stderr) == (0, "")
        doc, hook = child.stdout.rsplit("}\n", 1)
        assert hook == "hook ran\n"  # after the report: the hook ran at exit
        want_code, want = run_json(capsys, "monodromy", files["jordan3"])
        got = json.loads(doc + "}")
        got.pop("generated_at")
        want.pop("generated_at")
        assert (want_code, got) == (0, want)

    # dt = (C0 + C1 t) / t^2 with constant 8 x 8 matrices and no dx part:
    # flat, with a Poincare rank 1 pole whose report is about 8 KB
    FLAT8 = {"m": 1, "size": 8, "dt": [[{
        "num": [{"c": f"{(3 * i + 5 * j + k) % 7 - 3}/{i + j + k + 2}", "deg": {"t": k}}
                for k in range(2)],
        "den": [{"c": "1", "deg": {"t": 2}}]} for j in range(8)] for i in range(8)]}

    def test_fresh_process_writes_a_whole_document_to_a_pipe(self, tmp_path, capsys):
        path = tmp_path / "flat8.json"
        path.write_text(json.dumps(self.FLAT8))
        args = ["verify-connection", str(path), "--json"]
        child = subprocess.run([sys.executable, "-m", "arith_lg.cli", *args],
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               env=CHILD_ENV, timeout=120)
        assert (child.returncode, child.stderr) == (0, b"")
        assert len(child.stdout) > 7000  # more than one pipe block
        assert child.stdout.endswith(b"}\n")
        got = json.loads(child.stdout)
        want_code, want = run_json(capsys, *args[:-1])
        got.pop("generated_at")
        want.pop("generated_at")
        assert (want_code, got) == (0, want)

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["expsum", "--help"], 0),
                                            (["expsum", "k5"], 2), (["bogus"], 2)])
    def test_fresh_process_argparse_exits(self, files, capsys, monkeypatch, argv, code):
        argv = [files.get(a, a) for a in argv]
        monkeypatch.setenv("COLUMNS", "80")  # help wraps to the same width
        child = subprocess.run([sys.executable, "-m", "arith_lg.cli", *argv],
                               capture_output=True, text=True,
                               env=dict(CHILD_ENV, COLUMNS="80"), timeout=120)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        want = capsys.readouterr()
        assert exc.value.code == code
        assert (child.returncode, child.stdout, child.stderr) == (code, want.out, want.err)
        assert (want.out if code == 0 else want.err).startswith("usage: arith-lg")

    def test_both_entries_reach_run(self):
        tree = ast.parse((ROOT / "src" / "arith_lg" / "cli.py").read_text())
        guard = [node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert len(guard) == 1
        called = {ast.unparse(node.func) for node in ast.walk(guard[0])
                  if isinstance(node, ast.Call)}
        assert "run" in called and "main" not in called
        tomllib = pytest.importorskip("tomllib")  # 3.11+; the package supports 3.10
        with open(ROOT / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"arith-lg": "arith_lg.cli:run"}


class TestParser:
    """main reads a well-formed argv with cli._parse_direct, without
    argparse, and hands what that declines to cli.build_parser().  Both
    read the one argument table, cli._SUBCOMMANDS; every namespace the
    direct parse returns must be the parser's."""

    ARGV = [
        ["--help"],
        *[[name, "--help"] for name in cli._SUBCOMMANDS],
        [],
        ["bogus", "p.json"],                              # unknown subcommand
        ["expsm", "p.json", "--tau", "1"],                # a typo
        ["expsum", "p.json"],                             # missing --tau
        ["frobenius", "p.json", "--x", "0"],              # missing --tau
        ["expsum", "p.json", "--tau", "1", "--bogus"],    # unknown option
        ["monodromy", "m.json", "--tau", "1"],            # another command's option
        ["--", "expsum", "p.json", "--tau", "1"],         # starts with --
        ["--json", "monodromy", "m.json"],                # starts with an option
        ["expsum", "p.json", "--tau", "1:2", "--k", "2", "--json"],
        ["check-nondegenerate", "p.json", "--depth", "3", "--threads", "2"],
        ["l-function", "p.json", "--kmax", "8", "--budget", "10"],
        ["monodromy", "m.json", "--json"],
        ["acceptance", "--threads", "2"],
    ]

    @staticmethod
    def parse(parser, argv, capsys):
        """(exit code or None, stdout, stderr, parsed namespace or None)."""
        try:
            ns, code = vars(parser.parse_args(argv)), None
        except SystemExit as exc:
            ns, code = None, exc.code
        out = capsys.readouterr()
        return code, out.out, out.err, ns

    def test_main_parses_like_the_full_parser(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        argv = ["expsum", "p.json", "--tau", "1", "--bogus"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        got = (exc.value.code, *capsys.readouterr())
        assert got == self.parse(cli.build_parser(), argv, capsys)[:3]

    @pytest.mark.parametrize("argv", ARGV, ids=[" ".join(a) or "empty" for a in ARGV])
    def test_direct_parse_matches_the_full_parser(self, capsys, argv):
        got = cli._parse_direct(argv)
        if got is not None:
            assert self.parse(cli.build_parser(), argv, capsys) == (None, "", "", vars(got))

    # the options of every subcommand; then abbreviated, joined to a value,
    # and the other tokens argparse reads as options
    EXACT = ["--json", "--threads", "--budget", "--x", "--depth", "--k", "--tau",
             "--psi-power", "--kmax"]
    FLAGS = EXACT + ["--js", "--thr", "--ta", "--psi", "--km", "--tau=1", "--k=2", "--",
                     "-h", "--help", "-x", "-"]
    VALUES = ["1", "2", "0", "-1", "", " 3", "1_0", "3.5", "1:2", "0,2", "p.json", "x"]

    @staticmethod
    def actions(name):
        """The argparse actions of subcommand `name`, -h included."""
        sub, = [a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
        return sub.choices[name]._actions

    @classmethod
    def random_argv(cls, rng, flags):
        """A well-formed-looking argv, then up to two mutations of it."""
        name = rng.choice([*cli._SUBCOMMANDS, "expsm", "--json", ""])
        argv = [] if name == "acceptance" else [rng.choice(cls.VALUES)]
        own = flags.get(name, [])
        for flag in rng.sample(own if rng.random() < 0.8 else cls.EXACT,
                               rng.randint(0, min(4, len(own)))):
            value = rng.choice(["1", "2", rng.choice(cls.VALUES)])
            argv[rng.randint(0, len(argv)):0] = [flag] if flag == "--json" else [flag, value]
        for _ in range(rng.choice([0, 0, 1, 2])):
            if argv and rng.random() < 0.3:
                del argv[rng.randrange(len(argv))]
            else:
                argv.insert(rng.randint(0, len(argv)),
                            rng.choice(cls.FLAGS + cls.VALUES))
        return [name, *argv]

    def test_direct_parse_matches_the_full_parser_on_random_argvs(self):
        rng = random.Random(20261020)
        parser = cli.build_parser()
        flags = {name: [a.option_strings[0] for a in self.actions(name)[1:]
                        if a.option_strings] for name in cli._SUBCOMMANDS}
        accepted = 0
        for _ in range(12_000):
            argv = self.random_argv(rng, flags)
            got = cli._parse_direct(argv)
            if got is not None:
                assert vars(parser.parse_args(argv)) == vars(got), argv
                accepted += 1
        assert 2_000 < accepted < 10_000  # the corpus reaches both paths

    @pytest.mark.parametrize("name", list(cli._SUBCOMMANDS))
    def test_every_subcommand_and_option_takes_the_direct_path(self, name):
        items = []
        for action in self.actions(name):
            if not action.option_strings:
                items.append(["in.json"])
            elif action.nargs != 0:
                items.append([action.option_strings[0],
                              "2" if action.type is int else "1:2"])
            elif action.dest != "help":
                items.append([action.option_strings[0]])
        rng = random.Random(name)
        for _ in range(6):
            rng.shuffle(items)
            argv = [name, *[token for item in items for token in item]]
            got = cli._parse_direct(argv)
            assert got is not None, argv
            assert vars(got) == vars(cli.build_parser().parse_args(argv))
            assert got.handler is cli._SUBCOMMANDS[name][0]


    # each subcommand's argparse actions, as the parser registered them
    # before the arguments became one table: (flags, dest, type, default,
    # required, metavar, help)
    _HELP = (["-h", "--help"], "help", None, argparse.SUPPRESS, False, None,
             "show this help message and exit")
    _JSON = (["--json"], "json", None, False, False, None, None)
    _PROBLEM = [_HELP, ([], "problem", None, None, True, None, "problem JSON file"),
                (["--json"], "json", None, False, False, None,
                 "emit a machine-readable JSON report")]
    _THREADS = (["--threads"], "threads", int, 1, False, "N",
                "accepted for compatibility; has no effect (N >= 1)")
    _TORUS = [*_PROBLEM, _THREADS, (["--budget"], "budget", int, None, False, "POINTS",
                                    "enumeration budget override")]
    PINNED = {
        "analyze-polytope": _PROBLEM,
        "check-nondegenerate": [
            *_TORUS,
            (["--x"], "x", None, None, False, None, "specialization point, e.g. 0,2"),
            (["--depth"], "depth", int, None, False, "K", "search extensions up to degree K"),
        ],
        "expsum": [
            *_TORUS,
            (["--k"], "k", int, 1, False, None, "extension degree"),
            (["--tau"], "tau", None, None, True, None, "twist, e.g. 3 or 1:2"),
            (["--x"], "x", None, None, False, None, "specialization point"),
            (["--psi-power"], "psi_power", int, 1, False, None,
             "replace psi by its a-th power"),
        ],
        "frobenius": [*_TORUS, (["--tau"], "tau", None, None, True, None, None),
                      (["--x"], "x", None, None, False, None, None)],
        "l-function": [
            *_TORUS,
            (["--x"], "x", None, None, False, None, None),
            (["--kmax"], "kmax", int, None, False, None,
             "number of trace sums to reconstruct from"),
        ],
        "verify-connection": [_HELP, ([], "connection", None, None, True, None,
                                      "connection JSON file"), _JSON],
        "verify-fts": [_HELP, ([], "tuple", None, None, True, None, "tuple JSON file"), _JSON],
        "monodromy": [_HELP, ([], "matrix", None, None, True, None, "matrix JSON file"), _JSON],
        "acceptance": [_HELP, _JSON, _THREADS],
    }

    def test_every_action_is_pinned(self):
        assert list(cli._SUBCOMMANDS) == list(self.PINNED)
        for name, want in self.PINNED.items():
            got = [(a.option_strings, a.dest, a.type, a.default, a.required, a.metavar, a.help)
                   for a in self.actions(name)]
            assert got == want, name


class TestReadmeTranscripts:
    """README's `$ arith-lg ... kloosterman.json` transcripts, run on the
    problem file README shows; `...` in a transcript matches anything."""

    README = (ROOT / "README.md").read_text()
    TRANSCRIPTS = [block for block in README.split("```text\n")[1:]
                   if block.startswith("$ arith-lg ")
                   and block.split("\n", 1)[0].split()[3] == "kloosterman.json"]

    def test_the_three_transcripts_are_found(self):
        assert [block.split("\n", 1)[0].split()[2] for block in self.TRANSCRIPTS] == [
            "analyze-polytope", "expsum", "frobenius"]

    @pytest.mark.parametrize("block", TRANSCRIPTS, ids=lambda b: b.split()[2])
    def test_output_matches(self, block, tmp_path, monkeypatch, capsys):
        problem = self.README.split("```json\n", 1)[1].split("```", 1)[0]
        (tmp_path / "kloosterman.json").write_text(problem)
        monkeypatch.chdir(tmp_path)
        command, want = block.split("```", 1)[0].split("\n", 1)
        assert main(command.split()[2:]) == 0
        got = capsys.readouterr().out
        assert doctest.OutputChecker().check_output(want, got, doctest.ELLIPSIS), got

class TestGeneratedAt:
    """The --json stamp is datetime.now(timezone.utc).isoformat() without
    datetime: microseconds truncated, and left out when they are 0."""

    @pytest.mark.parametrize("s", [0, 59, 86399, 951782400, 1700000000,
                                   4102444799, -1])
    @pytest.mark.parametrize("us", [0, 1, 500000, 999999])
    def test_matches_isoformat(self, s, us):
        want = datetime.fromtimestamp(s, timezone.utc).replace(microsecond=us)
        for sub_us in (0, 999):  # nanoseconds below a microsecond are dropped
            got = cli._utc_stamp(s * 10**9 + us * 1000 + sub_us)
            assert got == want.isoformat()
            assert datetime.fromisoformat(got) == want

    def test_document_stamp_is_now(self, files, capsys):
        before = datetime.now(timezone.utc).replace(microsecond=0)
        code, doc = run_json(capsys, "monodromy", files["jordan3"])
        after = datetime.now(timezone.utc)
        assert code == 0
        assert before <= datetime.fromisoformat(doc["generated_at"]) <= after


class TestAcceptanceCommand:
    def fake_results(self, all_ok):
        mk = acceptance.CriterionResult
        return [mk(1, "first", True, "fine", 0.01, {}),
                mk(2, "second", all_ok, "detail", 0.02, {})]

    def test_renders_pass_fail_lines(self, capsys, monkeypatch):
        monkeypatch.setattr(acceptance, "run_all",
                            lambda: self.fake_results(False))
        code, out = run(capsys, "acceptance")
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("PASS") and "first" in lines[0]
        assert lines[1].startswith("FAIL") and "second" in lines[1]
        assert "FAILED" in lines[-1]

    @pytest.mark.parametrize("threads,code", [("2", 0), ("0", 2)])
    def test_threads_still_parse(self, capsys, monkeypatch, threads, code):
        # --threads has no effect, but existing invocations pass it
        monkeypatch.setattr(acceptance, "run_all",
                            lambda: self.fake_results(True))
        assert run(capsys, "acceptance", "--threads", threads)[0] == code

    def test_all_ok_exits_zero(self, capsys, monkeypatch):
        monkeypatch.setattr(acceptance, "run_all",
                            lambda: self.fake_results(True))
        code, doc = run_json(capsys, "acceptance")
        assert code == 0
        assert doc["all_ok"] is True
        assert [c["name"] for c in doc["criteria"]] == ["first", "second"]


class TestExactDataAreStrings:
    """Every --json document carries exact data as decimal strings.

    The only plain JSON integers allowed are the exponents inside the
    "deg" map of a polynomial term, which are structural.
    """

    def criteria(self):
        return (lambda: acceptance.CriterionResult(1, "first", True, "fine",
                                                   0.01, {}),)

    def ints(self, doc, path="$"):
        if isinstance(doc, dict):
            for k, v in doc.items():
                if k == "deg" and all(type(e) is int for e in v.values()):
                    continue
                yield from self.ints(v, f"{path}.{k}")
        elif isinstance(doc, list):
            for i, v in enumerate(doc):
                yield from self.ints(v, f"{path}[{i}]")
        elif isinstance(doc, int) and not isinstance(doc, bool):
            yield path

    @pytest.mark.parametrize("argv", [
        ["analyze-polytope", "k5"],
        ["check-nondegenerate", "k5"],
        ["check-nondegenerate", "deg3"],
        ["expsum", "k5", "--tau", "1"],
        ["expsum", "k5", "--k", "2", "--tau", "1:2"],
        ["frobenius", "k5", "--tau", "1"],
        ["l-function", "k3", "--kmax", "8"],
        ["verify-connection", "flat"],
        ["verify-connection", "curved"],
        ["verify-fts", "fts_ok"],
        ["monodromy", "jordan3"],
        ["acceptance"],
    ], ids=lambda a: "-".join(a[:2]))
    def test_no_plain_integers(self, files, capsys, monkeypatch, argv):
        monkeypatch.setattr(acceptance, "CRITERIA", self.criteria())
        args = [files.get(a, a) for a in argv]
        _, doc = run_json(capsys, *args)
        assert "error" not in doc
        assert list(self.ints(doc)) == []
