"""Byte-exact `--json` documents of the exact commands.

The files under tests/golden/ are the canonical documents (the report
without its generated_at stamp, dumped as the CLI dumps it) that
`verify-fts`, `verify-connection` and `monodromy` printed on the
test_cli fixtures, and on one connection whose Higgs field and R_0
are rational in x1 with non-integer coefficients, before polynomials and
the monodromy filtration moved to integer coefficients.  A change of
representation must leave every byte of them alone.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from arith_lg.cli import main
from test_cli import FLAT_CONN, IRREGULAR_INF_CONN, JORDAN3, LOG_CONN, fts_tuple

GOLDEN = Path(__file__).resolve().parent / "golden"

# d(1 / (t h)) with h = 3/2 x1 + 2: flat, Poincare rank 1, Phi = -(3/2) / h^2
# and R_0 = -1 / h printed as num/den pairs, logarithmic at t = oo
H_T2 = [{"c": "3/2", "deg": {"t": 2, "x1": 1}}, {"c": "2", "deg": {"t": 2}}]
T_H2 = [{"c": "9/4", "deg": {"t": 1, "x1": 2}}, {"c": "6", "deg": {"t": 1, "x1": 1}},
        {"c": "4", "deg": {"t": 1}}]
RATIONAL_HIGGS_CONN = {
    "m": 1, "size": 1,
    "dt": [[{"num": [{"c": "-1"}], "den": H_T2}]],
    "dx": [[[{"num": [{"c": "-3/2"}], "den": T_H2}]]],
}

CASES = {
    "verify-fts.fts_ok": ("verify-fts", fts_tuple("1"), 0),
    "verify-fts.fts_bad": ("verify-fts", fts_tuple("2"), 1),
    "verify-connection.flat": ("verify-connection", FLAT_CONN, 0),
    "verify-connection.log": ("verify-connection", LOG_CONN, 0),
    "verify-connection.irregular_inf": ("verify-connection", IRREGULAR_INF_CONN, 0),
    "verify-connection.rational_higgs": ("verify-connection", RATIONAL_HIGGS_CONN, 0),
    "monodromy.jordan3": ("monodromy", JORDAN3, 0),
}


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_document_is_byte_identical(name, tmp_path, capsys):
    command, problem, code = CASES[name]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main([command, str(path), "--json"]) == code
    doc = json.loads(capsys.readouterr().out)
    del doc["generated_at"]
    got = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert got == (GOLDEN / f"{name}.json").read_text()
