"""Acceptance gate.

Runs every acceptance criterion once (module scope, the full sweep takes
about half a minute) and exposes each as its own test so a verbose run
prints one pass or fail line per criterion.  Each test also echoes the
criterion's own details string, which names the frozen values it checked.
"""

import pytest

from arith_lg import acceptance, exactla, frobdata
from arith_lg.acceptance import CRITERIA, run_all

NAMES = (
    "kloosterman-purity",
    "rank-equals-normalized-volume",
    "duality-pairing",
    "l-function-euler-characteristic",
    "coefficient-map-factorization",
    "purity-bound-sweep",
    "six-condition-equivalence",
    "weight-filtration-oracle",
    "determinism-across-processes",
)

# the whole gate must stay comfortably interactive
TOTAL_BUDGET_SECONDS = 120.0


@pytest.fixture(scope="module")
def results():
    return run_all()


def _line(r):
    status = "PASS" if r.ok else "FAIL"
    return (f"{status}  criterion {r.number}  {r.name}  "
            f"({r.elapsed:.3f} s)  {r.details}")


@pytest.mark.parametrize("idx", range(len(CRITERIA)),
                         ids=[f"{i + 1}-{n}" for i, n in enumerate(NAMES)])
def test_criterion(results, idx):
    r = results[idx]
    print(_line(r))
    assert r.number == idx + 1
    assert r.name == NAMES[idx]
    assert r.ok, _line(r)


def test_total_runtime(results):
    total = sum(r.elapsed for r in results)
    print(f"total acceptance runtime {total:.3f} s "
          f"(budget {TOTAL_BUDGET_SECONDS:.0f} s)")
    assert total < TOTAL_BUDGET_SECONDS


@pytest.mark.parametrize("child,failed", [
    ("import json; print(json.dumps(['{}'] * 6))", "kloosterman_purity byte-identical"),
    ("print('[]')", "bound_sweep byte-identical"),
    ("raise SystemExit(3)", "fresh interpreter exited 3"),
], ids=["other-payloads", "no-payloads", "child-fails"])
def test_determinism_sees_the_other_process(monkeypatch, child, failed):
    # criterion 9 compares with what the fresh interpreter printed
    monkeypatch.setattr(acceptance, "_CHILD", child)
    r = acceptance.criterion_9()
    assert not r.ok
    assert failed in r.details


def test_weight_filtration_oracle_catches_a_kernel_fault(monkeypatch):
    # every level basis the filtration makes comes out doubled, so no
    # longer the RREF; the filtration's own re-verification runs before
    # `_fractions` and cannot see it, so criterion 8's oracle must
    real = exactla._fractions

    def doubled(rows, pivots):
        return tuple(tuple(2 * x for x in row) for row in real(rows, pivots))

    monkeypatch.setattr(exactla, "_fractions", doubled)
    monkeypatch.setattr(frobdata, "_fractions", doubled)  # bound by name there
    r = acceptance.criterion_8()
    assert not r.ok
    assert "494 mismatches" in r.details
    assert r.payload["mismatches"] == r.payload["tested"] == 494
